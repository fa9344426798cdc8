"""Exact reference solver and optimality verification.

The solver enumerates configurations branch-and-bound style (points in
latency order, bounded by a padded longest-path lower bound) and decides
floorplan feasibility by exhaustive group-to-slot assignment.  It is meant
for desk-scale instances only and guards itself accordingly.

SLL feasibility here is more permissive than the search's: a placement
counts as routable if the pipeliner's half-selection fold (the very check
the search uses) keeps every half within budget, or, failing that, if any
assignment of crossing edges to halves does.  A stricter reference could
only under-report the optimum.
verify_optimal, by contrast, certifies counterexamples against the exact
system semantics (PackState.check_legal), so anything it returns is a
state the search itself would accept as legal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .floorplan import group_resources, ram_groups
from .model import (
    DesignGraph,
    DeviceModel,
    LIMIT_EPS,
    QoRLibrary,
    ResourceVector,
    design_latency,
    fits_within,
)
from .packer import PackState
from .pipeliner import allowed_halves, recompute_all

HARD_GUARD_FUNCTIONS = 12
HARD_GUARD_STATES = 1_000_000_000
DEFAULT_NODE_BUDGET = 1_000_000
DEFAULT_SAMPLE = 2000
DEFAULT_ENUM_CAP = 20_000


class _BudgetExceeded(Exception):
    pass


@dataclass
class OracleResult:
    status: str  # optimal | infeasible | budget_exceeded
    latency: int | None
    config: dict | None
    placement: dict | None
    nodes: int


def _exact_half_assignment(device: DeviceModel, edges: list, y: int) -> bool:
    """True when the crossing edges of boundary y fit some half assignment."""
    boundary = device.boundary(y)
    budget = {x: device.sll_limit * cap + LIMIT_EPS for x, cap in boundary.halves.items()}
    edges = sorted(edges, key=lambda item: -item[0])  # widest first

    def place(i: int, loads: dict) -> bool:
        if i == len(edges):
            return True
        width, allowed = edges[i]
        for x in allowed:
            if loads.get(x, 0) + width <= budget[x]:
                loads[x] = loads.get(x, 0) + width
                if place(i + 1, loads):
                    return True
                loads[x] -= width
        return False

    return place(0, {})


def _sll_feasible(device: DeviceModel, graph: DesignGraph, placement: dict,
                  exact_fallback: bool) -> bool:
    """The pipeliner's fold, optionally retried exhaustively where it overflows."""
    state = recompute_all(device, graph, placement)
    for y in sorted({y for y, _, _, _ in state.over_budget()}):
        if not exact_fallback:
            return False
        crossing = set(state.crossing[y])
        items = [
            (e.width, allowed_halves(device.slot(placement[e.src]).x,
                                     device.slot(placement[e.dst]).x))
            for e in graph.edges if e.index in crossing
        ]
        if not _exact_half_assignment(device, items, y):
            return False
    return True


def assign_slots(device: DeviceModel, graph: DesignGraph, lib: QoRLibrary, config: dict,
                 tick=None, exact_sll: bool = True) -> dict | None:
    """First feasible placement of RAM groups onto slots, or None.

    Groups are placed largest-first; slots are tried in id order, skipping
    capacity-equivalent repeats only via the load check.  ``tick``, when
    given, is called once per explored node (budget accounting).
    """
    groups = ram_groups(graph)
    sizes = {g.gid: group_resources(g, lib, config) for g in groups}
    order = sorted(groups, key=lambda g: (-max(sizes[g.gid].as_tuple()), g.gid))
    slots = sorted(device.slots, key=lambda s: s.id)
    loads = {s.id: ResourceVector.zero() for s in slots}
    chosen: dict[str, int] = {}

    def place(i: int) -> dict | None:
        if tick is not None:
            tick()
        if i == len(order):
            placement = {
                m: chosen[g.gid] for g in groups for m in g.members
            }
            if _sll_feasible(device, graph, placement, exact_fallback=exact_sll):
                return placement
            return None
        g = order[i]
        for s in slots:
            post = loads[s.id] + sizes[g.gid]
            if not fits_within(post, s.capacity, device.util_limit):
                continue
            loads[s.id] = post
            chosen[g.gid] = s.id
            found = place(i + 1)
            if found is not None:
                return found
            loads[s.id] = loads[s.id] - sizes[g.gid]
            del chosen[g.gid]
        return None

    return place(0)


def solve(device: DeviceModel, graph: DesignGraph, lib: QoRLibrary,
          node_budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Exact minimum design latency over configurations and placements.

    Guarded: refuses instances over 12 functions or with a state space past
    the hard cap.  Within the node budget it returns the true optimum with
    a witness (lexicographically smallest configuration among ties); past
    it, the best found so far with status budget_exceeded.
    """
    fns = sorted(graph.functions)
    if len(fns) > HARD_GUARD_FUNCTIONS:
        raise ValueError(f"exact solve limited to {HARD_GUARD_FUNCTIONS} functions, got {len(fns)}")
    groups = ram_groups(graph)
    states = len(device.slots) ** len(groups)
    for f in fns:
        states *= len(lib.template_for(f).points)
        if states > HARD_GUARD_STATES:
            raise ValueError("state space exceeds the hard guard for exact solve")

    min_latency_config = {
        f: min(lib.template_for(f).points, key=lambda p: (p.latency, p.id)).id for f in fns
    }
    spent = 0

    def tick():
        nonlocal spent
        spent += 1
        if spent > node_budget:
            raise _BudgetExceeded

    best: dict = {"latency": None, "config": None, "placement": None}

    def better_tie(cand: dict) -> bool:
        cur = best["config"]
        return cur is None or tuple(cand[f] for f in fns) < tuple(cur[f] for f in fns)

    partial = dict(min_latency_config)

    def descend(i: int):
        tick()
        lb = design_latency(graph, lib, partial)
        if best["latency"] is not None and lb > best["latency"]:
            return
        if i == len(fns):
            if best["latency"] is not None and lb == best["latency"] and not better_tie(partial):
                return
            placement = assign_slots(device, graph, lib, partial, tick=tick)
            if placement is None:
                return
            best.update(latency=lb, config=dict(partial), placement=placement)
            return
        f = fns[i]
        for p in lib.template_for(f).points:
            partial[f] = p.id
            descend(i + 1)
        partial[f] = min_latency_config[f]

    status = "optimal"
    try:
        descend(0)
    except _BudgetExceeded:
        status = "budget_exceeded"

    if best["latency"] is None and status == "optimal":
        status = "infeasible"
    return OracleResult(
        status=status,
        latency=best["latency"],
        config=best["config"],
        placement=best["placement"],
        nodes=spent,
    )


def certify(device: DeviceModel, graph: DesignGraph, lib: QoRLibrary,
            config: dict, placement: dict) -> list[str]:
    """Violations the search's own legality check would report."""
    return PackState(device, graph, lib, config, placement).check_legal()


def verify_optimal(device: DeviceModel, graph: DesignGraph, lib: QoRLibrary,
                   final_latency: int, *, sample: int = DEFAULT_SAMPLE,
                   enum_cap: int = DEFAULT_ENUM_CAP, seed: int = 0) -> dict:
    """Search for a legal configuration strictly faster than a result.

    Enumerates (bounded by ``enum_cap``) every configuration whose design
    latency is below ``final_latency``; feasibility is then checked on all
    of them, or on a seeded uniform sample of ``sample`` when there are
    more.  Any counterexample returned is certified legal under the exact
    system semantics.

    Verdicts: "counterexample" (with the certified witness), "optimal"
    (every faster configuration was enumerated and checked, none legal), or
    "inconclusive" (enumeration hit the cap, or only a sample was checked),
    always with a coverage fraction.
    """
    fns = sorted(graph.functions)
    cap = max(sample, enum_cap)
    min_latency_config = {
        f: min(lib.template_for(f).points, key=lambda p: (p.latency, p.id)).id for f in fns
    }

    rng = random.Random(seed)
    reservoir: list[dict] = []
    total = 0
    partial = dict(min_latency_config)

    def enumerate_configs(i: int) -> bool:
        nonlocal total
        if design_latency(graph, lib, partial) >= final_latency:
            return True
        if i == len(fns):
            total += 1
            if total > cap:
                return False
            if len(reservoir) < sample:
                reservoir.append(dict(partial))
            else:
                j = rng.randrange(total)
                if j < sample:
                    reservoir[j] = dict(partial)
            return True
        f = fns[i]
        for p in lib.template_for(f).points:
            partial[f] = p.id
            if not enumerate_configs(i + 1):
                return False
        partial[f] = min_latency_config[f]
        return True

    enumerate_configs(0)

    checked = 0
    for cand in sorted(reservoir, key=lambda c: design_latency(graph, lib, c)):
        checked += 1
        placement = assign_slots(device, graph, lib, cand, exact_sll=False)
        if placement is None:
            continue
        issues = certify(device, graph, lib, cand, placement)
        if issues:
            continue
        return {
            "verdict": "counterexample",
            "counterexample": {
                "config": cand,
                "placement": placement,
                "latency": design_latency(graph, lib, cand),
            },
            "candidates": total,
            "checked": checked,
            "coverage": checked / total if total else 1.0,
            "final_latency": final_latency,
        }

    # A capped enumeration leaves total at cap + 1, above any sample size.
    verdict = "optimal" if checked == total else "inconclusive"
    return {
        "verdict": verdict,
        "counterexample": None,
        "candidates": total,
        "checked": checked,
        "coverage": (checked / total) if total else 1.0,
        "final_latency": final_latency,
    }
