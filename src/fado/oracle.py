"""Exact reference solver and optimality verification.

The solver enumerates configurations branch-and-bound style (points in
latency order, bounded by a padded longest-path lower bound) and decides
floorplan feasibility by exhaustive group-to-slot assignment.  Its node
budget is the only bound on a solve: past it the answer is
``budget_exceeded``, whatever the instance's size.

A placement counts as routable only when the pipeliner's half-selection
fold, the one wire rule the search and ``fado check`` apply, keeps every
die-boundary half within budget.  So every witness ``solve`` or
``verify_optimal`` returns is a state the search itself would accept as
legal (``PackState.check_legal``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .floorplan import Group, group_resources, ram_groups
from .model import (
    DesignGraph,
    DeviceModel,
    QoRLibrary,
    ResourceVector,
    design_latency,
    fit_budget,
    function_latencies,
    path_latency,
    within_budget,
)
from .packer import PackState
from .pipeliner import recompute_all

DEFAULT_NODE_BUDGET = 1_000_000
DEFAULT_SAMPLE = 2000
DEFAULT_ENUM_CAP = 20_000


class _Stop(Exception):
    """Ends a configuration walk early: a node budget or enumeration cap ran out."""


@dataclass
class OracleResult:
    status: str  # optimal | infeasible | budget_exceeded
    latency: int | None
    config: dict | None
    placement: dict | None
    nodes: int


def assign_slots(device: DeviceModel, graph: DesignGraph, lib: QoRLibrary, config: dict,
                 groups: list[Group], tick=None) -> dict | None:
    """First feasible placement of RAM groups onto slots, or None.

    ``groups`` is ``ram_groups(graph)``, derived once by the caller for
    every configuration it assigns.  Groups are placed largest-first; slots
    are tried in id order, skipping capacity-equivalent repeats only via the
    load check.  A full placement is accepted only when the pipeliner's
    fold leaves no half over budget.  ``tick``, when given, is called once
    per explored node (budget accounting).
    """
    sizes = {g.gid: group_resources(g, lib, config) for g in groups}
    order = sorted(groups, key=lambda g: (-max(sizes[g.gid]), g.gid))
    slots = sorted(device.slots, key=lambda s: s.id)
    budget = {s.id: fit_budget(s.capacity, device.util_limit) for s in slots}
    loads = {s.id: ResourceVector.zero() for s in slots}
    chosen: dict[str, int] = {}

    def place(i: int) -> dict | None:
        if tick is not None:
            tick()
        if i == len(order):
            placement = {
                m: chosen[g.gid] for g in groups for m in g.members
            }
            if recompute_all(device, graph, placement).over_budget():
                return None
            return placement
        g = order[i]
        for s in slots:
            post = loads[s.id] + sizes[g.gid]
            if not within_budget(post, budget[s.id]):
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


def _walk(graph: DesignGraph, lib: QoRLibrary, fns: list, visit) -> None:
    """Depth-first over the configurations of ``fns``, points in latency order.

    ``visit(i, lower_bound, partial)`` is called at every node: ``fns[:i]``
    are chosen in ``partial``, the rest sit at their fastest point, and
    ``lower_bound`` is the design latency of ``partial``.  A false return
    prunes the node's subtree; ``i == len(fns)`` is a full configuration.
    """
    points = [lib.template_for(f).points for f in fns]
    partial = {f: pts[0].id for f, pts in zip(fns, points)}  # parsing sorts by latency
    latency = function_latencies(graph, lib, partial)  # kept equal to partial's

    def descend(i: int) -> None:
        if not visit(i, path_latency(graph, latency), partial) or i == len(fns):
            return
        f = fns[i]
        kept = partial[f], latency[f]
        for p in points[i]:
            partial[f], latency[f] = p.id, p.latency
            descend(i + 1)
        partial[f], latency[f] = kept

    descend(0)


def solve(device: DeviceModel, graph: DesignGraph, lib: QoRLibrary,
          node_budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Exact minimum design latency over configurations and placements.

    Every configuration node and every slot-assignment node counts against
    ``node_budget``, the only bound on the run.  Within it the result is
    the true optimum with a witness (lexicographically smallest
    configuration among ties), or infeasible; past it, the best found so
    far with status budget_exceeded.
    """
    fns = sorted(graph.functions)
    groups = ram_groups(graph)
    spent = 0

    def tick():
        nonlocal spent
        spent += 1
        if spent > node_budget:
            raise _Stop

    best: dict = {"latency": None, "config": None, "placement": None}

    def visit(i: int, lb: int, partial: dict) -> bool:
        tick()
        if best["latency"] is not None and lb > best["latency"]:
            return False
        if i == len(fns):
            # a tie replaces the witness only with a lexicographically smaller one
            tie = lb == best["latency"]
            if tie and [partial[f] for f in fns] >= [best["config"][f] for f in fns]:
                return False
            placement = assign_slots(device, graph, lib, partial, groups, tick=tick)
            if placement is not None:
                best.update(latency=lb, config=dict(partial), placement=placement)
        return True

    try:
        _walk(graph, lib, fns, visit)
        status = "infeasible" if best["latency"] is None else "optimal"
    except _Stop:
        status = "budget_exceeded"
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
    rng = random.Random(seed)
    reservoir: list[tuple[int, dict]] = []  # (design latency, configuration)
    total = 0

    def visit(i: int, lat: int, partial: dict) -> bool:
        nonlocal total
        if lat >= final_latency:
            return False
        if i == len(fns):
            total += 1
            if total > cap:
                raise _Stop
            if len(reservoir) < sample:
                reservoir.append((lat, dict(partial)))
            else:
                j = rng.randrange(total)
                if j < sample:
                    reservoir[j] = (lat, dict(partial))
        return True

    try:
        _walk(graph, lib, fns, visit)
    except _Stop:
        pass

    groups = ram_groups(graph)
    checked = 0
    for _, cand in sorted(reservoir, key=lambda item: item[0]):
        checked += 1
        placement = assign_slots(device, graph, lib, cand, groups)
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
