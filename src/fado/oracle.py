"""Exact reference solver and optimality verification.

The solver is one depth-first walk over configurations, branch and bound:
functions in name order, each one's points in latency order, every node
bounded below by its design latency with the functions not yet chosen at
their fastest points.  A full configuration that survives the bound is
placed by exhaustive group-to-slot assignment.  The node budget is the
only bound on a solve: past it the answer is ``budget_exceeded``, whatever
the instance's size.  Verification is the same solve under a latency
bound: ``verify_optimal`` prunes every node not faster than the result it
checks, so any witness it returns is a legal configuration faster than
that result, and the fastest one when the search finishes within its
budget.

A placement counts as routable only when the pipeliner's half-selection
fold, the one wire rule the search and ``fado check`` apply, keeps every
die-boundary half within budget.  So every witness ``solve`` or
``verify_optimal`` returns is a state the search itself would accept as
legal (``PackState.check_legal``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .floorplan import largest_first
from .model import (
    DesignGraph,
    DeviceModel,
    QoRLibrary,
    ResourceVector,
    design_latency,
    function_latencies,
    group_sizes,
    kernel_weight,
    longest_path,
    within_budget,
)
from .packer import PackState
from .pipeliner import recompute_all

DEFAULT_NODE_BUDGET = 1_000_000


class _Stop(Exception):
    """Ends a configuration walk early: the node budget ran out."""


@dataclass
class OracleResult:
    status: str  # optimal | infeasible | budget_exceeded
    latency: int | None
    config: dict | None
    placement: dict | None
    nodes: int
    candidates: int  # full configurations reached
    checked: int  # configurations whose placement was searched


def assign_slots(device: DeviceModel, graph: DesignGraph, lib: QoRLibrary, config: dict,
                 tick=None) -> dict | None:
    """First feasible placement of RAM groups onto slots, or None.

    The groups are ``graph.ram_groups``, derived once per design for every
    configuration assigned.  Groups are placed largest first
    (``floorplan.largest_first``); each group tries every slot in id order
    that its size fits within budget, equal-capacity slots included.  A
    full placement is accepted only when the pipeliner's fold leaves no
    half over budget, asked as the search asks it
    (``SllState.feasible``, which folds only the boundaries its bounds
    leave in doubt).  ``tick``, when given, is called once per explored
    node (budget accounting).
    """
    groups = graph.ram_groups
    sizes = group_sizes(graph, lib, config)
    order = largest_first(groups, sizes)
    budget = device.slot_budget
    loads = {s.id: ResourceVector.zero() for s in device.slots}
    chosen: dict[str, int] = {}

    def place(i: int) -> dict | None:
        if tick is not None:
            tick()
        if i == len(order):
            placement = {
                m: chosen[g.gid] for g in groups for m in g.members
            }
            if not recompute_all(device, graph, placement).feasible():
                return None
            return placement
        g = order[i]
        for s in device.slots:  # in id order: parsing sorts them
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


def solve(device: DeviceModel, graph: DesignGraph, lib: QoRLibrary,
          node_budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Exact minimum design latency over configurations and placements.

    Every configuration node and every slot-assignment node counts against
    ``node_budget``, the only bound on the run.  Within it the result is
    the true optimum with a witness (lexicographically smallest
    configuration among ties), or infeasible; past it, the best found so
    far with status budget_exceeded.
    """
    return _search(device, graph, lib, node_budget, math.inf)


def _search(device: DeviceModel, graph: DesignGraph, lib: QoRLibrary,
            node_budget: int, below: float) -> OracleResult:
    """``solve``'s branch and bound, pruning every node whose lower bound is
    not below ``below`` (``math.inf`` prunes none).

    ``verify_optimal`` calls this rather than ``solve``, so a span wrapped
    around either public name times and counts only its own command's search.
    """
    fns = sorted(graph.functions)
    points = [lib.template_for(f).points for f in fns]
    partial = {f: pts[0].id for f, pts in zip(fns, points)}  # parsing sorts by latency
    latency = function_latencies(graph, lib, partial)  # kept equal to partial's
    # A child differs from its node in one function's latency, so it
    # re-weighs that function's kernel alone, and where the weight changes
    # the longest-path walk restarts there, into the child depth's own
    # path lengths.
    plan, kernel_at = graph.latency_plan, graph.kernel_at
    weights = [kernel_weight(members, latency) for members, _, _ in plan]
    dists = [[0] * len(plan) for _ in range(len(fns) + 1)]  # one per depth
    spent = candidates = checked = 0
    best_latency = best_config = best_placement = None

    def tick():
        nonlocal spent
        spent += 1
        if spent > node_budget:
            raise _Stop

    def descend(i: int, lb: int, dist: list) -> None:
        """The node where ``fns[:i]`` are chosen in ``partial`` and the rest
        sit at their fastest points, with design latency ``lb`` and kernel
        path lengths ``dist``; ``i == len(fns)`` is a full configuration."""
        nonlocal candidates, checked, best_latency, best_config, best_placement
        tick()
        if (best_latency is not None and lb > best_latency) or lb >= below:
            return
        if i == len(fns):
            candidates += 1
            # a tie replaces the witness only with a lexicographically smaller one
            if lb == best_latency and [partial[f] for f in fns] >= [best_config[f] for f in fns]:
                return
            checked += 1
            placement = assign_slots(device, graph, lib, partial, tick=tick)
            if placement is not None:
                best_latency, best_config, best_placement = lb, dict(partial), placement
            return
        f = fns[i]
        k = kernel_at[f]
        members, child = plan[k][0], dists[i + 1]
        kept = partial[f], latency[f], weights[k]
        for p in points[i]:
            partial[f], latency[f] = p.id, p.latency
            weights[k] = kernel_weight(members, latency)
            if weights[k] == kept[2]:
                descend(i + 1, lb, dist)
            else:
                child[:k] = dist[:k]
                descend(i + 1, longest_path(plan, weights, child, k), child)
        partial[f], latency[f], weights[k] = kept

    try:
        descend(0, longest_path(plan, weights, dists[0]), dists[0])
        status = "infeasible" if best_latency is None else "optimal"
    except _Stop:
        status = "budget_exceeded"
    return OracleResult(
        status=status,
        latency=best_latency,
        config=best_config,
        placement=best_placement,
        nodes=spent,
        candidates=candidates,
        checked=checked,
    )


def certify(device: DeviceModel, graph: DesignGraph, lib: QoRLibrary,
            config: dict, placement: dict) -> list[str]:
    """Violations the search's own legality check would report."""
    return PackState(device, graph, lib, config, placement).check_legal()


def verify_optimal(device: DeviceModel, graph: DesignGraph, lib: QoRLibrary,
                   final_latency: int, node_budget: int = DEFAULT_NODE_BUDGET) -> dict:
    """Search for a legal configuration strictly faster than a result.

    This is ``solve`` bounded below ``final_latency``.  Verdicts:
    "counterexample" with the fastest witness the walk found, certified
    legal; "optimal" when the walk finished without one, so no legal
    configuration is faster; "inconclusive" when the node budget ran out
    first.  ``candidates`` counts the configurations reached below the
    bound, ``checked`` those whose placement was searched.
    """
    res = _search(device, graph, lib, node_budget, final_latency)
    counterexample = None
    if res.config is not None:
        problems = certify(device, graph, lib, res.config, res.placement)
        if problems:
            raise RuntimeError(f"oracle witness fails the legality check: {problems}")
        counterexample = {
            "config": res.config,
            "placement": res.placement,
            "latency": design_latency(graph, lib, res.config),
        }
        verdict = "counterexample"
    else:
        verdict = "inconclusive" if res.status == "budget_exceeded" else "optimal"
    return {
        "verdict": verdict,
        "counterexample": counterexample,
        "candidates": res.candidates,
        "checked": res.checked,
        "nodes": res.nodes,
        "final_latency": final_latency,
    }
