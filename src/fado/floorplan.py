"""Initial slot assignment.

Functions wired through shared RAM must land on one slot, so the unit of
placement is the RAM-connected group (``DesignGraph.ram_groups``, derived
once per design), sized by ``model.group_sizes``.  Two boot strategies
produce the starting floorplan: recursive min-cut bisection of the slot
grid, and a plain balance-driven fill.  Both place groups largest first,
in the one packing order ``largest_first``, which the exact oracle's slot
assignment shares; min-cut orders its groups once, and each split keeps
that order on both of its sides.

Each side of a split is bounded by what its slots hold together
(``DeviceModel.holds``, the rule of the device-wide bound), so a region is
never given more than its slots can take.  The greedy split compares plain
integer tuples against those whole-unit bounds and carries each side's
load after adding a unit from the fit test into the ratio and the update.

A split of at most ``EXACT_BISECTION_LIMIT`` units is solved exactly by
branch and bound (``_exact_split``).  Its bound: a unit not yet placed will
cut at least the smaller of its FIFO widths toward the units already placed
on either side, so a partial assignment whose cut plus the sum of those
minima exceeds the best cut found cannot lead to a better split.  The bound
prunes only strictly worse nodes, so ties on cut still reach the gap and
vector tie-breaks and the split found is the one exhaustive search finds.
"""

from __future__ import annotations

from operator import add, le, sub

from .model import (
    DesignGraph,
    DeviceModel,
    QoRLibrary,
    ResourceVector,
    group_sizes,
    utilization_ratio,
    within_budget,
)

# Exact bisection is only attempted for this many movable units; beyond it
# (or past the node cap) a greedy split with refinement passes takes over.
EXACT_BISECTION_LIMIT = 20
EXACT_BISECTION_NODE_CAP = 500_000
REFINE_PASSES = 8


class FloorplanError(ValueError):
    """No legal slot assignment under the active limits."""


def largest_first(groups, sizes: dict) -> list:
    """``groups`` in packing order: by the largest single count of their
    ``sizes`` entry, non-increasing, ties by group id."""
    return sorted(groups, key=lambda g: (-max(sizes[g.gid]), g.gid))


def _group_fifo_weights(graph: DesignGraph) -> dict[tuple[str, str], int]:
    """Total FIFO width between each unordered pair of distinct groups."""
    gof = graph.group_of
    weights: dict[tuple[str, str], int] = {}
    for e in graph.fifo_edges():
        ga, gb = gof[e.src].gid, gof[e.dst].gid
        if ga == gb:
            continue
        key = (ga, gb) if ga < gb else (gb, ga)
        weights[key] = weights.get(key, 0) + e.width
    return weights


def _split_region(slots) -> tuple[list, list]:
    ys = sorted({s.y for s in slots})
    if len(ys) > 1:
        lower_rows = set(ys[: len(ys) // 2])
        side_a = [s for s in slots if s.y in lower_rows]
    else:
        xs = sorted({s.x for s in slots})
        left_cols = set(xs[: len(xs) // 2])
        side_a = [s for s in slots if s.x in left_cols]
    side_b = [s for s in slots if s not in side_a]
    return side_a, side_b


def _greedy_split(order, sizes, weights, budget_a, budget_b, cap_a, cap_b):
    """Balance-driven split of the units in ``order``, largest first, with
    cut-reducing refinement passes.

    Returns (assignment dict unit->0/1, cut) or None when even this cannot
    satisfy both budgets.  Loads are plain int tuples checked against the
    budgets (see the module docstring).
    """
    side = {}
    ceilings = (budget_a, budget_b)
    caps = (cap_a, cap_b)
    load = [tuple(ResourceVector.zero())] * 2
    for u in order:
        size = sizes[u]
        choice = None  # (ratio, side, load after) of the emptier side that fits
        for s in (0, 1):
            post = tuple(map(add, load[s], size))
            if all(map(le, post, ceilings[s])):
                ratio = utilization_ratio(post, caps[s])
                if choice is None or ratio < choice[0]:
                    choice = (ratio, s, post)
        if choice is None:
            return None
        _, s, load[s] = choice
        side[u] = s

    # Each unit's (neighbour, FIFO width) pairs, the cut width, and the cut
    # width each unit's move to the other side would save, kept current as
    # units move.
    touching: dict[str, list] = {u: [] for u in order}
    gain = dict.fromkeys(order, 0)
    cut = 0
    for (a, b), w in weights.items():
        touching[a].append((b, w))
        touching[b].append((a, w))
        if side[a] != side[b]:
            cut += w
        else:
            w = -w
        gain[a] += w
        gain[b] += w
    for _ in range(REFINE_PASSES):
        improved = False
        for u in order:
            # most units gain nothing by moving: test the fit only for those that do
            if gain[u] <= 0:
                continue
            s = side[u]
            t = 1 - s
            post = tuple(map(add, load[t], sizes[u]))
            if all(map(le, post, ceilings[t])):
                side[u] = t
                load[s] = tuple(map(sub, load[s], sizes[u]))
                load[t] = post
                cut -= gain[u]
                gain[u] = -gain[u]
                for v, w in touching[u]:
                    gain[v] += 2 * w if side[v] == s else -2 * w
                improved = True
        if not improved:
            break
    return side, cut


class _NodeCap(Exception):
    """The exact split passed ``EXACT_BISECTION_NODE_CAP`` nodes."""


def _exact_split(order, sizes, weights, budget_a, budget_b, cap_a, cap_b):
    """Branch and bound over 2^n unit assignments, minimizing cut width.

    Ties on cut width prefer the smaller utilization gap between the two
    sides, then the lexicographically smallest assignment vector (the sides
    in sorted unit order).  Units are placed as listed in ``order``,
    largest first.  Each unplaced unit's FIFO widths toward the units
    placed on either side are kept current as units are placed and
    removed, and a node is pruned by the bound in the module docstring.
    Returns None when no assignment satisfies both budgets, or when the
    node cap trips (caller falls back to the greedy split).

    When both sides hold the same (equal ``holds`` budgets and equal summed
    capacities), mirroring an assignment keeps its cut and its gap and only
    flips its vector, so of each mirrored pair the one with ``names[0]``
    (the first unit of the vector) on side 0 wins the tie-break: that unit
    is tried on side 0 alone.  The split found is the one the full search
    finds, in fewer nodes, so a split that used to trip the node cap may
    now finish.
    """
    n = len(order)
    at = {u: i for i, u in enumerate(order)}
    ahead: list[list] = [[] for _ in order]  # per position: (later position, FIFO width)
    for (a, b), w in weights.items():
        i, j = sorted((at[a], at[b]))
        ahead[i].append((j, w))
    toward = [[0, 0] for _ in order]  # per position: width to the units placed on side 0, 1
    size = [sizes[u] for u in order]
    budgets = (budget_a, budget_b)
    names = sorted(order)
    vec_at = [at[u] for u in names]
    # per position: the sides tried, side 0 only for names[0] on mirror sides
    sides = [(0, 1)] * n
    if budget_a == budget_b and cap_a == cap_b:
        sides[vec_at[0]] = (0,)
    side = [0] * n
    load = [ResourceVector.zero(), ResourceVector.zero()]
    best = None  # (cut, gap, vec) of the best leaf so far
    nodes = 0

    def dfs(i, cut, bound):
        # ``bound``: the sum over positions i.. of the smaller toward width
        nonlocal nodes, best
        nodes += 1
        if nodes > EXACT_BISECTION_NODE_CAP:
            raise _NodeCap
        if best is not None and cut + bound > best[0]:
            return
        if i == n:
            gap = abs(utilization_ratio(load[0], cap_a) - utilization_ratio(load[1], cap_b))
            key = (cut, gap, tuple(side[p] for p in vec_at))
            if best is None or key < best:
                best = key
            return
        mine = toward[i]
        rest = bound - min(mine)
        for s in sides[i]:
            saved = load[s]
            new_load = saved + size[i]
            if not within_budget(new_load, budgets[s]):
                continue
            side[i] = s
            load[s] = new_load
            child = rest
            for j, w in ahead[i]:
                t = toward[j]
                before = min(t)
                t[s] += w
                child += min(t) - before
            dfs(i + 1, cut + mine[1 - s], child)
            for j, w in ahead[i]:
                toward[j][s] -= w
            load[s] = saved

    try:
        dfs(0, 0, 0)
    except _NodeCap:
        return None
    if best is None:
        return None
    return dict(zip(names, best[2])), best[0]


def _bisect(device, slots, units, sizes, weights, placement):
    """Place ``units``, listed largest first, on ``slots``, keeping that
    order on each side of a split."""
    if len(slots) == 1:
        for u in units:
            placement[u] = slots[0].id
        return
    side_a, side_b = _split_region(slots)
    budget_a, budget_b = device.holds(side_a), device.holds(side_b)
    cap_a = ResourceVector.sum(s.capacity for s in side_a)
    cap_b = ResourceVector.sum(s.capacity for s in side_b)

    members = set(units)
    local = {k: w for k, w in weights.items() if k[0] in members and k[1] in members}
    result = None
    if sum(local.values()) > 0 and len(units) <= EXACT_BISECTION_LIMIT:
        result = _exact_split(units, sizes, local, budget_a, budget_b, cap_a, cap_b)
    if result is None:
        result = _greedy_split(units, sizes, local, budget_a, budget_b, cap_a, cap_b)
    if result is None:
        biggest = max(units, key=lambda u: (max(sizes[u]), u))
        raise FloorplanError(
            f"group {biggest!r} cannot be placed: no split of {len(units)} groups fits"
        )
    side, _ = result
    _bisect(device, side_a, [u for u in units if side[u] == 0], sizes, weights, placement)
    _bisect(device, side_b, [u for u in units if side[u] == 1], sizes, weights, placement)


def min_cut_initial(
    device: DeviceModel, graph: DesignGraph, lib: QoRLibrary, config: dict
) -> dict[str, int]:
    """Recursive min-cut bisection of the slot grid, rows before columns.

    Minimizes FIFO width crossing each split while keeping both sides within
    the utilization limit; raises ``FloorplanError`` when some split cannot.
    """
    sizes = group_sizes(graph, lib, config)
    weights = _group_fifo_weights(graph)
    unit_ids = [g.gid for g in largest_first(graph.ram_groups, sizes)]

    placement_g: dict[str, int] = {}
    slots = sorted(device.slots, key=lambda s: (s.y, s.x))
    _bisect(device, slots, unit_ids, sizes, weights, placement_g)

    gof = graph.group_of
    return {f: placement_g[gof[f].gid] for f in graph.functions}


def balanced_initial(
    device: DeviceModel, graph: DesignGraph, lib: QoRLibrary, config: dict
) -> dict[str, int]:
    """Largest groups first, each to the least-utilized slot that fits
    within the utilization limit; raises ``FloorplanError`` when a group
    fits no slot."""
    sizes = group_sizes(graph, lib, config)
    load = {s.id: ResourceVector.zero() for s in device.slots}
    out: dict[str, int] = {}
    for g in largest_first(graph.ram_groups, sizes):
        choices = []
        for s in device.slots:
            new = load[s.id] + sizes[g.gid]
            if within_budget(new, device.slot_budget[s.id]):
                choices.append((utilization_ratio(load[s.id], s.capacity), s.id))
        if not choices:
            raise FloorplanError(
                f"group {g.gid!r} does not fit on any slot at limit {device.util_limit:.2f}"
            )
        sid = min(choices)[1]
        load[sid] = load[sid] + sizes[g.gid]
        for m in g.members:
            out[m] = sid
    return out
