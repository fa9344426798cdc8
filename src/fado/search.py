"""Bottleneck-driven co-search over QoR points and slot assignments.

Each iteration retargets the current latency bottleneck (all non-excluded
functions tied at the maximum latency) to its descent point DP: the slowest
point strictly faster than the second latency level, so one acceptance
hands the bottleneck role to a different function.  An iteration tries one
ordered stream of target vectors (``_candidates``) until one packs: the DP
vector, at most N look-ahead vectors below DP, then every look-back vector
between DP and the current latency.

A batch is worked per template.  Its members are instances of few HLS
templates (on the bench, one per batch), and members of one template share
the DP, both windows and the point at every attempt, so the batch is split
by template once per iteration (``split_batch``) and each template takes one
DP and builds each window once.  The stream screens each vector against the
device-wide bound (``DeviceModel.device_bound``, what the slots hold
together), so one that no floorplan can hold is neither built nor packed:
its demand, its points' resources once per member, must fit the batch's
room (``_room``), the bound less the device total plus the batch's current
resources.  The room is taken once per iteration: until a vector is
applied, repacks only move groups and failed packs roll back.  Only online
packing and acceptance visit the members one at a time.

A vector the screen passes is packed online; if that fails, any but a
look-back vector repacks offline and, when the repack moved something,
retries online packing (which is deterministic, so on an unchanged state
it would fail again).  A batch that no vector legalizes is excluded from
future selection; the search stops when nothing is left to select.

Selection reads latency levels kept current as the search goes: the
active functions grouped by latency, with the occupied levels sorted.  Only
an accepted vector moves functions between levels and only an exclusion
removes them, so an iteration takes its bottleneck and L2 from the top two
levels without a scan over every function.  The design latency is kept
the same way, as each kernel's weight (its functions' largest latency) and
longest path over the graph's ``latency_plan``.  An accepted vector
re-weighs only its functions' kernels, and ``model.longest_path`` walks
the plan again only from the first kernel whose weight changed, or not at
all when none did.  The walk goes one chain run at a time, so on designs
whose kernels form long chains the kernels after a change cost one running
sum per run rather than one step each.
"""

from __future__ import annotations

import logging
import time
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, field
from operator import sub

from .floorplan import FloorplanError, balanced_initial, min_cut_initial
from .model import (
    DesignGraph,
    DeviceModel,
    QoRLibrary,
    ResourceVector,
    baseline_configuration,
    design_latency,
    function_latencies,
    kernel_weight,
    longest_path,
    within_budget,
)
from .packer import PackState, offline_repack, online_pack

log = logging.getLogger(__name__)

DEFAULT_LOOKAHEAD_N = 8

STAGE_ONLINE = "online"
STAGE_OFFLINE = "offline"
STAGE_LOOK_AHEAD = "look_ahead"
STAGE_LOOK_BACK = "look_back"
STAGE_EXCLUDED = "excluded"


def _floor_log2(v: int) -> int:
    return max(0, int(v).bit_length() - 1)


def compute_lookahead_N(lib: QoRLibrary, graph: DesignGraph, mode: str = "min") -> int:
    """Look-ahead window size from loop structure.

    Sums floor(log2(min(64, value))) over the innermost levels of each nest,
    taking the max across all nests of all templates in use, in three
    tiers: the first three levels' iteration latencies, the first three
    levels' loop bounds, then the first two levels' loop bounds again.
    Mode "min" caps the levels considered per nest at those counts; "max"
    takes every level of the nest in every tier.  Designs without loop data
    fall back to a fixed default.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"lookahead mode must be 'min' or 'max', got {mode!r}")
    nests = []
    for tname in sorted({lib.template_of[f] for f in graph.functions}):
        nests.extend(lib.templates[tname].nests())
    if not nests:
        return DEFAULT_LOOKAHEAD_N

    def tier(levels: int, value) -> int:
        best = 0
        for nest in nests:
            take = nest if mode == "max" else nest[:levels]
            best = max(best, sum(_floor_log2(min(64, value(l))) for l in take))
        return best

    return (
        tier(3, lambda l: l.iter_latency)
        + tier(3, lambda l: l.bound)
        + tier(2, lambda l: l.bound)
    )


class _Levels:
    """The active (not yet excluded) functions grouped by latency level,
    kept current as vectors are accepted and batches excluded, so that
    selecting the bottleneck reads the top two levels instead of scanning
    every function."""

    def __init__(self, latencies: dict):
        self.members: dict[int, set] = {}
        for f, lat in latencies.items():
            self.members.setdefault(lat, set()).add(f)
        self.tiers = sorted(self.members)  # the occupied levels, ascending

    def select(self):
        """(L1, batch, L2), or None when every function is excluded.

        batch = every active function at the maximum latency L1; L2 = the
        largest active latency strictly below L1 (0 when the batch is all
        that's left).
        """
        tiers = self.tiers
        if not tiers:
            return None
        l1 = tiers[-1]
        return l1, sorted(self.members[l1]), tiers[-2] if len(tiers) > 1 else 0

    def remove(self, f: str, lat: int) -> None:
        fns = self.members[lat]
        fns.remove(f)
        if not fns:
            del self.members[lat]
            del self.tiers[bisect_left(self.tiers, lat)]

    def add(self, f: str, lat: int) -> None:
        if lat not in self.members:
            self.members[lat] = set()
            insort(self.tiers, lat)
        self.members[lat].add(f)


def prune(template, l2: int):
    """DP for one template of the bottleneck batch, or None when DS is empty.

    DS is the points strictly faster than L2, latency ascending; DP is its
    last element, the slowest of them.
    """
    dp = None
    for p in template.points:
        if p.latency >= l2:
            break
        dp = p
    return dp


@dataclass
class TraceRow:
    iteration: int
    l1: int
    l2: int
    batch: list
    stage: str
    accepted: dict
    design_latency: int
    max_util: float
    max_sll_util: float
    moves: list = field(default_factory=list)
    legalize_seconds: float = 0.0


@dataclass
class SearchResult:
    design_latency: int
    baseline_latency: int
    config: dict
    placement: dict
    initial_placement: dict
    excluded: list
    iterations: int
    trace: list
    state: PackState
    lookahead_n: int
    cap_reached: bool = False


def split_batch(lib: QoRLibrary, batch: list) -> list:
    """The batch by template: (template, members) pairs, the templates in
    the order they first appear in the batch and each one's members in
    batch order.  A batch of one template, the common case, is checked
    for first and kept whole."""
    template_of = lib.template_of
    first = template_of[batch[0]]
    for f in batch:
        if template_of[f] != first:
            break
    else:
        return [(lib.templates[first], batch)]
    shares: dict[str, list] = {}
    for f in batch:
        shares.setdefault(template_of[f], []).append(f)
    return [(lib.templates[t], fns) for t, fns in shares.items()]


def _room(state: PackState, split: list) -> tuple:
    """Per kind, how much a target vector over the batch may ask for: the
    device's ``device_bound`` less its total load, plus the batch's current
    resources, which the vector replaces.  ``split`` is the batch by
    template: the members of one template at one point count that point's
    resources once each, as one ``scaled`` vector."""
    config = state.config
    rest = ResourceVector.sum(state.slot_load.values())
    for template, fns in split:
        if len(fns) == 1:
            rest = rest - template.by_id[config[fns[0]]].resources
            continue
        for pid, k in Counter(map(config.__getitem__, fns)).items():
            rest = rest - template.by_id[pid].resources.scaled(k)
    return tuple(map(sub, state.device.device_bound, rest))


def _vector(batch: list, split: list, points: list) -> dict:
    """The target vector over ``batch`` that puts each template's members
    at its point in ``points``, keyed in batch order."""
    if len(split) == 1:
        return dict.fromkeys(batch, points[0].id)
    vec = dict.fromkeys(batch)
    for (_, fns), p in zip(split, points):
        vec.update(dict.fromkeys(fns, p.id))
    return vec


def _lockstep(alts: list, dps: list, limit: int):
    """Lockstep point choices, one per template: attempt k pairs each
    template with its k-th alternative, falling back to its DP when its
    list runs dry."""
    for k in range(limit):
        if all(k >= len(a) for a in alts):
            return
        yield [a[k] if k < len(a) else dp for a, dp in zip(alts, dps)]


def _candidates(batch: list, split: list, dps: list, l1: int, n: int, room: tuple):
    """An iteration's target vectors in the order they are tried, as
    ``(stage, vector, may_repack)``, each only when its demand is within
    ``room`` (see ``_room``); the DP vector's stage is None, to be named by
    the packing that places it.  ``dps`` holds each template's DP, in
    ``split`` order.  Lazy: a window is built only once every vector before
    it has failed or been screened out, and once per template, since its
    members share every point they are tried at."""

    def screened(stage, choices, may_repack):
        for points in choices:  # demand: each point's resources once per member
            demand = (points[0].resources.scaled(len(batch)) if len(split) == 1 else
                      ResourceVector.sum(p.resources.scaled(len(fns))
                                         for (_, fns), p in zip(split, points)))
            if within_budget(demand, room):
                yield stage, _vector(batch, split, points), may_repack

    yield from screened(None, (dps,), True)
    ahead = [[p for p in t.points if p.latency < dp.latency][::-1]
             for (t, _), dp in zip(split, dps)]
    yield from screened(STAGE_LOOK_AHEAD, _lockstep(ahead, dps, n), True)
    back = [[p for p in t.points if dp.latency < p.latency < l1]
            for (t, _), dp in zip(split, dps)]
    yield from screened(STAGE_LOOK_BACK, _lockstep(back, dps, max(map(len, back))), False)


def _attempt(state: PackState, vec: dict, moves: list, allow_moves: bool,
             repack: bool) -> str | None:
    """The stage that packed ``vec``, online or offline, or None; every move
    made is kept in ``moves``.  The offline repack and the online retry
    after it run only when both ``repack`` and ``allow_moves`` hold."""
    ok, m = online_pack(state, vec, allow_moves=allow_moves)
    if ok:
        moves.extend(m)
        return STAGE_ONLINE
    if not (repack and allow_moves):
        return None
    repacked = offline_repack(state)
    moves.extend(repacked)
    if repacked:
        ok, m = online_pack(state, vec)
        if ok:
            moves.extend(m)
            return STAGE_OFFLINE
    return None


def run(
    device: DeviceModel,
    graph: DesignGraph,
    lib: QoRLibrary,
    *,
    initial: str = "mincut",
    freeze_floorplan: bool = False,
    lookahead_n: int | None = None,
    lookahead_mode: str = "min",
    iter_cap: int | None = None,
    on_iteration=None,
) -> SearchResult:
    config = baseline_configuration(graph)
    baseline_lat = design_latency(graph, lib, config)

    if initial == "mincut":
        placement = min_cut_initial(device, graph, lib, config)
    elif initial == "balanced":
        placement = balanced_initial(device, graph, lib, config)
    else:
        raise ValueError(f"unknown initial floorplan strategy {initial!r}")

    state = PackState(device, graph, lib, config, placement)
    # A boundary over its wire budget fails every trial until it is fixed,
    # and in-place point changes never touch wires, so it would survive.
    issues = state.check_legal()
    if issues:
        raise FloorplanError("initial floorplan illegal: " + "; ".join(issues))

    n = lookahead_n if lookahead_n is not None else compute_lookahead_N(lib, graph, lookahead_mode)
    cap = iter_cap if iter_cap is not None else 10 * len(graph.functions)

    initial_placement = dict(placement)
    # Only an accepted target vector changes the configuration, so the map
    # and its levels are kept current from those alone.  So are the kernel
    # weights and path lengths behind the design latency each trace row
    # reports: an accepted vector re-weighs only its functions' kernels,
    # and the longest-path walk restarts at the first kernel that changed.
    latencies = function_latencies(graph, lib, state.config)
    levels = _Levels(latencies)
    plan, kernel_at = graph.latency_plan, graph.kernel_at
    weights = [kernel_weight(members, latencies) for members, _, _ in plan]
    dist = [0] * len(plan)
    current_lat = longest_path(plan, weights, dist)
    excluded: set = set()
    trace: list[TraceRow] = []
    it = 0
    cap_reached = False

    while True:
        sel = levels.select()
        if sel is None:
            break
        if it >= cap:
            cap_reached = True
            log.warning("iteration cap %d reached with functions still selectable", cap)
            break
        it += 1
        l1, batch, l2 = sel

        split = split_batch(lib, batch)
        dps = [prune(t, l2) for t, _ in split]

        moves: list = []
        stage, accepted = STAGE_EXCLUDED, {}
        t_legalize = time.perf_counter()
        if None not in dps:
            room = _room(state, split)
            for named, vec, may_repack in _candidates(batch, split, dps, l1, n, room):
                packed = _attempt(state, vec, moves, not freeze_floorplan, may_repack)
                if packed is not None:
                    stage, accepted = named or packed, vec
                    break
        t_legalize = time.perf_counter() - t_legalize

        if not accepted:
            excluded.update(batch)
            for f in batch:
                levels.remove(f, l1)
        else:
            for f, pid in accepted.items():
                levels.remove(f, latencies[f])
                latencies[f] = lib.point(f, pid).latency
                levels.add(f, latencies[f])
            changed = []
            for i in {kernel_at[f] for f in accepted}:
                weight = kernel_weight(plan[i][0], latencies)
                if weight != weights[i]:
                    weights[i] = weight
                    changed.append(i)
            if changed:
                current_lat = longest_path(plan, weights, dist, min(changed))

        row = TraceRow(
            iteration=it,
            l1=l1,
            l2=l2,
            batch=batch,
            stage=stage,
            accepted=accepted,
            design_latency=current_lat,
            max_util=state.max_utilization(),
            max_sll_util=state.sll.max_utilization(),
            moves=moves,
            legalize_seconds=t_legalize,
        )
        trace.append(row)
        if on_iteration is not None:
            on_iteration(state, row)

    return SearchResult(
        design_latency=current_lat,
        baseline_latency=baseline_lat,
        config=dict(state.config),
        placement=dict(state.placement),
        initial_placement=initial_placement,
        excluded=sorted(excluded),
        iterations=it,
        trace=trace,
        state=state,
        lookahead_n=n,
        cap_reached=cap_reached,
    )
