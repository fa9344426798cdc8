"""Slot-level packing state, legality checks, and the two repair stages.

Online packing is a worst-fit move search triggered when a function's new
QoR point no longer fits its slot: the function's whole RAM group tries
other slots in order of lowest critical-resource ratio.  Offline re-packing
is a best-fit-decreasing compaction that moves groups from less-utilized
slots into fuller ones to open up contiguous headroom, without touching any
chosen point.

No packing can place target points whose total demand exceeds, in some
resource kind, what the slots hold together (``DeviceModel.device_bound``,
the slot-side twin of the wires' reject bound).  The search screens its
vectors against that bound before any packing work, so nothing here checks
it.

Offline re-packing tests only what could move.  It buckets the unpinned
groups by slot once, and gives each source slot a fit floor, the per-kind
minimum of its groups' loads: since destination loads only grow during the
source's turn, a fuller slot that is empty or fails the floor can take none
of them, so the source's groups try only the fuller slots still open, and a
source with none open is skipped (see ``offline_repack``).

A trial costs what it touches.  Slot fit budgets are the device's
(``DeviceModel.slot_budget``) and every RAM group's resource vector is
summed once (``model.group_sizes``) and kept current as points change, so
the fit test and the repack schedule re-sum nothing.  The groups are the
design's (``DesignGraph.ram_groups``, ``group_of``), derived once per
design: a ``PackState`` holds only configuration and placement state.
Resource vectors are tuples in ``RESOURCE_KINDS`` order, so loads, extras
and capacities go to ``within_budget`` and the ratio functions as they
are, with no conversion.

Nothing here validates its inputs again: documents are validated once, when
they are parsed (see ``model``).  Nor does the packer have a zero-capacity
rule of its own: slot ratios (``utilization_ratio``, and ``kind_ratios`` in
``_candidate_slots``) divide directly, and only where some capacity is zero
do they fall back to ``model.kind_ratio``, where that rule lives.

Every trial is decided before it is applied, in one call:
``PackState.trial_move`` asks ``SllState.moved`` for the routing state
after the move, None when some die-boundary half would be over budget.
Only a move that passes is applied, so a refused trial has nothing to put
back; online packing applies the function's new point after the move is
kept.  A failed ``online_pack`` takes back the steps it kept from its own
record.

``PackState.check_legal`` words every legality message in one place: each
slot kind over its budget, each RAM group split across slots, then each
die-boundary half over its wire budget, as ``SllState.over_budget``, the
routing state's one overflow report, lists them.
"""

from __future__ import annotations

from operator import sub

from .model import (
    DesignGraph,
    DeviceModel,
    ModelError,
    QoRLibrary,
    RESOURCE_KINDS,
    ResourceVector,
    group_sizes,
    kind_ratios,
    utilization_ratio,
    within_budget,
)
from .pipeliner import recompute_all


class PackState:
    """Mutable aggregate of configuration, placement, loads, and routing.

    Mutate it only through ``apply_point`` and ``trial_move``: they keep
    ``group_load`` mapping each RAM group id to its members' summed
    resources (see the module docstring), and a kept move replaces ``sll``.
    """

    def __init__(self, device: DeviceModel, graph: DesignGraph, lib: QoRLibrary,
                 config: dict, placement: dict):
        missing = set(graph.functions) - set(placement)
        if missing:
            raise ModelError(f"placement missing functions {sorted(missing)}")
        unknown = set(placement) - set(graph.functions)
        if unknown:
            raise ModelError(f"placement names unknown functions {sorted(unknown)}")
        slot_ids = {s.id for s in device.slots}
        stray = sorted(f for f, sid in placement.items() if sid not in slot_ids)
        if stray:
            raise ModelError(f"placement puts {stray} on slots the device lacks")
        self.device = device
        self.graph = graph
        self.lib = lib
        self.config = dict(config)
        self.placement = dict(placement)
        self.slot_load = {s.id: ResourceVector.zero() for s in device.slots}
        for f in graph.functions:
            sid = self.placement[f]
            self.slot_load[sid] = self.slot_load[sid] + self.fn_resources(f)
        self.group_load = group_sizes(graph, lib, self.config)
        self.sll = recompute_all(device, graph, self.placement)

    # -- accessors -----------------------------------------------------------

    def fn_resources(self, fn: str) -> ResourceVector:
        return self.lib.point(fn, self.config[fn]).resources

    def utilization(self, slot_id: int) -> float:
        return utilization_ratio(self.slot_load[slot_id], self.device.slot(slot_id).capacity)

    def max_utilization(self) -> float:
        return max(self.utilization(s.id) for s in self.device.slots)

    # -- mutation ------------------------------------------------------------

    def apply_point(self, fn: str, point_id: str) -> None:
        new = self.lib.point(fn, point_id).resources
        old = self.fn_resources(fn)
        sid = self.placement[fn]
        gid = self.graph.group_of[fn].gid
        self.slot_load[sid] = (self.slot_load[sid] - old) + new
        self.group_load[gid] = (self.group_load[gid] - old) + new
        self.config[fn] = point_id

    def trial_move(self, group, dest: int) -> bool:
        """Move ``group`` to ``dest`` if every SLL half stays within budget
        after the move.  The wires are decided before anything is applied
        (``SllState.moved``): a refused trial changes nothing."""
        sll = self.sll.moved(self.placement, group.members, dest)
        if sll is None:
            return False
        self._place(group, dest)
        self.sll = sll
        return True

    def _place(self, group, dest: int) -> None:
        """Put every member of ``group`` on ``dest`` and move its slot load
        along; the routing state is the caller's to set."""
        for m in group.members:
            src = self.placement[m]
            if src != dest:
                res = self.fn_resources(m)
                self.slot_load[src] = self.slot_load[src] - res
                self.slot_load[dest] = self.slot_load[dest] + res
                self.placement[m] = dest

    # -- legality --------------------------------------------------------------

    def check_legal(self) -> list[str]:
        report = []
        limit = self.device.util_limit
        for s in self.device.slots:
            for kind, u, c, ceiling in zip(RESOURCE_KINDS, self.slot_load[s.id],
                                           s.capacity, self.device.slot_budget[s.id]):
                if not within_budget((u,), (ceiling,)):
                    report.append(
                        f"slot {s.id}: {kind} usage {u} exceeds budget {limit * c:.1f}"
                        f" (capacity {c} at limit {limit})"
                    )
        for g in self.graph.ram_groups:
            slots = sorted({self.placement[m] for m in g.members})
            if len(slots) > 1:
                members = ", ".join(g.members)
                report.append(
                    f"functions sharing RAM must share a slot:"
                    f" group {{{members}}} spans slots {slots}"
                )
        report.extend(f"boundary y={y} half x={x}: {used} wires exceed budget {budget:.1f}"
                      for y, x, used, budget in self.sll.over_budget())
        return report


def _fits_slot(state: PackState, slot_id: int, extra: tuple) -> bool:
    """True when the slot's load plus ``extra`` (per-kind counts, possibly
    negative) stays within the slot's fit budget."""
    return within_budget(state.slot_load[slot_id], state.device.slot_budget[slot_id], extra)


def _candidate_slots(state: PackState, exclude: int, extra: ResourceVector) -> list[int]:
    """Other slots ordered by worst-fit preference for ``extra``.

    Primary key: critical-resource post-add ratio ascending.  Ties: mean of
    the four non-critical post-add ratios ascending, then slot id.
    """
    ranked = []
    for s in state.device.slots:
        if s.id == exclude:
            continue
        post = state.slot_load[s.id] + extra
        ratios = kind_ratios(post, s.capacity)
        worst = max(ratios)
        crit = ratios.index(worst)
        rest = [r for i, r in enumerate(ratios) if i != crit]
        ranked.append((worst, sum(rest) / len(rest), s.id))
    ranked.sort()
    return [sid for _, _, sid in ranked]


def online_pack(state: PackState, targets: dict, allow_moves: bool = True) -> tuple[bool, list]:
    """Apply one target point per function, repairing the floorplan on demand.

    Transactional over all of ``targets``: if any function fits neither in
    place nor (with its RAM group) on any other slot, the state goes back
    to entry and fit is False.  Returned moves are (function, from, to).

    The device-wide bound is not checked here: on a state whose slots are
    all within budget, as the search keeps them, targets over the bound
    fail whatever is tried and leave the state as it was, and the search
    screens them out before it packs (see ``search._room``).
    """
    sll = state.sll
    done: list[tuple] = []  # (function, old point, moved group or None, slot it left)
    moves: list[tuple[str, int, int]] = []
    order = sorted(
        targets,
        key=lambda f: (
            -utilization_ratio(
                state.lib.point(f, targets[f]).resources,
                state.device.slot(state.placement[f]).capacity,
            ),
            f,
        ),
    )
    for fn in order:
        pid = targets[fn]
        new = state.lib.point(fn, pid).resources
        old = state.fn_resources(fn)
        old_pid = state.config[fn]
        sid = state.placement[fn]
        if _fits_slot(state, sid, tuple(map(sub, new, old))):
            state.apply_point(fn, pid)
            done.append((fn, old_pid, None, sid))
            continue
        if not allow_moves:
            return _undo(state, done, sll)
        group = state.graph.group_of[fn]
        extra = (state.group_load[group.gid] - old) + new
        for dest in _candidate_slots(state, sid, extra):
            if _fits_slot(state, dest, extra) and state.trial_move(group, dest):
                state.apply_point(fn, pid)
                done.append((fn, old_pid, group, sid))
                moves.extend((m, sid, dest) for m in group.members)
                break
        else:
            return _undo(state, done, sll)
    return True, moves


def _undo(state: PackState, done: list, sll) -> tuple[bool, list]:
    """Take back a failed online pack's steps, last first (each moved group
    to the slot it left, each point to the old one), and reinstate the
    routing state the pack started with."""
    for fn, old_pid, group, sid in reversed(done):
        if group is not None:
            state._place(group, sid)
        state.apply_point(fn, old_pid)
    state.sll = sll
    return False, []


def offline_repack(state: PackState) -> list:
    """Best-fit-decreasing compaction; never changes any chosen point.

    Slots are ranked once by utilization non-increasing (ties by id) and the
    ranking stays frozen for the whole schedule.  For the m-th fullest slot
    (m = 2..S), each of its unpinned groups tries the fuller slots in rank
    order and moves into the first that takes it.  An empty destination is
    never tried, since moving there cannot compact anything.  Pinned groups
    (those holding a function outside any dataflow region) stay put.

    The schedule tests only what could move, with the same moves as testing
    every pair:

    - Unpinned groups are bucketed by slot once per repack.  A source's
      bucket is still exact when its turn comes, since sources go in rank
      order and moves only enter fuller, already visited slots.
    - A source's fit floor is the per-kind minimum of its groups' loads.
      While its groups are tried, only they move, and only into fuller
      slots, so destination loads only grow: a fuller slot that is empty
      or fails the floor stays unable to take any of them.  The source's
      groups try only the open slots, a slot that a move makes fail the
      floor is closed, and the turn ends when none is open.
    """
    ranks = sorted(state.device.slots, key=lambda s: (-state.utilization(s.id), s.id))
    group_load = state.group_load
    buckets: dict[int, list] = {s.id: [] for s in ranks}
    for g in state.graph.ram_groups:
        if not g.pinned:
            buckets[state.placement[g.members[0]]].append(g)
    moves: list[tuple[str, int, int]] = []
    for m in range(1, len(ranks)):
        src = ranks[m]
        movable = buckets[src.id]
        if not movable:
            continue
        floor = tuple(map(min, zip(*(group_load[g.gid] for g in movable))))
        open_ = [dest.id for dest in ranks[:m]
                 if not state.slot_load[dest.id].is_zero() and _fits_slot(state, dest.id, floor)]
        if not open_:
            continue
        movable = sorted(
            movable,
            key=lambda g: (-utilization_ratio(group_load[g.gid], src.capacity), g.gid),
        )
        for g in movable:
            extra = group_load[g.gid]
            for dest in open_:
                if _fits_slot(state, dest, extra) and state.trial_move(g, dest):
                    moves.extend((fn, src.id, dest) for fn in g.members)
                    if not _fits_slot(state, dest, floor):
                        open_.remove(dest)
                    break
            if not open_:
                break
    return moves
