"""Slot-level packing state, legality checks, and the two repair stages.

Online packing is a worst-fit move search triggered when a function's new
QoR point no longer fits its slot: the function's whole RAM group tries
other slots in order of lowest critical-resource ratio.  Offline re-packing
is a best-fit-decreasing compaction that moves groups from less-utilized
slots into fuller ones to open up contiguous headroom, without touching any
chosen point.
"""

from __future__ import annotations

from .floorplan import group_of_map, group_resources, ram_groups
from .model import (
    DesignGraph,
    DeviceModel,
    LIMIT_EPS,
    ModelError,
    QoRLibrary,
    RESOURCE_KINDS,
    ResourceVector,
    fits_within,
    kind_ratio,
    utilization_ratio,
)
from .pipeliner import SllState


class PackState:
    """Mutable aggregate of configuration, placement, loads, and routing."""

    def __init__(self, device: DeviceModel, graph: DesignGraph, lib: QoRLibrary,
                 config: dict, placement: dict):
        missing = set(graph.functions) - set(placement)
        if missing:
            raise ModelError(f"placement missing functions {sorted(missing)}")
        slot_ids = {s.id for s in device.slots}
        stray = sorted(f for f, sid in placement.items() if sid not in slot_ids)
        if stray:
            raise ModelError(f"placement puts {stray} on slots the device lacks")
        self.device = device
        self.graph = graph
        self.lib = lib
        self.config = dict(config)
        self.placement = dict(placement)
        self.groups = ram_groups(graph)
        self.group_of = group_of_map(self.groups)
        self.slot_load = {s.id: ResourceVector.zero() for s in device.slots}
        for f in graph.functions:
            sid = self.placement[f]
            self.slot_load[sid] = self.slot_load[sid] + self.fn_resources(f)
        self.sll = SllState(device, graph)
        self.sll.refresh(self.placement)

    # -- accessors -----------------------------------------------------------

    def fn_resources(self, fn: str) -> ResourceVector:
        return self.lib.point(fn, self.config[fn]).resources

    def group_resources(self, group) -> ResourceVector:
        return group_resources(group, self.lib, self.config)

    def utilization(self, slot_id: int) -> float:
        return utilization_ratio(self.slot_load[slot_id], self.device.slot(slot_id).capacity)

    def max_utilization(self) -> float:
        return max(self.utilization(s.id) for s in self.device.slots)

    def max_sll_utilization(self) -> float:
        worst = 0.0
        for y, loads in self.sll.boundary_loads.items():
            halves = self.device.boundary(y).halves
            for x, used in loads.items():
                if halves[x] > 0:
                    worst = max(worst, used / halves[x])
                elif used:
                    return float("inf")
        return worst

    def groups_on(self, slot_id: int) -> list:
        return [g for g in self.groups if self.placement[g.members[0]] == slot_id]

    # -- mutation ------------------------------------------------------------

    def apply_point(self, fn: str, point_id: str) -> None:
        new = self.lib.point(fn, point_id).resources
        old = self.fn_resources(fn)
        sid = self.placement[fn]
        self.slot_load[sid] = (self.slot_load[sid] - old) + new
        self.config[fn] = point_id

    def move_group(self, group, dest: int) -> dict:
        """Relocate every member of ``group``; returns the routing delta."""
        moved = set()
        for m in group.members:
            src = self.placement[m]
            if src == dest:
                continue
            res = self.fn_resources(m)
            self.slot_load[src] = self.slot_load[src] - res
            self.slot_load[dest] = self.slot_load[dest] + res
            self.placement[m] = dest
            moved.add(m)
        return self.sll.update(self.placement, moved)

    def snapshot(self) -> tuple:
        return (
            dict(self.config),
            dict(self.placement),
            dict(self.slot_load),
            self.sll.snapshot(),
        )

    def restore(self, snap: tuple) -> None:
        config, placement, slot_load, sll_snap = snap
        self.config = dict(config)
        self.placement = dict(placement)
        self.slot_load = dict(slot_load)
        self.sll.restore(sll_snap)

    # -- legality --------------------------------------------------------------

    def check_legal(self) -> list[str]:
        report = []
        limit = self.device.util_limit
        for s in self.device.slots:
            load = self.slot_load[s.id]
            for kind, u, c in zip(RESOURCE_KINDS, load.as_tuple(), s.capacity.as_tuple()):
                budget = limit * c
                if u > budget + LIMIT_EPS:
                    report.append(
                        f"slot {s.id}: {kind} usage {u} exceeds budget {budget:.1f}"
                        f" (capacity {c} at limit {limit})"
                    )
        for g in self.groups:
            slots = sorted({self.placement[m] for m in g.members})
            if len(slots) > 1:
                members = ", ".join(g.members)
                report.append(
                    f"functions sharing RAM must share a slot:"
                    f" group {{{members}}} spans slots {slots}"
                )
        report.extend(self.sll.violations())
        return report


def _fits_slot(state: PackState, slot_id: int, load: ResourceVector) -> bool:
    return fits_within(load, state.device.slot(slot_id).capacity, state.device.util_limit)


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
        ratios = list(map(kind_ratio, post.as_tuple(), s.capacity.as_tuple()))
        worst = max(ratios)
        crit = ratios.index(worst)
        rest = [r for i, r in enumerate(ratios) if i != crit]
        ranked.append((worst, sum(rest) / len(rest), s.id))
    ranked.sort()
    return [sid for _, _, sid in ranked]


def online_pack(state: PackState, targets: dict, allow_moves: bool = True) -> tuple[bool, list]:
    """Apply one target point per function, repairing the floorplan on demand.

    Transactional over the whole batch: if any function fits neither in
    place nor (with its RAM group) on any other slot, the state rolls back
    to entry and fit is False.  Returned moves are (function, from, to).
    """
    for fn, pid in targets.items():
        if fn not in state.graph.functions:
            raise ModelError(f"unknown function {fn!r}")
        state.lib.point(fn, pid)

    snap = state.snapshot()
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
        sid = state.placement[fn]
        post = (state.slot_load[sid] - state.fn_resources(fn)) + new
        if _fits_slot(state, sid, post):
            state.apply_point(fn, pid)
            continue
        if not allow_moves:
            state.restore(snap)
            return False, []
        group = state.group_of[fn]
        group_extra = ResourceVector.sum(
            new if m == fn else state.fn_resources(m) for m in group.members
        )
        placed = False
        for dest in _candidate_slots(state, sid, group_extra):
            if not _fits_slot(state, dest, state.slot_load[dest] + group_extra):
                continue
            trial = state.snapshot()
            state.apply_point(fn, pid)
            state.move_group(group, dest)
            if state.sll.feasible():
                moves.extend((m, sid, dest) for m in group.members)
                placed = True
                break
            state.restore(trial)
        if not placed:
            state.restore(snap)
            return False, []
    return True, moves


def offline_repack(state: PackState, trials: list | None = None) -> list:
    """Best-fit-decreasing compaction; never changes any chosen point.

    Slots are ranked once by utilization non-increasing (ties by id) and the
    ranking stays frozen for the whole schedule.  For the m-th fullest slot
    (m = 2..S), each of its unpinned groups tries the fuller slots in rank
    order; trials against an empty destination are cancelled, since moving
    there cannot compact anything.  Pinned groups (those holding a function
    outside any dataflow region) stay put.
    """
    ranks = sorted(state.device.slots, key=lambda s: (-state.utilization(s.id), s.id))
    moves: list[tuple[str, int, int]] = []
    for m in range(1, len(ranks)):
        src = ranks[m]
        movable = sorted(
            (g for g in state.groups_on(src.id) if not g.pinned),
            key=lambda g: (-utilization_ratio(state.group_resources(g), src.capacity), g.gid),
        )
        for g in movable:
            gres = state.group_resources(g)
            for dest in ranks[:m]:
                record = {"group": g.gid, "src": src.id, "dst": dest.id}
                if state.slot_load[dest.id].is_zero():
                    if trials is not None:
                        trials.append({**record, "outcome": "cancelled"})
                    continue
                if not _fits_slot(state, dest.id, state.slot_load[dest.id] + gres):
                    if trials is not None:
                        trials.append({**record, "outcome": "rejected"})
                    continue
                snap = state.snapshot()
                state.move_group(g, dest.id)
                if state.sll.feasible():
                    if trials is not None:
                        trials.append({**record, "outcome": "moved"})
                    moves.extend((fn, src.id, dest.id) for fn in g.members)
                    break
                state.restore(snap)
                if trials is not None:
                    trials.append({**record, "outcome": "rejected"})
    return moves
