"""Cross-boundary signal routing and register insertion state.

Placed FIFO edges that span die boundaries consume super-long-line (SLL)
wires; each boundary is split per column into halves with separate wire
budgets.  Crossing any tracked boundary (die or io column) inserts one
register group on the edge; only die crossings consume SLL capacity.

Half selection is deliberately history-free: the halves used on a boundary
are a pure function of the set of edges crossing it, folded in a canonical
order.  That makes an incremental update (recompute only the boundaries
whose crossing set changed) land bit-for-bit on the same state as a full
recompute, which the packer relies on when it trials and rolls back moves.
"""

from __future__ import annotations

from .model import DesignGraph, DeviceModel, LIMIT_EPS

_INF = float("inf")


def crossed_die_rows(device: DeviceModel, ys: int, yd: int) -> list[int]:
    """Die boundary rows an edge between rows ys and yd passes over."""
    lo, hi = min(ys, yd), max(ys, yd)
    return [b.y for b in device.die_boundaries if lo <= b.y < hi]


def crossed_io_cols(device: DeviceModel, xs: int, xd: int) -> list[int]:
    lo, hi = min(xs, xd), max(xs, xd)
    return [x for x in device.io_boundaries if lo <= x < hi]


def allowed_halves(xs: int, xd: int) -> range:
    """Columns an edge may use to cross a boundary: the endpoint column span."""
    return range(min(xs, xd), max(xs, xd) + 1)


def choose_half(halves: dict[int, int], loads: dict[int, int], width: int, allowed) -> int:
    """Pick the crossing column with the lowest post-assignment fill ratio.

    Ties break toward the lower column index.  The choice ignores the budget
    cap on purpose: if even the best ratio busts the cap, no column would
    have passed, and the caller detects that from the resulting loads.
    """
    best_x = None
    best_ratio = None
    for x in allowed:
        cap = halves[x]
        ratio = (loads.get(x, 0) + width) / cap if cap > 0 else _INF
        if best_ratio is None or ratio < best_ratio:
            best_ratio = ratio
            best_x = x
    return best_x


def recompute_all(device: DeviceModel, graph: DesignGraph, placement: dict) -> "SllState":
    """Fresh routing state built from scratch for a placement."""
    state = SllState(device, graph)
    state.refresh(placement)
    return state


class SllState:
    """Per-boundary SLL loads and per-edge register groups for a placement.

    ``refresh`` rebuilds everything; ``update`` rebuilds only the boundaries
    touched by a set of moved functions.  Both end in identical state for
    the same placement.
    """

    def __init__(self, device: DeviceModel, graph: DesignGraph):
        self.device = device
        self.graph = graph
        self._edges = {e.index: e for e in graph.edges}
        self.boundary_loads: dict[int, dict[int, int]] = {}
        self.edge_halves: dict[int, dict[int, int]] = {}
        self.crossing: dict[int, list[int]] = {}
        self.reg_groups: dict[int, int] = {}

    # -- core fold ---------------------------------------------------------

    def _fold(self, y: int, edge_ids: list[int], placement: dict) -> tuple[dict, dict]:
        boundary = self.device.boundary(y)
        loads: dict[int, int] = {}
        halves: dict[int, int] = {}
        for eid in edge_ids:
            e = self._edges[eid]
            ss = self.device.slot(placement[e.src])
            sd = self.device.slot(placement[e.dst])
            x = choose_half(boundary.halves, loads, e.width, allowed_halves(ss.x, sd.x))
            halves[eid] = x
            loads[x] = loads.get(x, 0) + e.width
        return loads, halves

    def _edge_crossings(self, eid: int, placement: dict) -> tuple[list[int], list[int]]:
        e = self._edges[eid]
        ss = self.device.slot(placement[e.src])
        sd = self.device.slot(placement[e.dst])
        return crossed_die_rows(self.device, ss.y, sd.y), crossed_io_cols(self.device, ss.x, sd.x)

    # -- full rebuild --------------------------------------------------------

    def refresh(self, placement: dict) -> None:
        self.crossing = {b.y: [] for b in self.device.die_boundaries}
        self.reg_groups = {}
        for e in self.graph.edges:
            if e.kind != "fifo":
                self.reg_groups[e.index] = 0
                continue
            die_rows, io_cols = self._edge_crossings(e.index, placement)
            for y in die_rows:
                self.crossing[y].append(e.index)
            self.reg_groups[e.index] = len(die_rows) + len(io_cols)
        self.boundary_loads = {}
        self.edge_halves = {e.index: {} for e in self.graph.edges}
        for y, eids in self.crossing.items():
            loads, halves = self._fold(y, eids, placement)
            self.boundary_loads[y] = loads
            for eid, x in halves.items():
                self.edge_halves[eid][y] = x

    # -- incremental rebuild --------------------------------------------------

    def update(self, placement: dict, moved: set) -> dict:
        """Re-derive state after the functions in ``moved`` changed slots.

        Only boundaries whose crossing set could have changed are refolded.
        Returns the register-group delta per affected edge.
        """
        affected_edges = [
            e for e in self.graph.edges
            if e.kind == "fifo" and (e.src in moved or e.dst in moved)
        ]
        delta = {}
        dirty: set[int] = set()
        for e in affected_edges:
            for y, eids in self.crossing.items():
                if e.index in eids:
                    dirty.add(y)
            die_rows, io_cols = self._edge_crossings(e.index, placement)
            dirty.update(die_rows)
            before = self.reg_groups[e.index]
            after = len(die_rows) + len(io_cols)
            self.reg_groups[e.index] = after
            if before != after:
                delta[e.index] = {"before": before, "after": after}

        if not dirty:
            return delta

        affected_ids = {e.index for e in affected_edges}
        for y in sorted(dirty):
            eids = [i for i in self.crossing[y] if i not in affected_ids]
            for e in affected_edges:
                die_rows, _ = self._edge_crossings(e.index, placement)
                if y in die_rows:
                    eids.append(e.index)
            eids.sort()
            for old in self.crossing[y]:
                if old in affected_ids:
                    self.edge_halves[old].pop(y, None)
            self.crossing[y] = eids
            loads, halves = self._fold(y, eids, placement)
            self.boundary_loads[y] = loads
            for eid in eids:
                self.edge_halves[eid][y] = halves[eid]
            for eid in affected_ids - set(eids):
                self.edge_halves[eid].pop(y, None)
        return delta

    # -- queries ---------------------------------------------------------------

    def over_budget(self) -> list[tuple[int, int, int, float]]:
        """Halves whose wire load exceeds the SLL budget, in (y, x) order.

        Each entry is (boundary y, half x, wires used, budget).
        """
        out = []
        for y, loads in sorted(self.boundary_loads.items()):
            halves = self.device.boundary(y).halves
            for x, used in sorted(loads.items()):
                budget = self.device.sll_limit * halves[x]
                if used > budget + LIMIT_EPS:
                    out.append((y, x, used, budget))
        return out

    def violations(self) -> list[str]:
        return [
            f"boundary y={y} half x={x}: {used} wires exceed budget {budget:.1f}"
            for y, x, used, budget in self.over_budget()
        ]

    def feasible(self) -> bool:
        return not self.over_budget()

    def total_register_groups(self) -> int:
        return sum(self.reg_groups.values())

    def snapshot(self) -> tuple:
        return (
            {y: dict(l) for y, l in self.boundary_loads.items()},
            {i: dict(h) for i, h in self.edge_halves.items()},
            {y: list(e) for y, e in self.crossing.items()},
            dict(self.reg_groups),
        )

    def restore(self, snap: tuple) -> None:
        loads, halves, crossing, regs = snap
        self.boundary_loads = {y: dict(l) for y, l in loads.items()}
        self.edge_halves = {i: dict(h) for i, h in halves.items()}
        self.crossing = {y: list(e) for y, e in crossing.items()}
        self.reg_groups = dict(regs)

    def state_fingerprint(self) -> tuple:
        return (
            tuple(sorted((y, tuple(sorted(l.items()))) for y, l in self.boundary_loads.items())),
            tuple(sorted((i, tuple(sorted(h.items()))) for i, h in self.edge_halves.items() if h)),
            tuple(sorted(self.reg_groups.items())),
        )
