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

The state costs what a move changes, not what the design holds.  Each die
boundary owns three fold results: its loads, its ``{edge id: half}`` map
and its sorted crossing list.  They are replaced whole, never changed in
place, and so are the per-boundary total widths and pending marks below,
so ``snapshot`` and ``restore`` share them all by reference.  ``update``
re-examines only the FIFO edges of the moved functions and marks dirty only
the boundaries in their old and new die rows.  It does not fold: it keeps
each boundary's crossing list and total crossing width current and records
a dirty boundary's first changed edge.  A fold choice depends only on the
edges before it in canonical order and on the edge's own column span, so a
pending boundary is later refolded from that first edge, the earlier
prefix replaying its recorded halves, and lands exactly where a full fold
would.

The fold is deferred until something needs it, and most questions are
decided without it.  A half's budget (``fit_budget``) is ``sll_limit``
times its capacity plus ``LIMIT_EPS``, and the fold puts every edge on one
column of its span, so two constants per boundary bound its total crossing
width exactly for any fold:

- reject: a total above the sum of the half budgets (each rounded down to
  whole wires) must overflow some half;
- accept: a total within the narrowest half's budget cannot overflow any
  half (a zero-capacity half's budget is ``LIMIT_EPS``, so the bound fails
  unless nothing crosses).

``feasible`` first checks every boundary against both bounds, then folds,
if pending, and checks only the boundaries left in between, one at a time,
returning False at the first one over budget.  Every fold is stored,
whether or not it fits.  ``rejects`` asks the reject bound about a move
before it is made, through the same route-change rule as ``update``, so a
doomed trial changes nothing.  ``boundary_loads`` and ``over_budget`` fold
every pending boundary first.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort

from .model import FIFO, DesignGraph, DeviceModel, fit_budget, kind_ratio


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

    Ties break toward the lower column index; a zero-capacity column ranks
    last (``kind_ratio``).  The choice ignores the budget cap on purpose: if
    even the best ratio busts the cap, no column would have passed, and the
    caller detects that from the resulting loads.
    """
    best_x = None
    best_ratio = None
    for x in allowed:
        ratio = kind_ratio(loads.get(x, 0) + width, halves[x])
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

    Every state object, the per-boundary dicts and lists inside them
    included, is replaced rather than changed in place (see the module
    docstring): ``boundary_loads`` maps a boundary row to ``{half: wires}``,
    folding the pending boundaries before it answers, ``crossing`` maps it
    to its crossing edge ids in ascending order, and ``reg_groups`` maps
    every edge id to its register-group count.
    """

    def __init__(self, device: DeviceModel, graph: DesignGraph):
        self.device = device
        self.graph = graph
        self._width = {e.index: e.width for e in graph.edges if e.kind == FIFO}
        self._fifo_of: dict[str, list] = {f: [] for f in graph.functions}
        for e in graph.edges:
            if e.kind == FIFO:
                self._fifo_of[e.src].append(e)
                self._fifo_of[e.dst].append(e)
        # A move can add at most its functions' FIFO widths to any boundary.
        self._reach = {f: sum(e.width for e in edges) for f, edges in self._fifo_of.items()}
        self._caps = {b.y: b.halves for b in device.die_boundaries}
        self._budget = {  # boundary row -> per-column half budgets
            y: fit_budget([halves[x] for x in range(device.width)], device.sll_limit)
            for y, halves in self._caps.items()
        }
        # Loads are whole wires, so a half holds at most floor(budget) of
        # them: a boundary whose total exceeds the sum overflows some half.
        self._reject_bound = {
            y: sum(map(math.floor, budget)) for y, budget in self._budget.items()
        }
        # A boundary whose total is within its narrowest half's budget
        # cannot overflow any half, however the fold splits the edges.
        self._accept_bound = {y: min(budget) for y, budget in self._budget.items()}
        self._routes: dict[tuple, tuple] = {}  # slot pair -> route, filled on first use
        self._loads: dict[int, dict[int, int]] = {}
        self._half_of: dict[int, dict[int, int]] = {}
        self.crossing: dict[int, list[int]] = {}
        self._total: dict[int, int] = {}  # boundary row -> total crossing width
        self._pending: dict[int, int] = {}  # unfolded boundary row -> first changed edge id
        self.reg_groups: dict[int, int] = {}
        self._route_of: dict[int, tuple] = {}  # FIFO edge id -> its route

    @property
    def boundary_loads(self) -> dict[int, dict[int, int]]:
        self._settle()
        return self._loads

    # -- core fold ---------------------------------------------------------

    def _route(self, src_slot: int, dst_slot: int) -> tuple:
        """(die rows crossed, lowest column, highest column, register groups)."""
        route = self._routes.get((src_slot, dst_slot))
        if route is None:
            ss, sd = self.device.slot(src_slot), self.device.slot(dst_slot)
            rows = tuple(crossed_die_rows(self.device, ss.y, sd.y))
            regs = len(rows) + len(crossed_io_cols(self.device, ss.x, sd.x))
            lo, hi = sorted((ss.x, sd.x))
            route = self._routes[src_slot, dst_slot] = (rows, lo, hi, regs)
        return route

    def _fold(self, y: int, edge_ids: list[int], start: int = 0,
              prev: dict | None = None) -> tuple[dict, dict]:
        """Fold boundary y's crossing list into fresh (loads, halves) dicts.

        The first ``start`` edges take the halves recorded in ``prev``; the
        rest are chosen by ``choose_half``, except that an edge spanning one
        column takes that column.
        """
        caps = self._caps[y]
        width = self._width
        loads: dict[int, int] = {}
        halves: dict[int, int] = {}
        for eid in edge_ids[:start]:
            x = halves[eid] = prev[eid]
            loads[x] = loads.get(x, 0) + width[eid]
        route_of = self._route_of
        for eid in edge_ids[start:]:
            _, lo, hi, _ = route_of[eid]
            w = width[eid]
            x = halves[eid] = lo if lo == hi else choose_half(caps, loads, w, allowed_halves(lo, hi))
            loads[x] = loads.get(x, 0) + w
        return loads, halves

    def _fold_pending(self, y: int) -> None:
        """Fold pending boundary y from its first changed edge and store the
        result."""
        eids = self.crossing[y]
        loads, halves = self._fold(y, eids, bisect_left(eids, self._pending[y]), self._half_of[y])
        self._loads = {**self._loads, y: loads}
        self._half_of = {**self._half_of, y: halves}
        self._pending = {r: eid for r, eid in self._pending.items() if r != y}

    def _settle(self) -> None:
        """Fold every pending boundary."""
        for y in list(self._pending):
            self._fold_pending(y)

    # -- full rebuild --------------------------------------------------------

    def refresh(self, placement: dict) -> None:
        crossing: dict[int, list[int]] = {y: [] for y in self._caps}
        route_of = {}
        regs = {}
        width = self._width
        for e in self.graph.edges:
            if e.kind != FIFO:
                regs[e.index] = 0
                continue
            route = route_of[e.index] = self._route(placement[e.src], placement[e.dst])
            regs[e.index] = route[3]
            for y in route[0]:
                crossing[y].append(e.index)
        self._route_of = route_of
        self.reg_groups = regs
        self.crossing = crossing
        self._total = {y: sum(width[eid] for eid in eids) for y, eids in crossing.items()}
        self._pending = {}
        self._loads = {}
        self._half_of = {}
        for y, eids in crossing.items():
            self._loads[y], self._half_of[y] = self._fold(y, eids)

    # -- incremental rebuild --------------------------------------------------

    def _route_changes(self, placement: dict, moved: dict) -> dict[int, tuple]:
        """``{edge id: new route}`` for the FIFO edges of the functions in
        ``moved`` whose route differs from the recorded one.  ``moved`` maps
        each moved function to its slot; every other function stays where
        ``placement`` puts it."""
        changed = {}
        route_of = self._route_of
        for f in moved:
            for e in self._fifo_of[f]:
                route = self._route(moved.get(e.src, placement[e.src]),
                                    moved.get(e.dst, placement[e.dst]))
                if route != route_of[e.index]:
                    changed[e.index] = route
        return changed

    def update(self, placement: dict, moved: set) -> None:
        """Re-derive state after the functions in ``moved`` changed slots.

        Only the moved functions' FIFO edges whose route changed are
        re-examined.  A boundary that such an edge enters or leaves, or keeps
        crossing over another column span, gets its crossing list and total
        width updated and becomes pending, remembering its first changed
        edge; the fold itself waits until a query needs it.
        """
        changed = self._route_changes(placement, {f: placement[f] for f in moved})
        if not changed:
            return
        width = self._width
        first: dict[int, int] = {}  # dirty boundary row -> lowest changed edge id
        entering: dict[int, list[int]] = {}
        leaving: dict[int, list[int]] = {}
        for eid, route in changed.items():
            old = self._route_of[eid]
            same_span = old[1] == route[1] and old[2] == route[2]
            for y in old[0]:
                if y not in route[0]:
                    leaving.setdefault(y, []).append(eid)
                elif same_span:
                    continue  # still crossing y over the same columns
                first[y] = min(first.get(y, eid), eid)
            for y in route[0]:
                if y not in old[0]:
                    entering.setdefault(y, []).append(eid)
                elif same_span:
                    continue
                first[y] = min(first.get(y, eid), eid)
        route_of = dict(self._route_of)
        route_of.update(changed)
        self._route_of = route_of
        regs = dict(self.reg_groups)
        for eid, route in changed.items():
            regs[eid] = route[3]
        self.reg_groups = regs
        if not first:
            return
        crossing, total, pending = dict(self.crossing), dict(self._total), dict(self._pending)
        for y, eid in first.items():
            if y in entering or y in leaving:
                eids = crossing[y] = list(crossing[y])
                for e in leaving.get(y, ()):
                    del eids[bisect_left(eids, e)]
                    total[y] -= width[e]
                for e in entering.get(y, ()):
                    insort(eids, e)
                    total[y] += width[e]
            pending[y] = min(pending.get(y, eid), eid)
        self.crossing, self._total, self._pending = crossing, total, pending

    # -- queries ---------------------------------------------------------------

    def _over(self, y: int) -> list[tuple[int, int, int, float]]:
        halves, budget, limit = self._caps[y], self._budget[y], self.device.sll_limit
        return [(y, x, used, limit * halves[x])
                for x, used in sorted(self._loads[y].items()) if used > budget[x]]

    def over_budget(self) -> list[tuple[int, int, int, float]]:
        """Halves whose wire load exceeds the SLL budget, in (y, x) order.

        Each entry is (boundary y, half x, wires used, budget).
        """
        self._settle()
        return [over for y in sorted(self._loads) for over in self._over(y)]

    def violations(self) -> list[str]:
        return [
            f"boundary y={y} half x={x}: {used} wires exceed budget {budget:.1f}"
            for y, x, used, budget in self.over_budget()
        ]

    def rejects(self, placement: dict, moved: dict) -> bool:
        """True when moving the functions in ``moved`` (``{function: slot}``)
        would put some boundary's total crossing width over its reject bound,
        so the move cannot be feasible.  Changes nothing."""
        total, bound = self._total, self._reject_bound
        reach = sum(self._reach[f] for f in moved)
        if all(total[y] + reach <= bound[y] for y in total):
            return False
        width, route_of = self._width, self._route_of
        delta: dict[int, int] = {}  # boundary row -> change of its total width
        for eid, route in self._route_changes(placement, moved).items():
            for y in route_of[eid][0]:
                delta[y] = delta.get(y, 0) - width[eid]
            for y in route[0]:
                delta[y] = delta.get(y, 0) + width[eid]
        return any(total[y] + d > bound[y] for y, d in delta.items())

    def feasible(self) -> bool:
        """True when no half is over budget.

        Every boundary is first checked against the reject and accept
        bounds (see the module docstring); only the boundaries left in doubt
        are folded, if pending, and checked, one at a time.
        """
        reject, accept = self._reject_bound, self._accept_bound
        doubt = []
        for y, total in self._total.items():
            if total > reject[y]:
                return False
            if total > accept[y]:
                doubt.append(y)
        for y in doubt:
            if y in self._pending:
                self._fold_pending(y)
            if self._over(y):
                return False
        return True

    def total_register_groups(self) -> int:
        return sum(self.reg_groups.values())

    def snapshot(self) -> tuple:
        """The current state objects, shared: none is ever changed in place."""
        return (self._loads, self._half_of, self.crossing, self._total,
                self._pending, self.reg_groups, self._route_of)

    def restore(self, snap: tuple) -> None:
        (self._loads, self._half_of, self.crossing, self._total,
         self._pending, self.reg_groups, self._route_of) = snap
