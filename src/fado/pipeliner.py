"""Cross-boundary signal routing and register insertion state.

Placed FIFO edges that span die boundaries consume super-long-line (SLL)
wires; each boundary is split per column into halves with separate wire
budgets.  Crossing any tracked boundary (die or io column) inserts one
register group on the edge; only die crossings consume SLL capacity.

Half selection is deliberately history-free: the halves used on a boundary
are a pure function of the set of edges crossing it, folded in ascending
edge id order.  That makes an incremental update (refold only the
boundaries whose crossing set changed) land bit-for-bit on the same state
as a full recompute, which the packer relies on when it tests moves on
new states and goes back to old ones.

The state costs what a move changes, not what the design holds, apart from
one flat copy.  It is five objects: the routes, a list indexed by edge id
holding each FIFO edge's route (die rows crossed, lowest and highest
column, register groups) and None for a RAM edge, and per die boundary its
sorted crossing list, total crossing width and folded loads, plus the set
of boundaries pending a fold.  Each is replaced whole, never changed in
place, so ``after`` can return the state after a move as a new object that
shares every unchanged one with its source, which it leaves as it was.  A
move's new route list is a ``list.copy()`` of the old one with the changed
entries set: one C-level copy of a pointer per edge.  Register groups are
read from the routes.  A state is built in one way, ``recompute_all``,
which routes every FIFO edge and leaves every boundary pending.  A move is
described once, by ``route_changes``: the moved functions' FIFO edges whose
route changes, with their new routes.  ``update`` takes that description
and touches only the boundaries in those edges' old and new die rows.
Neither folds: they keep each boundary's crossing list and total width
current and mark the boundary pending.  A pending boundary is later folded
whole from its crossing list, in one walk: an edge whose span is one column
adds its width there directly.  A wider span compares its columns' loads on
an even boundary, one whose halves share one positive capacity, and their
fill ratios on any other; both choose the same column (see ``_fold``).

The fold waits until a query needs it, and most questions are decided
without it.  A half's budget (``fit_budget``) is ``sll_limit``
times its capacity plus ``LIMIT_EPS``, and the fold puts every edge on one
column of its span, so two constants per boundary bound its total crossing
width exactly for any fold:

- reject: a total above the sum of the half budgets, each rounded down to
  whole wires (``floored_total``, as for the slots' device-wide bound),
  must overflow some half;
- accept: a total within the narrowest half's budget cannot overflow any
  half (a zero-capacity half's budget is ``LIMIT_EPS``, so the bound fails
  unless nothing crosses).

``feasible`` first checks every boundary against both bounds, then folds,
if pending, and checks only the boundaries left in between, one at a time,
returning False at the first one over budget.  Every fold is stored,
whether or not it fits.  ``rejects`` asks the reject bound about a move
before it is made, from the same ``route_changes`` that ``after`` then
takes, so a doomed trial copies nothing and a trial computes its route
changes once.  ``boundary_loads`` and ``over_budget`` fold every pending
boundary first; ``over_budget`` is the one report of halves over budget,
which ``PackState.check_legal`` words and the exact oracle reads.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from .model import FIFO, DesignGraph, DeviceModel, fit_budget, floored_total, kind_ratio


def crossed_die_rows(device: DeviceModel, ys: int, yd: int) -> list[int]:
    """Die boundary rows an edge between rows ys and yd passes over."""
    lo, hi = min(ys, yd), max(ys, yd)
    return [b.y for b in device.die_boundaries if lo <= b.y < hi]


def crossed_io_cols(device: DeviceModel, xs: int, xd: int) -> list[int]:
    lo, hi = min(xs, xd), max(xs, xd)
    return [x for x in device.io_boundaries if lo <= x < hi]


def recompute_all(device: DeviceModel, graph: DesignGraph, placement: dict) -> "SllState":
    """The routing state of a placement, built from scratch: the one way to
    build one.  Every boundary is left pending, as ``update`` leaves the
    boundaries it touches, so no fold runs until a query needs it."""
    state = SllState(device, graph)
    crossing: dict[int, list[int]] = {y: [] for y in state._caps}
    route_of = [None] * len(graph.edges)
    for e in graph.edges:
        if e.kind == FIFO:
            route = route_of[e.index] = state._route(placement[e.src], placement[e.dst])
            for y in route[0]:
                crossing[y].append(e.index)
    width = state._width
    state.route_of = route_of  # by edge id: a FIFO edge's route, None for a RAM edge
    state.crossing = crossing
    # boundary row -> total crossing width
    state._total = {y: sum(width[eid] for eid in eids) for y, eids in crossing.items()}
    state._pending = frozenset(crossing)  # boundary rows not yet folded
    return state


class SllState:
    """Per-boundary SLL loads and per-edge register groups for a placement.

    ``recompute_all`` builds one from scratch; ``update`` rebuilds only the
    boundaries touched by a set of moved functions, and ``after`` does so
    on a new object.  All end in identical state for the same placement,
    once the pending boundaries are folded.

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
        # by edge id, as route_of: a FIFO edge's width, 0 for a RAM edge
        self._width = [e.width if e.kind == FIFO else 0 for e in graph.edges]
        self._fifo_of: dict[str, list] = {f: [] for f in graph.functions}
        for e in graph.edges:
            if e.kind == FIFO:
                self._fifo_of[e.src].append(e)
                self._fifo_of[e.dst].append(e)
        # Per boundary row, in one walk over the boundaries: its per-column
        # half capacities and budgets; its reject bound, since a total above
        # the halves' floored budget sum overflows some half; its accept
        # bound, since a total within the narrowest half's budget cannot
        # overflow any half, however the fold splits the edges; and whether
        # it is even, its halves sharing one positive capacity while loads
        # stay below 2**52, so that ``_fold`` may compare loads.
        self._caps, self.budget, self._reject_bound, self._accept_bound, self._even = (
            {}, {}, {}, {}, {})
        exact = sum(self._width) < 2**52
        for b in device.die_boundaries:
            caps = self._caps[b.y] = tuple(b.halves[x] for x in range(device.width))
            budget = self.budget[b.y] = fit_budget(caps, device.sll_limit)
            self._reject_bound[b.y] = floored_total(budget)
            self._accept_bound[b.y] = min(budget)
            self._even[b.y] = exact and min(caps) == max(caps) > 0
        self._routes: dict[tuple, tuple] = {}  # slot pair -> route, filled on first use
        self._loads: dict[int, dict[int, int]] = {}  # folded boundary row -> its loads
        # ``recompute_all`` sets route_of, crossing, _total and _pending

    @property
    def boundary_loads(self) -> dict[int, dict[int, int]]:
        self._settle()
        return self._loads

    @property
    def reg_groups(self) -> dict[int, int]:
        return {eid: 0 if route is None else route[3] for eid, route in enumerate(self.route_of)}

    # -- core fold ---------------------------------------------------------

    def _route(self, src_slot: int, dst_slot: int) -> tuple:
        """(die rows crossed, lowest and highest column, register groups)."""
        route = self._routes.get((src_slot, dst_slot))
        if route is None:
            ss, sd = self.device.slot(src_slot), self.device.slot(dst_slot)
            rows = tuple(crossed_die_rows(self.device, ss.y, sd.y))
            regs = len(rows) + len(crossed_io_cols(self.device, ss.x, sd.x))
            route = self._routes[src_slot, dst_slot] = (
                rows, min(ss.x, sd.x), max(ss.x, sd.x), regs)
        return route

    def _fold(self, y: int, edge_ids: list[int]) -> dict[int, int]:
        """Fold boundary y's crossing list into a fresh ``{half: wires}``.

        Each edge in turn takes the column of its span with the lowest fill
        ratio after adding it (``kind_ratio``), ties to the lower column, so
        a zero-capacity column ranks last; a one-column span has no choice
        and adds its width directly.  The choice ignores the budget on
        purpose: if even the best column busts it, none would have passed,
        and the loads show it.

        On an even boundary, whose halves share one positive capacity c, the
        column with the lowest load is taken instead, ties to the lower
        column, and nothing is divided.  That is the same column:
        ``(load + w) / c`` keeps the order of integer loads and their ties,
        since below 2**52 no two distinct loads round to one float ratio, and
        ``SllState`` takes this path only when the design's summed FIFO width
        is below that.  Two zero-capacity halves tie on ratio whatever their
        loads, so they keep the ratio walk, as do unequal halves.
        """
        caps = self._caps[y]
        width, route_of = self._width, self.route_of
        loads = [0] * len(caps)
        if self._even[y]:
            load_of = loads.__getitem__
            for eid in edge_ids:
                _, lo, hi, _ = route_of[eid]
                if lo == hi:
                    x = lo
                elif hi == lo + 1:
                    x = hi if loads[hi] < loads[lo] else lo
                else:
                    x = min(range(lo, hi + 1), key=load_of)
                loads[x] += width[eid]
        else:
            ratio = kind_ratio
            for eid in edge_ids:
                _, lo, hi, _ = route_of[eid]
                w = width[eid]
                if lo == hi:
                    x = lo
                else:
                    x = best = None
                    for col in range(lo, hi + 1):
                        r = ratio(loads[col] + w, caps[col])
                        if best is None or r < best:
                            x, best = col, r
                loads[x] += w
        # Widths are positive, so a column still at 0 took no edge.
        return {x: used for x, used in enumerate(loads) if used}

    def _fold_pending(self, y: int) -> None:
        """Fold pending boundary y and store the result."""
        self._loads = {**self._loads, y: self._fold(y, self.crossing[y])}
        self._pending = self._pending - {y}

    def _settle(self) -> None:
        """Fold every pending boundary."""
        for y in self._pending:
            self._fold_pending(y)

    # -- incremental rebuild --------------------------------------------------

    def route_changes(self, placement: dict, moved: dict) -> dict[int, tuple]:
        """``{edge id: new route}`` for the FIFO edges of the functions in
        ``moved`` whose route differs from the recorded one.  ``moved`` maps
        each moved function to its slot; every other function stays where
        ``placement`` puts it.  Changes nothing: ``rejects`` and ``update``
        both take the result, so a trial computes it once."""
        changed = {}
        route_of = self.route_of
        for f in moved:
            for e in self._fifo_of[f]:
                route = self._route(moved.get(e.src, placement[e.src]),
                                    moved.get(e.dst, placement[e.dst]))
                if route != route_of[e.index]:
                    changed[e.index] = route
        return changed

    def after(self, changed: dict[int, tuple]) -> "SllState":
        """The state after the route changes ``changed`` (``route_changes``),
        as a new object that shares every unchanged state object, and the
        slot-pair route memo, with this one, which stays as it was."""
        new = object.__new__(SllState)  # a shallow copy, without copy.copy's cost
        new.__dict__.update(self.__dict__)
        new.update(changed)
        return new

    def update(self, changed: dict[int, tuple]) -> None:
        """Re-derive state after functions changed slots, from the route
        changes of their FIFO edges (``route_changes``).

        Only those edges are re-examined.  A boundary that such an edge
        enters or leaves, or keeps crossing over another column span, gets
        its crossing list and total width updated and becomes pending; the
        fold itself waits until a query needs it.
        """
        if not changed:
            return
        width, route_of = self._width, self.route_of
        dirty: set[int] = set()
        entering: dict[int, list[int]] = {}
        leaving: dict[int, list[int]] = {}
        for eid, route in changed.items():
            old = route_of[eid]
            same_span = old[1] == route[1] and old[2] == route[2]
            for y in old[0]:
                if y not in route[0]:
                    leaving.setdefault(y, []).append(eid)
                elif same_span:
                    continue  # still crossing y over the same columns
                dirty.add(y)
            for y in route[0]:
                if y not in old[0]:
                    entering.setdefault(y, []).append(eid)
                elif same_span:
                    continue
                dirty.add(y)
        route_of = self.route_of = route_of.copy()
        for eid, route in changed.items():
            route_of[eid] = route
        if not dirty:
            return
        crossing, total = dict(self.crossing), dict(self._total)
        for y in entering.keys() | leaving.keys():
            eids = crossing[y] = list(crossing[y])
            for e in leaving.get(y, ()):
                del eids[bisect_left(eids, e)]
                total[y] -= width[e]
            for e in entering.get(y, ()):
                insort(eids, e)
                total[y] += width[e]
        self.crossing, self._total = crossing, total
        self._pending = self._pending | dirty

    # -- queries ---------------------------------------------------------------

    def over_budget(self) -> list[tuple[int, int, int, float]]:
        """Halves whose wire load exceeds the SLL budget, in (y, x) order: the
        one overflow report, folding every pending boundary first.

        Each entry is (boundary y, half x, wires used, budget).
        """
        loads, caps, budget = self.boundary_loads, self._caps, self.budget
        limit = self.device.sll_limit
        return [(y, x, used, limit * caps[y][x])
                for y in sorted(loads) for x, used in sorted(loads[y].items())
                if used > budget[y][x]]

    def rejects(self, changed: dict[int, tuple]) -> bool:
        """True when the route changes ``changed`` (``route_changes``) would
        put some boundary's total crossing width over its reject bound, so
        the move cannot be feasible.  Changes nothing."""
        total, bound = self._total, self._reject_bound
        width, route_of = self._width, self.route_of
        delta: dict[int, int] = {}  # boundary row -> change of its total width
        for eid, route in changed.items():
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
            budget = self.budget[y]
            for x, used in self._loads[y].items():
                if used > budget[x]:
                    return False
        return True

    def max_utilization(self) -> float:
        """The largest fill ratio (``kind_ratio``) of any half a wire uses,
        0.0 when no wire crosses a die boundary."""
        caps = self._caps
        return max((kind_ratio(used, caps[y][x])
                    for y, loads in self.boundary_loads.items() for x, used in loads.items()),
                   default=0.0)
