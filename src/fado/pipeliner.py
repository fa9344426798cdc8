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

A state holds what a placement determines.  What the device or the design
alone fixes is derived once, on the model objects: a slot pair's route
(``DeviceModel.routes``: die rows crossed, lowest and highest column,
register groups), each die boundary's capacities, budgets and bounds
(``DeviceModel.boundary_table``), the edge widths by id and each function's
FIFO edges (``DesignGraph.fifo_width`` and ``fifo_of``).  Besides its
device and design a state is five objects: the routes, a list indexed by
edge id holding each FIFO edge's route and None for a RAM edge, and per die
boundary its sorted crossing list, total crossing width and folded loads,
plus the set of boundaries pending a fold.  Each is replaced whole, never
changed in place, so ``moved`` can return the state after a move as a new
object that shares every unchanged one with its source, which it leaves as
it was: a move costs what it changes, and one ``list.copy()`` of the
routes.  Register groups are read from the routes.  A state is built in one
way, ``recompute_all``, which routes every FIFO edge and leaves every
boundary pending.  ``update`` takes a move's route changes, ``{edge id: new
route}``, and touches only the boundaries in those edges' old and new die
rows.  Neither folds: they keep each boundary's crossing list and total
width current and mark the boundary pending.  A pending boundary is later
folded whole from its crossing list, in one walk: an edge whose span is one
column adds its width there directly.  A wider span compares its columns'
loads on an even boundary, one whose halves share one positive capacity,
and their fill ratios on any other; both choose the same column (see
``_fold``).

The fold waits until a query needs it, and most questions are decided
without it.  A half's budget (``fit_budget``) is ``sll_limit`` times its
capacity plus ``LIMIT_EPS``, and the fold puts every edge on one column of
its span, so two constants per boundary bound its total crossing width
exactly for any fold:

- reject: a total above the sum of the half budgets, each rounded down to
  whole wires (``floored_total``, as for the slots' device-wide bound),
  must overflow some half;
- accept: a total within the narrowest half's budget cannot overflow any
  half (a zero-capacity half's budget is ``LIMIT_EPS``, so the bound fails
  unless nothing crosses).

``feasible`` first checks every boundary against both bounds, then folds,
if pending, and checks only the boundaries left in between, one at a time,
returning False at the first one over budget.  Every fold is stored,
whether or not it fits.  ``moved`` decides a trial move in one call: one
pass over the moving functions' FIFO edges finds each changed route and
each boundary's change of total width, so a move that would put some
boundary over its reject bound is refused before anything is built;
otherwise ``update`` builds the state after the move, which is kept only
if ``feasible``.  ``boundary_loads`` and ``over_budget`` fold every pending
boundary first; ``over_budget`` is the one report of halves over budget,
which ``PackState.check_legal`` words and the exact oracle reads.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from .model import DesignGraph, DeviceModel, kind_ratio


def recompute_all(device: DeviceModel, graph: DesignGraph, placement: dict) -> "SllState":
    """The routing state of a placement, built from scratch: the one way to
    build one.  Every boundary is left pending, as ``update`` leaves the
    boundaries it touches, so no fold runs until a query needs it."""
    routes, width = device.routes, graph.fifo_width
    crossing: dict[int, list[int]] = {y: [] for y in device.boundary_table}
    route_of = [None] * len(graph.edges)
    for e in graph.fifo_edges():
        route = route_of[e.index] = routes[placement[e.src], placement[e.dst]]
        for y in route[0]:
            crossing[y].append(e.index)
    state = SllState()
    state.device, state.graph, state.route_of, state.crossing = device, graph, route_of, crossing
    state._total = {y: sum(width[eid] for eid in eids) for y, eids in crossing.items()}
    state._loads, state._pending = {}, frozenset(crossing)
    return state


class SllState:
    """Per-boundary SLL loads and per-edge register groups for a placement.

    A state holds only what its placement determines (see the module
    docstring); the routes, budgets and bounds it reads are its device's
    (``routes``, ``boundary_table``) and its design's (``fifo_width``,
    ``fifo_of``).  ``recompute_all`` builds one from scratch; ``update``
    rebuilds only the boundaries a set of route changes touches, and
    ``moved`` does so on a new object, for a move it has decided.  All end
    in identical state for the same placement, once the pending boundaries
    are folded.  No state object is changed in place.  ``boundary_loads``
    maps a boundary row to ``{half: wires}``, folding the pending
    boundaries first, and ``reg_groups`` maps each edge id that carries
    register groups to their count.
    """

    route_of: list  # by edge id: a FIFO edge's route, None for a RAM edge
    crossing: dict[int, list[int]]  # boundary row -> crossing edge ids, ascending
    _total: dict[int, int]  # boundary row -> total crossing width
    _loads: dict[int, dict[int, int]]  # folded boundary row -> its loads
    _pending: frozenset  # boundary rows not yet folded

    @property
    def boundary_loads(self) -> dict[int, dict[int, int]]:
        for y in self._pending:
            self._fold(y)
        return self._loads

    @property
    def reg_groups(self) -> dict[int, int]:
        return {eid: route[3] for eid, route in enumerate(self.route_of) if route and route[3]}

    # -- core fold ---------------------------------------------------------

    def _fold(self, y: int) -> None:
        """Fold pending boundary y into a fresh ``{half: wires}`` and keep it.

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
        this path is taken only when the boundary's total crossing width,
        which bounds every load, is below that.  Two zero-capacity halves
        tie on ratio whatever their loads, so they keep the ratio walk, as
        do unequal halves.
        """
        caps, _, _, _, even = self.device.boundary_table[y]
        width, route_of = self.graph.fifo_width, self.route_of
        loads = [0] * len(caps)
        if even and self._total[y] < 2**52:
            load_of = loads.__getitem__
            for eid in self.crossing[y]:
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
            for eid in self.crossing[y]:
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
        self._loads = {**self._loads, y: {x: used for x, used in enumerate(loads) if used}}
        self._pending = self._pending - {y}

    # -- incremental rebuild --------------------------------------------------

    def moved(self, placement: dict, members, dest: int) -> "SllState | None":
        """The state after ``members`` move to slot ``dest``, the others
        staying where ``placement`` puts them, or None when some half would
        be over budget, decided in one call (see the module docstring).  The
        new state shares every unchanged object with this one, which stays
        as it was."""
        routes, fifo_of, width = self.device.routes, self.graph.fifo_of, self.graph.fifo_width
        route_of, at = self.route_of, dict.fromkeys(members, dest)
        changed: dict[int, tuple] = {}
        delta: dict[int, int] = {}  # boundary row -> change of its total width
        for f in members:
            for e in fifo_of[f]:
                eid = e.index
                if eid in changed:
                    continue  # both ends move, or a self-loop
                route = routes[at.get(e.src, placement[e.src]), at.get(e.dst, placement[e.dst])]
                old = route_of[eid]
                if route != old:
                    changed[eid] = route
                    w = width[eid]
                    for y in old[0]:
                        delta[y] = delta.get(y, 0) - w
                    for y in route[0]:
                        delta[y] = delta.get(y, 0) + w
        total, table = self._total, self.device.boundary_table
        if any(total[y] + d > table[y][2] for y, d in delta.items()):
            return None
        new = object.__new__(SllState)  # a shallow copy, without copy.copy's cost
        new.__dict__.update(self.__dict__)
        new.update(changed)
        return new if new.feasible() else None

    def update(self, changed: dict[int, tuple]) -> None:
        """Re-derive state after functions changed slots, from the route
        changes of their FIFO edges, ``{edge id: new route}``.

        Only those edges are re-examined.  A boundary that such an edge
        enters or leaves, or keeps crossing over another column span, gets
        its crossing list and total width updated and becomes pending; the
        fold itself waits until a query needs it.
        """
        if not changed:
            return
        width, route_of = self.graph.fifo_width, self.route_of
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
        loads, table, limit = self.boundary_loads, self.device.boundary_table, self.device.sll_limit
        return [(y, x, used, limit * table[y][0][x])
                for y in sorted(loads) for x, used in sorted(loads[y].items())
                if used > table[y][1][x]]

    def feasible(self) -> bool:
        """True when no half is over budget.

        Every boundary is first checked against the reject and accept
        bounds (see the module docstring); only the boundaries left in doubt
        are folded, if pending, and checked, one at a time.
        """
        table = self.device.boundary_table
        doubt = []
        for y, total in self._total.items():
            _, _, reject, accept, _ = table[y]
            if total > reject:
                return False
            if total > accept:
                doubt.append(y)
        for y in doubt:
            if y in self._pending:
                self._fold(y)
            budget = table[y][1]
            for x, used in self._loads[y].items():
                if used > budget[x]:
                    return False
        return True

    def max_utilization(self) -> float:
        """The largest fill ratio (``kind_ratio``) of any half a wire uses,
        0.0 when no wire crosses a die boundary."""
        table = self.device.boundary_table
        return max((kind_ratio(used, table[y][0][x])
                    for y, loads in self.boundary_loads.items() for x, used in loads.items()),
                   default=0.0)
