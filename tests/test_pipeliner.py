from __future__ import annotations

import random
from copy import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fado.model import design_from_dict, device_from_dict
from fado.pipeliner import SllState, recompute_all

from helpers import (
    design_doc,
    device_doc,
    grid_documents,
    parse,
    reference_fold,
    route_changes,
    sll_fingerprint,
    slot_at,
)


def _grid(width, height, *, sll=1000, io_cols=(), sll_limit=0.9):
    return device_from_dict(device_doc(
        width=width, height=height, sll=sll, io_cols=io_cols, sll_limit=sll_limit))


def _rows_of(state, eid):
    """Boundary rows that edge ``eid`` crosses."""
    return sorted(y for y, eids in state.crossing.items() if eid in eids)


def _chain_graph(n, widths, kinds=None):
    names = [f"f{i}" for i in range(n)]
    kinds = kinds or ["fifo"] * (n - 1)
    return design_from_dict(design_doc(
        [(f"K{i}", "dataflow", [names[i]]) for i in range(n)],
        [(names[i], names[i + 1], kinds[i], widths[i]) for i in range(n - 1)],
    ))


# ---------------------------------------------------------------------------
# Routes, as the device looks them up


def _route(dev, src, dst):
    """The device's route from the slot at (x, y) ``src`` to the one at ``dst``."""
    return dev.routes[slot_at(dev, *src).id, slot_at(dev, *dst).id]


def test_a_route_crosses_the_die_rows_strictly_between_its_ends():
    dev = _grid(2, 4, io_cols=[0])
    assert _route(dev, (0, 3), (0, 0)) == ((0, 1, 2), 0, 0, 3)
    assert _route(dev, (0, 0), (0, 3)) == ((0, 1, 2), 0, 0, 3)
    assert _route(dev, (0, 1), (0, 2)) == ((1,), 0, 0, 1)
    assert _route(dev, (0, 2), (0, 2)) == ((), 0, 0, 0)


def test_a_route_counts_the_io_columns_it_crosses():
    dev = _grid(2, 2, io_cols=[0])
    assert _route(dev, (0, 0), (1, 0)) == ((), 0, 1, 1)
    assert _route(dev, (1, 0), (0, 0)) == ((), 0, 1, 1)
    assert _route(dev, (1, 0), (1, 0)) == ((), 1, 1, 0)


def test_allowed_halves_is_the_column_span():
    # a route's lowest and highest column bound the halves an edge may use
    dev = _grid(3, 2)
    for xs, xd, lo, hi in ((0, 2, 0, 2), (2, 0, 0, 2), (1, 1, 1, 1)):
        rows, *span, _ = _route(dev, (xs, 0), (xd, 1))
        assert rows == (0,) and span == [lo, hi]


def test_states_of_one_device_and_design_share_what_they_fix():
    # a state holds only what its placement determines; routes, boundary
    # bounds and edge widths are derived once for every state of the pair
    dev, graph = _grid(2, 2, io_cols=[0]), _chain_graph(3, [8, 8])
    a = recompute_all(dev, graph, {"f0": 0, "f1": 3, "f2": 1})
    b = recompute_all(dev, graph, {"f0": 1, "f1": 2, "f2": 0})
    assert a.device.routes is b.device.routes is dev.routes
    assert a.device.boundary_table is b.device.boundary_table is dev.boundary_table
    assert a.graph.fifo_width is b.graph.fifo_width
    assert a.graph.fifo_of is b.graph.fifo_of
    assert set(vars(a)) == set(vars(b)) == {
        "device", "graph", "route_of", "crossing", "_total", "_loads", "_pending"}
    assert "__init__" not in vars(SllState)


# ---------------------------------------------------------------------------
# Single-edge routing, as the fold records it


def test_route_staircase_counts_die_and_io_crossings():
    dev = _grid(2, 4, io_cols=[0])
    graph = _chain_graph(2, [8])
    state = recompute_all(dev, graph, {"f0": slot_at(dev, 0, 3).id, "f1": slot_at(dev, 1, 0).id})
    assert state.reg_groups == {0: 4}  # three die rows and one io column
    assert _rows_of(state, 0) == [0, 1, 2]
    for y in (0, 1, 2):
        assert sum(state.boundary_loads[y].values()) == 8


def test_route_within_one_die_needs_no_sll():
    dev = _grid(2, 4, io_cols=[0])
    graph = _chain_graph(2, [8])
    same = recompute_all(dev, graph, {"f0": slot_at(dev, 0, 1).id, "f1": slot_at(dev, 0, 1).id})
    assert 0 not in same.reg_groups
    assert _rows_of(same, 0) == []
    io_only = recompute_all(dev, graph, {"f0": slot_at(dev, 0, 1).id, "f1": slot_at(dev, 1, 1).id})
    assert io_only.reg_groups == {0: 1}
    assert _rows_of(io_only, 0) == []
    assert all(not loads for loads in io_only.boundary_loads.values())


def test_route_rejects_an_over_budget_half():
    dev = _grid(1, 2, sll=10, sll_limit=0.9)
    wide = recompute_all(dev, _chain_graph(2, [16]), {"f0": 0, "f1": 1})
    assert wide.over_budget() == [(0, 0, 16, 9.0)]
    assert not wide.feasible()
    fits = recompute_all(dev, _chain_graph(2, [9]), {"f0": 0, "f1": 1})
    assert fits.over_budget() == []
    assert fits.feasible()


def test_route_refuses_ram_edges():
    # RAM edges pin their ends to one slot; they never take wires or registers
    dev = _grid(2, 2, sll=0, io_cols=[0])
    graph = _chain_graph(2, [32], kinds=["ram"])
    state = recompute_all(dev, graph, {"f0": 0, "f1": 3})  # across die and io
    assert 0 not in state.reg_groups
    assert _rows_of(state, 0) == []
    assert state.feasible()


# ---------------------------------------------------------------------------
# Incremental state


def test_colocated_then_moved_edge_gains_register_groups():
    dev = _grid(2, 2, io_cols=[0])
    graph = _chain_graph(2, [12])
    placement = {"f0": 0, "f1": 0}
    state = recompute_all(dev, graph, placement)
    assert 0 not in state.reg_groups
    assert state.boundary_loads.get(0, {}) == {}

    placement["f1"] = 3  # (x=1, y=1): one die row and one io column away
    state.update(route_changes(state, placement))
    assert state.reg_groups == {0: 2}
    assert state.boundary_loads[0] == {0: 12}


def test_move_away_and_back_is_bit_identical():
    dev = _grid(2, 2, io_cols=[0])
    graph = _chain_graph(4, [8, 16, 4])
    placement = {"f0": 0, "f1": 1, "f2": 2, "f3": 3}
    state = recompute_all(dev, graph, placement)
    before = sll_fingerprint(state)

    placement["f2"] = 1
    state.update(route_changes(state, placement))
    placement["f2"] = 2
    state.update(route_changes(state, placement))
    assert sll_fingerprint(state) == before


def test_register_groups_map_only_the_edges_that_carry_them():
    # a RAM edge and a FIFO edge within one slot carry none
    dev = _grid(2, 2, io_cols=[0])
    graph = _chain_graph(4, [8, 32, 4], kinds=["fifo", "ram", "fifo"])
    placement = {"f0": 0, "f1": 3, "f2": 3, "f3": 3}
    state = recompute_all(dev, graph, placement)
    assert state.reg_groups == {0: 2}

    placement["f3"] = 0  # back across the die row and the io column
    state.update(route_changes(state, placement))
    assert state.reg_groups == {0: 2, 2: 2}


def test_non_fifo_edges_carry_no_wires():
    dev = _grid(1, 2)
    graph = _chain_graph(2, [32], kinds=["ram"])
    state = recompute_all(dev, graph, {"f0": 0, "f1": 1})
    assert state.boundary_loads.get(0, {}) == {}
    assert 0 not in state.reg_groups
    assert state.over_budget() == []


def test_sll_loads_conserve_total_crossing_width():
    dev = _grid(2, 4, io_cols=[0])
    rng = random.Random(5)
    graph = _chain_graph(8, [rng.choice((4, 8, 16, 32)) for _ in range(7)])
    for _ in range(20):
        placement = {f: rng.randrange(8) for f in graph.functions}
        state = recompute_all(dev, graph, placement)
        for b in dev.die_boundaries:
            want = 0
            for e in graph.fifo_edges():
                ys = dev.slot(placement[e.src]).y
                yd = dev.slot(placement[e.dst]).y
                if min(ys, yd) <= b.y < max(ys, yd):
                    want += e.width
            assert sum(state.boundary_loads.get(b.y, {}).values()) == want


def test_a_fresh_build_folds_only_what_a_query_needs(monkeypatch):
    # 2x4 grid of 9-wire halves (accept bound 9, reject bound 18): 4 wires
    # cross y=0 in column 0, 10 wires cross y=1 over both columns, and
    # nothing crosses y=2
    dev = _grid(2, 4, sll=10)
    graph = _pairs_graph([4, 5, 5])
    placement = {"s0": 0, "d0": 2, "s1": 2, "d1": 5, "s2": 2, "d2": 5}
    real_fold = SllState._fold
    folded = []

    def record(self, y, *args):
        folded.append(y)
        return real_fold(self, y, *args)

    monkeypatch.setattr(SllState, "_fold", record)
    state = recompute_all(dev, graph, placement)
    assert folded == []
    assert state.boundary_loads == {0: {0: 4}, 1: {0: 5, 1: 5}, 2: {}}
    assert sorted(folded) == [0, 1, 2]
    assert state.boundary_loads[1] == {0: 5, 1: 5}  # folded once, kept
    assert sorted(folded) == [0, 1, 2]

    folded.clear()
    state = recompute_all(dev, graph, placement)
    assert state.feasible()
    assert folded == [1]  # the one boundary between the bounds
    assert state.over_budget() == []
    assert sorted(folded) == [0, 1, 2]


_GRAPH = _chain_graph(6, [8, 16, 4, 32, 8])
_DEV = _grid(2, 3, io_cols=[0], sll=500)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=12))
def test_incremental_update_equals_recompute(moves):
    placement = {f"f{i}": i for i in range(6)}
    state = recompute_all(_DEV, _GRAPH, placement)
    for fn_idx, dest in moves:
        fn = f"f{fn_idx}"
        placement[fn] = dest
        state.update(route_changes(state, placement))
        fresh = recompute_all(_DEV, _GRAPH, placement)
        assert sll_fingerprint(state) == sll_fingerprint(fresh)


def test_moved_leaves_its_source_as_it_was():
    dev = _grid(2, 2, io_cols=[0])
    graph = _chain_graph(3, [8, 8])
    placement = {"f0": 0, "f1": 3, "f2": 1}
    state = recompute_all(dev, graph, placement)
    fp = sll_fingerprint(state)
    moved = state.moved(placement, ("f1",), 0)
    assert sll_fingerprint(moved) == sll_fingerprint(recompute_all(dev, graph, {**placement, "f1": 0}))
    assert sll_fingerprint(moved) != fp
    assert sll_fingerprint(state) == fp


@st.composite
def _wired_instance(draw):
    """A device of 1-3 columns and 1-4 rows with some die rows, io columns
    and zero-capacity halves, about half its boundaries with one capacity
    shared by all their halves, and one dataflow kernel of 2-8 functions
    with random FIFO and RAM edges (self-loops and parallel edges
    included)."""
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    doc = device_doc(
        width, height,
        die_rows=draw(st.lists(st.integers(0, height - 2), unique=True)) if height > 1 else [],
        io_cols=draw(st.lists(st.integers(0, width - 2), unique=True)) if width > 1 else [],
    )
    capacity = st.sampled_from((0, 8, 24, 64, 256))
    for boundary in doc["die_boundaries"]:
        # about half the boundaries share one capacity over all their halves
        shared = draw(capacity) if draw(st.booleans()) else None
        for half in boundary["halves"]:
            half["sll_capacity"] = draw(capacity) if shared is None else shared
    names = [f"f{i}" for i in range(draw(st.integers(2, 8)))]
    fn = st.sampled_from(names)
    edges = draw(st.lists(
        st.tuples(fn, fn, st.sampled_from(("fifo", "fifo", "ram")), st.sampled_from((1, 4, 8, 16))),
        max_size=16,
    ))
    return device_from_dict(doc), design_from_dict(design_doc([("K", "dataflow", names)], edges))


def _pending_fingerprint(state):
    """The state's fingerprint, read from a copy so that the fold it forces
    is not kept: pending boundaries stay pending, and later steps still
    meet them."""
    return sll_fingerprint(copy(state))


def _move(names, slot):
    """A strategy for one move: 1-3 of ``names`` and the slot they go to."""
    return st.tuples(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True), slot)


@settings(max_examples=200, deadline=None)
@given(_wired_instance(), st.data())
def test_update_and_moved_match_recompute(instance, data):
    dev, graph = instance
    names = sorted(graph.functions)
    slot = st.sampled_from([s.id for s in dev.slots])
    placement = {f: data.draw(slot) for f in names}
    state = recompute_all(dev, graph, placement)
    saved = []  # (state, fingerprint, placement) of each state left behind
    for _ in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from(("update", "moved", "moved", "back")))
        if op == "back" and saved:
            # any state left behind, the older ones after later moves
            # included; a copy, since "update" changes the state in place
            source, fp, at = saved[data.draw(st.integers(0, len(saved) - 1))]
            assert _pending_fingerprint(source) == fp
            state, placement = copy(source), dict(at)
        elif op == "update":
            moves = data.draw(st.dictionaries(st.sampled_from(names), slot, min_size=1, max_size=3))
            placement = {**placement, **moves}
            state.update(route_changes(state, placement))
        else:
            members, dest = data.draw(_move(names, slot))
            fp = _pending_fingerprint(state)
            after = {**placement, **dict.fromkeys(members, dest)}
            moved = state.moved(placement, members, dest)
            assert _pending_fingerprint(state) == fp
            # a refused move leaves the state and placement as they were
            assert (moved is not None) == (not recompute_all(dev, graph, after).over_budget())
            if moved is not None:
                saved.append((state, fp, placement))
                state, placement = moved, after
        fresh = recompute_all(dev, graph, placement)
        # feasible() first, while boundaries may still be pending
        assert state.feasible() == (not fresh.over_budget())
        # as the oracle asks it, of a fresh build with every boundary pending
        assert recompute_all(dev, graph, placement).feasible() == state.feasible()
        assert state.crossing == fresh.crossing
        assert _pending_fingerprint(state) == sll_fingerprint(fresh)
    assert sll_fingerprint(state) == sll_fingerprint(recompute_all(dev, graph, placement))


@settings(max_examples=150, deadline=None)
@given(grid_documents(), st.data())
def test_moved_leaves_its_source_and_matches_recompute(docs, data):
    dev, graph, _ = parse(*docs)
    names = sorted(graph.functions)
    slot = st.sampled_from([s.id for s in dev.slots])
    placement = {f: data.draw(slot) for f in names}
    state = recompute_all(dev, graph, placement)
    for _ in range(data.draw(st.integers(1, 8))):
        members, dest = data.draw(_move(names, slot))
        fp = _pending_fingerprint(state)
        moved = state.moved(placement, members, dest)
        assert _pending_fingerprint(state) == fp
        after = {**placement, **dict.fromkeys(members, dest)}
        fresh = recompute_all(dev, graph, after)
        assert (moved is not None) == (not fresh.over_budget())
        if moved is not None:
            assert moved.feasible()
            assert _pending_fingerprint(state) == fp  # folds on the new state stay there
            assert sll_fingerprint(moved) == sll_fingerprint(fresh)
            state, placement = moved, after


def test_width_bound_fails_on_a_zero_capacity_half():
    # 2 columns x 2 rows, one die boundary whose column-0 half has no wires
    doc = device_doc(width=2, height=2, sll=100)
    doc["die_boundaries"][0]["halves"][0]["sll_capacity"] = 0
    dev = device_from_dict(doc)
    graph = _chain_graph(2, [8])
    placement = {"f0": slot_at(dev, 1, 0).id, "f1": slot_at(dev, 1, 1).id}
    state = recompute_all(dev, graph, placement)
    assert state.feasible()  # 8 wires in column 1, well under its 90
    # the move leaves the boundary pending; 8 wires are within the reject
    # bound, but the column-0 half cannot take a single one, so the accept
    # bound fails, and the fold, with only column 0 to use, finds it over
    placement.update(f0=slot_at(dev, 0, 0).id, f1=slot_at(dev, 0, 1).id)
    state.update(route_changes(state, placement))
    assert not state.feasible()
    assert state.over_budget() == [(0, 0, 8, 0.0)]
    # nothing crossing passes even with the zero-capacity half
    placement["f1"] = slot_at(dev, 0, 0).id
    state.update(route_changes(state, placement))
    assert state.feasible()
    assert state.boundary_loads[0] == {}


def _pairs_graph(widths):
    """Edges s<i> -> d<i> of the given widths, in that index order."""
    names = [f"{end}{i}" for i in range(len(widths)) for end in "sd"]
    return design_from_dict(design_doc(
        [("K", "dataflow", names)],
        [(f"s{i}", f"d{i}", "fifo", w) for i, w in enumerate(widths)],
    ))


def test_a_refold_still_counts_the_unchanged_edges():
    # 2x2 grid, 9-wire half budgets: edge 0 already holds 16 wires in
    # column 0; edge 1 then enters across both columns, and the refold,
    # which counts edge 0 again before choosing edge 1, puts edge 1 on
    # column 1 and finds column 0 over
    dev = _grid(2, 2, sll=10)
    graph = _pairs_graph([16, 1])
    placement = {"s0": 0, "d0": 2, "s1": 0, "d1": 0}
    state = recompute_all(dev, graph, placement)
    placement["d1"] = 3
    state.update(route_changes(state, placement))
    assert not state.feasible()
    assert state.boundary_loads[0] == {0: 16, 1: 1}


def _spans_instance(caps, edges):
    """One die boundary on a grid of len(caps) columns and 2 rows, with
    halves of capacities ``caps``, and edge i from (xs, 0) to (xd, 1) for
    its ``(width, (xs, xd))`` in ``edges``."""
    doc = device_doc(width=len(caps), height=2)
    for half, cap in zip(doc["die_boundaries"][0]["halves"], caps):
        half["sll_capacity"] = cap
    dev = device_from_dict(doc)
    graph = _pairs_graph([w for w, _ in edges])
    placement = {}
    for i, (_, (xs, xd)) in enumerate(edges):
        placement[f"s{i}"], placement[f"d{i}"] = slot_at(dev, xs, 0).id, slot_at(dev, xd, 1).id
    return dev, graph, placement


@pytest.mark.parametrize("caps, edges, loads", [
    # equal ratios tie to the lower column
    ((100, 100), [(8, (0, 1))], {0: 8}),
    # the lowest fill ratio after adding the edge wins, counting earlier edges
    ((100, 100), [(50, (0, 0)), (8, (0, 1))], {0: 50, 1: 8}),
    ((100, 100), [(8, (0, 1)), (8, (0, 1)), (8, (0, 1))], {0: 16, 1: 8}),
    # a smaller half loses even when both are empty
    ((50, 100), [(8, (0, 1))], {1: 8}),
    # a zero-capacity half ranks last while another half has wires...
    ((0, 10), [(8, (0, 1))], {1: 8}),
    # ...and between two of them the tie goes to the lower column
    ((0, 0), [(8, (0, 1))], {0: 8}),
    # a three-column tie goes to the lowest of the tied columns
    ((100, 100, 100), [(8, (0, 0)), (4, (0, 2)), (4, (0, 2)), (4, (0, 2))], {0: 8, 1: 8, 2: 4}),
    # three zero-capacity halves tie on ratio whatever their loads
    ((0, 0, 0), [(8, (0, 2)), (8, (0, 2)), (4, (1, 2))], {0: 16, 1: 4}),
])
def test_fold_takes_the_lowest_post_add_ratio_then_the_lower_column(caps, edges, loads):
    dev, graph, placement = _spans_instance(caps, edges)
    assert recompute_all(dev, graph, placement).boundary_loads[0] == loads


_CAP = st.sampled_from((0, 1, 3, 8, 64))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda width: st.tuples(
    st.one_of(_CAP.map(lambda cap: (cap,) * width), st.tuples(*[_CAP] * width)),
    st.lists(st.tuples(st.sampled_from((1, 1, 2, 4)),
                       st.tuples(st.integers(0, width - 1), st.integers(0, width - 1))),
             min_size=1, max_size=24),
)))
def test_an_even_boundary_folds_as_the_reference_rule(boundary):
    # every half shares one capacity, zero included, or each half has its
    # own, so an even boundary is told apart from an uneven one; edges run
    # over every sub-span in either direction, and small equal widths keep
    # loads tied
    dev, graph, placement = _spans_instance(*boundary)
    assert recompute_all(dev, graph, placement).boundary_loads[0] == reference_fold(
        dev, graph, placement, 0)


@settings(max_examples=200, deadline=None)
@given(_wired_instance(), st.data())
def test_every_fold_matches_the_reference_rule(instance, data):
    dev, graph = instance
    names = sorted(graph.functions)
    slot = st.sampled_from([s.id for s in dev.slots])
    placement = {f: data.draw(slot) for f in names}
    state = recompute_all(dev, graph, placement)
    for _ in range(data.draw(st.integers(0, 6))):
        moves = data.draw(st.dictionaries(st.sampled_from(names), slot, min_size=1, max_size=3))
        placement.update(moves)
        state.update(route_changes(state, placement))
    assert state.boundary_loads == {
        b.y: reference_fold(dev, graph, placement, b.y) for b in dev.die_boundaries
    }


def test_the_accept_bound_is_the_narrowest_half():
    # a 90-wire and a 9-wire half: 10 wires in column 1 are within the
    # larger budget and the reject bound, but not within the narrowest
    # half's, so the boundary is folded and found over
    doc = device_doc(width=2, height=2, sll=100)
    doc["die_boundaries"][0]["halves"][1]["sll_capacity"] = 10
    dev = device_from_dict(doc)
    graph = _pairs_graph([10])
    placement = {"s0": 1, "d0": 1}
    state = recompute_all(dev, graph, placement)
    placement["d0"] = 3
    state.update(route_changes(state, placement))
    assert not state.feasible()
    assert state.over_budget() == [(0, 1, 10, 9.0)]


def test_feasible_folds_only_above_the_narrowest_half(monkeypatch):
    # 2x2 grid, 9-wire halves; both edges end up crossing over both columns
    dev = _grid(2, 2, sll=10)

    def pending_state(widths):
        placement = {"s0": 0, "d0": 0, "s1": 0, "d1": 0}
        state = recompute_all(dev, _pairs_graph(widths), placement)
        placement.update(d0=3, d1=3)
        state.update(route_changes(state, placement))
        return state

    within, above = pending_state([4, 5]), pending_state([5, 5])
    real_fold = SllState._fold
    folded = []

    def refuse(self, y, *args):
        raise AssertionError(f"boundary {y} folded within the accept bound")

    def record(self, y, *args):
        folded.append(y)
        return real_fold(self, y, *args)

    monkeypatch.setattr(SllState, "_fold", refuse)
    assert within.feasible()  # 9 wires
    monkeypatch.setattr(SllState, "_fold", record)
    assert above.feasible()  # 10 wires: folded, one edge per half
    assert folded == [0]
    assert above.boundary_loads[0] == {0: 5, 1: 5}
