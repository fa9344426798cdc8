from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fado.model import design_from_dict, device_from_dict
from fado.pipeliner import (
    SllState,
    allowed_halves,
    choose_half,
    crossed_die_rows,
    crossed_io_cols,
    recompute_all,
)

from helpers import design_doc, device_doc


def _grid(width, height, *, sll=1000, io_cols=(), sll_limit=0.9):
    return device_from_dict(device_doc(
        width=width, height=height, sll=sll, io_cols=io_cols, sll_limit=sll_limit))


def _chain_graph(n, widths, kinds=None):
    names = [f"f{i}" for i in range(n)]
    kinds = kinds or ["fifo"] * (n - 1)
    return design_from_dict(design_doc(
        [(f"K{i}", "dataflow", [names[i]]) for i in range(n)],
        [(names[i], names[i + 1], kinds[i], widths[i]) for i in range(n - 1)],
    ))


# ---------------------------------------------------------------------------
# Geometry helpers


def test_crossed_die_rows_are_strictly_between_endpoints():
    dev = _grid(2, 4, io_cols=[0])
    assert crossed_die_rows(dev, 3, 0) == [0, 1, 2]
    assert crossed_die_rows(dev, 0, 3) == [0, 1, 2]
    assert crossed_die_rows(dev, 1, 2) == [1]
    assert crossed_die_rows(dev, 2, 2) == []


def test_crossed_io_cols():
    dev = _grid(2, 2, io_cols=[0])
    assert crossed_io_cols(dev, 0, 1) == [0]
    assert crossed_io_cols(dev, 1, 0) == [0]
    assert crossed_io_cols(dev, 1, 1) == []


def test_allowed_halves_is_the_column_span():
    assert list(allowed_halves(0, 2)) == [0, 1, 2]
    assert list(allowed_halves(2, 0)) == [0, 1, 2]
    assert list(allowed_halves(1, 1)) == [1]


def test_choose_half_min_ratio_then_lower_column():
    halves = {0: 100, 1: 100}
    assert choose_half(halves, {}, 8, [0, 1]) == 0
    assert choose_half(halves, {0: 50}, 8, [0, 1]) == 1
    # smaller capacity loses even when both are empty
    assert choose_half({0: 50, 1: 100}, {}, 8, [0, 1]) == 1
    # zero capacity is never chosen while an alternative exists
    assert choose_half({0: 0, 1: 10}, {}, 8, [0, 1]) == 1


# ---------------------------------------------------------------------------
# Single-edge routing, as the fold records it


def test_route_staircase_counts_die_and_io_crossings():
    dev = _grid(2, 4, io_cols=[0])
    graph = _chain_graph(2, [8])
    state = recompute_all(dev, graph, {"f0": dev.slot_at(0, 3).id, "f1": dev.slot_at(1, 0).id})
    assert state.reg_groups[0] == 4  # three die rows and one io column
    assert sorted(state.edge_halves[0]) == [0, 1, 2]
    for y in (0, 1, 2):
        assert sum(state.boundary_loads[y].values()) == 8


def test_route_within_one_die_needs_no_sll():
    dev = _grid(2, 4, io_cols=[0])
    graph = _chain_graph(2, [8])
    same = recompute_all(dev, graph, {"f0": dev.slot_at(0, 1).id, "f1": dev.slot_at(0, 1).id})
    assert same.reg_groups[0] == 0
    assert same.edge_halves[0] == {}
    io_only = recompute_all(dev, graph, {"f0": dev.slot_at(0, 1).id, "f1": dev.slot_at(1, 1).id})
    assert io_only.reg_groups[0] == 1
    assert io_only.edge_halves[0] == {}
    assert all(not loads for loads in io_only.boundary_loads.values())


def test_route_rejects_an_over_budget_half():
    dev = _grid(1, 2, sll=10, sll_limit=0.9)
    wide = recompute_all(dev, _chain_graph(2, [16]), {"f0": 0, "f1": 1})
    assert wide.over_budget() == [(0, 0, 16, 9.0)]
    assert wide.violations() == ["boundary y=0 half x=0: 16 wires exceed budget 9.0"]
    assert not wide.feasible()
    fits = recompute_all(dev, _chain_graph(2, [9]), {"f0": 0, "f1": 1})
    assert fits.over_budget() == []
    assert fits.feasible()


def test_route_refuses_ram_edges():
    # RAM edges pin their ends to one slot; they never take wires or registers
    dev = _grid(2, 2, sll=0, io_cols=[0])
    graph = _chain_graph(2, [32], kinds=["ram"])
    state = recompute_all(dev, graph, {"f0": 0, "f1": 3})  # across die and io
    assert state.reg_groups[0] == 0
    assert state.edge_halves[0] == {}
    assert state.feasible()


# ---------------------------------------------------------------------------
# Incremental state


def test_colocated_then_moved_edge_gains_register_groups():
    dev = _grid(2, 2, io_cols=[0])
    graph = _chain_graph(2, [12])
    placement = {"f0": 0, "f1": 0}
    state = recompute_all(dev, graph, placement)
    assert state.reg_groups[0] == 0
    assert state.boundary_loads.get(0, {}) == {}

    placement["f1"] = 3  # (x=1, y=1): one die row and one io column away
    delta = state.update(placement, {"f1"})
    assert state.reg_groups[0] == 2
    assert delta[0] == {"before": 0, "after": 2}
    assert state.boundary_loads[0] == {0: 12}
    assert state.total_register_groups() == 2


def test_move_away_and_back_is_bit_identical():
    dev = _grid(2, 2, io_cols=[0])
    graph = _chain_graph(4, [8, 16, 4])
    placement = {"f0": 0, "f1": 1, "f2": 2, "f3": 3}
    state = recompute_all(dev, graph, placement)
    before = state.state_fingerprint()

    placement["f2"] = 1
    state.update(placement, {"f2"})
    placement["f2"] = 2
    state.update(placement, {"f2"})
    assert state.state_fingerprint() == before


def test_non_fifo_edges_carry_no_wires():
    dev = _grid(1, 2)
    graph = _chain_graph(2, [32], kinds=["ram"])
    state = recompute_all(dev, graph, {"f0": 0, "f1": 1})
    assert state.boundary_loads.get(0, {}) == {}
    assert state.reg_groups[0] == 0
    assert state.violations() == []


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


def test_violations_report_overloaded_halves():
    dev = _grid(1, 2, sll=10, sll_limit=0.9)
    graph = _chain_graph(2, [16])
    state = recompute_all(dev, graph, {"f0": 0, "f1": 1})
    out = state.violations()
    assert len(out) == 1
    assert out[0].startswith("boundary")
    assert "16" in out[0]
    assert not state.feasible()


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
        state.update(placement, {fn})
        fresh = recompute_all(_DEV, _GRAPH, placement)
        assert state.state_fingerprint() == fresh.state_fingerprint()


def test_snapshot_restore_round_trip():
    dev = _grid(2, 2, io_cols=[0])
    graph = _chain_graph(3, [8, 8])
    placement = {"f0": 0, "f1": 3, "f2": 1}
    state = recompute_all(dev, graph, placement)
    snap = state.snapshot()
    fp = state.state_fingerprint()
    placement["f1"] = 0
    state.update(placement, {"f1"})
    assert state.state_fingerprint() != fp
    state.restore(snap)
    assert state.state_fingerprint() == fp
