from __future__ import annotations

import random

import pytest

from fado.floorplan import min_cut_initial
from fado.model import (
    RESOURCE_KINDS,
    ModelError,
    ResourceVector,
    baseline_configuration,
    fits_within,
    kind_ratio,
    utilization_ratio,
)
from fado.packer import (
    PackState,
    _candidate_slots,
    offline_repack,
    online_pack,
)

from helpers import design_doc, device_doc, parse, qor_doc, template_doc


def _toy_state(toy, *, initial=None):
    device, graph, lib = toy
    config = baseline_configuration(graph)
    placement = initial or min_cut_initial(device, graph, lib, config)
    return PackState(device, graph, lib, config, placement)


# ---------------------------------------------------------------------------
# Critical resource


def test_critical_resource_examples():
    cap = ResourceVector(bram=100, dsp=100, ff=100, lut=100, uram=100)
    assert utilization_ratio(ResourceVector(lut=10) + ResourceVector(lut=80), cap) == 0.9
    # a kind with no capacity only matters when something is put there
    assert kind_ratio(0, 0) == 0.0
    assert kind_ratio(1, 0) == float("inf")
    lut_only = ResourceVector(lut=100)
    assert utilization_ratio(ResourceVector(lut=10, uram=1), lut_only) == float("inf")

    # so demand for a kind a slot lacks ranks that slot behind every other
    design = design_doc([("K", "dataflow", ["a", "x"])])
    qor = qor_doc({f"t_{n}": template_doc([("baseline", 5, {"lut": 10})]) for n in "ax"})
    device_json = device_doc(width=1, height=3, cap={"lut": 100, "uram": 10}, die_rows=[])
    device_json["slots"][1]["capacity"] = {"lut": 100}
    device, graph, lib = parse(device_json, design, qor)
    state = PackState(device, graph, lib, baseline_configuration(graph), {"a": 2, "x": 0})
    state.slot_load[2] = ResourceVector(lut=60)
    assert _candidate_slots(state, 0, ResourceVector(lut=10, uram=1)) == [2, 1]
    assert _candidate_slots(state, 0, ResourceVector(lut=10)) == [1, 2]


def test_critical_resource_matches_naive_recompute():
    design = design_doc([("K", "dataflow", ["a"])])
    qor = qor_doc({"t_a": template_doc([("baseline", 5, {"lut": 1})])})
    rng = random.Random(19)
    for _ in range(100):
        device_json = device_doc(width=2, height=2, die_rows=[])
        for slot in device_json["slots"]:
            slot["capacity"] = {k: rng.choice((0, rng.randint(1, 50))) for k in RESOURCE_KINDS}
            slot["capacity"]["lut"] = rng.randint(1, 50)
        device, graph, lib = parse(device_json, design, qor)
        state = PackState(device, graph, lib, baseline_configuration(graph), {"a": 0})
        extra = ResourceVector(*(rng.randint(0, 30) for _ in RESOURCE_KINDS))
        ranked = []
        for s in device.slots:
            state.slot_load[s.id] = ResourceVector(*(rng.randint(0, 30) for _ in RESOURCE_KINDS))
            post = state.slot_load[s.id] + extra
            ratios = [
                u / c if c else (float("inf") if u else 0.0)
                for u, c in zip(post.as_tuple(), s.capacity.as_tuple())
            ]
            worst = max(ratios)
            assert utilization_ratio(post, s.capacity) == worst
            ratios.remove(worst)
            if s.id:
                ranked.append((worst, sum(ratios) / 4, s.id))
        assert _candidate_slots(state, 0, extra) == [sid for _, _, sid in sorted(ranked)]


# ---------------------------------------------------------------------------
# Pack state bookkeeping


def test_pack_state_requires_complete_placement(toy):
    device, graph, lib = toy
    with pytest.raises(ModelError):
        PackState(device, graph, lib, baseline_configuration(graph), {"A": 0})


def test_apply_point_moves_load(toy):
    state = _toy_state(toy)
    assert state.slot_load[0].lut == 62
    state.apply_point("B", "fast")
    assert state.slot_load[0].lut == 66
    assert state.config["B"] == "fast"


def test_move_group_carries_every_member(toy):
    state = _toy_state(toy)
    bcd = state.group_of["B"]
    state.move_group(bcd, 1)
    assert {state.placement[m] for m in ("B", "C", "D")} == {1}
    assert state.slot_load[0].lut == 22
    assert state.slot_load[1].lut == 9 + 40


def test_check_legal_reports_capacity_and_split_groups(toy):
    device, graph, lib = toy
    config = {f: "fast" for f in graph.functions}
    everything_on_0 = {f: 0 for f in graph.functions}
    state = PackState(device, graph, lib, config, everything_on_0)
    msgs = state.check_legal()
    assert any(m.startswith("slot 0: lut usage 126 exceeds budget 70.0") for m in msgs)

    split = {"A": 0, "B": 0, "C": 1, "D": 0, "E": 1}
    state = PackState(device, graph, lib, baseline_configuration(graph), split)
    msgs = state.check_legal()
    assert any("group {B, C, D} spans slots [0, 1]" in m for m in msgs)


def test_check_legal_flags_sll_overload():
    design = design_doc([("K1", "dataflow", ["a"]), ("K2", "dataflow", ["b"])],
                        [("a", "b", "fifo", 16)])
    qor = qor_doc({t: template_doc([("baseline", 5, {"lut": 10})]) for t in ("t_a", "t_b")})
    device, graph, lib = parse(device_doc(sll=10), design, qor)
    state = PackState(device, graph, lib, baseline_configuration(graph), {"a": 0, "b": 1})
    msgs = state.check_legal()
    assert len(msgs) == 1 and msgs[0].startswith("boundary")


# ---------------------------------------------------------------------------
# Online packing


def test_online_keeps_slot_when_the_new_point_fits(toy):
    state = _toy_state(toy)
    fit, moves = online_pack(state, {"B": "fast"})
    assert fit and moves == []
    assert state.config["B"] == "fast"
    assert state.placement["B"] == 0


def test_online_moves_the_function_when_its_slot_is_full(toy):
    state = _toy_state(toy)
    assert state.sll.boundary_loads[0] == {0: 8}  # D->E from the initial cut
    # A's fast point (45) would push slot 0 to 85 of 70; slot 1 has room
    fit, moves = online_pack(state, {"A": "fast"})
    assert fit and moves == [("A", 0, 1)]
    assert state.placement["A"] == 1
    assert state.slot_load[1].lut == 9 + 45
    # the A->B edge now crosses the die boundary as well
    assert state.sll.boundary_loads[0] == {0: 24}


def test_online_failure_rolls_back_bit_exactly():
    design = design_doc([("K", "dataflow", ["f", "g"])])
    qor = qor_doc({
        "t_f": template_doc([("baseline", 80, {"lut": 20}), ("p30", 30, {"lut": 50})]),
        "t_g": template_doc([("baseline", 40, {"lut": 65})]),
    })
    device, graph, lib = parse(
        device_doc(width=1, height=1, cap={"lut": 100}, util_limit=1.0), design, qor)
    state = PackState(device, graph, lib, baseline_configuration(graph), {"f": 0, "g": 0})
    before = (dict(state.config), dict(state.placement), dict(state.slot_load),
              state.sll.state_fingerprint())
    fit, moves = online_pack(state, {"f": "p30"})
    assert (fit, moves) == (False, [])
    assert (dict(state.config), dict(state.placement), dict(state.slot_load),
            state.sll.state_fingerprint()) == before


def test_online_move_rejected_by_sll_budget():
    design = design_doc([("K1", "dataflow", ["u"]), ("K2", "dataflow", ["v"])],
                        [("u", "v", "fifo", 24)])
    qor = qor_doc({
        "t_u": template_doc([("baseline", 9, {"lut": 40})]),
        "t_v": template_doc([("baseline", 9, {"lut": 25}), ("fast", 2, {"lut": 45})]),
    })
    # wide boundary: the eviction to slot 1 succeeds and routes the edge
    device, graph, lib = parse(
        device_doc(cap={"lut": 100}, util_limit=0.7, sll=100), design, qor)
    state = PackState(device, graph, lib, baseline_configuration(graph), {"u": 0, "v": 0})
    fit, moves = online_pack(state, {"v": "fast"})
    assert fit and moves == [("v", 0, 1)]
    assert state.sll.boundary_loads[0] == {0: 24}

    # narrow boundary: same move now busts 0.9 * 20, so the batch fails whole
    device, graph, lib = parse(
        device_doc(cap={"lut": 100}, util_limit=0.7, sll=20), design, qor)
    state = PackState(device, graph, lib, baseline_configuration(graph), {"u": 0, "v": 0})
    before = state.sll.state_fingerprint()
    fit, moves = online_pack(state, {"v": "fast"})
    assert (fit, moves) == (False, [])
    assert state.config["v"] == "baseline"
    assert state.sll.state_fingerprint() == before


def test_online_batch_is_all_or_nothing(toy):
    state = _toy_state(toy)
    # B's fast point fits in place, E's would need slot 0 (only 8 free), and
    # A+E exceed slot 1; force a combination that cannot land anywhere
    fit, moves = online_pack(state, {"A": "fast", "E": "fast", "D": "fast"})
    assert not fit and moves == []
    assert state.config == baseline_configuration(state.graph)


def test_online_validates_inputs(toy):
    state = _toy_state(toy)
    with pytest.raises(ModelError):
        online_pack(state, {"ZZ": "fast"})
    with pytest.raises(ModelError):
        online_pack(state, {"A": "warp"})


def test_candidate_slots_prefer_the_least_critical_fit():
    design = design_doc([("K", "dataflow", ["a", "b", "c", "x"])])
    tmpl = template_doc([("baseline", 5, {"lut": 10})])
    qor = qor_doc({f"t_{n}": tmpl for n in ("a", "b", "c", "x")})
    device, graph, lib = parse(
        device_doc(width=1, height=4, cap={"lut": 100, "dsp": 100}, die_rows=[]),
        design, qor)
    placement = {"a": 1, "b": 2, "c": 3, "x": 0}
    state = PackState(device, graph, lib, baseline_configuration(graph), placement)
    state.slot_load[1] = ResourceVector(lut=70)
    state.slot_load[2] = ResourceVector(lut=30)
    state.slot_load[3] = ResourceVector(lut=30, dsp=60)
    extra = ResourceVector(lut=10)
    # post-add worst ratios: slot1 0.8, slot2 0.4, slot3 0.6 (dsp) -> 2, 3, 1
    assert _candidate_slots(state, 0, extra) == [2, 3, 1]


# ---------------------------------------------------------------------------
# Offline re-packing


def _repack_fixture():
    fns = ["F11", "F12", "F21", "F31", "F41"]
    design = design_doc([("K", "dataflow", fns)])
    luts = {"F11": 30, "F12": 50, "F21": 45, "F31": 41, "F41": 41}
    qor = qor_doc({
        f"t_{f}": template_doc([("baseline", 10, {"lut": luts[f]})]) for f in fns
    })
    device, graph, lib = parse(
        device_doc(width=1, height=4, cap={"lut": 100}, util_limit=1.0, die_rows=[]),
        design, qor)
    placement = {"F11": 1, "F12": 1, "F21": 0, "F31": 2, "F41": 3}
    return PackState(device, graph, lib, baseline_configuration(graph), placement)


def test_offline_repack_schedule_is_frozen_rank_best_fit():
    state = _repack_fixture()
    trials: list = []
    moves = offline_repack(state, trials)
    assert moves == [("F31", 2, 0)]
    assert trials == [
        {"group": "F21", "src": 0, "dst": 1, "outcome": "rejected"},
        {"group": "F31", "src": 2, "dst": 1, "outcome": "rejected"},
        {"group": "F31", "src": 2, "dst": 0, "outcome": "moved"},
        {"group": "F41", "src": 3, "dst": 1, "outcome": "rejected"},
        {"group": "F41", "src": 3, "dst": 0, "outcome": "rejected"},
        {"group": "F41", "src": 3, "dst": 2, "outcome": "cancelled"},
    ]
    assert state.placement["F31"] == 0
    assert state.slot_load[0].lut == 86
    assert state.slot_load[2].lut == 0


def test_offline_repack_never_touches_the_configuration():
    state = _repack_fixture()
    config = dict(state.config)
    offline_repack(state)
    assert state.config == config


def test_offline_repack_skips_pinned_groups(toy):
    # the B,C,D group is pinned by the non-dataflow C; only A and E may move
    state = _toy_state(toy, initial={"A": 1, "B": 0, "C": 0, "D": 0, "E": 1})
    offline_repack(state)
    assert [state.placement[m] for m in ("B", "C", "D")] == [0, 0, 0]


def test_offline_repack_keeps_state_legal(toy):
    state = _toy_state(toy)
    assert state.check_legal() == []
    offline_repack(state)
    assert state.check_legal() == []
    for s in state.device.slots:
        assert fits_within(state.slot_load[s.id], s.capacity, state.device.util_limit)
