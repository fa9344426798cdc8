from __future__ import annotations

import random
from copy import copy

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fado.floorplan import min_cut_initial
from fado.model import (
    RESOURCE_KINDS,
    ModelError,
    ResourceVector,
    baseline_configuration,
    fit_budget,
    kind_ratio,
    utilization_ratio,
    within_budget,
)
import fado.packer
from fado.packer import (
    PackState,
    _candidate_slots,
    device_rest,
    fits_device,
    offline_repack,
    online_pack,
)
from fado.pipeliner import SllState, recompute_all
from fado.search import split_batch

from helpers import (
    STATE_ENTRIES,
    copy_state,
    design_doc,
    device_doc,
    grid_documents,
    parse,
    qor_doc,
    reference_demand,
    reference_online_pack,
    reference_repack,
    sll_fingerprint,
    template_doc,
    within_device_bound,
)


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
                for u, c in zip(post, s.capacity)
            ]
            worst = max(ratios)
            assert utilization_ratio(post, s.capacity) == worst
            ratios.remove(worst)
            if s.id:
                ranked.append((worst, sum(ratios) / 4, s.id))
        assert _candidate_slots(state, 0, extra) == [sid for _, _, sid in sorted(ranked)]


_COUNTS = st.lists(st.integers(0, 30), min_size=5, max_size=5)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.just(0) | st.integers(1, 50), min_size=5, max_size=5),
                min_size=3, max_size=3),
       st.lists(_COUNTS, min_size=3, max_size=3), _COUNTS)
def test_candidate_slots_rank_by_kind_ratio(caps, loads, extra):
    # slots lacking kinds, with and without demand for them, rank exactly as
    # kind_ratio applied kind by kind ranks them
    assume(all(any(cap) for cap in caps))
    device_json = device_doc(width=1, height=3, die_rows=[])
    for slot, cap in zip(device_json["slots"], caps):
        slot["capacity"] = dict(zip(RESOURCE_KINDS, cap))
    design = design_doc([("K", "dataflow", ["a"])])
    qor = qor_doc({"t_a": template_doc([("baseline", 5, {})])})
    device, graph, lib = parse(device_json, design, qor)
    state = PackState(device, graph, lib, baseline_configuration(graph), {"a": 0})
    extra = ResourceVector(*extra)
    ranked = []
    for s, load in zip(device.slots, loads):
        state.slot_load[s.id] = ResourceVector(*load)
        ratios = [kind_ratio(u, c) for u, c in zip(state.slot_load[s.id] + extra, s.capacity)]
        worst = max(ratios)
        ratios.remove(worst)
        if s.id:
            ranked.append((worst, sum(ratios) / 4, s.id))
    assert _candidate_slots(state, 0, extra) == [sid for _, _, sid in sorted(ranked)]


# ---------------------------------------------------------------------------
# Pack state bookkeeping


def test_pack_state_holds_only_configuration_and_placement_state(toy):
    # groups, slot budgets and the device-wide bound are read from the
    # design and the device, derived once for every state of the pair
    a, b = _toy_state(toy), _toy_state(toy)
    assert set(vars(a)) == set(vars(b)) == {
        "device", "graph", "lib", "config", "placement", "slot_load", "group_load", "sll"}
    assert a.device.slot_budget is b.device.slot_budget
    assert a.device.device_bound is b.device.device_bound
    assert a.graph.ram_groups is b.graph.ram_groups


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


def test_a_kept_trial_carries_every_member(toy):
    state = _toy_state(toy)
    bcd = state.graph.group_of["B"]
    assert state.trial_move(bcd, 1)
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
    assert state.check_legal() == ["boundary y=0 half x=0: 16 wires exceed budget 9.0"]


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


def _two_function_state(points):
    """Functions a and b on the one 100-LUT slot of a device; ``points``
    maps each to its (id, lut) pairs."""
    design = design_doc([("K", "dataflow", ["a", "b"])])
    qor = qor_doc({f"t_{f}": template_doc([(pid, 10, {"lut": lut}) for pid, lut in pts])
                   for f, pts in points.items()})
    doc = device_doc(width=1, height=1, cap={"lut": 100}, util_limit=1.0)
    device, graph, lib = parse(doc, design, qor)
    return PackState(device, graph, lib, baseline_configuration(graph), {"a": 0, "b": 0})


def test_online_orders_each_batch_by_its_own_target_points():
    state = _two_function_state({"a": [("baseline", 5), ("p1", 50)],
                                 "b": [("baseline", 5), ("p1", 30)]})
    order = []
    apply_point = state.apply_point
    state.apply_point = lambda f, pid: order.append(f) or apply_point(f, pid)
    assert online_pack(state, {"a": "p1", "b": "p1"})[0]  # 0.5 before 0.3
    assert online_pack(state, {"a": "baseline", "b": "p1"})[0]  # 0.3 before 0.05
    assert order == ["a", "b", "b", "a"]


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
              sll_fingerprint(state.sll))
    fit, moves = online_pack(state, {"f": "p30"})
    assert (fit, moves) == (False, [])
    assert (dict(state.config), dict(state.placement), dict(state.slot_load),
            sll_fingerprint(state.sll)) == before


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
    before = sll_fingerprint(state.sll)
    fit, moves = online_pack(state, {"v": "fast"})
    assert (fit, moves) == (False, [])
    assert state.config["v"] == "baseline"
    assert sll_fingerprint(state.sll) == before


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
        online_pack(state, {"A": "warp"})


# ---------------------------------------------------------------------------
# The device-wide bound


def _bound_state(luts, placement, *, slots=2):
    """Functions on a 1-by-``slots`` column of 100-LUT slots at limit 0.5,
    so each slot holds 50 LUTs and the device 50 * ``slots``; ``luts``
    maps each function to its (point id, LUTs) pairs, the first current."""
    design = design_doc([("K", "dataflow", sorted(luts))])
    qor = qor_doc({f"t_{f}": template_doc([(pid, 10, {"lut": n}) for pid, n in pts])
                   for f, pts in luts.items()})
    doc = device_doc(width=1, height=slots, cap={"lut": 100}, util_limit=0.5, die_rows=[])
    device, graph, lib = parse(doc, design, qor)
    return PackState(device, graph, lib, baseline_configuration(graph), placement)


def _rest(state, batch):
    """The state's ``device_rest`` for ``batch``, split by template as the
    search splits it."""
    return device_rest(state, split_batch(state.lib, sorted(batch)))


def _fits(state, targets):
    """``fits_device`` with the demand of ``targets`` summed member by
    member and the remainder taken from the state as it is."""
    return fits_device(state, reference_demand(state.lib, targets), _rest(state, targets))


def test_fits_device_refuses_a_batch_over_the_device_bound():
    # a's 70 LUTs fit no slot, and with b's 35 the design needs 105 of 100
    state = _bound_state({"a": [("baseline", 10), ("big", 70)], "b": [("baseline", 35)]},
                         {"a": 0, "b": 1})
    assert state.device.device_bound == (0, 0, 0, 100, 0)
    before = _entries(state)
    assert not _fits(state, {"a": "big"})
    # online packing, which does not check the bound, fails it just the same
    assert online_pack(state, {"a": "big"}) == (False, [])
    assert _entries(state) == before


def test_a_batch_within_the_device_bound_still_moves():
    # a and c fill slot 0 with 45 of 50 LUTs; a's 40-LUT point fits only on
    # slot 1, and the design's 65 LUTs are more than one slot holds
    state = _bound_state({"a": [("baseline", 30), ("p1", 40)], "b": [("baseline", 10)],
                          "c": [("baseline", 15)]}, {"a": 0, "b": 1, "c": 0})
    assert _fits(state, {"a": "p1"})
    assert online_pack(state, {"a": "p1"}) == (True, [("a", 0, 1)])


def test_the_bound_counts_each_member_from_its_current_point():
    # three full-ish slots: {a 10, e 40}, {b 40, c 10}, {d 10}.  c's 40-LUT
    # point fits only on slot 2, then e shrinks to 5 in place: 105 of 150
    # LUTs after the batch, though adding the targets to the current points
    # would ask for 155
    state = _bound_state({"a": [("baseline", 10)], "b": [("baseline", 40)],
                          "c": [("baseline", 10), ("big", 40)], "d": [("baseline", 10)],
                          "e": [("baseline", 40), ("small", 5)]},
                         {"a": 0, "e": 0, "b": 1, "c": 1, "d": 2}, slots=3)
    assert _fits(state, {"c": "big", "e": "small"})
    assert online_pack(state, {"c": "big", "e": "small"}) == (True, [("c", 1, 2)])


@st.composite
def _bound_instance(draw):
    """A legal state on 2-4 slots whose kinds may have zero capacity (every
    slot and die-boundary half within budget, as the search starts from),
    and a batch of target points for some of its functions."""
    width, height = draw(st.sampled_from(((1, 2), (1, 3), (2, 2))))
    doc = device_doc(width=width, height=height, sll=draw(st.sampled_from((8, 64, 1000))),
                     util_limit=draw(st.sampled_from((0.5, 0.8, 1.0))))
    for slot in doc["slots"]:
        slot["capacity"] = {"lut": draw(st.sampled_from((40, 60, 100))),
                            "dsp": draw(st.sampled_from((0, 30, 30))),
                            "bram": draw(st.sampled_from((0, 20, 20)))}
    names = [f"f{i}" for i in range(draw(st.integers(2, 6)))]
    fn = st.sampled_from(names)
    edges = draw(st.lists(
        st.tuples(fn, fn, st.sampled_from(("fifo", "ram", "ram")), st.sampled_from((4, 8))),
        max_size=6,
    ).map(lambda es: [e for e in es if e[0] != e[1]]))
    amount = st.sampled_from((0, 0, 0, 0, 2, 5, 10))
    lut = {"baseline": st.sampled_from((2, 5, 10)), "p1": st.sampled_from((5, 15, 25)),
           "p2": st.sampled_from((10, 25, 40))}
    qor = qor_doc({
        f"t_{n}": template_doc([
            (pid, lat, {"lut": draw(lut[pid]), "dsp": draw(amount), "bram": draw(amount)})
            for pid, lat in (("baseline", 30), ("p1", 20), ("p2", 10))
        ])
        for n in names
    })
    device, graph, lib = parse(doc, design_doc([("K", "dataflow", names)], edges), qor)
    config = {n: draw(st.sampled_from(("baseline", "baseline", "p1", "p2"))) for n in names}
    budget = {s.id: fit_budget(s.capacity, device.util_limit) for s in device.slots}
    load = {s.id: ResourceVector.zero() for s in device.slots}
    placement = {}
    for g in graph.ram_groups:
        need = ResourceVector.sum(lib.point(m, config[m]).resources for m in g.members)
        room = [sid for sid in load if within_budget(load[sid] + need, budget[sid])]
        assume(room)
        sid = draw(st.sampled_from(room))
        load[sid] = load[sid] + need
        placement.update(dict.fromkeys(g.members, sid))
    assume(not PackState(device, graph, lib, config, placement).check_legal())
    targets = draw(st.dictionaries(fn, st.sampled_from(("p1", "p2", "p2")), min_size=1))
    allow_moves = draw(st.sampled_from((True, True, True, False)))
    return (device, graph, lib, config, placement), targets, allow_moves


@settings(max_examples=400, deadline=None)
@given(_bound_instance())
def test_online_pack_matches_the_bound_free_schedule(instance):
    args, targets, allow_moves = instance
    state, ref = PackState(*args), PackState(*args)
    entries, wires = _entries(state), sll_fingerprint(state.sll)
    over = not within_device_bound(state, targets)
    assert _fits(state, targets) == (not over)
    got = online_pack(state, targets, allow_moves)
    assert got == reference_online_pack(ref, targets, allow_moves)
    assert _entries(state) == _entries(ref)
    assert sll_fingerprint(state.sll) == sll_fingerprint(ref.sll)
    if not got[0]:
        assert _entries(state) == entries
    if over:
        # what the search's screen rests on: a batch over the bound fails
        # and leaves the state exactly as it was
        assert got == (False, [])
        assert _entries(state) == entries and sll_fingerprint(state.sll) == wires


@st.composite
def _iteration_instance(draw):
    """A ``_bound_instance`` state and batch, and 2-6 target vectors over
    the batch's functions, the first the drawn one: what one search
    iteration may try."""
    args, targets, allow_moves = draw(_bound_instance())
    point = st.sampled_from(("baseline", "p1", "p2", "p2"))
    more = st.fixed_dictionaries({f: point for f in targets})
    return args, [targets, *draw(st.lists(more, min_size=1, max_size=5))], allow_moves


@settings(max_examples=300, deadline=None)
@given(_iteration_instance())
def test_one_remainder_serves_every_vector_until_one_is_applied(instance):
    # the search's use: one remainder per batch, then per vector an online
    # pack (which rolls back when it fails), a repack and a retry
    args, vectors, allow_moves = instance
    state = PackState(*args)
    batch = sorted(vectors[0])
    rest = _rest(state, batch)
    for vec in vectors:
        fits = fits_device(state, reference_demand(state.lib, vec), rest)
        assert fits == within_device_bound(state, vec)
        if not fits:
            continue
        ok, _ = online_pack(state, vec, allow_moves)
        if not ok and allow_moves and offline_repack(state):
            ok, _ = online_pack(state, vec)
        # from a legal start, packing and repacking keep the state legal
        assert not state.check_legal()
        if ok:
            # the vector is applied: the next iteration's remainder
            rest = _rest(state, batch)


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


@pytest.fixture
def spies(monkeypatch):
    """Records every ``(group id, slot)`` trial and every ``(slot, extra)``
    fit test the packer makes, in call order."""
    trials, fits = [], []
    trial_move, fits_slot = PackState.trial_move, fado.packer._fits_slot

    def spy_trial(state, group, dest):
        trials.append((group.gid, dest))
        return trial_move(state, group, dest)

    def spy_fits(state, slot_id, extra):
        fits.append((slot_id, extra))
        return fits_slot(state, slot_id, extra)

    monkeypatch.setattr(PackState, "trial_move", spy_trial)
    monkeypatch.setattr(fado.packer, "_fits_slot", spy_fits)
    return trials, fits


def test_offline_repack_schedule_is_frozen_rank_best_fit(spies):
    # ranks 1 (80), 0 (45), 2 (41), 3 (41): F21 fits nowhere fuller, F31
    # fits slot 0 but not slot 1, and F41 then fits no non-empty slot
    state = _repack_fixture()
    trials, fits = spies
    moves = offline_repack(state)
    assert moves == [("F31", 2, 0)]
    assert trials == [("F31", 0)]
    # slot 2, emptied by F31's move, is never tried, not even fit-tested
    assert {sid for sid, _ in fits} == {0, 1}
    assert state.placement["F31"] == 0
    assert state.slot_load[0].lut == 86
    assert state.slot_load[2].lut == 0


def test_a_slot_stays_open_while_it_fits_the_floor(spies):
    # both of slot 1's groups fit slot 0 one after the other
    design = design_doc([("K", "dataflow", ["big", "a", "b"])])
    qor = qor_doc({f"t_{f}": template_doc([("baseline", 10, {"lut": lut})])
                   for f, lut in (("big", 50), ("a", 20), ("b", 10))})
    device, graph, lib = parse(
        device_doc(width=1, height=2, cap={"lut": 100}, util_limit=1.0, die_rows=[]),
        design, qor)
    state = PackState(device, graph, lib, baseline_configuration(graph),
                      {"big": 0, "a": 1, "b": 1})
    trials, _ = spies
    assert offline_repack(state) == [("a", 1, 0), ("b", 1, 0)]
    assert trials == [("a", 0), ("b", 0)]


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
        assert within_budget(state.slot_load[s.id], state.device.slot_budget[s.id])


@st.composite
def _repack_instance(draw):
    """A 2x3 grid (two die rows, an optional io column) with per-slot
    capacities that may lack DSP or BRAM, wire halves of 0-64, and 4-9
    functions with random FIFO and RAM edges, some outside any dataflow
    region (pinned).  Points may be all zero, so a slot can be empty while
    a lower-ranked one still holds groups.  Groups start on random slots of
    a random subset, so slots go empty, stay tight or overflow."""
    doc = device_doc(width=2, height=3, io_cols=draw(st.sampled_from(((), (0,)))),
                     util_limit=draw(st.sampled_from((0.5, 0.8, 1.0))))
    for slot in doc["slots"]:
        slot["capacity"] = {"lut": draw(st.sampled_from((40, 100))),
                            "dsp": draw(st.sampled_from((0, 60, 60, 100))),
                            "bram": draw(st.sampled_from((0, 100, 100)))}
    for boundary in doc["die_boundaries"]:
        for half in boundary["halves"]:
            half["sll_capacity"] = draw(st.sampled_from((0, 8, 24, 64)))
    names = [f"f{i}" for i in range(draw(st.integers(4, 9)))]
    # edges run from lower to higher index, so the pinned first functions
    # only feed the dataflow kernel and the kernel graph stays acyclic
    pinned = names[:draw(st.integers(0, 2))]
    kernels = [("K", "dataflow", names[len(pinned):])]
    kernels += [(f"N{n}", "non_dataflow", [n]) for n in pinned]
    ends = st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True).map(sorted)
    edges = [(a, b, kind, width) for (a, b), kind, width in draw(st.lists(
        st.tuples(ends, st.sampled_from(("fifo", "fifo", "ram")), st.sampled_from((4, 8, 16))),
        max_size=12,
    ))]
    amount = st.sampled_from((0, 0, 2, 5, 10, 20))
    zero = st.integers(0, 4).map(lambda i: i == 0)
    qor = qor_doc({
        f"t_{n}": template_doc([
            (pid, lat, {} if draw(zero) else
             {"lut": draw(amount), "dsp": draw(amount), "bram": draw(amount)})
            for pid, lat in (("baseline", 30), ("p1", 20))
        ])
        for n in names
    })
    device, graph, lib = parse(doc, design_doc(kernels, edges), qor)
    config = {n: draw(st.sampled_from(("baseline", "p1"))) for n in names}
    used = draw(st.lists(st.sampled_from([s.id for s in device.slots]),
                         min_size=2, max_size=6, unique=True))
    placement = {}
    for g in graph.ram_groups:
        placement.update(dict.fromkeys(g.members, draw(st.sampled_from(used))))
    return PackState(device, graph, lib, config, placement)


def _repack_outcome(state, repack):
    """What one repack does: its moves, its ``(group id, slot)`` trials in
    call order, and the state it leaves."""
    trials = []
    trial_move = state.trial_move
    state.trial_move = lambda g, dest: trials.append((g.gid, dest)) or trial_move(g, dest)
    try:
        moves = repack(state)
    finally:
        del state.trial_move
    return (moves, trials, dict(state.placement), dict(state.slot_load),
            dict(state.group_load), sll_fingerprint(state.sll))


@settings(max_examples=300, deadline=None)
@given(_repack_instance())
def test_offline_repack_matches_the_plain_schedule(state):
    # two repacks in a row, so a call on what a repack left is compared too
    runs = {}
    for repack in (reference_repack, offline_repack):
        twin = copy_state(state)
        runs[repack] = [_repack_outcome(twin, repack) for _ in range(2)]
    assert runs[offline_repack] == runs[reference_repack]


def test_a_source_no_fuller_slot_can_take_is_skipped(spies):
    # slot 1's movable groups x and y both need more LUT than slot 0 has
    # left; the pinned p on slot 1 is smaller, but it never moves, so it
    # must not lower the floor that closes slot 0 to x and y
    fns = {"big": {"lut": 80}, "p": {"lut": 1}, "x": {"lut": 30, "dsp": 5},
           "y": {"lut": 25, "dsp": 10}, "z": {"lut": 10}}
    design = design_doc([("K", "dataflow", ["big", "x", "y", "z"]),
                         ("N", "non_dataflow", ["p"])])
    qor = qor_doc({f"t_{f}": template_doc([("baseline", 10, res)]) for f, res in fns.items()})
    device, graph, lib = parse(
        device_doc(width=1, height=3, cap={"lut": 100, "dsp": 100}, util_limit=1.0,
                   die_rows=[]),
        design, qor)
    placement = {"big": 0, "p": 1, "x": 1, "y": 1, "z": 2}
    state = PackState(device, graph, lib, baseline_configuration(graph), placement)
    trials, fits = spies
    assert offline_repack(state) == [("z", 2, 0)]
    assert trials == [("z", 0)]
    # x and y were never fit-tested on their own
    assert not {state.group_load[g] for g in "xy"} & {extra for _, extra in fits}


# ---------------------------------------------------------------------------
# Repacks in a row


def test_a_repack_after_a_moving_one_runs_the_schedule_again(spies):
    state = _repack_fixture()
    _, fits = spies
    assert offline_repack(state) == [("F31", 2, 0)]
    fits.clear()
    assert offline_repack(state) == []
    assert fits  # the schedule ran and moved nothing


@pytest.mark.parametrize("mutation", ["apply_point", "trial_move"])
def test_a_mutation_after_a_noop_repack_makes_it_run_again(mutation, spies):
    state = _repack_fixture()
    offline_repack(state)
    assert offline_repack(state) == []
    if mutation == "apply_point":
        state.apply_point("F41", "baseline")
        expected = []
    else:
        assert state.trial_move(state.graph.group_of["F31"], 2)  # no die row: always kept
        expected = [("F31", 2, 0)]
    _, fits = spies
    fits.clear()
    assert offline_repack(state) == expected
    assert fits


def test_restore_then_diverge_still_repacks(spies):
    state = _repack_fixture()
    offline_repack(state)
    at_a = copy_state(state)
    state.apply_point("F41", "baseline")  # B: same loads as A
    assert offline_repack(state) == []
    state = at_a
    assert state.trial_move(state.graph.group_of["F31"], 2)  # C: differs from B
    trials, _ = spies
    trials.clear()
    assert offline_repack(state) == [("F31", 2, 0)]
    assert trials == [("F31", 0)]


# ---------------------------------------------------------------------------
# Trials, kept group loads and rollback


@st.composite
def _pack_instance(draw):
    """A 2x2 device (one die row, one io column) whose boundary halves get
    0, 8, 24 or 64 wires, and one kernel of 2-6 functions with random FIFO
    and RAM edges and three points each; slots are large enough that only
    wires can reject a trial.  Each RAM group starts on one random slot."""
    doc = device_doc(width=2, height=2, io_cols=(0,), util_limit=1.0)
    for half in doc["die_boundaries"][0]["halves"]:
        half["sll_capacity"] = draw(st.sampled_from((0, 8, 24, 64)))
    names = [f"f{i}" for i in range(draw(st.integers(2, 6)))]
    fn = st.sampled_from(names)
    edges = draw(st.lists(
        st.tuples(fn, fn, st.sampled_from(("fifo", "fifo", "ram")), st.sampled_from((4, 8, 16))),
        max_size=10,
    ))
    amount = st.integers(0, 40)
    qor = qor_doc({
        f"t_{n}": template_doc([
            (pid, lat, {"lut": draw(amount), "dsp": draw(amount), "bram": draw(amount)})
            for pid, lat in (("baseline", 30), ("p1", 20), ("p2", 10))
        ])
        for n in names
    })
    device, graph, lib = parse(doc, design_doc([("K", "dataflow", names)], edges), qor)
    slot = st.sampled_from([s.id for s in device.slots])
    placement = {}
    for g in graph.ram_groups:
        placement.update(dict.fromkeys(g.members, draw(slot)))
    return PackState(device, graph, lib, baseline_configuration(graph), placement)


def _entries(state):
    """Each of ``STATE_ENTRIES`` as its list of items, so key order counts."""
    return [list(getattr(state, name).items()) for name in STATE_ENTRIES]


@settings(max_examples=150, deadline=None)
@given(_pack_instance(), st.data())
def test_trials_roll_back_exactly_and_group_loads_stay_current(state, data):
    device, graph, lib = state.device, state.graph, state.lib
    slot = st.sampled_from([s.id for s in device.slots])
    group = st.sampled_from(state.graph.ram_groups)
    point = st.sampled_from(("baseline", "p1", "p2"))
    saved = []
    for _ in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from(("point", "move", "trial", "trial", "copy", "back")))
        if op == "point":
            state.apply_point(data.draw(st.sampled_from(sorted(graph.functions))), data.draw(point))
        elif op == "move":
            # a forced move, wires over budget or not: a state built there
            moved = dict.fromkeys(data.draw(group).members, data.draw(slot))
            state = PackState(device, graph, lib, state.config, {**state.placement, **moved})
        elif op == "copy":
            saved.append(copy_state(state))
        elif op == "back" and saved:
            state = copy_state(saved[data.draw(st.integers(0, len(saved) - 1))])
        elif op == "trial":
            g = data.draw(group)
            change = None
            if data.draw(st.booleans()):
                change = (data.draw(st.sampled_from(g.members)), data.draw(point))
            dest = data.draw(slot)
            before = _entries(state)
            wires = sll_fingerprint(recompute_all(device, graph, state.placement))
            after = {**state.placement, **{m: dest for m in g.members}}
            fits = not recompute_all(device, graph, after).over_budget()
            assert state.trial_move(g, dest) == fits
            if not fits:
                assert _entries(state) == before
                assert sll_fingerprint(state.sll) == wires
            elif change:
                state.apply_point(*change)  # as online packing does after a kept move
        assert state.group_load == {
            g.gid: ResourceVector.sum(lib.point(m, state.config[m]).resources for m in g.members)
            for g in graph.ram_groups}
        loads = {s.id: ResourceVector.zero() for s in device.slots}
        for f, sid in state.placement.items():
            loads[sid] = loads[sid] + lib.point(f, state.config[f]).resources
        assert state.slot_load == loads
        fresh = recompute_all(device, graph, state.placement)
        assert state.sll.feasible() == (not fresh.over_budget())
        if data.draw(st.booleans()):
            assert sll_fingerprint(state.sll) == sll_fingerprint(fresh)


@settings(max_examples=100, deadline=None)
@given(_pack_instance(), st.data())
def test_a_trial_builds_and_asks_one_new_state(state, data):
    device, graph = state.device, state.graph
    calls = []  # (method name, routing state it was called on)

    def spy(name):
        method = getattr(SllState, name)

        def call(sll, *args):
            calls.append((name, sll))
            return method(sll, *args)
        return call

    with pytest.MonkeyPatch.context() as patch:
        # on the class: each kept move replaces ``state.sll``, so a spy on
        # the instance would stop seeing the trials after the first one
        for name in ("update", "feasible"):
            patch.setattr(SllState, name, spy(name))
        for _ in range(data.draw(st.integers(1, 8))):
            g = data.draw(st.sampled_from(graph.ram_groups))
            dest = data.draw(st.sampled_from([s.id for s in device.slots]))
            after = {**state.placement, **{m: dest for m in g.members}}
            fresh = recompute_all(device, graph, after)
            within = all(sum(graph.fifo_width[e] for e in eids) <= device.boundary_table[y][2]
                         for y, eids in fresh.crossing.items())
            source = state.sll
            fp = sll_fingerprint(copy(source))
            calls.clear()
            kept = state.trial_move(g, dest)
            assert sll_fingerprint(copy(source)) == fp
            if calls:
                # past the reject bound: one new state, updated once and asked once
                (update, new), (feasible, asked) = calls
                assert (update, feasible) == ("update", "feasible")
                assert new is asked and new is not source
                assert state.sll is (new if kept else source)
            else:
                # refused by the reject bound, which the move must exceed
                assert not kept and not within
                assert state.sll is source


def _one_column_state(edges):
    """Functions a, b, c on slot 0 of a 1x2 device with 9-wire half budgets."""
    design = design_doc([("K", "dataflow", ["a", "b", "c"])], edges)
    qor = qor_doc({t: template_doc([("baseline", 5, {"lut": 10}), ("p1", 4, {"lut": 20})])
                   for t in ("t_a", "t_b", "t_c")})
    device, graph, lib = parse(device_doc(sll=10), design, qor)
    return PackState(device, graph, lib, baseline_configuration(graph), {"a": 0, "b": 0, "c": 0})


def test_a_move_past_the_reject_bound_is_refused_before_it_is_applied(monkeypatch):
    state = _one_column_state([("a", "b", "fifo", 16)])  # 16 wires can never cross
    before, sll, wires = _entries(state), state.sll, sll_fingerprint(state.sll)
    for name in ("update", "feasible"):
        monkeypatch.setattr(SllState, name, lambda *a: pytest.fail("the move was tested"))
    assert not state.trial_move(state.graph.group_of["b"], 1)
    assert _entries(state) == before
    assert state.sll is sll and sll_fingerprint(sll) == wires


def test_a_move_that_fills_the_reject_bound_exactly_is_applied():
    # b and c share RAM and move together, so their 4-wire FIFO never
    # crosses; only a->b's 9 wires do, exactly the 9-wire budget
    state = _one_column_state([("a", "b", "fifo", 9), ("b", "c", "ram", 1), ("b", "c", "fifo", 4)])
    assert state.trial_move(state.graph.group_of["b"], 1)
    assert state.sll.boundary_loads[0] == {0: 9}


def test_a_move_within_the_reject_bound_that_overflows_a_half_is_refused():
    # a 90-wire and a 9-wire half: a->b's 10 wires are within the reject
    # bound, 99, but cross only in column 1 when b goes to slot 3, over the
    # narrow half's budget; from slot 2 they may take column 0 instead
    doc = device_doc(width=2, height=2, sll=100)
    doc["die_boundaries"][0]["halves"][1]["sll_capacity"] = 10
    design = design_doc([("K", "dataflow", ["a", "b"])], [("a", "b", "fifo", 10)])
    qor = qor_doc({t: template_doc([("baseline", 5, {"lut": 10})]) for t in ("t_a", "t_b")})
    device, graph, lib = parse(doc, design, qor)
    state = PackState(device, graph, lib, baseline_configuration(graph), {"a": 1, "b": 1})
    before, sll = _entries(state), state.sll
    assert not state.trial_move(graph.group_of["b"], 3)
    assert _entries(state) == before
    assert state.sll is sll
    assert state.trial_move(graph.group_of["b"], 2)
    assert state.sll.boundary_loads[0] == {0: 10}


# ---------------------------------------------------------------------------
# Checked before applied: what a refusal leaves


def _point(lib, fn):
    """Any of ``fn``'s point ids."""
    return st.sampled_from([p.id for p in lib.template_for(fn).points])


@st.composite
def _grid_state(draw):
    """A state on a ``grid_documents`` device (1-3 die boundaries, an io
    column, a zero-capacity kind): each function at a random point and
    each RAM group on a random slot, so slots and wire halves may start
    over budget."""
    device, graph, lib = parse(*draw(grid_documents()))
    config = {f: draw(_point(lib, f)) for f in graph.functions}
    slot = st.sampled_from([s.id for s in device.slots])
    placement = {}
    for g in graph.ram_groups:
        placement.update(dict.fromkeys(g.members, draw(slot)))
    return PackState(device, graph, lib, config, placement)


@settings(max_examples=150, deadline=None)
@given(_grid_state(), st.data())
def test_a_refused_trial_changes_nothing(state, data):
    for _ in range(data.draw(st.integers(1, 10))):
        g = data.draw(st.sampled_from(state.graph.ram_groups))
        dest = data.draw(st.sampled_from([s.id for s in state.device.slots]))
        before, sll = _entries(state), state.sll
        if not state.trial_move(g, dest):
            assert _entries(state) == before
            assert state.sll is sll


def test_a_failed_pack_takes_back_the_move_it_kept():
    # a column of three slots, each row its own die: a's 50-LUT point
    # overflows slot 0 and moves to slot 1, across the boundary from x;
    # then b's 60-LUT point overflows slot 2 and fits nowhere, so the batch
    # fails after a move was kept
    fns = {"a": (30, 50), "b": (30, 60), "x": (60,), "y": (40,), "z": (150,)}
    design = design_doc([("K", "dataflow", sorted(fns))], [("a", "x", "fifo", 8)])
    qor = qor_doc({f"t_{f}": template_doc([(pid, 10 - i, {"lut": lut}) for i, (pid, lut)
                                           in enumerate(zip(("baseline", "p1"), luts))])
                   for f, luts in fns.items()})
    doc = device_doc(width=1, height=3, cap={"lut": 100}, util_limit=1.0)
    doc["slots"][2]["capacity"] = {"lut": 200}
    device, graph, lib = parse(doc, design, qor)
    state = PackState(device, graph, lib, baseline_configuration(graph),
                      {"a": 0, "x": 0, "y": 1, "b": 2, "z": 2})
    assert online_pack(copy_state(state), {"a": "p1"}) == (True, [("a", 0, 1)])
    before, sll, wires = _entries(state), state.sll, sll_fingerprint(state.sll)
    assert online_pack(state, {"a": "p1", "b": "p1"}) == (False, [])
    assert _entries(state) == before
    assert state.sll is sll and sll_fingerprint(sll) == wires


@settings(max_examples=150, deadline=None)
@given(_grid_state(), st.data())
def test_a_failed_online_pack_changes_nothing(state, data):
    names = sorted(state.graph.functions)
    for _ in range(data.draw(st.integers(1, 4))):
        batch = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=4, unique=True))
        targets = {f: data.draw(_point(state.lib, f)) for f in batch}
        allow_moves = data.draw(st.sampled_from((True, True, True, False)))
        before, sll = _entries(state), state.sll
        ok, moves = online_pack(state, targets, allow_moves)
        if not ok:
            assert moves == []
            assert _entries(state) == before
            assert state.sll is sll
