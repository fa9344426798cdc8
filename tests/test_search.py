from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fado import instancegen, search
from fado.floorplan import FloorplanError
from fado.model import (
    ResourceVector,
    baseline_configuration,
    design_latency,
    function_latencies,
    path_latency,
)
from fado.packer import PackState, device_rest, fits_device
from fado.pipeliner import recompute_all
from fado.search import (
    DEFAULT_LOOKAHEAD_N,
    _candidates,
    _Levels,
    _lockstep,
    compute_lookahead_N,
    prune,
    run,
    split_batch,
)

from helpers import (
    design_doc,
    device_doc,
    grid_documents,
    lib_with_loops,
    loop_doc,
    parse,
    qor_doc,
    reference_candidates,
    reference_demand,
    reference_lookahead_depth,
    reference_path_latency,
    select_bottleneck,
    sll_fingerprint,
    stress_grid,
    template_doc,
    within_device_bound,
)


# ---------------------------------------------------------------------------
# Look-ahead window size


def test_lookahead_depth_single_full_loop():
    lib, graph = lib_with_loops([loop_doc("L1", 1, 64, 64)])
    assert compute_lookahead_N(lib, graph) == 18


def test_lookahead_depth_tiny_loop():
    lib, graph = lib_with_loops([loop_doc("L1", 1, 2, 2)])
    assert compute_lookahead_N(lib, graph) == 3


def test_lookahead_depth_without_loops(toy):
    _, graph, lib = toy
    assert compute_lookahead_N(lib, graph) == DEFAULT_LOOKAHEAD_N


def test_lookahead_mode_widens_deep_nests():
    nest = [loop_doc("L1", 1, 8, 512), loop_doc("L2", 2, 8, 64),
            loop_doc("L3", 3, 8, 8), loop_doc("L4", 4, 8, 8)]
    lib, graph = lib_with_loops(nest)
    # min mode: IL tier 6+6+3, bound tier 3+3+3, short bound tier 3+3
    assert compute_lookahead_N(lib, graph, "min") == 15 + 9 + 6
    # max mode adds the fourth level to every tier
    assert compute_lookahead_N(lib, graph, "max") == 18 + 12 + 12
    with pytest.raises(ValueError):
        compute_lookahead_N(lib, graph, "cap")


def test_lookahead_depth_matches_reference_on_random_nests():
    rng = random.Random(23)
    for _ in range(20):
        n_nests = rng.randint(1, 3)
        loops = []
        for _ in range(n_nests):
            depth = rng.randint(1, 4)
            for d in range(1, depth + 1):
                loops.append(loop_doc(f"L{len(loops)}", d, rng.choice((1, 2, 4, 8, 64, 100)),
                                   rng.choice((1, 2, 16, 64, 4000))))
        lib, graph = lib_with_loops(loops)
        for mode in ("min", "max"):
            got = compute_lookahead_N(lib, graph, mode)
            want = reference_lookahead_depth(lib.templates["t_a"].nests(), mode)
            assert got == want, (loops, mode)


# ---------------------------------------------------------------------------
# Bottleneck selection and pruning


def _select(latencies, excluded):
    levels = _Levels(latencies)
    for f in excluded:
        levels.remove(f, latencies[f])
    return levels.select()


def test_select_bottleneck_single_and_tied():
    assert _select({"a": 8933, "b": 120, "c": 80}, set()) == (8933, ["a"], 120)
    assert _select({"a": 50, "b": 50, "c": 10}, set()) == (50, ["a", "b"], 10)
    assert _select({"a": 50, "b": 50}, set()) == (50, ["a", "b"], 0)
    assert _select({"a": 50, "b": 50}, {"a"}) == (50, ["b"], 0)
    assert _select({"a": 50, "b": 10}, {"a"}) == (10, ["b"], 0)
    assert _select({"a": 50}, {"a"}) is None


def test_levels_follow_accepted_latencies():
    levels = _Levels({"a": 50, "b": 50, "c": 10})
    levels.remove("a", 50)
    levels.add("a", 30)
    assert levels.select() == (50, ["b"], 30)
    levels.remove("b", 50)
    assert levels.select() == (30, ["a"], 10)


def _points(lats):
    """A template stand-in whose point of latency l is ``pl``, holding l LUTs."""
    return SimpleNamespace(points=[SimpleNamespace(id=f"p{l}", latency=l,
                                                   resources=ResourceVector(lut=l))
                                   for l in sorted(lats)])


def test_prune_keeps_points_below_the_second_tier():
    tmpl = _points([15, 20, 30, 45, 60, 80])
    assert prune(tmpl, 40).latency == 30
    assert prune(tmpl, 45).latency == 30


def test_prune_finds_nothing_below_the_fastest_point():
    tmpl = _points([15, 20, 30, 45, 60, 80])
    assert prune(tmpl, 15) is None


def test_lockstep_choices_fall_back_to_the_dp():
    mk = lambda i: SimpleNamespace(id=i)
    alts = [[mk("a1"), mk("a2")], [mk("b1")]]
    fallback = [mk("aDP"), mk("bDP")]
    choices = [[p.id for p in points] for points in _lockstep(alts, fallback, 5)]
    assert choices == [
        ["a1", "b1"],
        ["a2", "bDP"],
    ]


def test_candidates_run_dp_then_look_ahead_then_look_back():
    # a has two look-ahead points, so a window of one cuts the second; the
    # look-back vectors alone may not repack; each point pl holds l LUTs
    tmpls = {"a": _points([10, 20, 30, 45, 60, 80]), "b": _points([15, 25, 35, 80])}
    split = [(tmpls["a"], ["a"]), (tmpls["b"], ["b"])]
    dps = [prune(t, 40) for t, _ in split]
    stream = list(_candidates(["a", "b"], split, dps, 80, 1))
    assert [(stage, vec, may) for stage, vec, _, may in stream] == [
        (None, {"a": "p30", "b": "p35"}, True),
        ("look_ahead", {"a": "p20", "b": "p25"}, True),
        ("look_back", {"a": "p45", "b": "p35"}, False),
        ("look_back", {"a": "p60", "b": "p35"}, False),
    ]
    assert [demand.lut for _, _, demand, _ in stream] == [65, 45, 80, 95]


def _two_template_instance():
    """f1 and f3 are instances of template A, f2 of B, and c of its own
    template at latency 40; both A and B have a point ``p1``, with other
    latencies and resources.  f1 and f3 sit at A's two latency-80 points,
    f2 at B's baseline, on one 100-LUT slot.  Each entry: id, latency, LUTs."""
    a = [("baseline", 80, 5), ("q80", 80, 7), ("p60", 60, 9), ("p1", 30, 20),
         ("p0a", 20, 25), ("p0", 10, 40)]
    b = [("baseline", 80, 4), ("p70", 70, 6), ("p50", 50, 8), ("p1", 35, 30), ("p05", 5, 50)]
    qor = qor_doc({
        name: template_doc([(pid, lat, {"lut": lut}) for pid, lat, lut in points])
        for name, points in (("A", a), ("B", b), ("C", [("baseline", 40, 3)]))
    })
    design = design_doc([("K", "dataflow", ["c", "f1", "f2", "f3"])],
                        templates={"f1": "A", "f2": "B", "f3": "A", "c": "C"})
    device, graph, lib = parse(device_doc(width=1, height=1, cap={"lut": 100}, util_limit=1.0),
                               design, qor)
    config = {**baseline_configuration(graph), "f3": "q80"}
    return PackState(device, graph, lib, config, dict.fromkeys(graph.functions, 0))


def test_a_batch_over_two_templates_is_worked_per_template():
    state = _two_template_instance()
    lib = state.lib
    l1, batch, l2 = _Levels(function_latencies(state.graph, lib, state.config)).select()
    assert (l1, batch, l2) == (80, ["f1", "f2", "f3"], 40)
    split = split_batch(lib, batch)
    assert split == [(lib.templates["A"], ["f1", "f3"]), (lib.templates["B"], ["f2"])]
    # one DP per template: each its own p1
    dps = [prune(t, l2) for t, _ in split]
    assert [(p.id, p.latency) for p in dps] == [("p1", 30), ("p1", 35)]
    # windows: A looks ahead to p0a then p0, B to p05 then falls back to
    # its DP; A looks back to p60 then falls back, B to p50 then p70.  A's
    # points count twice in each demand, B's once.
    stream = list(_candidates(batch, split, dps, l1, 2))
    want = [
        (None, ("p1", "p1"), 2 * 20 + 30, True),
        ("look_ahead", ("p0a", "p05"), 2 * 25 + 50, True),
        ("look_ahead", ("p0", "p1"), 2 * 40 + 30, True),
        ("look_back", ("p60", "p50"), 2 * 9 + 8, False),
        ("look_back", ("p1", "p70"), 2 * 20 + 6, False),
    ]
    assert [(stage, (vec["f1"], vec["f2"]), demand, may)
            for stage, vec, demand, may in stream] == \
        [(stage, ids, ResourceVector(lut=lut), may) for stage, ids, lut, may in want]
    assert all(list(vec) == batch and vec["f3"] == vec["f1"] for _, vec, _, _ in stream)
    # the remainder takes f1's baseline and f3's q80 off the 19-LUT total,
    # leaving c's 3; of 100 LUTs, the look-ahead vectors ask too much
    rest = device_rest(state, split)
    assert rest == ResourceVector(lut=3)
    assert [fits_device(state, demand, rest) for _, _, demand, _ in stream] == \
        [True, False, False, True, True]


@st.composite
def _shared_template_state(draw):
    """A state of 1-7 functions, instances of 1-3 templates, and an anchor
    function ``z`` at latency 7, on one or two slots, and a look-ahead
    window size.  The templates share point ids and a few latencies, and
    each has a 5-cycle point below the anchor, so that a batch often spans
    templates, has a DP to go to, and holds members of one template at
    different points of one latency; every function's point is drawn."""
    names = [f"f{i}" for i in range(draw(st.integers(1, 7)))]
    n_templates = draw(st.sampled_from((1, 2, 2, 3)))
    tmpl_of = {f: f"T{draw(st.integers(0, n_templates - 1))}" for f in names}
    latency = st.sampled_from((10, 20, 40, 80))
    amount = st.sampled_from((0, 1, 3, 8, 20))
    shared = draw(st.lists(latency, min_size=1, max_size=3))
    templates = {}
    for t in sorted(set(tmpl_of.values())):
        lats = [*shared, *draw(st.lists(latency, max_size=3)), 5]
        templates[t] = template_doc([
            ("baseline" if i == 0 else f"p{i}", lat,
             {"lut": draw(amount), "dsp": draw(amount), "ff": draw(amount)})
            for i, lat in enumerate(lats)
        ])
    templates["Z"] = template_doc([("baseline", 7, {"lut": 1})])
    tmpl_of["z"] = "Z"
    names.append("z")
    height = draw(st.integers(1, 2))
    cap = {"lut": draw(st.sampled_from((20, 60, 200))), "dsp": draw(st.sampled_from((0, 30))),
           "ff": 1000}
    device, graph, lib = parse(device_doc(width=1, height=height, cap=cap, util_limit=1.0),
                               design_doc([("K", "dataflow", names)], templates=tmpl_of),
                               qor_doc(templates))
    config = {f: draw(st.sampled_from([p.id for p in lib.template_for(f).points]))
              for f in names}
    placement = {f: draw(st.integers(0, height - 1)) for f in names}
    return PackState(device, graph, lib, config, placement), draw(st.integers(0, 4))


@settings(max_examples=300, deadline=None)
@given(_shared_template_state())
def test_the_template_stream_matches_a_per_member_one(instance):
    state, n = instance
    lib = state.lib
    l1, batch, l2 = _Levels(function_latencies(state.graph, lib, state.config)).select()
    split = split_batch(lib, batch)
    # each template once, in the order it first appears, with its members
    # in batch order
    firsts = [fns[0] for _, fns in split]
    assert firsts == sorted(firsts, key=batch.index)
    assert all(fns == [f for f in batch if lib.template_for(f) is t] for t, fns in split)
    assert sum(len(fns) for _, fns in split) == len(batch)
    dps = [prune(t, l2) for t, _ in split]
    per_member = {f: prune(lib.template_for(f), l2) for f in batch}
    assert per_member == {f: dp for (_, fns), dp in zip(split, dps) for f in fns}
    if None in dps:
        event("no DP")
        return
    event("templates in batch: %d" % len(split))
    if any(len({state.config[f] for f in fns}) > 1 for _, fns in split):
        event("a template's members at different points")
    stream = list(_candidates(batch, split, dps, l1, n))
    assert [(stage, vec, may) for stage, vec, _, may in stream] == \
        list(reference_candidates(lib, batch, per_member, l1, n))
    assert all(list(vec) == batch for _, vec, _, _ in stream)
    total = ResourceVector.sum(state.slot_load.values())
    rest = device_rest(state, split)
    assert rest == total - reference_demand(lib, {f: state.config[f] for f in batch})
    for _, vec, demand, _ in stream:
        assert demand == reference_demand(lib, vec)
        assert fits_device(state, demand, rest) == within_device_bound(state, vec)


# ---------------------------------------------------------------------------
# Escalation stages on a one-slot fixture


def _one_slot_instance(f_points):
    design = design_doc([("Kf", "dataflow", ["f"]), ("Kg", "dataflow", ["g"])])
    qor = qor_doc({
        "t_f": template_doc(f_points),
        "t_g": template_doc([("baseline", 40, {"lut": 65})]),
    })
    return parse(device_doc(width=1, height=1, cap={"lut": 100}, util_limit=1.0),
                 design, qor)


_SNAPSHOT_POINTS = [
    ("baseline", 80, {"lut": 20}),
    ("p60", 60, {"lut": 38}),
    ("p45", 45, {"lut": 40}),
    ("p30", 30, {"lut": 50}),
    ("p20", 20, {"lut": 60}),
    ("p15", 15, {"lut": 35}),
]


def test_look_ahead_needs_two_steps_on_the_snapshot_fixture():
    device, graph, lib = _one_slot_instance(_SNAPSHOT_POINTS)
    result = run(device, graph, lib, lookahead_n=2)
    assert result.trace[0].stage == "look_ahead"
    assert result.config["f"] == "p15"
    assert result.design_latency == 40


def test_look_ahead_window_of_one_falls_through_to_exclusion():
    device, graph, lib = _one_slot_instance(_SNAPSHOT_POINTS)
    result = run(device, graph, lib, lookahead_n=1)
    # p20 fails, p15 is out of reach, and both look-back points collide too
    assert result.trace[0].stage == "excluded"
    assert result.config["f"] == "baseline"
    assert "f" in result.excluded
    assert result.design_latency == 80


def test_look_back_accepts_a_slower_point():
    points = [
        ("baseline", 80, {"lut": 20}),
        ("p45", 45, {"lut": 30}),
        ("p30", 30, {"lut": 50}),
        ("p20", 20, {"lut": 60}),
        ("p15", 15, {"lut": 60}),
    ]
    device, graph, lib = _one_slot_instance(points)
    result = run(device, graph, lib)
    assert result.trace[0].stage == "look_back"
    assert result.config["f"] == "p45"
    assert result.design_latency == 45
    stages = [r.stage for r in result.trace]
    assert stages == ["look_back", "excluded", "excluded"]


# ---------------------------------------------------------------------------
# Whole-loop behavior on the toy instance


def test_toy_full_runs_reach_thirteen(toy):
    device, graph, lib = toy
    for initial in ("mincut", "balanced"):
        result = run(device, graph, lib, initial=initial)
        assert result.design_latency == 13
        assert result.baseline_latency == 18
        assert result.state.check_legal() == []


def test_toy_frozen_floorplan_runs(toy):
    device, graph, lib = toy
    by_mincut = run(device, graph, lib, initial="mincut", freeze_floorplan=True)
    assert by_mincut.design_latency == 16
    fast = {f for f, p in by_mincut.config.items() if p == "fast"}
    assert fast == {"B", "E"}
    assert by_mincut.placement == by_mincut.initial_placement

    by_balance = run(device, graph, lib, initial="balanced", freeze_floorplan=True)
    assert by_balance.design_latency == 14
    fast = {f for f, p in by_balance.config.items() if p == "fast"}
    assert fast == {"A", "B", "D"}
    assert by_balance.placement == by_balance.initial_placement


def test_trace_latency_never_increases(toy):
    device, graph, lib = toy
    result = run(device, graph, lib)
    lats = [result.baseline_latency] + [r.design_latency for r in result.trace]
    assert all(a >= b for a, b in zip(lats, lats[1:]))


def test_iteration_cap_stops_the_loop(toy):
    device, graph, lib = toy
    result = run(device, graph, lib, iter_cap=0)
    assert result.cap_reached
    assert result.iterations == 0
    assert result.design_latency == result.baseline_latency == 18
    assert result.config == baseline_configuration(graph)


def test_single_point_library_excludes_everything():
    design = design_doc([("K1", "dataflow", ["a"]), ("K2", "dataflow", ["b"])])
    qor = qor_doc({
        "t_a": template_doc([("baseline", 30, {"lut": 5})]),
        "t_b": template_doc([("baseline", 20, {"lut": 5})]),
    })
    device, graph, lib = parse(device_doc(), design, qor)
    result = run(device, graph, lib)
    assert result.excluded == ["a", "b"]
    assert all(r.stage == "excluded" for r in result.trace)
    assert result.design_latency == result.baseline_latency


def test_run_is_deterministic(toy):
    device, graph, lib = toy
    a = run(device, graph, lib)
    b = run(device, graph, lib)
    assert a.config == b.config
    assert a.placement == b.placement
    assert [(r.stage, r.batch, r.accepted, r.moves) for r in a.trace] == \
        [(r.stage, r.batch, r.accepted, r.moves) for r in b.trace]


def test_on_iteration_hook_sees_every_row(toy):
    device, graph, lib = toy
    seen = []
    result = run(device, graph, lib, on_iteration=lambda state, row: seen.append(row.iteration))
    assert seen == [r.iteration for r in result.trace]
    assert seen == list(range(1, result.iterations + 1))


@st.composite
def _dag_instance(draw):
    """A kernel DAG of 2-7 kernels on a 1x2 device, each dataflow kernel
    holding 1-3 functions and any kernel any number of predecessors among
    the earlier ones.  Every template has 1-5 points whose latencies come
    from a few values, so batches tie and levels repeat, and whose LUTs
    range up to the whole slot budget, so some batches fail to pack and are
    excluded."""
    kernels, edges, names = [], [], []
    for k in range(draw(st.integers(2, 7))):
        kind = draw(st.sampled_from(("dataflow", "dataflow", "non_dataflow")))
        size = 1 if kind == "non_dataflow" else draw(st.integers(1, 3))
        fns = [f"k{k}f{i}" for i in range(size)]
        for pred in draw(st.lists(st.sampled_from(names), max_size=3)) if names else ():
            edges.append((pred, draw(st.sampled_from(fns)), "fifo", 4))
        kernels.append((f"K{k}", kind, fns))
        names.extend(fns)
    latency = st.sampled_from((5, 10, 20, 40, 80))
    templates = {}
    for f in names:
        lats = sorted(draw(st.lists(latency, min_size=1, max_size=5)), reverse=True)
        templates[f"t_{f}"] = template_doc([
            ("baseline" if i == 0 else f"p{i}", lat, {"lut": draw(st.integers(1, 40))})
            for i, lat in enumerate(lats)
        ])
    device = device_doc(width=1, height=2, cap={"lut": 100}, util_limit=1.0)
    return parse(device, design_doc(kernels, edges), qor_doc(templates))


@settings(max_examples=150, deadline=None)
@given(_dag_instance(), st.data())
def test_kept_levels_and_latency_match_a_recompute(instance, data):
    device, graph, lib = instance
    lat_of = st.sampled_from((1, 5, 10, 20, 40, 80))
    latencies = {f: data.draw(lat_of) for f in graph.functions}
    assert path_latency(graph, latencies) == reference_path_latency(graph, latencies)

    config, excluded, seen = baseline_configuration(graph), set(), []

    def check(state, row):
        # the selection made at the start of the row, from scratch
        before = function_latencies(graph, lib, config)
        assert (row.l1, row.batch, row.l2) == select_bottleneck(before, excluded)
        if row.stage == "excluded":
            excluded.update(row.batch)
        config.update(state.config)
        after = function_latencies(graph, lib, config)
        assert row.design_latency == reference_path_latency(graph, after)
        seen.append(row.iteration)

    try:
        result = run(device, graph, lib, on_iteration=check)
    except FloorplanError:
        return  # the baseline points alone overfill the device
    assert seen == list(range(1, result.iterations + 1))
    assert select_bottleneck(function_latencies(graph, lib, result.config), excluded) is None
    assert result.design_latency == reference_path_latency(
        graph, function_latencies(graph, lib, result.config))


@settings(max_examples=150, deadline=None)
@given(grid_documents())
def test_every_row_keeps_the_search_invariants(docs):
    # on multi-die grids with tight wire halves: after every iteration the
    # state is legal, its wiring is bit-exact with a full recompute, the
    # design latency has not risen, and the row's maxima are a fresh state's
    device, graph, lib = parse(*docs)
    last = [design_latency(graph, lib, baseline_configuration(graph))]

    def check(state, row):
        assert state.check_legal() == []
        assert sll_fingerprint(state.sll) == sll_fingerprint(
            recompute_all(device, graph, state.placement))
        assert row.design_latency <= last[-1]
        last.append(row.design_latency)
        fresh = PackState(device, graph, lib, state.config, state.placement)
        assert (row.max_util, row.max_sll_util) == \
            (fresh.max_utilization(), fresh.sll.max_utilization())

    try:
        result = run(device, graph, lib, on_iteration=check)
    except FloorplanError:
        event("no legal start")
        return
    event("moved groups" if any(row.moves for row in result.trace) else "moved nothing")
    assert len(last) == result.iterations + 1


def test_unknown_initial_strategy_raises(toy):
    device, graph, lib = toy
    with pytest.raises(ValueError):
        run(device, graph, lib, initial="random")


def test_a_failed_vector_is_repacked_for_only_within_the_device_bound(monkeypatch):
    # ("vector", within the device bound), ("pack", within, ok) or
    # ("repack",), in call order
    events = []
    attempt, pack, repack = search._attempt, search.online_pack, search.offline_repack

    def spy_pack(state, vec, allow_moves=True):
        within = within_device_bound(state, vec)
        ok, moves = pack(state, vec, allow_moves)
        events.append(("pack", within, ok))
        return ok, moves

    def spy_attempt(state, vec, *args):
        # each attempt first checks its vector against the bound
        events.append(("vector", within_device_bound(state, vec)))
        return attempt(state, vec, *args)

    monkeypatch.setattr(search, "_attempt", spy_attempt)
    monkeypatch.setattr(search, "online_pack", spy_pack)
    monkeypatch.setattr(search, "offline_repack", lambda state: events.append(("repack",))
                        or repack(state))
    starts = [0]  # index of each iteration's first event
    run(*parse(*instancegen.gen_stress(5, 150, 6)),
        on_iteration=lambda state, row: starts.append(len(events)))
    packs = [i for i, e in enumerate(events) if e[0] == "pack"]
    repacks = [i for i, e in enumerate(events) if e == ("repack",)]
    # online packing sees only vectors within the bound, each checked just
    # before, or retried after a repack ...
    assert packs and all(events[i][1] for i in packs)
    assert all(events[i - 1] in (("vector", True), ("repack",)) for i in packs)
    # ... a vector over the bound goes no further ...
    over = [i for i, e in enumerate(events) if e == ("vector", False)]
    assert over and all(events[i + 1:i + 2] in ([], [("vector", True)], [("vector", False)])
                        for i in over)
    # ... every repack follows a failed vector ...
    assert repacks and all(events[i - 1] == ("pack", True, False) for i in repacks)
    # ... and an iteration's first vector, which may repack, does so
    # whenever it is within the bound and fails
    firsts = [i for i in starts[:-1] if events[i:i + 1] == [("vector", True)]]
    failed = [i for i in firsts if events[i + 1] == ("pack", True, False)]
    assert failed and all(events[i + 2] == ("repack",) for i in failed)


def test_a_look_back_vector_is_never_repacked_for(monkeypatch):
    # ("vector", stage), ("pack", ok) or ("repack",), in call order
    events = []
    candidates, pack, repack = search._candidates, search.online_pack, search.offline_repack

    def spy_candidates(*args):
        for stage, vec, demand, may_repack in candidates(*args):
            events.append(("vector", stage))
            yield stage, vec, demand, may_repack

    def spy_pack(state, vec, allow_moves=True):
        ok, moves = pack(state, vec, allow_moves)
        events.append(("pack", ok))
        return ok, moves

    monkeypatch.setattr(search, "_candidates", spy_candidates)
    monkeypatch.setattr(search, "online_pack", spy_pack)
    monkeypatch.setattr(search, "offline_repack", lambda state: events.append(("repack",))
                        or repack(state))
    run(*parse(*instancegen.gen_stress(5, 150, 6)))
    stage, after_look_back = None, []
    for e in events:
        if e[0] == "vector":
            stage = e[1]
        elif stage == "look_back":
            after_look_back.append(e)
    # look-back vectors fail online packing, yet none is repacked for
    assert ("pack", False) in after_look_back
    assert ("repack",) not in after_look_back
    assert ("repack",) in events


# ---------------------------------------------------------------------------
# Pinned outcomes: legalization shortcuts must leave every decision unchanged.
# The digests were re-recorded, on purpose, when vectors over the device-wide
# bound stopped being repacked for; a different digest means the search
# itself decides differently.


def outcome_digest(result) -> str:
    """Configuration, placement and the trace rows without their timings."""
    rows = [
        {k: v for k, v in dataclasses.asdict(row).items() if k != "legalize_seconds"}
        for row in result.trace
    ]
    doc = [result.config, result.placement, rows]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


PINNED_INSTANCES = {
    # 150 functions on quad: online, look-ahead, look-back and excluded
    # rows, 10 repacks of which 6 move groups, and one look-ahead vector
    # packed by the online retry after a repack that moved groups.
    "stress-quad": (
        lambda: instancegen.gen_stress(5, 150, 6),
        "4ab684d9bb1c261eced2fff217bae79b6876a31f53589d0448c546d76eb5ca54",
    ),
    # 75 functions on the 2x4 grid: the one offline row depends on the
    # online retry after a repack that moved groups (12 repacks, 10 moving).
    "stress-grid": (
        lambda: stress_grid(9, 75, 6, sll=150),
        "a107abd12152a3e21de9eb8fbb5a0baee8b9fbe3d4dff61515b4a8f056e25d1a",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_INSTANCES))
def test_search_outcome_is_pinned(name):
    make, digest = PINNED_INSTANCES[name]
    assert outcome_digest(run(*parse(*make()))) == digest


def test_frozen_floorplan_outcome_is_pinned():
    # the stress-quad instance with moves off: look-ahead and look-back both
    # accept, and nothing is ever repacked
    result = run(*parse(*instancegen.gen_stress(5, 150, 6)), freeze_floorplan=True)
    assert {"look_ahead", "look_back"} <= {row.stage for row in result.trace}
    assert outcome_digest(result) == \
        "eecc48c5ba9e6352939b4785406d05cbfdc593fe69db0f0a2dcfd53b378a63f8"


@pytest.mark.parametrize("name", sorted(PINNED_INSTANCES))
def test_every_rows_maxima_match_a_recompute(name):
    # each row's maxima equal those of a state built from scratch for its
    # placement
    device, graph, lib = parse(*PINNED_INSTANCES[name][0]())

    def check(state, row):
        fresh = PackState(device, graph, lib, state.config, state.placement)
        assert row.max_util == fresh.max_utilization()
        assert row.max_sll_util == fresh.sll.max_utilization()

    run(device, graph, lib, on_iteration=check)
