from __future__ import annotations

import itertools
import json
import random
import sys
import time

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fado import search
from fado.cli import main
from fado.floorplan import FloorplanError
from fado.instancegen import GenSpec, gen_instance
from fado.model import (
    baseline_configuration,
    design_from_dict,
    design_latency,
    device_from_dict,
    fit_budget,
    qor_from_dict,
    within_budget,
)
from fado.oracle import assign_slots, certify, solve, verify_optimal

from helpers import (
    design_doc,
    device_doc,
    grid_documents,
    parse,
    qor_doc,
    reference_search,
    slot_at,
    template_doc,
)


# ---------------------------------------------------------------------------
# Slot assignment


def test_assign_slots_colocates_groups(toy):
    device, graph, lib = toy
    config = {"A": "baseline", "B": "fast", "C": "fast", "D": "fast", "E": "fast"}
    placement = assign_slots(device, graph, lib, config)
    assert placement is not None
    assert len({placement[m] for m in ("B", "C", "D")}) == 1
    assert certify(device, graph, lib, config, placement) == []


def test_assign_slots_detects_infeasible_configs(toy):
    device, graph, lib = toy
    all_fast = {f: "fast" for f in graph.functions}
    assert assign_slots(device, graph, lib, all_fast) is None


def test_the_oracle_refuses_what_the_fold_refuses():
    # widths 4,4,3,3,2 over two 8-wire halves: the fold strands the last
    # edge, though the split {4,4} and {3,3,2} would fit.  Only slot (0,0)
    # has the sources' DSPs and only (1,1) the sinks' URAM, so that is the
    # one placement, and the fold's verdict is the oracle's.
    names = [f"s{i}" for i in range(5)] + [f"d{i}" for i in range(5)]
    design = design_doc(
        [(f"K_{n}", "dataflow", [n]) for n in names],
        [(f"s{i}", f"d{i}", "fifo", w) for i, w in enumerate((4, 4, 3, 3, 2))],
    )
    qor = qor_doc({
        f"t_{n}": template_doc([("baseline", 5, {"lut": 1, kind: 1})])
        for n, kind in zip(names, ["dsp"] * 5 + ["uram"] * 5)
    })
    ddoc = device_doc(width=2, height=2, cap={"lut": 100}, sll=8, sll_limit=1.0)
    ddoc["slots"][0]["capacity"]["dsp"] = 10
    ddoc["slots"][3]["capacity"]["uram"] = 10
    device, graph, lib = parse(ddoc, design, qor)
    assert (slot_at(device, 0, 0).id, slot_at(device, 1, 1).id) == (0, 3)
    config = baseline_configuration(graph)
    placement = {n: 0 if n.startswith("s") else 3 for n in names}
    assert certify(device, graph, lib, config, placement) != []
    assert assign_slots(device, graph, lib, config) is None
    assert solve(device, graph, lib).status == "infeasible"


@st.composite
def _wire_bound_instances(draw):
    """A design of 4-5 single-function kernels, edges running forward, on a
    2x2 or 2x3 device whose die-boundary halves hold 1-8 wires, with one
    configuration of it.  The functions rarely all fit the bottom row, so
    most placements cross a boundary."""
    names = [f"f{i}" for i in range(draw(st.integers(4, 5)))]
    forward = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    edges = draw(st.lists(
        st.tuples(st.sampled_from(forward), st.sampled_from(("fifo", "fifo", "ram")),
                  st.integers(1, 8)),
        min_size=1, max_size=8,
    ))
    design = design_doc([(f"K_{n}", "dataflow", [n]) for n in names],
                        [(a, b, kind, w) for (a, b), kind, w in edges])
    qor = qor_doc({
        f"t_{n}": template_doc([("baseline", 10, {"lut": draw(st.integers(20, 55))}),
                                ("fast", 5, {"lut": draw(st.integers(30, 65))})])
        for n in names
    })
    device = device_doc(width=2, height=draw(st.sampled_from((2, 3))), cap={"lut": 100},
                        sll=draw(st.integers(1, 8)), sll_limit=1.0)
    config = {n: draw(st.sampled_from(("baseline", "fast"))) for n in names}
    return parse(device, design, qor), config


@settings(max_examples=60, deadline=None)
@given(_wire_bound_instances())
def test_the_oracle_places_exactly_when_check_would_pass_a_placement(instance):
    # every placement assign_slots returns certifies, and it returns one
    # whenever some group-respecting placement certifies
    (device, graph, lib), config = instance
    groups = graph.ram_groups
    placement = assign_slots(device, graph, lib, config)
    if placement is not None:
        assert certify(device, graph, lib, config, placement) == []
    slots = [s.id for s in device.slots]
    legal = any(
        certify(device, graph, lib, config,
                {m: sid for g, sid in zip(groups, sides) for m in g.members}) == []
        for sides in itertools.product(slots, repeat=len(groups))
    )
    assert (placement is not None) == legal


# ---------------------------------------------------------------------------
# Exact solve


def test_toy_optimum_is_thirteen(toy):
    device, graph, lib = toy
    t0 = time.perf_counter()
    res = solve(device, graph, lib)
    assert time.perf_counter() - t0 < 1.0
    assert res.status == "optimal"
    assert res.latency == 13
    # among the latency-13 witnesses the lexicographically smallest keeps A slow
    assert res.config == {"A": "baseline", "B": "fast", "C": "fast",
                          "D": "fast", "E": "fast"}
    assert certify(device, graph, lib, res.config, res.placement) == []


def test_solve_single_function():
    design = design_doc([("K", "dataflow", ["a"])])
    qor = qor_doc({"t_a": template_doc([
        ("baseline", 50, {"lut": 10}), ("p1", 7, {"lut": 60}),
    ])})
    device, graph, lib = parse(device_doc(cap={"lut": 100}), design, qor)
    res = solve(device, graph, lib)
    assert (res.status, res.latency) == ("optimal", 7)


def _naive_minimum(device, graph, lib):
    """Full enumeration over configurations and group-respecting placements."""
    fns = sorted(graph.functions)
    groups = graph.ram_groups
    best = None
    for choice in itertools.product(*(lib.template_for(f).points for f in fns)):
        config = {f: p.id for f, p in zip(fns, choice)}
        placed = False
        for sides in itertools.product([s.id for s in device.slots], repeat=len(groups)):
            placement = {m: sid for g, sid in zip(groups, sides) for m in g.members}
            ok = True
            for s in device.slots:
                used = [lib.point(f, config[f]).resources
                        for f in fns if placement[f] == s.id]
                total = used[0] if used else None
                for u in used[1:]:
                    total = total + u
                if used and not within_budget(total, fit_budget(s.capacity, device.util_limit)):
                    ok = False
                    break
            if not ok:
                continue
            for y, caps in device.die_boundaries.items():
                crossing = sum(
                    e.width for e in graph.fifo_edges()
                    if min(device.slot(placement[e.src]).y,
                           device.slot(placement[e.dst]).y) <= y <
                    max(device.slot(placement[e.src]).y,
                        device.slot(placement[e.dst]).y)
                )
                cap = caps[0]
                if crossing > device.sll_limit * cap + 1e-6:
                    ok = False
                    break
            if ok:
                placed = True
                break
        if not placed:
            continue
        lat = design_latency(graph, lib, config)
        best = lat if best is None else min(best, lat)
    return best


def test_solve_matches_naive_enumeration():
    rng = random.Random(31)
    for _ in range(8):
        names = ["f0", "f1", "f2", "f3"]
        design = design_doc(
            [("K0", "dataflow", ["f0", "f1"]), ("K1", "dataflow", ["f2", "f3"])],
            [("f0", "f1", "fifo", rng.choice((8, 16))),
             ("f1", "f2", "fifo", rng.choice((8, 16))),
             ("f2", "f3", "ram", 32)],
        )
        templates = {}
        for n in names:
            lats = sorted(rng.sample(range(5, 100), 3), reverse=True)
            pts = [("baseline", lats[0], {"lut": rng.randint(5, 40)})]
            pts += [(f"p{i}", lats[i], {"lut": rng.randint(5, 80)}) for i in (1, 2)]
            templates[f"t_{n}"] = template_doc(pts)
        device, graph, lib = parse(
            device_doc(cap={"lut": 120}, util_limit=0.7, sll=30), design, qor_doc(templates))
        res = solve(device, graph, lib)
        want = _naive_minimum(device, graph, lib)
        if want is None:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.latency == want
            assert certify(device, graph, lib, res.config, res.placement) == []


def test_solve_reports_infeasible():
    design = design_doc([("K", "dataflow", ["a"])])
    qor = qor_doc({"t_a": template_doc([("baseline", 5, {"lut": 200})])})
    device, graph, lib = parse(
        device_doc(width=1, height=1, cap={"lut": 100}), design, qor)
    assert solve(device, graph, lib).status == "infeasible"


def test_solve_has_no_size_guard():
    # 13 functions, then 4^12 configurations x 2^12 placements: neither is
    # refused for its size, and both solve well within the default budget
    n = 13
    design = design_doc([(f"K{i}", "dataflow", [f"f{i}"]) for i in range(n)])
    qor = qor_doc({f"t_f{i}": template_doc([("baseline", 5, {"lut": 1})])
                   for i in range(n)})
    res = solve(*parse(device_doc(), design, qor))
    assert (res.status, res.latency, res.nodes) == ("optimal", 5, 28)

    n = 12
    design = design_doc([(f"K{i}", "dataflow", [f"f{i}"]) for i in range(n)])
    qor = qor_doc({
        f"t_f{i}": template_doc(
            [("baseline", 50, {"lut": 1})] + [(f"p{k}", 40 - k, {"lut": 1}) for k in range(3)]
        )
        for i in range(n)
    })
    res = solve(*parse(device_doc(), design, qor))
    assert (res.status, res.latency, res.nodes) == ("optimal", 38, 62)


def test_a_walk_deeper_than_the_interpreters_call_limit_completes():
    # one function and one RAM group per level, more levels than Python
    # nests calls: each walk keeps its path on a list, not the call stack
    n = sys.getrecursionlimit() + 200
    names = [f"f{i}" for i in range(n)]
    device, graph, lib = parse(
        device_doc(width=1, height=1, cap={"lut": 2 * n}),
        design_doc([("K", "dataflow", names)], templates=dict.fromkeys(names, "t")),
        qor_doc({"t": template_doc([("baseline", 5, {"lut": 1})])}))
    res = solve(device, graph, lib)
    assert (res.status, res.latency, res.nodes) == ("optimal", 5, 2 * n + 2)
    out = verify_optimal(device, graph, lib, 6)
    assert (out["verdict"], out["nodes"]) == ("counterexample", 2 * n + 2)


def test_the_node_budget_stops_a_large_solve(tmp_path):
    # a 14-function chain whose all-fast configuration overflows the device
    fns = [f"f{i}" for i in range(14)]
    docs = {
        "device": device_doc(cap={"lut": 1000}),
        "design": design_doc([(f"K{i}", "dataflow", [f]) for i, f in enumerate(fns)],
                             [(a, b, "fifo", 8) for a, b in zip(fns, fns[1:])]),
        "qor": qor_doc({
            f"t_{f}": template_doc([("baseline", 30, {"lut": 10}), ("mid", 20, {"lut": 40}),
                                    ("fast", 10 + i % 3, {"lut": 100})])
            for i, f in enumerate(fns)
        }),
    }
    res = solve(*parse(docs["device"], docs["design"], docs["qor"]), node_budget=1000)
    assert (res.status, res.nodes) == ("budget_exceeded", 1001)

    args = []
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        args += [f"--{name}", str(tmp_path / f"{name}.json")]
    assert main(["oracle", *args, "--node-budget", "1000"]) == 3


def test_solve_budget_exhaustion(toy):
    device, graph, lib = toy
    res = solve(device, graph, lib, node_budget=1)
    assert res.status == "budget_exceeded"
    assert res.latency is None


# ---------------------------------------------------------------------------
# Optimality verification


def test_verify_optimal_confirms_the_toy_result(toy):
    device, graph, lib = toy
    out = verify_optimal(device, graph, lib, 13)
    assert out["verdict"] == "optimal"
    assert (out["candidates"], out["checked"], out["nodes"]) == (3, 3, 32)


def test_verify_finds_a_counterexample_for_a_truncated_run(toy):
    device, graph, lib = toy
    partial = search.run(device, graph, lib, iter_cap=1)
    assert partial.design_latency > 13
    out = verify_optimal(device, graph, lib, partial.design_latency)
    assert out["verdict"] == "counterexample"
    witness = out["counterexample"]
    assert witness["latency"] == 13
    assert certify(device, graph, lib, witness["config"], witness["placement"]) == []


def test_verify_checks_the_fastest_candidates_first():
    # a feeds b, so latencies add; (fast, fast) at 2 overflows the slot, and
    # the walk meets the legal (fast, mid) at 5 before the faster (mid, fast)
    # at 4: the witness is the faster one, and the bound it sets prunes the rest
    design = design_doc([("K0", "dataflow", ["a"]), ("K1", "dataflow", ["b"])],
                        [("a", "b", "fifo", 8)])
    qor = qor_doc({
        "t_a": template_doc([("baseline", 10, {"lut": 10}), ("mid", 3, {"lut": 10}),
                             ("fast", 1, {"lut": 60})]),
        "t_b": template_doc([("baseline", 10, {"lut": 10}), ("mid", 4, {"lut": 10}),
                             ("fast", 1, {"lut": 60})]),
    })
    device, graph, lib = parse(
        device_doc(width=1, height=1, cap={"lut": 100}, util_limit=1.0), design, qor)
    out = verify_optimal(device, graph, lib, 20)
    assert out["verdict"] == "counterexample"
    assert out["candidates"] == 3 and out["checked"] == 3
    assert out["counterexample"]["config"] == {"a": "mid", "b": "fast"}
    assert out["counterexample"]["latency"] == 4


def test_verify_is_inconclusive_when_the_node_budget_runs_out(toy):
    # 1024 configurations beat latency 100, and every one overflows the slot:
    # a walk through all of them proves the result optimal, a shorter one
    # proves nothing
    fns = [f"f{i}" for i in range(10)]
    design = design_doc([("K", "dataflow", fns)])
    qor = qor_doc({
        f"t_{n}": template_doc([
            ("baseline", 100, {"lut": 8}),
            ("p1", 99, {"lut": 200}),
            ("p2", 98, {"lut": 200}),
        ]) for n in fns
    })
    device, graph, lib = parse(
        device_doc(width=1, height=1, cap={"lut": 100}, util_limit=1.0), design, qor)
    full = verify_optimal(device, graph, lib, 100)
    assert (full["verdict"], full["candidates"], full["nodes"]) == ("optimal", 1024, 4094)
    out = verify_optimal(device, graph, lib, 100, node_budget=4093)
    assert (out["verdict"], out["counterexample"], out["nodes"]) == ("inconclusive", None, 4094)

    # a witness found before the budget runs out still beats the result
    device, graph, lib = toy
    assert verify_optimal(device, graph, lib, 18, node_budget=15)["verdict"] == "inconclusive"
    out = verify_optimal(device, graph, lib, 18, node_budget=16)
    assert (out["verdict"], out["nodes"]) == ("counterexample", 17)
    witness = out["counterexample"]
    assert witness["latency"] == 13
    assert certify(device, graph, lib, witness["config"], witness["placement"]) == []


def test_verify_agrees_with_solve_on_generated_instances():
    for seed in (0, 1, 2):
        spec = GenSpec(seed=seed, mode="monotone", device="pair",
                       dataflow_kernels=2, non_dataflow_kernels=1,
                       functions_per_dataflow=(1, 2))
        ddoc, gdoc, qdoc = gen_instance(spec)
        graph = design_from_dict(gdoc)
        device = device_from_dict(ddoc)
        lib = qor_from_dict(qdoc, graph)
        res = search.run(device, graph, lib)
        exact = solve(device, graph, lib)
        assert exact.status == "optimal"
        assert res.design_latency == exact.latency
        out = verify_optimal(device, graph, lib, res.design_latency)
        assert out["verdict"] == "optimal"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(-2, 3))
def test_verify_beats_a_bound_exactly_when_the_optimum_does(seed, offset):
    # the small preset's shape: verify under a bound near the optimum finds
    # a counterexample exactly when the optimum is below it, and that
    # counterexample is solve's own witness
    spec = GenSpec(seed=seed, device="pair", dataflow_kernels=2, non_dataflow_kernels=1,
                   functions_per_dataflow=(1, 3))
    ddoc, gdoc, qdoc = gen_instance(spec)
    graph = design_from_dict(gdoc)
    device, lib = device_from_dict(ddoc), qor_from_dict(qdoc, graph)
    exact = solve(device, graph, lib)
    assume(exact.status == "optimal")
    bound = exact.latency + offset
    out = verify_optimal(device, graph, lib, bound)
    if exact.latency < bound:
        assert out["verdict"] == "counterexample"
        witness = out["counterexample"]
        assert witness["latency"] == exact.latency
        assert witness["config"] == exact.config
        assert certify(device, graph, lib, witness["config"], witness["placement"]) == []
    else:
        assert (out["verdict"], out["counterexample"]) == ("optimal", None)


@settings(max_examples=80, deadline=None)
@given(grid_documents(), st.sampled_from((30, 300, 3000)), st.sampled_from((-2, 0, 1, 3)))
def test_the_walk_matches_one_that_recomputes_every_latency(docs, budget, offset):
    # the walk restarts the longest path at the changed kernel; a walk that
    # recomputes it whole at every node must meet the same nodes, so every
    # answer and count agrees, cut by the node budget or not
    device, graph, lib = parse(*docs)
    want = reference_search(device, graph, lib, budget)
    assert solve(device, graph, lib, node_budget=budget) == want
    bound = offset + (want.latency if want.latency is not None
                      else design_latency(graph, lib, baseline_configuration(graph)))
    want = reference_search(device, graph, lib, budget, bound)
    out = verify_optimal(device, graph, lib, bound, node_budget=budget)
    assert (out["nodes"], out["candidates"], out["checked"]) == (
        want.nodes, want.candidates, want.checked)
    if want.config is None:
        assert out["counterexample"] is None
        assert out["verdict"] == ("inconclusive" if want.status == "budget_exceeded" else "optimal")
    else:
        assert out["verdict"] == "counterexample"
        assert out["counterexample"] == {
            "config": want.config, "placement": want.placement, "latency": want.latency}


# ---------------------------------------------------------------------------
# Search against the oracle


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_search_solve_and_verify_agree_on_generated_designs(seed):
    spec = GenSpec(seed=seed, dataflow_kernels=4, functions_per_dataflow=(2, 4))
    ddoc, gdoc, qdoc = gen_instance(spec)
    graph = design_from_dict(gdoc)
    assume(12 <= len(graph.functions) <= 16)
    device, lib = device_from_dict(ddoc), qor_from_dict(qdoc, graph)
    try:
        found = search.run(device, graph, lib).design_latency
    except FloorplanError:
        assume(False)
    exact = solve(device, graph, lib, node_budget=20_000)
    if exact.config is not None:
        assert certify(device, graph, lib, exact.config, exact.placement) == []
    out = verify_optimal(device, graph, lib, found, node_budget=20_000)
    if out["verdict"] == "counterexample":
        witness = out["counterexample"]
        assert witness["latency"] < found
        assert certify(device, graph, lib, witness["config"], witness["placement"]) == []
    if exact.status != "optimal":
        return
    assert exact.latency <= found
    if out["verdict"] == "optimal":
        assert exact.latency == found
    if out["verdict"] == "counterexample":
        assert exact.latency <= out["counterexample"]["latency"]
