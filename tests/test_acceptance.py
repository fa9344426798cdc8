"""Acceptance suite: one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get a PASS/FAIL line per
guarantee.  Tolerances are pinned in each test; latency checks are exact
integer comparisons, wall-clock budgets are hard limits.
"""

from __future__ import annotations

import json
import random
import statistics
import time

from fado import cli
from fado.instancegen import GenSpec, gen_instance, gen_stress, toy_instance
from fado.model import (
    ResourceVector,
    design_from_dict,
    device_from_dict,
    fit_budget,
    qor_from_dict,
    within_budget,
)
from fado.oracle import assign_slots, certify, solve, verify_optimal
from fado.packer import PackState
from fado.pipeliner import recompute_all
from fado.search import compute_lookahead_N, run

import pytest

from helpers import (
    design_doc,
    device_doc,
    lib_with_loops,
    loop_doc,
    parse,
    qor_doc,
    reference_lookahead_depth,
    sll_fingerprint,
    template_doc,
)


def _parse_docs(docs):
    device_d, design_d, qor_d = docs
    graph = design_from_dict(design_d)
    return device_from_dict(device_d), graph, qor_from_dict(qor_d, graph)


# ---------------------------------------------------------------------------
# 1. Toy walkthrough: exact latencies from both starts, with and without
#    floorplan moves.


def test_01_toy_walkthrough_latencies():
    device, graph, lib = _parse_docs(toy_instance())
    t0 = time.perf_counter()

    full_mincut = run(device, graph, lib, initial="mincut")
    full_balanced = run(device, graph, lib, initial="balanced")
    frozen_mincut = run(device, graph, lib, initial="mincut", freeze_floorplan=True)
    frozen_balanced = run(device, graph, lib, initial="balanced", freeze_floorplan=True)

    elapsed = time.perf_counter() - t0
    assert full_mincut.baseline_latency == 18
    assert full_mincut.design_latency == 13
    assert full_balanced.design_latency == 13
    assert frozen_mincut.design_latency == 16
    assert frozen_balanced.design_latency == 14
    for res in (full_mincut, full_balanced, frozen_mincut, frozen_balanced):
        assert res.state.check_legal() == []
    assert elapsed < 1.0, f"toy runs took {elapsed:.3f}s"


# ---------------------------------------------------------------------------
# 2. On monotone instances (faster points never cost less of any resource)
#    the search provably cannot be beaten; verify that on 100 seeds.


def _small_spec(seed, mode):
    return GenSpec(seed=seed, mode=mode, device="pair", dataflow_kernels=2,
                   non_dataflow_kernels=1, functions_per_dataflow=(1, 2))


def test_02_reaches_the_optimum_on_monotone_instances():
    t0 = time.perf_counter()
    for seed in range(100):
        device, graph, lib = _parse_docs(gen_instance(_small_spec(seed, "monotone")))
        result = run(device, graph, lib)
        report = verify_optimal(device, graph, lib, result.design_latency)
        assert report["verdict"] == "optimal", (seed, report)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"monotone sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. On non-monotone instances the search is a heuristic: the verifier must
#    still reach a decisive verdict, and any counterexample it returns must
#    pass the system's own legality check.


def test_03_decisive_verdicts_on_non_monotone_instances(capsys):
    beaten = 0
    for seed in range(10):
        device, graph, lib = _parse_docs(gen_instance(_small_spec(seed, "non_monotone")))
        result = run(device, graph, lib)
        report = verify_optimal(device, graph, lib, result.design_latency)
        assert report["verdict"] in ("optimal", "counterexample"), (seed, report)
        if report["verdict"] == "counterexample":
            beaten += 1
            ce = report["counterexample"]
            assert ce["latency"] < result.design_latency
            assert certify(device, graph, lib, ce["config"], ce["placement"]) == []
    with capsys.disabled():
        print(f"\n[non-monotone] counterexample rate: {beaten}/10")


# ---------------------------------------------------------------------------
# 4 and 5. Replay corpus: 50 seeded runs, checked after every committed
#    iteration.


@pytest.fixture(scope="module")
def replay_corpus():
    runs = []
    for seed in range(50):
        spec = GenSpec(seed=seed, device="quad", mode="non_monotone")
        device, graph, lib = _parse_docs(gen_instance(spec))
        records = []

        def hook(state, row, device=device, graph=graph, records=records):
            fresh = recompute_all(device, graph, state.placement)
            records.append({
                "iteration": row.iteration,
                "wires_match": sll_fingerprint(state.sll) == sll_fingerprint(fresh),
                "violations": state.check_legal(),
                "latency": row.design_latency,
            })

        result = run(device, graph, lib, on_iteration=hook)
        assert records, f"seed {seed} produced no iterations"
        runs.append((seed, records, result))
    return runs


def test_04_incremental_wire_state_matches_full_recompute(replay_corpus):
    mismatches = [
        (seed, rec["iteration"])
        for seed, records, _ in replay_corpus
        for rec in records
        if not rec["wires_match"]
    ]
    assert mismatches == []


def test_05_every_iteration_stays_legal_and_latency_never_rises(replay_corpus):
    for seed, records, result in replay_corpus:
        for rec in records:
            assert rec["violations"] == [], (seed, rec)
        latencies = [rec["latency"] for rec in records]
        assert latencies == sorted(latencies, reverse=True), (seed, latencies)
        assert result.design_latency == latencies[-1]


# ---------------------------------------------------------------------------
# 6. Look-ahead window size: pinned hand-derived examples plus randomized
#    nests against a direct re-evaluation.


def test_06_lookahead_window_formula():
    lib, graph = lib_with_loops([loop_doc("L1", 1, 64, 64)])
    assert compute_lookahead_N(lib, graph) == 18

    lib, graph = lib_with_loops([loop_doc("L1", 1, 2, 2)])
    assert compute_lookahead_N(lib, graph) == 3

    lib, graph = lib_with_loops([])
    assert compute_lookahead_N(lib, graph) == 8

    rng = random.Random(1106)
    for _ in range(20):
        loops = []
        for _ in range(rng.randint(1, 3)):
            for depth in range(1, rng.randint(1, 4) + 1):
                loops.append(loop_doc(f"L{len(loops)}", depth,
                                   rng.choice((1, 2, 4, 8, 64, 100)),
                                   rng.choice((1, 2, 16, 64, 4000))))
        lib, graph = lib_with_loops(loops)
        for mode in ("min", "max"):
            got = compute_lookahead_N(lib, graph, mode)
            assert got == reference_lookahead_depth(lib.templates["t_a"].nests(), mode), loops


# ---------------------------------------------------------------------------
# 7. Scale: 400 functions, 4 slots, 10 points per template, end to end
#    through the command line in under ten seconds.


def test_07_four_hundred_function_run_under_ten_seconds(tmp_path, capsys):
    gen_dir = tmp_path / "instance"
    assert cli.main(["gen", "--preset", "stress", "--seed", "7",
                     "--functions", "400", "--points", "10",
                     "--out", str(gen_dir)]) == 0
    design = json.loads((gen_dir / "design.json").read_text())
    n_functions = sum(len(k["functions"]) for k in design["kernels"])
    assert n_functions >= 400

    run_dir = tmp_path / "run"
    t0 = time.perf_counter()
    code = cli.main([
        "optimize",
        "--device", str(gen_dir / "device.json"),
        "--design", str(gen_dir / "design.json"),
        "--qor", str(gen_dir / "qor.json"),
        "--out", str(run_dir),
    ])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 10.0, f"optimize took {elapsed:.2f}s"

    doc = json.loads((run_dir / "result.json").read_text())
    assert doc["design_latency"] <= doc["baseline_latency"]
    with capsys.disabled():
        print(f"\n[scale] 400 functions in {elapsed:.2f}s, "
              f"{doc['iterations']} iterations")


# ---------------------------------------------------------------------------
# 8. Incremental legalization must beat re-solving placement from scratch
#    by at least an order of magnitude per iteration.


def test_08_legalization_beats_full_reassignment_tenfold(capsys):
    device, graph, lib = _parse_docs(gen_stress(3, n_functions=50,
                                                points_per_template=6))
    assert len(graph.functions) >= 50

    configs = []

    def hook(state, row):
        configs.append(dict(state.config))

    result = run(device, graph, lib, on_iteration=hook)
    legalize_times = [row.legalize_seconds for row in result.trace]
    assert legalize_times and configs

    # Tight states can send the from-scratch solver into exponential
    # backtracking; cap it and count the truncated time, which only
    # understates the oracle side of the comparison.
    class _Budget(Exception):
        pass

    reassign_times = []
    aborted = 0
    for config in configs:
        nodes = [0]

        def tick():
            nodes[0] += 1
            if nodes[0] > 100_000:
                raise _Budget

        t0 = time.perf_counter()
        try:
            placement = assign_slots(device, graph, lib, config, tick=tick)
            assert placement is not None
        except _Budget:
            aborted += 1
        reassign_times.append(time.perf_counter() - t0)

    mean_legalize = statistics.mean(legalize_times)
    mean_reassign = statistics.mean(reassign_times)
    assert mean_legalize * 10 <= mean_reassign, (mean_legalize, mean_reassign)
    with capsys.disabled():
        print(f"\n[speed] legalize {mean_legalize * 1e6:.0f}us vs "
              f"reassign {mean_reassign * 1e6:.0f}us per iteration "
              f"({mean_reassign / mean_legalize:.0f}x, "
              f"{aborted} reassignments cut off at budget)")


# ---------------------------------------------------------------------------
# 9. Wire budget: a speed-up that fits the destination slot's capacity is
#    still rejected when the boundary it would load exceeds 90% of its
#    wire capacity, and the final state respects the budget.


def _wire_bound_instance():
    # One lut-bound resource; boundary capacity 20 at 90% gives budget 18,
    # below the 19 wires that moving g2 across would require, which the
    # full capacity would still take.
    cap = {"bram": 10**6, "dsp": 10**6, "ff": 10**6, "lut": 200, "uram": 10**6}
    device = device_doc(width=1, height=2, cap=cap, sll=20,
                        util_limit=0.7, sll_limit=0.9)
    design = design_doc(
        [("kf1", "dataflow", ["f1"]), ("kf2", "dataflow", ["f2"]),
         ("kg1", "dataflow", ["g1"]), ("kg2", "dataflow", ["g2"])],
        edges=[("f1", "f2", "fifo", 10), ("g1", "g2", "fifo", 9)],
    )
    lut = lambda n: {"bram": 0, "dsp": 0, "ff": 0, "lut": n, "uram": 0}
    qor = qor_doc({
        "t_f1": template_doc([("baseline", 5, lut(80))]),
        "t_f2": template_doc([("baseline", 5, lut(80))]),
        "t_g1": template_doc([("baseline", 5, lut(20))]),
        "t_g2": template_doc([("baseline", 50, lut(20)), ("fast", 3, lut(55))]),
    })
    return parse(device, design, qor)


def test_09_wire_budget_blocks_a_capacity_feasible_move():
    device, graph, lib = _wire_bound_instance()
    result = run(device, graph, lib, initial="mincut")

    # The speed-up would fit the other slot's capacity...
    src = result.initial_placement["g2"]
    dst = 1 - src
    dst_load = ResourceVector.sum(
        lib.point(f, "baseline").resources
        for f, s in result.initial_placement.items() if s == dst
    )
    fast = lib.point("g2", "fast").resources
    assert within_budget(dst_load + fast, fit_budget(device.slot(dst).capacity, device.util_limit))

    # ...and its 10 + 9 = 19 wires would fit the boundary's capacity of 20,
    # but both fifos would then cross it against a budget of 0.9 * 20 = 18,
    # so the move must be rejected and g2 given up.
    assert "g2" in result.excluded
    assert result.config == {f: "baseline" for f in sorted(graph.functions)}
    assert result.design_latency == result.baseline_latency == 55
    assert result.trace[0].batch == ["g2"]
    assert result.trace[0].stage == "excluded"
    assert result.trace[0].accepted == {}

    state = result.state
    assert state.check_legal() == []
    load = sum(state.sll.boundary_loads[0].values())
    assert load == 10
    assert load + 9 <= device.die_boundaries[0][0]
    assert load + 9 > 0.9 * 20
