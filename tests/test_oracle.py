from __future__ import annotations

import itertools
import random
import time

import pytest

from fado import search
from fado.floorplan import ram_groups
from fado.instancegen import GenSpec, gen_instance
from fado.model import (
    baseline_configuration,
    design_from_dict,
    design_latency,
    device_from_dict,
    fits_within,
    qor_from_dict,
)
from fado.oracle import (
    _sll_feasible,
    assign_slots,
    certify,
    solve,
    verify_optimal,
)

from helpers import design_doc, device_doc, parse, qor_doc, template_doc


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


def test_exact_half_assignment_beats_the_greedy_fold():
    # widths 4,4,3,3,2 over two 8-wide halves: arrival-order folding strands
    # the last edge, the exhaustive split packs {4,4} and {3,3,2}
    names = [f"s{i}" for i in range(5)] + [f"d{i}" for i in range(5)]
    design = design_doc(
        [(f"K_{n}", "dataflow", [n]) for n in names],
        [(f"s{i}", f"d{i}", "fifo", w) for i, w in enumerate((4, 4, 3, 3, 2))],
    )
    qor = qor_doc({f"t_{n}": template_doc([("baseline", 5, {"lut": 1})]) for n in names})
    device, graph, lib = parse(
        device_doc(width=2, height=2, cap={"lut": 100}, sll=8, sll_limit=1.0),
        design, qor)
    placement = {}
    for i in range(5):
        placement[f"s{i}"] = device.slot_at(0, 0).id
        placement[f"d{i}"] = device.slot_at(1, 1).id
    assert not _sll_feasible(device, graph, placement, exact_fallback=False)
    assert _sll_feasible(device, graph, placement, exact_fallback=True)


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
    groups = ram_groups(graph)
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
                if used and not fits_within(total, s.capacity, device.util_limit):
                    ok = False
                    break
            if not ok:
                continue
            for b in device.die_boundaries:
                crossing = sum(
                    e.width for e in graph.fifo_edges()
                    if min(device.slot(placement[e.src]).y,
                           device.slot(placement[e.dst]).y) <= b.y <
                    max(device.slot(placement[e.src]).y,
                        device.slot(placement[e.dst]).y)
                )
                cap = b.halves[0]
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


def test_solve_guards_against_oversized_inputs():
    n = 13
    design = design_doc([(f"K{i}", "dataflow", [f"f{i}"]) for i in range(n)])
    qor = qor_doc({f"t_f{i}": template_doc([("baseline", 5, {"lut": 1})])
                   for i in range(n)})
    device, graph, lib = parse(device_doc(), design, qor)
    with pytest.raises(ValueError):
        solve(device, graph, lib)

    n = 12
    design = design_doc([(f"K{i}", "dataflow", [f"f{i}"]) for i in range(n)])
    qor = qor_doc({
        f"t_f{i}": template_doc(
            [("baseline", 50, {"lut": 1})] + [(f"p{k}", 40 - k, {"lut": 1}) for k in range(3)]
        )
        for i in range(n)
    })
    device, graph, lib = parse(device_doc(), design, qor)
    with pytest.raises(ValueError):
        solve(device, graph, lib)  # 4^12 configs x 2^12 placements


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
    assert out["candidates"] == 3
    assert out["coverage"] == 1.0


def test_verify_finds_a_counterexample_for_a_truncated_run(toy):
    device, graph, lib = toy
    partial = search.run(device, graph, lib, iter_cap=1)
    assert partial.design_latency > 13
    out = verify_optimal(device, graph, lib, partial.design_latency)
    assert out["verdict"] == "counterexample"
    witness = out["counterexample"]
    assert witness["latency"] == 13
    assert certify(device, graph, lib, witness["config"], witness["placement"]) == []


def test_verify_inconclusive_when_the_candidate_space_overflows():
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
    out = verify_optimal(device, graph, lib, 100, sample=1, enum_cap=1)
    assert out["verdict"] == "inconclusive"
    assert out["counterexample"] is None
    assert 0 < out["coverage"] < 1


def test_verify_is_inconclusive_when_only_a_sample_was_checked():
    # 21 faster configurations, one of them legal (a=fast, b=fast at 5)
    design = design_doc([("K", "dataflow", ["a", "b"])])
    slow = [(f"p{i}", 5, {"lut": 200}) for i in range(1, 21)]
    qor = qor_doc({
        "t_a": template_doc([("baseline", 10, {"lut": 10}), ("fast", 5, {"lut": 10}), *slow]),
        "t_b": template_doc([("baseline", 10, {"lut": 10}), ("fast", 5, {"lut": 10})]),
    })
    device, graph, lib = parse(
        device_doc(width=1, height=1, cap={"lut": 100}, util_limit=1.0), design, qor)
    for seed in range(5):
        out = verify_optimal(device, graph, lib, 10, sample=1, seed=seed)
        assert out["candidates"] == 21 and out["checked"] == 1
        assert out["verdict"] == "inconclusive", (seed, out)
    full = verify_optimal(device, graph, lib, 10)
    assert full["verdict"] == "counterexample"
    assert full["counterexample"]["latency"] == 5


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
