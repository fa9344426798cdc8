from __future__ import annotations

import random

import pytest

from fado.model import (
    LIMIT_EPS,
    RESOURCE_KINDS,
    ModelError,
    ResourceVector,
    baseline_configuration,
    design_from_dict,
    design_latency,
    device_from_dict,
    fits_within,
    function_latencies,
    kernel_latencies,
    qor_from_dict,
    utilization_ratio,
    validate_configuration,
)

from helpers import design_doc, device_doc, qor_doc, template_doc


# ---------------------------------------------------------------------------
# Resource vectors


def test_resource_vector_arithmetic():
    a = ResourceVector(bram=1, dsp=2, ff=3, lut=4, uram=5)
    b = ResourceVector(lut=4)
    assert (a + b).as_tuple() == (1, 2, 3, 8, 5)
    assert (a - b).as_tuple() == (1, 2, 3, 0, 5)
    assert ResourceVector.zero().is_zero()
    assert ResourceVector.sum([a, b, ResourceVector.zero()]).lut == 8


def test_resource_vector_rejects_negative_and_non_int():
    with pytest.raises(ModelError):
        ResourceVector(lut=-1)
    with pytest.raises(ModelError):
        ResourceVector(lut=1.5)
    with pytest.raises(ModelError):
        ResourceVector(lut=True)
    with pytest.raises(ModelError):
        ResourceVector(lut=1) - ResourceVector(lut=2)


def test_resource_vector_from_dict_rejects_unknown_kinds():
    assert ResourceVector.from_dict({"lut": 7}).as_tuple() == (0, 0, 0, 7, 0)
    with pytest.raises(ModelError):
        ResourceVector.from_dict({"lust": 7})
    with pytest.raises(ModelError):
        ResourceVector.from_dict("lut")


def test_utilization_ratio_is_worst_kind():
    cap = ResourceVector(bram=2016, dsp=12288, ff=3456000, lut=1728000, uram=1280)
    assert utilization_ratio(ResourceVector(bram=1008), cap) == 0.5
    assert utilization_ratio(ResourceVector(bram=504, lut=1728000), cap) == 1.0
    assert utilization_ratio(ResourceVector.zero(), cap) == 0.0


def test_utilization_ratio_zero_capacity():
    cap = ResourceVector(lut=100)
    assert utilization_ratio(ResourceVector(lut=50), cap) == 0.5
    # usage on a kind the slot lacks can never fit: the ratio is infinite
    assert utilization_ratio(ResourceVector(uram=1), cap) == float("inf")
    assert utilization_ratio(ResourceVector(lut=10, uram=1), cap) == float("inf")


def test_fits_within_allows_exact_budget():
    cap = ResourceVector(lut=100)
    assert fits_within(ResourceVector(lut=70), cap, 0.7)
    assert not fits_within(ResourceVector(lut=71), cap, 0.7)
    # 0.65 * 164880 is not exactly representable; the epsilon absorbs that
    big = ResourceVector(lut=164880)
    assert fits_within(ResourceVector(lut=107172), big, 0.65)
    assert not fits_within(ResourceVector(lut=107173), big, 0.65)
    assert LIMIT_EPS < 1


# ---------------------------------------------------------------------------
# Device model


def test_device_round_trip():
    doc = device_doc(width=2, height=2, sll=5000, io_cols=[0])
    dev = device_from_dict(doc)
    again = device_from_dict(dev.to_dict())
    assert again.to_dict() == dev.to_dict()
    assert dev.slot_at(1, 1).id == 3
    assert dev.boundary(0).halves == {0: 5000, 1: 5000}
    assert dev.io_boundaries == [0]


def test_device_validation_errors():
    with pytest.raises(ModelError):
        device_from_dict({"width": 2, "height": 1, "slots": [
            {"id": 0, "x": 0, "y": 0, "capacity": {"lut": 1}},
        ]})
    doc = device_doc(width=2, height=1)
    doc["slots"][1]["id"] = 0
    with pytest.raises(ModelError):
        device_from_dict(doc)
    doc = device_doc(width=2, height=2)
    doc["die_boundaries"][0]["halves"] = [{"x": 0, "sll_capacity": 10}]
    with pytest.raises(ModelError):
        device_from_dict(doc)
    doc = device_doc()
    doc["util_limit"] = 1.5
    with pytest.raises(ModelError):
        device_from_dict(doc)
    doc = device_doc()
    doc["slots"][0]["capacity"] = {}
    with pytest.raises(ModelError):
        device_from_dict(doc)


# ---------------------------------------------------------------------------
# Design graph


def test_design_round_trip_and_groups(toy_docs):
    _, design, _ = toy_docs
    graph = design_from_dict(design)
    assert sorted(graph.functions) == ["A", "B", "C", "D", "E"]
    assert graph.kernel_order == ["K1", "K2", "K3"]
    assert [e.kind for e in graph.fifo_edges()] == ["fifo", "fifo"]
    assert len(graph.ram_edges()) == 2
    again = design_from_dict(graph.to_dict())
    assert again.to_dict() == graph.to_dict()


def test_design_rejects_multi_function_non_dataflow():
    doc = design_doc([("K", "non_dataflow", ["a", "b"])])
    with pytest.raises(ModelError):
        design_from_dict(doc)


def test_design_rejects_bad_edges():
    base = [("K1", "dataflow", ["a"]), ("K2", "dataflow", ["b"])]
    with pytest.raises(ModelError):
        design_from_dict(design_doc(base, [("a", "zz", "fifo", 8)]))
    with pytest.raises(ModelError):
        design_from_dict(design_doc(base, [("a", "b", "fifo", 0)]))
    with pytest.raises(ModelError):
        design_from_dict(design_doc(base, [("a", "b", "wires", 8)]))


def test_design_rejects_kernel_cycles():
    doc = design_doc(
        [("K1", "dataflow", ["a"]), ("K2", "dataflow", ["b"])],
        [("a", "b", "fifo", 8), ("b", "a", "fifo", 8)],
    )
    with pytest.raises(ModelError):
        design_from_dict(doc)


def test_kernel_order_respects_edges(toy_docs):
    _, design, _ = toy_docs
    graph = design_from_dict(design)
    pos = {k: i for i, k in enumerate(graph.kernel_order)}
    for k, outs in graph.kernel_succs.items():
        for o in outs:
            assert pos[k] < pos[o]


# ---------------------------------------------------------------------------
# QoR library


def test_qor_points_sorted_canonically():
    doc = qor_doc({"t_a": template_doc([
        ("baseline", 20, {"lut": 10}),
        ("p1", 5, {"lut": 40}),
        ("p2", 5, {"lut": 30}),
        ("p3", 5, {"lut": 30}),
    ])})
    graph = design_from_dict(design_doc([("K", "dataflow", ["a"])]))
    lib = qor_from_dict(doc, graph)
    ids = [p.id for p in lib.templates["t_a"].points]
    # latency first, then normalized utilization, then id
    assert ids == ["p2", "p3", "p1", "baseline"]


def test_qor_explicit_normalization_changes_ties():
    points = [
        ("baseline", 20, {"lut": 10}),
        ("p1", 5, {"lut": 8, "dsp": 1}),
        ("p2", 5, {"lut": 9}),
    ]
    graph = design_from_dict(design_doc([("K", "dataflow", ["a"])]))
    by_max = qor_from_dict(qor_doc({"t_a": template_doc(points)}), graph)
    # derived normalization: lut 10, dsp 1 -> p1 ratio 1.0, p2 0.9
    assert [p.id for p in by_max.templates["t_a"].points][:2] == ["p2", "p1"]
    pinned = qor_from_dict(
        qor_doc({"t_a": template_doc(points)}, normalization={"lut": 10, "dsp": 100}),
        graph,
    )
    # dsp column nearly free -> p1 ratio 0.8 beats p2 0.9
    assert [p.id for p in pinned.templates["t_a"].points][:2] == ["p1", "p2"]


def test_qor_name_rules():
    graph = design_from_dict(design_doc([("K", "dataflow", ["fir_0", "fir_1"])]))
    doc = qor_doc(
        {"t_fir": template_doc([("baseline", 9, {"lut": 5})])},
        name_rules=[{"regex": r"fir_\d+", "template": "t_fir"}],
    )
    lib = qor_from_dict(doc, graph)
    assert lib.template_for("fir_0").name == "t_fir"
    assert lib.template_for("fir_1").name == "t_fir"
    dup = qor_doc(
        {"t_fir": template_doc([("baseline", 9, {"lut": 5})])},
        name_rules=[
            {"regex": r"fir_\d+", "template": "t_fir"},
            {"regex": r"fir_0", "template": "t_fir"},
        ],
    )
    with pytest.raises(ModelError):
        qor_from_dict(dup, graph)


def test_qor_requires_baseline_without_directives():
    graph = design_from_dict(design_doc([("K", "dataflow", ["a"])]))
    with pytest.raises(ModelError):
        qor_from_dict(qor_doc({"t_a": template_doc([("p1", 5, {"lut": 1})])}), graph)
    doc = qor_doc({"t_a": {"loops": [], "points": [
        {"id": "baseline", "directives": {"UNROLL:L0": 2}, "latency": 5,
         "resources": {"lut": 1}},
    ]}})
    with pytest.raises(ModelError):
        qor_from_dict(doc, graph)


def test_qor_warns_when_baseline_not_slowest():
    graph = design_from_dict(design_doc([("K", "dataflow", ["a"])]))
    doc = qor_doc({"t_a": template_doc([
        ("baseline", 5, {"lut": 1}),
        ("p1", 9, {"lut": 1}),
    ])})
    lib = qor_from_dict(doc, graph)
    assert len(lib.warnings) == 1
    assert "baseline" in lib.warnings[0]


def test_qor_unknown_template_reference():
    graph = design_from_dict(design_doc([("K", "dataflow", ["a"])]))
    with pytest.raises(ModelError):
        qor_from_dict(qor_doc({"t_other": template_doc([("baseline", 5, {"lut": 1})])}), graph)


# ---------------------------------------------------------------------------
# Latency


def test_toy_baseline_latency_is_chain_sum(toy):
    _, graph, lib = toy
    config = baseline_configuration(graph)
    assert function_latencies(graph, lib, config) == {"A": 8, "B": 9, "C": 2, "D": 6, "E": 7}
    assert kernel_latencies(graph, lib, config) == {"K1": 9, "K2": 2, "K3": 7}
    assert design_latency(graph, lib, config) == 18


def test_validate_configuration(toy):
    _, graph, lib = toy
    config = baseline_configuration(graph)
    validate_configuration(graph, lib, config)
    with pytest.raises(ModelError):
        validate_configuration(graph, lib, {**config, "A": "nope"})
    short = dict(config)
    del short["A"]
    with pytest.raises(ModelError):
        validate_configuration(graph, lib, short)
    with pytest.raises(ModelError):
        validate_configuration(graph, lib, {**config, "ZZ": "baseline"})


def _longest_path_brute(n, edges, weights):
    """All-paths DFS over a DAG on nodes 0..n-1."""
    succs = {i: [j for a, j in edges if a == i] for i in range(n)}
    best = 0

    def walk(i, acc):
        nonlocal best
        acc += weights[i]
        best = max(best, acc)
        for j in succs[i]:
            walk(j, acc)

    for i in range(n):
        walk(i, 0)
    return best


def test_design_latency_matches_brute_force():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 8)
        weights = [rng.randint(1, 50) for _ in range(n)]
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        kernels = [(f"K{i}", "dataflow", [f"f{i}"]) for i in range(n)]
        doc = design_doc(kernels, [(f"f{i}", f"f{j}", "fifo", 8) for i, j in edges])
        graph = design_from_dict(doc)
        lib = qor_from_dict(qor_doc({
            f"t_f{i}": template_doc([("baseline", weights[i], {"lut": 1})])
            for i in range(n)
        }), graph)
        got = design_latency(graph, lib, baseline_configuration(graph))
        assert got == _longest_path_brute(n, edges, weights)
