from __future__ import annotations

import copy
import json
import logging
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fado.model import (
    LIMIT_EPS,
    RESOURCE_KINDS,
    ModelError,
    ResourceVector,
    baseline_configuration,
    design_from_dict,
    design_latency,
    device_from_dict,
    fit_budget,
    floored_total,
    function_latencies,
    kind_ratio,
    kind_ratios,
    longest_path,
    path_latency,
    qor_from_dict,
    utilization_ratio,
    validate_configuration,
    within_budget,
)

from helpers import design_doc, device_doc, qor_doc, slot_at, template_doc


# ---------------------------------------------------------------------------
# Resource vectors


def test_resource_vector_arithmetic():
    a = ResourceVector(bram=1, dsp=2, ff=3, lut=4, uram=5)
    b = ResourceVector(lut=4)
    assert a + b == (1, 2, 3, 8, 5)
    assert a - b == (1, 2, 3, 0, 5)
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
    assert ResourceVector.from_dict({"lut": 7}) == (0, 0, 0, 7, 0)
    with pytest.raises(ModelError):
        ResourceVector.from_dict({"lust": 7})
    with pytest.raises(ModelError):
        ResourceVector.from_dict("lut")


_counts = st.lists(st.integers(0, 10**6), min_size=len(RESOURCE_KINDS),
                   max_size=len(RESOURCE_KINDS))


@settings(max_examples=200, deadline=None)
@given(_counts, _counts)
def test_resource_vector_is_a_tuple_of_counts(a, b):
    v, w = ResourceVector(*a), ResourceVector(*b)
    assert v == tuple(a) and hash(v) == hash(tuple(v))
    assert [getattr(v, k) for k in RESOURCE_KINDS] == a
    total = v + w
    assert type(total) is ResourceVector
    assert total == tuple(x + y for x, y in zip(a, b))
    assert type(total - w) is ResourceVector and total - w == v
    if all(x >= y for x, y in zip(a, b)):
        diff = v - w
        assert type(diff) is ResourceVector
        assert diff == tuple(x - y for x, y in zip(a, b))
    else:
        with pytest.raises(ModelError):
            v - w
    assert ResourceVector.from_dict(v.as_dict()) == v
    assert repr(v) == "ResourceVector(" + ", ".join(
        f"{k}={x}" for k, x in zip(RESOURCE_KINDS, a)) + ")"
    copies = [copy.copy(v), copy.deepcopy(v)]
    copies += [pickle.loads(pickle.dumps(v, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert type(c) is ResourceVector and c == v
    with pytest.raises(TypeError):
        v * 2
    with pytest.raises(TypeError):
        2 * v
    with pytest.raises(TypeError):
        v < w
    # the named multiple instead: the vector itself once, a sum k times over
    assert v.scaled(1) is v
    for k in (2, 3, 7):
        assert type(v.scaled(k)) is ResourceVector
        assert v.scaled(k) == ResourceVector.sum([v] * k)


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


# one resource kind: a count and a capacity, often zero on either side
_KIND_PAIRS = st.tuples(st.just(0) | st.integers(0, 10**7), st.just(0) | st.integers(1, 10**7))


@settings(max_examples=300, deadline=None)
@given(st.lists(_KIND_PAIRS, min_size=5, max_size=5))
@example([(0, 0), (1, 0), (3, 7), (0, 5), (2, 2)])
@example([(4, 9), (1, 3), (3, 7), (10**7, 1), (0, 2)])
def test_ratios_are_kind_ratio_kind_by_kind(pairs):
    # the plain division and its zero-capacity fallback give exactly what
    # kind_ratio gives, used and unused zero-capacity kinds included
    used, cap = (ResourceVector(*column) for column in zip(*pairs))
    expected = [kind_ratio(u, c) for u, c in pairs]
    assert kind_ratios(used, cap) == expected
    assert utilization_ratio(used, cap) == max(expected)


def test_fit_budget_allows_exact_budget():
    budget = fit_budget(ResourceVector(lut=100), 0.7)
    assert within_budget(ResourceVector(lut=70), budget)
    assert not within_budget(ResourceVector(lut=71), budget)
    # 0.65 * 164880 is not exactly representable; the epsilon absorbs that
    big = fit_budget(ResourceVector(lut=164880), 0.65)
    assert within_budget(ResourceVector(lut=107172), big)
    assert not within_budget(ResourceVector(lut=107173), big)
    assert LIMIT_EPS < 1


def test_floored_total_counts_whole_units_per_bin():
    # 0.65 * 101 + eps holds 65 whole units, 0.65 * 100 + eps holds 65, and
    # a zero-capacity bin holds none
    assert floored_total(fit_budget((101, 100, 0), 0.65)) == 130
    assert floored_total(fit_budget((164880,), 0.65)) == 107172
    assert floored_total(()) == 0


def test_within_budget_adds_the_extra_per_kind():
    budget = fit_budget(ResourceVector(lut=100, ff=10), 0.7)
    load = ResourceVector(lut=60, ff=7)
    assert within_budget(load, budget)
    assert within_budget(load, budget, ResourceVector(lut=10))
    assert not within_budget(load, budget, ResourceVector(lut=11))
    # a negative extra frees room, in its own kind only
    assert within_budget((0, 0, 8, 71, 0), budget, (0, 0, -1, -1, 0))
    assert not within_budget(load, budget, (0, 0, 1, -60, 0))


# ---------------------------------------------------------------------------
# Device model


def test_device_round_trip():
    doc = device_doc(width=2, height=2, sll=5000, io_cols=[0])
    dev = device_from_dict(doc)
    # result.json embeds the document as given: through JSON text and back
    # it parses to the same model
    assert device_from_dict(json.loads(json.dumps(doc))) == dev
    assert slot_at(dev, 1, 1).id == 3
    assert dev.die_boundaries == {0: (5000, 5000)}
    assert dev.io_boundaries == [0]


def test_die_boundaries_hold_each_rows_capacities_in_column_order():
    # unequal halves, and rows and halves listed out of order
    doc = device_doc(width=2, height=3)
    doc["die_boundaries"] = [
        {"y": 1, "halves": [{"x": 1, "sll_capacity": 40}, {"x": 0, "sll_capacity": 30}]},
        {"y": 0, "halves": [{"x": 0, "sll_capacity": 10}, {"x": 1, "sll_capacity": 20}]},
    ]
    dev = device_from_dict(doc)
    assert dev.die_boundaries == {0: (10, 20), 1: (30, 40)}
    assert list(dev.die_boundaries) == [0, 1]


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
    assert graph.latency_plan == (
        (("A", "B"), (), 3), (("C",), (0,), 3), (("D", "E"), (1,), 3))
    assert graph.kernel_at == {"A": 0, "B": 0, "C": 1, "D": 2, "E": 2}
    assert [e.kind for e in graph.fifo_edges()] == ["fifo", "fifo"]
    assert len(graph.ram_edges()) == 2
    assert design_from_dict(json.loads(json.dumps(design))) == graph


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


def test_whole_numbers_written_as_floats_parse_like_ints():
    def docs(five, eight, ten):
        design = design_doc([("K1", "dataflow", ["a"]), ("K2", "dataflow", ["b"])],
                            [("a", "b", "fifo", eight)])
        qor = qor_doc({f"t_{f}": template_doc([("baseline", five, {"lut": ten})])
                       for f in ("a", "b")})
        graph = design_from_dict(design)
        return graph, qor_from_dict(qor, graph)

    graph, lib = docs(5, 8, 10)
    assert docs(5.0, 8.0, 10.0) == (graph, lib)
    point = lib.point("a", "baseline")
    assert type(point.latency) is int and type(point.resources.lut) is int
    assert type(graph.edges[0].width) is int


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
    plan, at = graph.latency_plan, graph.kernel_at
    preds = [set() for _ in plan]
    for e in graph.edges:
        if at[e.src] != at[e.dst]:
            preds[at[e.dst]].add(at[e.src])
    assert any(preds)
    assert [set(p) for _, p, _ in plan] == preds
    assert all(p < i for i, ins in enumerate(preds) for p in ins)


# ---------------------------------------------------------------------------
# QoR library


def test_a_missing_point_is_named_with_its_template(toy):
    _, _, lib = toy
    with pytest.raises(ModelError, match=r"^template 'tA' has no point 'nope'$"):
        lib.point("A", "nope")


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


def test_qor_warns_when_baseline_not_slowest(caplog):
    graph = design_from_dict(design_doc([("K", "dataflow", ["a"])]))
    doc = qor_doc({"t_a": template_doc([
        ("baseline", 5, {"lut": 1}),
        ("p1", 9, {"lut": 1}),
    ])})
    with caplog.at_level(logging.WARNING, logger="fado.model"):
        qor_from_dict(doc, graph)
    assert [r.getMessage() for r in caplog.records] == [
        "template 't_a': baseline latency 5 is below the slowest point (9)"]


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
    assert design_latency(graph, lib, config) == 18
    # K1 holds A and B, K2 holds C, K3 holds D and E: the slowest member counts
    assert path_latency(graph, {"A": 8, "B": 1, "C": 2, "D": 6, "E": 1}) == 16


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


@st.composite
def _chain_heavy_dag(draw):
    """A kernel DAG on positions 0..n-1, mostly chains: each kernel after the
    first extends the kernel just before it, forks from one earlier kernel,
    merges several earlier ones, or starts with no predecessor.  Returns
    the graph (kernel names sort in position order, so the plan keeps it),
    each position's predecessors and the weights."""
    n = draw(st.integers(1, 40))
    preds = [set()]
    for j in range(1, n):
        shape = draw(st.sampled_from(("chain", "chain", "chain", "fork", "merge", "root")))
        if shape == "chain":
            preds.append({j - 1})
        elif shape == "fork":
            preds.append({draw(st.integers(0, j - 1))})
        elif shape == "merge":
            preds.append(set(draw(st.lists(st.integers(0, j - 1), min_size=2, max_size=4))))
        else:
            preds.append(set())
    graph = design_from_dict(design_doc(
        [(f"K{i:02d}", "dataflow", [f"f{i:02d}"]) for i in range(n)],
        [(f"f{i:02d}", f"f{j:02d}", "fifo", 8) for j in range(n) for i in sorted(preds[j])],
    ))
    weights = draw(st.lists(st.integers(1, 60), min_size=n, max_size=n))
    return graph, preds, weights


def _reference_dist(preds, weights):
    """Each kernel's path length, one kernel at a time."""
    dist = []
    for j, w in enumerate(weights):
        dist.append(w + max((dist[i] for i in preds[j]), default=0))
    return dist


@settings(max_examples=200, deadline=None)
@given(_chain_heavy_dag(), st.data())
def test_longest_path_by_chain_runs_matches_a_per_kernel_walk(dag, data):
    graph, preds, weights = dag
    plan = graph.latency_plan
    n = len(plan)
    assert [members for members, _, _ in plan] == [(f"f{i:02d}",) for i in range(n)]
    for i, (_, _, end) in enumerate(plan):
        # the run end: the first later kernel that does not extend the one before
        assert end == next((j for j in range(i + 1, n) if preds[j] != {j - 1}), n)

    dist = [0] * n
    assert longest_path(plan, weights, dist) == max(_reference_dist(preds, weights))
    assert dist == _reference_dist(preds, weights)
    # as the search does: weights fall from some kernel on, and the walk
    # restarts there, reading the path lengths before it as they stand
    for start in range(n):
        lowered = data.draw(st.lists(st.integers(start + 1, n - 1), max_size=3)
                            if start < n - 1 else st.just([]))
        for i in (start, *lowered):
            weights[i] = data.draw(st.integers(1, weights[i]))
        want = _reference_dist(preds, weights)
        assert longest_path(plan, weights, dist, start) == max(want)
        assert dist == want
