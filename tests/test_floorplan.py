from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fado import instancegen
from fado.cli import main
from fado.floorplan import (
    EXACT_BISECTION_LIMIT,
    FloorplanError,
    _exact_split,
    balanced_initial,
    largest_first,
    min_cut_initial,
)
from fado.model import (
    RESOURCE_KINDS,
    Group,
    ResourceVector,
    baseline_configuration,
    design_from_dict,
    device_from_dict,
    fit_budget,
    group_sizes,
    utilization_ratio,
    within_budget,
)

from helpers import (
    design_doc,
    device_doc,
    parse,
    qor_doc,
    reference_holds,
    stress_grid,
    template_doc,
)


def _singleton_instance(luts, edges=(), *, cap_lut=1000, util_limit=0.65):
    """One dataflow kernel per function, singleton groups, fifo edges only."""
    names = sorted(luts)
    design = design_doc(
        [(f"K_{n}", "dataflow", [n]) for n in names],
        [(s, d, "fifo", w) for s, d, w in edges],
    )
    qor = qor_doc({
        f"t_{n}": template_doc([("baseline", 10, {"lut": luts[n]})]) for n in names
    })
    dev = device_doc(cap={"lut": cap_lut}, util_limit=util_limit)
    return parse(dev, design, qor)


# ---------------------------------------------------------------------------
# Grouping


def test_toy_groups(toy):
    _, graph, _ = toy
    groups = graph.ram_groups
    assert [(g.gid, g.members, g.pinned) for g in groups] == [
        ("A", ("A",), False),
        ("B", ("B", "C", "D"), True),
        ("E", ("E",), False),
    ]
    gof = graph.group_of
    assert gof["C"].gid == "B"


def test_group_pinned_only_with_non_dataflow_member():
    design = design_doc(
        [("K1", "dataflow", ["a", "b"]), ("K2", "dataflow", ["c"])],
        [("a", "b", "ram", 8), ("b", "c", "fifo", 8)],
    )
    graph = design_from_dict(design)
    groups = graph.ram_groups
    assert [(g.gid, g.pinned) for g in groups] == [("a", False), ("c", False)]


def test_group_sizes_track_configuration(toy):
    _, graph, lib = toy
    config = baseline_configuration(graph)
    assert [v.lut for v in group_sizes(graph, lib, config).values()] == [22, 20 + 4 + 16, 9]
    config["C"] = "fast"
    assert group_sizes(graph, lib, config)["B"].lut == 20 + 10 + 16


def test_largest_first_orders_by_the_largest_single_count():
    # b's largest count (30) beats a's (25) though a's sum is larger; equal
    # largest counts keep group id order
    groups = [Group(g, (g,), False) for g in ("a", "b", "c", "d")]
    sizes = {"a": ResourceVector(lut=25, ff=25), "b": ResourceVector(dsp=30),
             "c": ResourceVector(lut=10), "d": ResourceVector(bram=10)}
    assert [g.gid for g in largest_first(groups, sizes)] == ["b", "a", "c", "d"]


# ---------------------------------------------------------------------------
# Min-cut bisection


def test_toy_min_cut_splits_at_the_narrow_edge(toy):
    device, graph, lib = toy
    placement = min_cut_initial(device, graph, lib, baseline_configuration(graph))
    assert placement == {"A": 0, "B": 0, "C": 0, "D": 0, "E": 1}


def test_min_cut_keeps_ram_groups_whole():
    # splitting the pair would balance perfectly; the group forbids it
    design = design_doc(
        [("K1", "dataflow", ["a", "b"]), ("K2", "dataflow", ["c"]), ("K3", "dataflow", ["d"])],
        [("a", "b", "ram", 8)],
    )
    qor = qor_doc({t: template_doc([("baseline", 10, {"lut": 30})])
                   for t in ("t_a", "t_b", "t_c", "t_d")})
    device, graph, lib = parse(device_doc(cap={"lut": 100}, util_limit=0.7), design, qor)
    placement = min_cut_initial(device, graph, lib, baseline_configuration(graph))
    assert placement["a"] == placement["b"]
    loads = {0: 0, 1: 0}
    for f, s in placement.items():
        loads[s] += 30
    # 70-unit budget forbids putting a third function next to the pair
    assert sorted(loads.values()) == [60, 60]
    assert placement["c"] == placement["d"] != placement["a"]


def _brute_min_cut(names, sizes, weights, cap, limit):
    """Exhaustive feasible bipartition with minimal crossing width."""
    budget = limit * cap + 1e-6
    best = None
    for sides in itertools.product((0, 1), repeat=len(names)):
        side = dict(zip(names, sides))
        load0 = sum(sizes[n] for n in names if side[n] == 0)
        load1 = sum(sizes[n] for n in names if side[n] == 1)
        if load0 > budget or load1 > budget:
            continue
        cut = sum(w for (a, b), w in weights.items() if side[a] != side[b])
        best = cut if best is None else min(best, cut)
    return best


def test_min_cut_matches_exhaustive_on_random_instances():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 6)
        names = [f"f{i}" for i in range(n)]
        luts = {m: rng.randint(5, 40) for m in names}
        pairs = [(a, b) for a, b in itertools.combinations(names, 2) if rng.random() < 0.5]
        edges = [(a, b, rng.choice((4, 8, 16, 32))) for a, b in pairs]
        device, graph, lib = _singleton_instance(luts, edges, cap_lut=400, util_limit=0.65)
        placement = min_cut_initial(device, graph, lib, baseline_configuration(graph))
        realized = sum(w for a, b, w in edges if placement[a] != placement[b])
        weights = {(a, b): 0 for a, b, _ in edges}
        for a, b, w in edges:
            weights[a, b] += w
        want = _brute_min_cut(names, luts, weights, 400, 0.65)
        assert realized == want


def _reference_split(units, sizes, weights, budget_a, budget_b, cap_a, cap_b):
    """Every assignment within both budgets, the least by (cut, utilization
    gap, sides in sorted unit order): what ``_exact_split`` must return."""
    names = sorted(units)
    best = None
    for vec in itertools.product((0, 1), repeat=len(names)):
        side = dict(zip(names, vec))
        load = [ResourceVector.sum(sizes[u] for u in names if side[u] == s) for s in (0, 1)]
        if not (within_budget(load[0], budget_a) and within_budget(load[1], budget_b)):
            continue
        cut = sum(w for (a, b), w in weights.items() if side[a] != side[b])
        gap = abs(utilization_ratio(load[0], cap_a) - utilization_ratio(load[1], cap_b))
        if best is None or (cut, gap, vec) < best:
            best = (cut, gap, vec)
    return None if best is None else (dict(zip(names, best[2])), best[0])


@st.composite
def _split_instance(draw):
    """1-11 units whose sizes and FIFO widths come from a few values, so
    cuts and gaps tie, on two sides whose kinds may have zero capacity and
    whose budgets may leave no assignment at all.  Some instances split two
    equal sides; others give both sides one budget over different
    capacities, where mirrored assignments do not tie on gap, or one
    capacity under different budgets, where a mirrored assignment may not
    fit."""
    units = [f"u{i}" for i in range(draw(st.integers(1, 11)))]
    count = st.sampled_from((0, 0, 0, 1, 5, 10))
    sizes = {u: ResourceVector(*(draw(count) for _ in range(5))) for u in units}
    capacity = st.sampled_from((0, 20, 60, 100, 100))
    caps = [ResourceVector(*(draw(capacity) for _ in range(5))) for _ in range(2)]
    sides = draw(st.sampled_from(("apart", "equal", "one budget", "one capacity")))
    if sides in ("equal", "one capacity"):
        caps[1] = caps[0]
    limit = draw(st.sampled_from((0.5, 0.8, 1.0)))
    budgets = [fit_budget(cap, limit) for cap in caps]
    if sides == "one budget":
        budgets[1] = budgets[0]
    elif sides == "one capacity":
        budgets[1] = fit_budget(caps[1], draw(st.sampled_from((0.5, 0.8, 1.0))))
    weights = {}
    for a, b in itertools.combinations(units, 2):
        w = draw(st.sampled_from((0, 0, 0, 1, 2, 4)))
        if w:
            weights[a, b] = w
    return units, sizes, weights, budgets[0], budgets[1], caps[0], caps[1]


@settings(max_examples=300, deadline=None)
@given(_split_instance())
# one capacity under two budgets: u0 fits side 1 alone, so the first unit
# may not be held to side 0
@example((["u0", "u1"], {"u0": ResourceVector(lut=60), "u1": ResourceVector(lut=10)},
          {("u0", "u1"): 1}, fit_budget(ResourceVector(lut=100), 0.5),
          fit_budget(ResourceVector(lut=100), 1.0), ResourceVector(lut=100),
          ResourceVector(lut=100)))
def test_exact_split_matches_an_exhaustive_search(instance):
    assert _exact_split(*instance) == _reference_split(*instance)


def test_min_cut_raises_when_the_limit_leaves_no_split():
    # each group fits a slot's capacity but not its budget at the 0.5 limit
    device, graph, lib = _singleton_instance(
        {"a": 60, "b": 60}, cap_lut=100, util_limit=0.5)
    with pytest.raises(FloorplanError):
        min_cut_initial(device, graph, lib, baseline_configuration(graph))


def test_min_cut_oversized_group_raises():
    device, graph, lib = _singleton_instance({"a": 150}, cap_lut=100)
    with pytest.raises(FloorplanError) as err:
        min_cut_initial(device, graph, lib, baseline_configuration(graph))
    assert "a" in str(err.value)


def test_min_cut_deterministic(toy):
    device, graph, lib = toy
    config = baseline_configuration(graph)
    assert min_cut_initial(device, graph, lib, config) == \
        min_cut_initial(device, graph, lib, config)


def test_min_cut_four_slots_recursive():
    # two chatty pairs, four slots in a column: each pair shares a slot
    names = {f"f{i}": 50 for i in range(4)}
    edges = [("f0", "f1", 32), ("f2", "f3", 32)]
    device, graph, lib = _singleton_instance(names, edges, cap_lut=200, util_limit=0.65)
    doc = device_doc(width=1, height=4, cap={"lut": 200})
    device = device_from_dict(doc)
    placement = min_cut_initial(device, graph, lib, baseline_configuration(graph))
    assert placement["f0"] == placement["f1"]
    assert placement["f2"] == placement["f3"]
    assert placement["f0"] != placement["f2"]


# Both designs have hundreds of RAM groups, far over EXACT_BISECTION_LIMIT,
# so every split is the greedy one and its refinement passes move units.  A
# different digest means min-cut places some group differently.
GREEDY_MIN_CUT = {
    # 400 functions, 379 groups on the 2x2 quad device
    "stress-quad": (
        lambda: instancegen.gen_stress(1, 400, 10),
        "8810efc4989b77868ca8ffbc90421dcf70e1f76f200042d30eaed243f12e4bf3",
    ),
    # 200 functions, 194 groups on the 2x4 grid: seven splits
    "stress-grid": (
        lambda: stress_grid(1, 200, 10, sll=400),
        "ddb26712a19230e26cd9f3e97a60164dd225d14bedc849dcaeea64102d844241",
    ),
}


@pytest.mark.parametrize("name", sorted(GREEDY_MIN_CUT))
def test_greedy_min_cut_placement_is_pinned(name):
    make, digest = GREEDY_MIN_CUT[name]
    device, graph, lib = parse(*make())
    assert len(graph.ram_groups) > EXACT_BISECTION_LIMIT
    placement = min_cut_initial(device, graph, lib, baseline_configuration(graph))
    assert hashlib.sha256(json.dumps(placement, sort_keys=True).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# Region bounds


def _chain_docs(width, height):
    """Four 1-BRAM functions in one dataflow kernel, chained a-b-c-d by FIFO
    widths 100, 100, 1, on slots that each hold one BRAM (3 at limit 0.5).

    Two slots hold two BRAM together, though the budget of their summed
    capacity would take three: a region bounded that way takes a, b and c
    and then cannot split them."""
    names = "abcd"
    design = design_doc([("K", "dataflow", list(names))],
                        [("a", "b", "fifo", 100), ("b", "c", "fifo", 100), ("c", "d", "fifo", 1)])
    qor = qor_doc({f"t_{n}": template_doc([("baseline", 10, {"bram": 1})]) for n in names})
    device = device_doc(width=width, height=height, cap={"bram": 3, "lut": 100}, util_limit=0.5)
    return device, design, qor


@pytest.mark.parametrize("width, height", [(2, 2), (4, 1)])
def test_min_cut_gives_a_region_only_what_its_slots_hold(width, height):
    device, graph, lib = parse(*_chain_docs(width, height))
    placement = min_cut_initial(device, graph, lib, baseline_configuration(graph))
    assert sorted(placement.values()) == [0, 1, 2, 3]


def test_optimize_starts_and_checks_where_a_region_holds_whole_units(tmp_path):
    paths = []
    for name, doc in zip(("device", "design", "qor"), _chain_docs(2, 2)):
        paths += [f"--{name}", str(tmp_path / f"{name}.json")]
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    assert main(["optimize", *paths, "--out", str(tmp_path / "run")]) == 0
    assert main(["check", "--result", str(tmp_path / "run" / "result.json")]) == 0


@st.composite
def _device_and_subset(draw):
    """A 1-4 by 1-4 grid at a fractional limit whose slots may lack some
    kinds, and a random non-empty subset of its slots."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    doc = device_doc(width=width, height=height,
                     util_limit=draw(st.floats(0.01, 1.0, allow_nan=False)))
    counts = st.sampled_from((0, 0, 1, 3, 7, 100, 164880))
    for slot in doc["slots"]:
        slot["capacity"] = {k: draw(counts) for k in RESOURCE_KINDS}
        slot["capacity"]["lut"] += 1  # no slot may be empty
    device = device_from_dict(doc)
    return device, draw(st.lists(st.sampled_from(device.slots), min_size=1,
                                 unique_by=lambda s: s.id))


@settings(max_examples=150, deadline=None)
@given(_device_and_subset())
def test_holds_sums_each_slots_whole_units(case):
    device, subset = case
    assert device.holds(subset) == reference_holds(device, subset)
    assert device.device_bound == device.holds(device.slots) == reference_holds(
        device, device.slots)


# ---------------------------------------------------------------------------
# Balanced fill


def test_toy_balanced_fill(toy):
    device, graph, lib = toy
    placement = balanced_initial(device, graph, lib, baseline_configuration(graph))
    assert placement == {"A": 1, "B": 0, "C": 0, "D": 0, "E": 1}


def test_balanced_fill_is_least_utilized_first():
    luts = {"a": 35, "b": 25, "c": 20, "d": 15, "e": 5}
    device, graph, lib = _singleton_instance(luts, cap_lut=1000)
    placement = balanced_initial(device, graph, lib, baseline_configuration(graph))
    loads = {0: 0, 1: 0}
    for f, s in placement.items():
        loads[s] += luts[f]
    assert loads == {0: 50, 1: 50}


def test_balanced_fill_errors_at_the_limit():
    device, graph, lib = _singleton_instance(
        {"a": 60, "b": 60}, cap_lut=100, util_limit=0.5)
    with pytest.raises(FloorplanError) as err:
        balanced_initial(device, graph, lib, baseline_configuration(graph))
    assert "'a'" in str(err.value) and "0.50" in str(err.value)

    device, graph, lib = _singleton_instance({"a": 150, "b": 10}, cap_lut=100)
    with pytest.raises(FloorplanError) as err:
        balanced_initial(device, graph, lib, baseline_configuration(graph))
    assert "'a'" in str(err.value)


def test_both_initial_strategies_respect_capacity():
    # every subset of these fits one slot's budget, so neither can fail
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 8)
        luts = {f"f{i}": rng.randint(10, 32) for i in range(n)}
        device, graph, lib = _singleton_instance(luts, cap_lut=400, util_limit=0.65)
        config = baseline_configuration(graph)
        for strategy in (min_cut_initial, balanced_initial):
            placement = strategy(device, graph, lib, config)
            for s in device.slots:
                used = ResourceVector.sum(
                    lib.point(f, config[f]).resources
                    for f in graph.functions if placement[f] == s.id
                )
                assert within_budget(used, fit_budget(s.capacity, device.util_limit))
