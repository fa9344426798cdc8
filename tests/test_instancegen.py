from __future__ import annotations

import hashlib
import json
import math
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fado.cli import main
from fado.instancegen import (
    GenSpec,
    _array_choices,
    _loop_choices,
    _stride_sample,
    gen_directive_space,
    gen_instance,
    gen_stress,
    toy_instance,
    unroll_factors,
)
from fado.model import LoopInfo, baseline_configuration, design_latency
from fado.packer import PackState
from fado.floorplan import min_cut_initial

from helpers import parse, reference_directive_space


def test_unroll_factors_are_powers_of_two_plus_the_bound():
    assert unroll_factors(8) == [1, 2, 4, 8]
    assert unroll_factors(6) == [1, 2, 4, 6]
    assert unroll_factors(1) == [1]
    assert unroll_factors(64) == [1, 2, 4, 8, 16, 32, 64]


def test_stride_sample_keeps_endpoints():
    assert _stride_sample(list(range(10)), 4) == [0, 3, 6, 9]
    assert _stride_sample(list(range(3)), 10) == [0, 1, 2]
    assert _stride_sample(list(range(9)), 1) == [0]


def test_directive_space_pinned_counts():
    loop = LoopInfo(label="L1", depth=1, bound=8, min_ii=1, iter_latency=8)
    loop_only = gen_directive_space([loop], [])
    # II 1..4 crossed with unroll {1,2,4,8}
    assert len(loop_only) == 16
    assert {c["PIPELINE:L1"] for c in loop_only} == {1, 2, 3, 4}
    assert {c["UNROLL:L1"] for c in loop_only} == {1, 2, 4, 8}

    arr_only = gen_directive_space([], [{"name": "buf", "dims": 2}])
    # {block,cyclic,complete} x {dim1,dim2} x {bram,uram}
    assert len(arr_only) == 12
    assert {c["ARRAY_PARTITION:buf"] for c in arr_only} == {
        "block:dim1", "block:dim2", "cyclic:dim1", "cyclic:dim2",
        "complete:dim1", "complete:dim2",
    }

    both = gen_directive_space([loop], [{"name": "buf", "dims": 2}])
    assert len(both) == 192
    capped = gen_directive_space([loop], [{"name": "buf", "dims": 2}], limit=9)
    assert len(capped) == 9
    assert capped[0] == both[0]
    assert capped[-1] == both[-1]


@st.composite
def _loop(draw):
    min_ii = draw(st.integers(1, 4))
    return LoopInfo(label=draw(st.sampled_from(("L1", "L2"))), depth=1,
                    bound=draw(st.integers(1, 64)), min_ii=min_ii,
                    iter_latency=min_ii + draw(st.integers(0, 16)))


_ARRAY = st.fixed_dictionaries({"name": st.sampled_from(("a", "b")), "dims": st.integers(0, 3)})


def _space_size(loops, arrays):
    return math.prod(len(_loop_choices(l)) for l in loops) * \
        math.prod(len(_array_choices(a)) for a in arrays)


@settings(max_examples=300, deadline=None)
@given(st.lists(_loop(), max_size=2), st.lists(_ARRAY, max_size=2),
       st.sampled_from((None, 0, 1, 2, 9, "over")))
def test_directive_space_matches_the_full_product_sampled(loops, arrays, limit):
    # labels and names repeat on purpose: a later axis then overwrites a key
    n = _space_size(loops, arrays)
    assume(n <= 2000)
    if limit == "over":
        limit = n + 1
    got = gen_directive_space(loops, arrays, limit=limit)
    want = reference_directive_space(loops, arrays, limit=limit)
    assert got == want
    assert [list(c) for c in got] == [list(c) for c in want]  # key order too


def test_a_large_directive_space_builds_only_the_sampled_combinations():
    loops = [LoopInfo(label=f"L{d}", depth=d, bound=64, min_ii=2, iter_latency=20)
             for d in (1, 2, 3)]
    arrays = [{"name": name, "dims": 3} for name in ("a", "b")]
    assert _space_size(loops, arrays) == 38_118_276
    t0 = time.perf_counter()
    combos = gen_directive_space(loops, arrays, limit=9)
    elapsed = time.perf_counter() - t0
    assert len(combos) == 9
    first, last = {}, {}
    for d in (1, 2, 3):
        first.update({f"PIPELINE:L{d}": 2, f"UNROLL:L{d}": 1})
        last.update({f"PIPELINE:L{d}": 8, f"UNROLL:L{d}": 64})
    for name in ("a", "b"):
        first.update({f"ARRAY_PARTITION:{name}": "block:dim1", f"BIND_STORAGE:{name}": "bram"})
        last.update({f"ARRAY_PARTITION:{name}": "complete:dim3", f"BIND_STORAGE:{name}": "uram"})
    assert combos[0] == first
    assert combos[-1] == last
    assert elapsed < 5.0, f"sampling 9 combinations took {elapsed:.2f}s"


# The bench and the tests draw their instances from these generators, so a
# change may not re-draw them.  sha256 of device.json, design.json and
# qor.json, in that order, as `fado gen` writes them (the stress preset at
# 400 functions, 10 points; the toy preset ignores its seed)
GEN_DIGESTS = {
    ("toy", 0): "8a1d5229ae0255a9f885d463635978a0ecb6cc8ae812755241ffa92d19db7f5b",
    ("mixed", 0): "9105d5c9419f9563f744e9374c515c8377d00acce6f2afbe2995995b20afd296",
    ("mixed", 1): "5525989b3296907eaa58a08780aa06d8ba88c03677e0b99cced0cc8673f97b2b",
    ("mixed", 2): "a78dca82fbbec9b7ea81edb3329cf5ba98172b476cf7d63836aa48da26a1625f",
    ("monotone", 0): "782bf7848d160d3f3aa48bc5f181cbf630185359b0b000b9ee6811756dcfb563",
    ("monotone", 1): "bd605f41ac47b9fb0a81d347c777e7cbb28682bb2a1b2f2f2b5da8dc7abce714",
    ("monotone", 2): "164864d47cded411a1de47a776c49d4501fb0425d6ffb4b29c9c38372d91bb58",
    ("small", 0): "316cf1ef094fd435d702d94ad180470152f35469c3fc61a52327112f55dff632",
    ("small", 1): "bace395d5dfb5428f97b6daa319cebe59f04d4c0eef1a7a57c9f7e06839c485e",
    ("small", 2): "ec627c7305116ba3386e3e8f7af538b7f8d4d5db60c5eaf0228a1586cf237881",
    ("stress", 0): "1f20848c514ee6c4cf787cb35f5ae657a0284812dd0dbc0397df8d01135c9cb7",
    ("stress", 1): "172d1bcb5cd88b32101183817dc77235536cda2c9526d57dfe477183e02ac0a2",
    ("stress", 2): "dcdd886fd2861775762ed8c7afc94c90592af801ef431af31c4595ce26938f7a",
}

# sha256 of json.dumps(gen_stress(seed, 200, 10)), key order as generated
GEN_STRESS_DIGESTS = {
    0: "c362192eb7873d8f5123a2d6b3b32909946ea7f0446bb6a2d634db2531b6dea5",
    1: "64ddce511c6bc2f79159a8331c2620e027a7efd4ecc1702bbd9db6e674a44675",
    2: "653a45a6807868cd3fd3809ae2ad3c740ffdde831f944bcabcaf8c4feef14fe6",
}


@pytest.mark.parametrize("preset,seed", sorted(GEN_DIGESTS))
def test_gen_output_is_pinned(tmp_path, preset, seed):
    out = tmp_path / "gen"
    assert main(["gen", "--preset", preset, "--seed", str(seed), "--functions", "400",
                 "--points", "10", "--out", str(out)]) == 0
    digest = hashlib.sha256()
    for name in ("device.json", "design.json", "qor.json"):
        digest.update((out / name).read_bytes())
    assert digest.hexdigest() == GEN_DIGESTS[preset, seed]


@pytest.mark.parametrize("seed", sorted(GEN_STRESS_DIGESTS))
def test_gen_stress_is_pinned(seed):
    docs = json.dumps(gen_stress(seed, 200, 10))
    assert hashlib.sha256(docs.encode()).hexdigest() == GEN_STRESS_DIGESTS[seed]


def test_genspec_validation():
    with pytest.raises(ValueError):
        GenSpec(mode="chaotic")
    with pytest.raises(ValueError):
        GenSpec(dataflow_kernels=0, non_dataflow_kernels=0)
    with pytest.raises(ValueError):
        GenSpec(functions_per_dataflow=(3, 2))


def test_gen_instance_is_deterministic():
    a = gen_instance(GenSpec(seed=5))
    b = gen_instance(GenSpec(seed=5))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = gen_instance(GenSpec(seed=6))
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


def test_toy_instance_is_stable():
    a, b = toy_instance(), toy_instance()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_generated_instances_parse_and_boot():
    for seed in range(5):
        for mode in ("monotone", "non_monotone"):
            docs = gen_instance(GenSpec(seed=seed, mode=mode))
            device, graph, lib = parse(*docs)
            config = baseline_configuration(graph)
            placement = min_cut_initial(device, graph, lib, config)
            state = PackState(device, graph, lib, config, placement)
            assert state.check_legal() == []
            assert design_latency(graph, lib, config) > 0


def test_monotone_mode_builds_a_global_ladder():
    docs = gen_instance(GenSpec(seed=9, mode="monotone"))
    device, graph, lib = parse(*docs)
    all_lats = []
    for t in lib.templates.values():
        lats = [p.latency for p in t.points]
        assert lats == sorted(lats)
        all_lats.extend(lats)
        luts = [p.resources.lut for p in t.points]
        # faster points never shrink
        assert luts == sorted(luts, reverse=True)
    assert len(set(all_lats)) == len(all_lats)
    # worst case total stays inside one slot's budget
    worst = sum(max(p.resources.lut for p in lib.template_for(f).points)
                for f in graph.functions)
    slot = device.slots[0]
    assert worst <= device.util_limit * slot.capacity.lut


def test_non_monotone_mode_has_a_resource_wrinkle():
    docs = gen_instance(GenSpec(seed=4, mode="non_monotone"))
    _, graph, lib = parse(*docs)
    found = False
    for t in lib.templates.values():
        for faster, slower in zip(t.points, t.points[1:]):
            if faster.latency < slower.latency and \
                    faster.resources.lut < slower.resources.lut:
                found = True
    assert found


def test_gen_stress_shape():
    device, design, qor = gen_stress(3, n_functions=120, points_per_template=6)
    dev, graph, lib = parse(device, design, qor)
    assert len(graph.functions) >= 120
    assert len(qor["templates"]) == 40
    for t in lib.templates.values():
        assert len(t.points) <= 6
        baseline = t.by_id["baseline"]
        assert all(p.latency <= baseline.latency for p in t.points)
    assert len(dev.slots) == 4
    a = gen_stress(3, n_functions=120, points_per_template=6)
    assert json.dumps(a, sort_keys=True) == json.dumps((device, design, qor), sort_keys=True)
