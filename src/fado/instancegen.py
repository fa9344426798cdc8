"""Synthetic instance generation: designs, devices, and QoR libraries.

Latency and resource numbers come from a parametric cost model, not from
any HLS tool; they are synthetic by construction and only meant to exercise
the optimizer.  A seed fully determines every emitted document.

Presets:
  toy       the five-function two-slot walkthrough fixture
  pair      1x2 device, small instances, exact-solver friendly
  quad      2x2 device with large-FPGA slot capacities
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass

from .model import LoopInfo, RESOURCE_KINDS

PARTITION_TYPES = ("block", "cyclic", "complete")
STORAGE_IMPLS = ("bram", "uram")
FIFO_WIDTHS = (4, 8, 16, 32)  # generated edge widths
NEST_DEPTH_RANGE = (1, 2)  # loops per generated template, inclusive


@dataclass
class GenSpec:
    seed: int = 0
    dataflow_kernels: int = 3
    non_dataflow_kernels: int = 1
    functions_per_dataflow: tuple = (2, 4)
    mode: str = "non_monotone"  # monotone | non_monotone
    device: str = "pair"  # toy | pair | quad

    def __post_init__(self) -> None:
        if self.mode not in ("monotone", "non_monotone"):
            raise ValueError(f"mode must be monotone or non_monotone, got {self.mode!r}")
        if self.dataflow_kernels < 0 or self.non_dataflow_kernels < 0:
            raise ValueError("kernel counts cannot be negative")
        if self.dataflow_kernels + self.non_dataflow_kernels < 1:
            raise ValueError("at least one kernel is required")
        lo, hi = self.functions_per_dataflow
        if lo < 1 or hi < lo:
            raise ValueError("functions_per_dataflow must be a valid positive range")


# ---------------------------------------------------------------------------
# Directive space (per-template point skeletons)


def unroll_factors(bound: int) -> list[int]:
    """Powers of two up to the loop bound, plus the bound itself."""
    out = []
    f = 1
    while f <= bound:
        out.append(f)
        f *= 2
    if out[-1] != bound:
        out.append(bound)
    return out


def _loop_choices(loop: LoopInfo) -> list[dict]:
    ii_hi = min(4 * loop.min_ii, loop.iter_latency)
    choices = []
    for ii in range(loop.min_ii, ii_hi + 1):
        for factor in unroll_factors(loop.bound):
            choices.append({
                f"PIPELINE:{loop.label}": ii,
                f"UNROLL:{loop.label}": factor,
            })
    return choices


def _array_choices(array: dict) -> list[dict]:
    name = array["name"]
    dims = array.get("dims", 1)
    choices = []
    for ptype in PARTITION_TYPES:
        for dim in range(1, dims + 1):
            for impl in STORAGE_IMPLS:
                choices.append({
                    f"ARRAY_PARTITION:{name}": f"{ptype}:dim{dim}",
                    f"BIND_STORAGE:{name}": impl,
                })
    return choices


def _stride_sample(items: Sequence, limit: int | None) -> Sequence:
    """Evenly spaced subset keeping first and last; deterministic."""
    if limit is None or len(items) <= limit:
        return items
    if limit == 1:
        return [items[0]]
    step = (len(items) - 1) / (limit - 1)
    seen = []
    for i in range(limit):
        idx = round(i * step)
        if not seen or idx != seen[-1]:
            seen.append(idx)
    return [items[i] for i in seen]


def gen_directive_space(loops: list[LoopInfo], arrays: list[dict],
                        limit: int | None = None) -> list[dict]:
    """Directive combinations for a template, capped by stride sampling.

    Each loop contributes a pipeline II (min_ii up to the smaller of four
    times min_ii and the iteration latency) crossed with an unroll factor;
    each array contributes a partition type and dimension crossed with a
    storage binding.  The combinations are the cross product of these
    per-loop, then per-array, choice lists with the last axis varying
    fastest; only the ones the stride sample keeps are built, so the cost
    follows ``limit``, not the size of the product.
    """
    axes = [_loop_choices(loop) for loop in loops] + [_array_choices(a) for a in arrays]
    combos = []
    for index in _stride_sample(range(math.prod(len(axis) for axis in axes)), limit):
        picks = []
        for axis in reversed(axes):
            index, digit = divmod(index, len(axis))
            picks.append(axis[digit])
        combo: dict = {}
        for choice in reversed(picks):
            combo.update(choice)
        combos.append(combo)
    return combos


# ---------------------------------------------------------------------------
# Devices


def _device_doc(preset: str) -> dict:
    if preset == "toy":
        cap = {k: 100 for k in RESOURCE_KINDS}
        return {
            "width": 1,
            "height": 2,
            "slots": [
                {"id": 0, "x": 0, "y": 0, "capacity": dict(cap)},
                {"id": 1, "x": 0, "y": 1, "capacity": dict(cap)},
            ],
            "die_boundaries": [{"y": 0, "halves": [{"x": 0, "sll_capacity": 100}]}],
            "io_boundaries": [],
            "util_limit": 0.7,
            "sll_limit": 0.9,
        }
    if preset == "pair":
        cap = {"bram": 500, "dsp": 1000, "ff": 100000, "lut": 10000, "uram": 100}
        return {
            "width": 1,
            "height": 2,
            "slots": [
                {"id": 0, "x": 0, "y": 0, "capacity": dict(cap)},
                {"id": 1, "x": 0, "y": 1, "capacity": dict(cap)},
            ],
            "die_boundaries": [{"y": 0, "halves": [{"x": 0, "sll_capacity": 10000}]}],
            "io_boundaries": [],
            "util_limit": 0.65,
            "sll_limit": 0.9,
        }
    if preset == "quad":
        cap = {"bram": 504, "dsp": 1296, "ff": 329760, "lut": 164880, "uram": 136}
        return {
            "width": 2,
            "height": 2,
            "slots": [
                {"id": 0, "x": 0, "y": 0, "capacity": dict(cap)},
                {"id": 1, "x": 1, "y": 0, "capacity": dict(cap)},
                {"id": 2, "x": 0, "y": 1, "capacity": dict(cap)},
                {"id": 3, "x": 1, "y": 1, "capacity": dict(cap)},
            ],
            "die_boundaries": [
                {"y": 0, "halves": [{"x": 0, "sll_capacity": 5000}, {"x": 1, "sll_capacity": 5000}]}
            ],
            "io_boundaries": [{"x": 0}],
            "util_limit": 0.65,
            "sll_limit": 0.9,
        }
    raise ValueError(f"unknown device preset {preset!r}")


# ---------------------------------------------------------------------------
# Toy fixture


def toy_instance() -> tuple[dict, dict, dict]:
    """The hand-sized two-slot walkthrough instance."""
    design = {
        "kernels": [
            {"name": "K1", "kind": "dataflow",
             "functions": [{"name": "A", "template": "tA"}, {"name": "B", "template": "tB"}]},
            {"name": "K2", "kind": "non_dataflow",
             "functions": [{"name": "C", "template": "tC"}]},
            {"name": "K3", "kind": "dataflow",
             "functions": [{"name": "D", "template": "tD"}, {"name": "E", "template": "tE"}]},
        ],
        "edges": [
            {"src": "A", "dst": "B", "kind": "fifo", "width": 16},
            {"src": "D", "dst": "E", "kind": "fifo", "width": 8},
            {"src": "B", "dst": "C", "kind": "ram", "width": 32},
            {"src": "C", "dst": "D", "kind": "ram", "width": 32},
        ],
    }

    def tmpl(base_lat, base_lut, fast_lat, fast_lut):
        return {
            "loops": [],
            "points": [
                {"id": "baseline", "directives": {}, "latency": base_lat,
                 "resources": {"lut": base_lut}},
                {"id": "fast", "directives": {"PIPELINE:L0": 1}, "latency": fast_lat,
                 "resources": {"lut": fast_lut}},
            ],
        }

    qor = {
        "templates": {
            "tA": tmpl(8, 22, 1, 45),
            "tB": tmpl(9, 20, 5, 24),
            "tC": tmpl(2, 4, 1, 10),
            "tD": tmpl(6, 16, 3, 21),
            "tE": tmpl(7, 9, 4, 26),
        },
        "name_rules": [],
    }
    return _device_doc("toy"), design, qor


# ---------------------------------------------------------------------------
# Random structural skeleton shared by both modes


def _skeleton(spec: GenSpec, rng: random.Random) -> tuple[dict, list]:
    """Kernel/function/edge layout without QoR data.

    Returns (design_doc, functions) where functions is the flat name list
    in kernel order.
    """
    kernels = []
    functions = []
    kinds = ["dataflow"] * spec.dataflow_kernels + ["non_dataflow"] * spec.non_dataflow_kernels
    rng.shuffle(kinds)
    for ki, kind in enumerate(kinds):
        kname = f"K{ki}"
        count = 1 if kind == "non_dataflow" else rng.randint(*spec.functions_per_dataflow)
        members = []
        for fi in range(count):
            fname = f"f{ki}_{fi}"
            members.append({"name": fname, "template": f"t_{fname}"})
            functions.append(fname)
        kernels.append({"name": kname, "kind": kind, "functions": members})

    edges = []
    # Chain kernels with FIFO edges; RAM edges bridge into non-dataflow
    # kernels, which is what makes their groups pinned.
    for a, b in zip(kernels, kernels[1:]):
        src = rng.choice(a["functions"])["name"]
        dst = rng.choice(b["functions"])["name"]
        kind = "ram" if (a["kind"] == "non_dataflow" or b["kind"] == "non_dataflow") else "fifo"
        edges.append({"src": src, "dst": dst, "kind": kind,
                      "width": rng.choice(FIFO_WIDTHS)})
    for k in kernels:
        if k["kind"] != "dataflow":
            continue
        members = [f["name"] for f in k["functions"]]
        for a, b in zip(members, members[1:]):
            if rng.random() < 0.7:
                edges.append({"src": a, "dst": b, "kind": "fifo",
                              "width": rng.choice(FIFO_WIDTHS)})
    return {"kernels": kernels, "edges": edges}, functions


def _rand_loops(rng: random.Random, label_prefix: str) -> list[dict]:
    depth = rng.randint(*NEST_DEPTH_RANGE)
    loops = []
    for d in range(1, depth + 1):
        bound = rng.choice([2, 4, 8, 16, 32, 64, 128])
        min_ii = rng.choice([1, 1, 2, 4])
        iter_latency = min_ii + rng.randint(0, 24)
        loops.append({
            "label": f"{label_prefix}_L{d}",
            "depth": d,
            "bound": bound,
            "min_ii": min_ii,
            "iter_latency": iter_latency,
        })
    return loops


def gen_instance(spec: GenSpec) -> tuple[dict, dict, dict]:
    """(device_doc, design_doc, qor_doc) fully determined by the spec."""
    rng = random.Random(spec.seed)
    device = _device_doc(spec.device)
    design, functions = _skeleton(spec, rng)

    if spec.mode == "monotone":
        qor = _monotone_qor(rng, device, functions)
    else:
        qor = _non_monotone_qor(rng, device, functions)
    return device, design, qor


def _monotone_qor(rng: random.Random, device: dict, functions: list) -> dict:
    """Globally distinct descending latency ladder, dealt round-robin.

    Every function's next-faster point is always strictly faster than the
    rest of the field, and total worst-case resources stay far below one
    slot's budget, so greedy bottleneck descent walks each function to its
    fastest point.  Within a function, faster points use more resources.
    """
    per_fn = rng.randint(2, 4)
    total = per_fn * len(functions)
    rungs = sorted(rng.sample(range(100, 20000), total), reverse=True)

    slot_cap = device["slots"][0]["capacity"]
    budget = 0.9 * device["util_limit"] * slot_cap["lut"]
    per_fn_budget = int(budget / max(1, len(functions)))

    templates = {}
    for i, fn in enumerate(functions):
        lats = [rungs[i + k * len(functions)] for k in range(per_fn)]
        base = rng.randint(10, max(11, per_fn_budget // 4))
        step = rng.randint(1, max(2, (per_fn_budget - base) // max(1, per_fn)))
        points = []
        for k, lat in enumerate(lats):
            pid = "baseline" if k == 0 else f"p{k}"
            directives = {} if k == 0 else {"UNROLL:L1": 2 ** k}
            points.append({
                "id": pid,
                "directives": directives,
                "latency": lat,
                "resources": {"lut": min(per_fn_budget, base + k * step)},
            })
        templates[f"t_{fn}"] = {"loops": [], "points": points}
    return {"templates": templates, "name_rules": []}


def _non_monotone_qor(rng: random.Random, device: dict, functions: list) -> dict:
    """Random QoR curves with at least one non-monotone adjacent pair,
    sized so the baseline boots but ambitious points collide."""
    slot_cap = device["slots"][0]["capacity"]
    n_slots = len(device["slots"])
    total_budget = device["util_limit"] * slot_cap["lut"] * n_slots
    base_share = 0.45 * total_budget / max(1, len(functions))

    templates = {}
    for fn in functions:
        per_fn = rng.randint(2, 4)
        base_lat = rng.randint(200, 2000)
        lats = sorted(rng.sample(range(10, base_lat), per_fn - 1), reverse=True)
        base_lut = rng.randint(max(1, int(base_share * 0.4)), max(2, int(base_share)))
        points = [{
            "id": "baseline",
            "directives": {},
            "latency": base_lat,
            "resources": {"lut": base_lut, "dsp": rng.randint(0, 8)},
        }]
        for k, lat in enumerate(lats):
            grow = rng.uniform(1.1, 2.6)
            points.append({
                "id": f"p{k + 1}",
                "directives": {"UNROLL:L1": 2 ** (k + 1)},
                "latency": lat,
                "resources": {
                    "lut": int(base_lut * grow) + rng.randint(0, 40),
                    "dsp": rng.randint(0, 64),
                },
            })
        templates[f"t_{fn}"] = {"loops": _rand_loops(rng, fn), "points": points}

    # Guarantee a non-monotone wrinkle: one function where stepping down in
    # latency REDUCES area next to a pair where it explodes.
    fn = rng.choice(functions)
    pts = templates[f"t_{fn}"]["points"]
    if len(pts) >= 2:
        pts[1]["resources"]["lut"] = max(1, pts[0]["resources"]["lut"] // 2)
    return {"templates": templates, "name_rules": []}


def gen_stress(seed: int, n_functions: int = 400, points_per_template: int = 10) -> tuple:
    """Large mixed instance on the quad device for runtime checks."""
    if n_functions < 1:
        raise ValueError(f"a stress instance needs at least one function, got {n_functions}")
    if points_per_template < 1:
        raise ValueError(
            f"a stress instance needs at least one point per template, got {points_per_template}")
    rng = random.Random(seed)
    device = _device_doc("quad")

    kernels = []
    functions = []
    edges = []
    ki = 0
    while len(functions) < n_functions:
        kind = "non_dataflow" if rng.random() < 0.1 else "dataflow"
        count = 1 if kind == "non_dataflow" else rng.randint(3, 6)
        members = []
        for fi in range(count):
            fname = f"f{ki}_{fi}"
            members.append({"name": fname, "template": f"grp{ki % 40}"})
            functions.append(fname)
        kernels.append({"name": f"K{ki}", "kind": kind, "functions": members})
        ki += 1
    for a, b in zip(kernels, kernels[1:]):
        src = a["functions"][-1]["name"]
        dst = b["functions"][0]["name"]
        kind = "ram" if (a["kind"] == "non_dataflow" or b["kind"] == "non_dataflow") else "fifo"
        edges.append({"src": src, "dst": dst, "kind": kind, "width": rng.choice((8, 16, 32))})
    for k in kernels:
        members = [f["name"] for f in k["functions"]]
        for a, b in zip(members, members[1:]):
            edges.append({"src": a, "dst": b, "kind": "fifo", "width": rng.choice((8, 16, 32))})
    design = {"kernels": kernels, "edges": edges}

    lut_budget = 0.65 * 164880 * 4
    base_share = int(0.40 * lut_budget / n_functions)
    templates = {}
    for t in range(40):
        loops = [LoopInfo(label=f"g{t}_L1", depth=1, bound=rng.choice([8, 16, 32, 64]),
                          min_ii=rng.choice([1, 2]), iter_latency=rng.randint(4, 20))]
        skeletons = gen_directive_space(
            loops, [{"name": f"buf{t}", "dims": 1}], limit=points_per_template - 1)
        base_lat = rng.randint(5000, 50000)
        base_lut = rng.randint(max(1, base_share // 2), base_share)
        points = [{"id": "baseline", "directives": {}, "latency": base_lat,
                   "resources": {"lut": base_lut, "dsp": rng.randint(0, 16),
                                 "bram": rng.randint(0, 4)}}]
        seen_lat = {base_lat}
        for i, directives in enumerate(skeletons):
            factor = max(v for k, v in directives.items() if k.startswith("UNROLL")) \
                if any(k.startswith("UNROLL") for k in directives) else 1
            ii = max(v for k, v in directives.items() if k.startswith("PIPELINE")) \
                if any(k.startswith("PIPELINE") for k in directives) else 1
            lat = min(base_lat - 1, max(1, (base_lat * ii) // (2 * factor)))
            while lat in seen_lat and lat > 1:
                lat -= 1
            while lat in seen_lat:
                lat += 1
            seen_lat.add(lat)
            uses_uram = any(v == "uram" for v in directives.values())
            points.append({
                "id": f"p{i + 1}",
                "directives": directives,
                "latency": lat,
                "resources": {
                    "lut": int(base_lut * (0.8 + 0.25 * factor)),
                    "dsp": rng.randint(0, 16) * factor,
                    "bram": 0 if uses_uram else rng.randint(0, 4),
                    "uram": rng.randint(0, 2) if uses_uram else 0,
                },
            })
        loop_docs = [{"label": l.label, "depth": l.depth, "bound": l.bound,
                      "min_ii": l.min_ii, "iter_latency": l.iter_latency} for l in loops]
        templates[f"grp{t}"] = {"loops": loop_docs, "points": points}
    qor = {"templates": templates, "name_rules": []}
    return device, design, qor
