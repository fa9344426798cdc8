"""Document builders shared across the test suite."""

from __future__ import annotations

from fado import instancegen
from fado.model import (
    RESOURCE_KINDS,
    design_from_dict,
    device_from_dict,
    qor_from_dict,
)


def device_doc(width=1, height=2, *, cap=None, sll=1000, util_limit=0.65,
               sll_limit=0.9, io_cols=(), die_rows=None):
    """Uniform grid device document. Slot ids run row-major from (0, 0)."""
    cap = dict(cap) if cap else {k: 1000 for k in RESOURCE_KINDS}
    slots = [
        {"id": y * width + x, "x": x, "y": y, "capacity": dict(cap)}
        for y in range(height)
        for x in range(width)
    ]
    rows = range(height - 1) if die_rows is None else die_rows
    return {
        "width": width,
        "height": height,
        "slots": slots,
        "die_boundaries": [
            {"y": y, "halves": [{"x": x, "sll_capacity": sll} for x in range(width)]}
            for y in rows
        ],
        "io_boundaries": [{"x": x} for x in io_cols],
        "util_limit": util_limit,
        "sll_limit": sll_limit,
    }


def slot_at(device, x, y):
    """The slot of ``device`` at column x, row y."""
    return next(s for s in device.slots if (s.x, s.y) == (x, y))


def design_doc(kernels, edges=()):
    """kernels: (name, kind, [fn names]) triples; edges: (src, dst, kind, width)."""
    return {
        "kernels": [
            {
                "name": name,
                "kind": kind,
                "functions": [{"name": f, "template": f"t_{f}"} for f in fns],
            }
            for name, kind, fns in kernels
        ],
        "edges": [{"src": s, "dst": d, "kind": k, "width": w} for s, d, k, w in edges],
    }


def template_doc(points, loops=()):
    """points: (id, latency, resources dict) triples. The baseline point gets
    no directives; every other point a distinct marker directive."""
    return {
        "loops": list(loops),
        "points": [
            {
                "id": pid,
                "directives": {} if pid == "baseline" else {"UNROLL:L0": pid},
                "latency": lat,
                "resources": dict(res),
            }
            for pid, lat, res in points
        ],
    }


def qor_doc(templates, name_rules=(), **extra):
    return {"templates": dict(templates), "name_rules": list(name_rules), **extra}


def parse(device, design, qor):
    graph = design_from_dict(design)
    return device_from_dict(device), graph, qor_from_dict(qor, graph)


def stress_grid(seed, n_functions, points_per_template, *, sll):
    """A ``gen_stress`` design and QoR library on a 2x4 grid with quad's slot
    capacities: three die boundaries of ``sll`` wires per half and an io
    column between x=0 and x=1."""
    quad, design, qor = instancegen.gen_stress(seed, n_functions, points_per_template)
    device = device_doc(width=2, height=4, cap=quad["slots"][0]["capacity"], sll=sll,
                        util_limit=0.65, io_cols=(0,))
    return device, design, qor
