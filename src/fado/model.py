"""Core data model: resource vectors, devices, design graphs, QoR libraries.

Everything downstream (floorplanning, packing, routing, search) works on the
types defined here.  Inputs are plain JSON documents; the loaders validate
them and build immutable-ish model objects.  Latency is always an integer
cycle count, resources are integer unit counts in five dimensions.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field

log = logging.getLogger(__name__)

RESOURCE_KINDS = ("bram", "dsp", "ff", "lut", "uram")

# Integer loads are compared against fractional limits (e.g. 70 used vs a
# 0.7 * 100 budget).  The slack absorbs float rounding so a load sitting
# exactly on the limit is accepted; genuine violations differ by >= 1 unit.
LIMIT_EPS = 1e-6

BASELINE_POINT_ID = "baseline"


class ModelError(ValueError):
    """Schema violation or inconsistent model data."""


@dataclass(frozen=True)
class ResourceVector:
    """Non-negative usage or capacity counts, one per resource kind."""

    bram: int = 0
    dsp: int = 0
    ff: int = 0
    lut: int = 0
    uram: int = 0

    def __post_init__(self) -> None:
        for kind in RESOURCE_KINDS:
            v = getattr(self, kind)
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ModelError(f"resource {kind!r} must be a non-negative int, got {v!r}")

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.bram, self.dsp, self.ff, self.lut, self.uram)

    def as_dict(self) -> dict[str, int]:
        return {k: getattr(self, k) for k in RESOURCE_KINDS}

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.as_tuple())

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(*(a + b for a, b in zip(self.as_tuple(), other.as_tuple())))

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        diff = tuple(a - b for a, b in zip(self.as_tuple(), other.as_tuple()))
        if any(v < 0 for v in diff):
            raise ModelError(f"resource subtraction went negative: {self} - {other}")
        return ResourceVector(*diff)

    @classmethod
    def zero(cls) -> "ResourceVector":
        return cls()

    @classmethod
    def from_dict(cls, d: dict) -> "ResourceVector":
        if not isinstance(d, dict):
            raise ModelError(f"resource vector must be an object, got {d!r}")
        unknown = set(d) - set(RESOURCE_KINDS)
        if unknown:
            raise ModelError(f"unknown resource kinds {sorted(unknown)}")
        return cls(**{k: d.get(k, 0) for k in RESOURCE_KINDS})

    @classmethod
    def sum(cls, vectors) -> "ResourceVector":
        total = cls.zero()
        for v in vectors:
            total = total + v
        return total


def kind_ratio(used: int, capacity: int) -> float:
    """used/capacity for one resource kind.

    A kind with zero capacity has ratio 0 when unused and inf when used:
    there is nowhere the usage could go.  This is the one place that rule
    lives; every resource ratio in the package goes through it.
    """
    if capacity > 0:
        return used / capacity
    return math.inf if used else 0.0


def utilization_ratio(used: ResourceVector, capacity: ResourceVector) -> float:
    """Max over resource kinds of used/capacity (see ``kind_ratio``)."""
    return max(map(kind_ratio, used.as_tuple(), capacity.as_tuple()))


def fits_within(used: ResourceVector, capacity: ResourceVector, limit: float) -> bool:
    """True when every resource kind stays at or below limit * capacity."""
    return all(u <= limit * c + LIMIT_EPS for u, c in zip(used.as_tuple(), capacity.as_tuple()))


# ---------------------------------------------------------------------------
# Device


@dataclass(frozen=True)
class Slot:
    id: int
    x: int
    y: int
    capacity: ResourceVector


@dataclass(frozen=True)
class DieBoundary:
    """Horizontal die boundary between rows y and y+1.

    ``halves`` maps a column index to the SLL wire budget available for
    signals crossing the boundary in that column.
    """

    y: int
    halves: dict[int, int]


@dataclass
class DeviceModel:
    width: int
    height: int
    slots: list[Slot]
    die_boundaries: list[DieBoundary]
    io_boundaries: list[int]
    util_limit: float = 0.65
    sll_limit: float = 0.90

    def __post_init__(self) -> None:
        self._by_id = {s.id: s for s in self.slots}
        self._by_xy = {(s.x, s.y): s for s in self.slots}
        self._boundary_by_y = {b.y: b for b in self.die_boundaries}

    def slot(self, slot_id: int) -> Slot:
        return self._by_id[slot_id]

    def slot_at(self, x: int, y: int) -> Slot:
        return self._by_xy[(x, y)]

    def boundary(self, y: int) -> DieBoundary:
        return self._boundary_by_y[y]

    def to_dict(self) -> dict:
        return {
            "width": self.width,
            "height": self.height,
            "slots": [
                {"id": s.id, "x": s.x, "y": s.y, "capacity": s.capacity.as_dict()}
                for s in self.slots
            ],
            "die_boundaries": [
                {
                    "y": b.y,
                    "halves": [
                        {"x": x, "sll_capacity": cap} for x, cap in sorted(b.halves.items())
                    ],
                }
                for b in self.die_boundaries
            ],
            "io_boundaries": [{"x": x} for x in self.io_boundaries],
            "util_limit": self.util_limit,
            "sll_limit": self.sll_limit,
        }


def device_from_dict(doc: dict) -> DeviceModel:
    if not isinstance(doc, dict):
        raise ModelError("device document must be an object")
    try:
        width = int(doc["width"])
        height = int(doc["height"])
        raw_slots = doc["slots"]
    except KeyError as exc:
        raise ModelError(f"device document missing {exc}") from exc
    if width < 1 or height < 1:
        raise ModelError("device grid must be at least 1x1")

    slots = []
    for raw in raw_slots:
        cap = ResourceVector.from_dict(raw.get("capacity", {}))
        if sum(cap.as_tuple()) <= 0:
            raise ModelError(f"slot {raw.get('id')} has non-positive capacity")
        slots.append(Slot(id=int(raw["id"]), x=int(raw["x"]), y=int(raw["y"]), capacity=cap))

    ids = [s.id for s in slots]
    if len(set(ids)) != len(ids):
        raise ModelError("duplicate slot ids")
    coords = {(s.x, s.y) for s in slots}
    expected = {(x, y) for x in range(width) for y in range(height)}
    if coords != expected:
        raise ModelError(f"slots must cover the {width}x{height} grid exactly once")

    boundaries = []
    for raw in doc.get("die_boundaries", []):
        y = int(raw["y"])
        if not 0 <= y <= height - 2:
            raise ModelError(f"die boundary y={y} outside row gaps")
        halves = {}
        for h in raw.get("halves", []):
            hx = int(h["x"])
            cap = int(h["sll_capacity"])
            if cap < 0:
                raise ModelError(f"negative SLL capacity at boundary y={y} x={hx}")
            halves[hx] = cap
        if sorted(halves) != list(range(width)):
            raise ModelError(f"die boundary y={y} must define one half per column")
        boundaries.append(DieBoundary(y=y, halves=halves))
    ys = [b.y for b in boundaries]
    if len(set(ys)) != len(ys):
        raise ModelError("duplicate die boundary rows")

    io_cols = []
    for raw in doc.get("io_boundaries", []):
        x = int(raw["x"]) if isinstance(raw, dict) else int(raw)
        if not 0 <= x <= width - 2:
            raise ModelError(f"io boundary x={x} outside column gaps")
        io_cols.append(x)
    if len(set(io_cols)) != len(io_cols):
        raise ModelError("duplicate io boundary columns")

    util_limit = float(doc.get("util_limit", 0.65))
    sll_limit = float(doc.get("sll_limit", 0.90))
    if not 0 < util_limit <= 1.0 or not 0 < sll_limit <= 1.0:
        raise ModelError("util_limit and sll_limit must be in (0, 1]")

    return DeviceModel(
        width=width,
        height=height,
        slots=sorted(slots, key=lambda s: s.id),
        die_boundaries=sorted(boundaries, key=lambda b: b.y),
        io_boundaries=sorted(io_cols),
        util_limit=util_limit,
        sll_limit=sll_limit,
    )


# ---------------------------------------------------------------------------
# Design graph

DATAFLOW = "dataflow"
NON_DATAFLOW = "non_dataflow"
FIFO = "fifo"
RAM = "ram"


@dataclass(frozen=True)
class Function:
    name: str
    template: str
    kernel: str
    kernel_kind: str


@dataclass(frozen=True)
class Edge:
    index: int
    src: str
    dst: str
    kind: str
    width: int


@dataclass
class DesignGraph:
    kernels: list[dict]
    functions: dict[str, Function]
    edges: list[Edge]
    kernel_order: list[str] = field(default_factory=list)
    kernel_succs: dict[str, set] = field(default_factory=dict)

    def fifo_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.kind == FIFO]

    def ram_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.kind == RAM]

    def to_dict(self) -> dict:
        return {
            "kernels": [
                {
                    "name": k["name"],
                    "kind": k["kind"],
                    "functions": [
                        {"name": f["name"], "template": f["template"]} for f in k["functions"]
                    ],
                }
                for k in self.kernels
            ],
            "edges": [
                {"src": e.src, "dst": e.dst, "kind": e.kind, "width": e.width}
                for e in self.edges
            ],
        }


def _toposort_kernels(names: list[str], succs: dict[str, set]) -> list[str]:
    indeg = {n: 0 for n in names}
    for n, outs in succs.items():
        for m in outs:
            indeg[m] += 1
    ready = sorted(n for n in names if indeg[n] == 0)
    order = []
    while ready:
        n = ready.pop(0)
        order.append(n)
        for m in sorted(succs[n]):
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
        ready.sort()
    if len(order) != len(names):
        cyclic = sorted(set(names) - set(order))
        raise ModelError(f"kernel-level cycle involving {cyclic}")
    return order


def design_from_dict(doc: dict) -> DesignGraph:
    if not isinstance(doc, dict):
        raise ModelError("design document must be an object")
    raw_kernels = doc.get("kernels")
    if not raw_kernels:
        raise ModelError("design must declare at least one kernel")

    kernels = []
    functions: dict[str, Function] = {}
    for raw in raw_kernels:
        name = raw.get("name")
        kind = raw.get("kind")
        if not name or kind not in (DATAFLOW, NON_DATAFLOW):
            raise ModelError(f"kernel {name!r} must have kind dataflow or non_dataflow")
        fns = raw.get("functions") or []
        if not fns:
            raise ModelError(f"kernel {name!r} has no functions")
        if kind == NON_DATAFLOW and len(fns) != 1:
            raise ModelError(f"non-dataflow kernel {name!r} must have exactly one function")
        members = []
        for f in fns:
            fname = f.get("name")
            tmpl = f.get("template")
            if not fname or not tmpl:
                raise ModelError(f"function entries need name and template (kernel {name!r})")
            if fname in functions:
                raise ModelError(f"duplicate function name {fname!r}")
            functions[fname] = Function(name=fname, template=tmpl, kernel=name, kernel_kind=kind)
            members.append({"name": fname, "template": tmpl})
        kernels.append({"name": name, "kind": kind, "functions": members})
    knames = [k["name"] for k in kernels]
    if len(set(knames)) != len(knames):
        raise ModelError("duplicate kernel names")

    edges = []
    succs: dict[str, set] = {k: set() for k in knames}
    for i, raw in enumerate(doc.get("edges", [])):
        src, dst, kind = raw.get("src"), raw.get("dst"), raw.get("kind")
        if src not in functions or dst not in functions:
            raise ModelError(f"edge {src!r}->{dst!r} references unknown function")
        if kind not in (FIFO, RAM):
            raise ModelError(f"edge kind must be fifo or ram, got {kind!r}")
        width = raw.get("width")
        if isinstance(width, bool) or not isinstance(width, int) or width <= 0:
            raise ModelError(f"edge {src!r}->{dst!r} needs a positive integer width")
        edges.append(Edge(index=i, src=src, dst=dst, kind=kind, width=width))
        ks, kd = functions[src].kernel, functions[dst].kernel
        if ks != kd:
            succs[ks].add(kd)

    order = _toposort_kernels(knames, succs)
    return DesignGraph(
        kernels=kernels,
        functions=functions,
        edges=edges,
        kernel_order=order,
        kernel_succs=succs,
    )


# ---------------------------------------------------------------------------
# QoR library


@dataclass(frozen=True)
class LoopInfo:
    label: str
    depth: int  # 1 = innermost
    bound: int
    min_ii: int
    iter_latency: int

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ModelError(f"loop {self.label!r}: depth must be >= 1")
        if self.bound < 1:
            raise ModelError(f"loop {self.label!r}: bound must be >= 1")
        if self.min_ii < 1:
            raise ModelError(f"loop {self.label!r}: min_ii must be >= 1")
        if self.iter_latency < self.min_ii:
            raise ModelError(f"loop {self.label!r}: iter_latency must be >= min_ii")


@dataclass(frozen=True)
class QoRPoint:
    id: str
    directives: tuple  # sorted (name, value) pairs
    latency: int
    resources: ResourceVector

    def directive_map(self) -> dict:
        return dict(self.directives)


@dataclass
class Template:
    name: str
    loops: list[LoopInfo]
    points: list[QoRPoint]

    def __post_init__(self) -> None:
        self.by_id = {p.id: p for p in self.points}

    def point(self, point_id: str) -> QoRPoint:
        try:
            return self.by_id[point_id]
        except KeyError:
            raise ModelError(f"template {self.name!r} has no point {point_id!r}") from None

    def nests(self) -> list[list[LoopInfo]]:
        """Split the flat loop list into nests.

        Loops are listed innermost-first within each nest; a depth-1 entry
        starts a new nest.
        """
        out: list[list[LoopInfo]] = []
        for loop in self.loops:
            if loop.depth == 1 or not out:
                out.append([loop])
            else:
                out[-1].append(loop)
        return [sorted(nest, key=lambda l: l.depth) for nest in out]


@dataclass
class QoRLibrary:
    templates: dict[str, Template]
    name_rules: list[tuple[str, str]]  # (pattern, template)
    template_of: dict[str, str]  # function -> template name
    normalization: ResourceVector
    warnings: list[str] = field(default_factory=list)

    def template_for(self, function: str) -> Template:
        return self.templates[self.template_of[function]]

    def point(self, function: str, point_id: str) -> QoRPoint:
        return self.template_for(function).point(point_id)

    def to_dict(self) -> dict:
        return {
            "normalization": self.normalization.as_dict(),
            "name_rules": [{"regex": p, "template": t} for p, t in self.name_rules],
            "templates": {
                name: {
                    "loops": [
                        {
                            "label": l.label,
                            "depth": l.depth,
                            "bound": l.bound,
                            "min_ii": l.min_ii,
                            "iter_latency": l.iter_latency,
                        }
                        for l in tmpl.loops
                    ],
                    "points": [
                        {
                            "id": p.id,
                            "directives": p.directive_map(),
                            "latency": p.latency,
                            "resources": p.resources.as_dict(),
                        }
                        for p in tmpl.points
                    ],
                }
                for name, tmpl in sorted(self.templates.items())
            },
        }


def _parse_point(raw: dict, template: str) -> QoRPoint:
    pid = raw.get("id")
    if not pid or not isinstance(pid, str):
        raise ModelError(f"template {template!r}: point without string id")
    latency = raw.get("latency")
    if isinstance(latency, bool) or not isinstance(latency, int) or latency < 1:
        raise ModelError(f"template {template!r} point {pid!r}: latency must be a positive int")
    directives = raw.get("directives", {})
    if not isinstance(directives, dict):
        raise ModelError(f"template {template!r} point {pid!r}: directives must be an object")
    for k, v in directives.items():
        if isinstance(v, (dict, list)):
            raise ModelError(
                f"template {template!r} point {pid!r}: directive {k!r} needs a scalar value"
            )
    res = ResourceVector.from_dict(raw.get("resources", {}))
    return QoRPoint(
        id=pid,
        directives=tuple(sorted(directives.items())),
        latency=latency,
        resources=res,
    )


def qor_from_dict(doc: dict, graph: DesignGraph) -> QoRLibrary:
    if not isinstance(doc, dict):
        raise ModelError("qor document must be an object")
    raw_templates = doc.get("templates")
    if not raw_templates:
        raise ModelError("qor library has no templates")

    rules: list[tuple[str, str]] = []
    compiled = []
    for raw in doc.get("name_rules", []):
        pat, tmpl = raw.get("regex"), raw.get("template")
        if not pat or not tmpl:
            raise ModelError("name rules need regex and template")
        try:
            compiled.append((re.compile(pat), tmpl))
        except re.error as exc:
            raise ModelError(f"bad name rule regex {pat!r}: {exc}") from exc
        rules.append((pat, tmpl))

    warnings: list[str] = []

    # Candidate normalization for sort tie-breaks: explicit vector from the
    # file, else the per-kind maximum over every point in the library.
    points_seen: list[ResourceVector] = []
    parsed: dict[str, tuple[list[LoopInfo], list[QoRPoint]]] = {}
    for name, raw in raw_templates.items():
        loops = [
            LoopInfo(
                label=l.get("label", f"L{idx}"),
                depth=int(l.get("depth", 1)),
                bound=int(l["bound"]),
                min_ii=int(l.get("min_ii", 1)),
                iter_latency=int(l.get("iter_latency", l.get("min_ii", 1))),
            )
            for idx, l in enumerate(raw.get("loops", []))
        ]
        raw_points = raw.get("points")
        if not raw_points:
            raise ModelError(f"template {name!r} has an empty point list")
        pts = [_parse_point(p, name) for p in raw_points]
        ids = [p.id for p in pts]
        if len(set(ids)) != len(ids):
            raise ModelError(f"template {name!r} has duplicate point ids")
        base = [p for p in pts if p.id == BASELINE_POINT_ID]
        if not base:
            raise ModelError(f"template {name!r} is missing the {BASELINE_POINT_ID!r} point")
        if base[0].directives:
            raise ModelError(f"template {name!r}: baseline point must carry no directives")
        points_seen.extend(p.resources for p in pts)
        parsed[name] = (loops, pts)

    if "normalization" in doc:
        norm = ResourceVector.from_dict(doc["normalization"])
    else:
        norm = ResourceVector(
            *(
                max((getattr(p, kind) for p in points_seen), default=0) or 1
                for kind in RESOURCE_KINDS
            )
        )
    # Guard against zero columns in derived normalization.
    norm = ResourceVector(*(v if v > 0 else 1 for v in norm.as_tuple()))

    templates: dict[str, Template] = {}
    for name, (loops, pts) in parsed.items():
        pts_sorted = sorted(
            pts, key=lambda p: (p.latency, utilization_ratio(p.resources, norm), p.id)
        )
        baseline = next(p for p in pts_sorted if p.id == BASELINE_POINT_ID)
        if baseline.latency < pts_sorted[-1].latency:
            msg = (
                f"template {name!r}: baseline latency {baseline.latency} is below the"
                f" slowest point ({pts_sorted[-1].latency})"
            )
            warnings.append(msg)
            log.warning(msg)
        templates[name] = Template(name=name, loops=loops, points=pts_sorted)

    template_of: dict[str, str] = {}
    for fname, fn in graph.functions.items():
        matches = [tmpl for rx, tmpl in compiled if rx.fullmatch(fname)]
        if len(matches) > 1:
            raise ModelError(f"function {fname!r} matches multiple name rules: {matches}")
        target = matches[0] if matches else fn.template
        if target not in templates:
            raise ModelError(f"function {fname!r} resolves to unknown template {target!r}")
        template_of[fname] = target

    return QoRLibrary(
        templates=templates,
        name_rules=rules,
        template_of=template_of,
        normalization=norm,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# Configurations and latency

Configuration = dict  # function name -> point id


def baseline_configuration(graph: DesignGraph) -> Configuration:
    return {f: BASELINE_POINT_ID for f in graph.functions}


def validate_configuration(graph: DesignGraph, lib: QoRLibrary, config: Configuration) -> None:
    missing = set(graph.functions) - set(config)
    if missing:
        raise ModelError(f"configuration missing functions {sorted(missing)}")
    for f, pid in config.items():
        if f not in graph.functions:
            raise ModelError(f"configuration names unknown function {f!r}")
        lib.point(f, pid)


def function_latencies(graph: DesignGraph, lib: QoRLibrary, config: Configuration) -> dict[str, int]:
    return {f: lib.point(f, config[f]).latency for f in graph.functions}


def kernel_latencies(graph: DesignGraph, lib: QoRLibrary, config: Configuration) -> dict[str, int]:
    lats = function_latencies(graph, lib, config)
    out = {}
    for k in graph.kernels:
        out[k["name"]] = max(lats[f["name"]] for f in k["functions"])
    return out


def design_latency(graph: DesignGraph, lib: QoRLibrary, config: Configuration) -> int:
    """Longest kernel-level path, nodes weighted by kernel latency."""
    weights = kernel_latencies(graph, lib, config)
    dist: dict[str, int] = {}
    for k in graph.kernel_order:
        best_pred = 0
        for p, outs in graph.kernel_succs.items():
            if k in outs:
                best_pred = max(best_pred, dist[p])
        dist[k] = weights[k] + best_pred
    return max(dist.values())
