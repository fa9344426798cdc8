"""Core data model: resource vectors, devices, design graphs, QoR libraries.

Everything downstream (floorplanning, packing, routing, search) works on the
types defined here.  Inputs are plain JSON documents; the loaders validate
them and build immutable-ish model objects.  Latency is always an integer
cycle count, resources are integer unit counts in five dimensions.  A
resource vector (``ResourceVector``) is a tuple of those five counts in
``RESOURCE_KINDS`` order, so fit tests and ratios zip it with budgets and
capacities as it is.

Validation happens once, at parse: each document entry is checked once
where it is read, and a loaded resource dict in one pass, after which the
vector is built without going through the checks again.  The names in an
error message (which slot, point or edge) are put together only when an
error is raised.  Nothing downstream re-validates: arithmetic on valid
vectors stays valid (see ``ResourceVector``).  The zero-capacity rule of
every ratio lives in ``kind_ratio``; ``utilization_ratio`` and
``kind_ratios`` divide directly and fall back to it only when some
capacity is zero.

What a design or a device alone fixes is derived once, on first use, and
every caller reads that one derivation: a ``DesignGraph``'s RAM groups
(``ram_groups``, ``group_of``: functions that share a RAM, so must share a
slot), ``kernel_at``, ``fifo_width`` and ``fifo_of``; a ``DeviceModel``'s
``slot_budget`` (which ``holds`` sums), ``device_bound``, slot-pair
``routes`` and ``boundary_table``.  A device's wire capacities are held
once, as ``die_boundaries``: per die boundary row, its halves' capacities
in column order, the tuple ``boundary_table`` keeps and ``routes`` takes
the rows of.  A group's size under a configuration, its members' summed
resources, is summed in one place, ``group_sizes``.

The kernel DAG is held once, as the ``latency_plan`` that
``design_from_dict`` builds: per kernel in topological order, its member
functions, its predecessors' plan positions and the end of its chain run
(the position after the run's last kernel).  A chain run is a stretch of
the plan where each kernel's only predecessor is the kernel just before
it.  ``longest_path`` walks the plan one run at a time, applying the
longest-path rule at a run's first kernel and taking the rest of the run
as one running sum of the weights (``accumulate``), so a design made of
long kernel chains is walked in a few C-level steps.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import itemgetter, truediv
from typing import NamedTuple

log = logging.getLogger(__name__)

RESOURCE_KINDS = ("bram", "dsp", "ff", "lut", "uram")

# Integer loads are compared against fractional limits (e.g. 70 used vs a
# 0.7 * 100 budget).  The slack absorbs float rounding so a load sitting
# exactly on the limit is accepted; genuine violations differ by >= 1 unit.
LIMIT_EPS = 1e-6

BASELINE_POINT_ID = "baseline"


class ModelError(ValueError):
    """Schema violation or inconsistent model data."""


class ResourceVector(tuple):
    """Non-negative usage or capacity counts: a tuple of five ints in
    ``RESOURCE_KINDS`` order, each also readable by its kind's name.

    ``ResourceVector(lut=...)`` validates its counts; ``from_dict``
    validates a document's counts in its own single pass and builds the
    vector without checking them again.  Sums of valid vectors are valid by
    construction and ``-`` checks its one failure itself, so arithmetic
    builds its results without re-validating, and fit tests and ratios read
    a vector's items in place.  Equality and hashing are the plain tuple's.
    Repetition and ordering are switched off: ``v * 2`` and ``v < w`` raise
    ``TypeError`` rather than act on the tuple.
    """

    __slots__ = ()

    def __new__(cls, bram=0, dsp=0, ff=0, lut=0, uram=0):
        counts = (bram, dsp, ff, lut, uram)
        for kind, v in zip(RESOURCE_KINDS, counts):
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise ModelError(f"resource {kind!r} must be a non-negative int, got {v!r}")
        return tuple.__new__(cls, counts)

    bram = property(itemgetter(0))
    dsp = property(itemgetter(1))
    ff = property(itemgetter(2))
    lut = property(itemgetter(3))
    uram = property(itemgetter(4))

    __mul__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = None

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        counts = ", ".join(f"{k}={v!r}" for k, v in zip(RESOURCE_KINDS, self))
        return f"ResourceVector({counts})"

    def as_dict(self) -> dict[str, int]:
        return dict(zip(RESOURCE_KINDS, self))

    def is_zero(self) -> bool:
        return not any(self)

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        a, b, c, d, e = self
        v, w, x, y, z = other
        return tuple.__new__(ResourceVector, (a + v, b + w, c + x, d + y, e + z))

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        a, b, c, d, e = self
        v, w, x, y, z = other
        diff = (a - v, b - w, c - x, d - y, e - z)
        if min(diff) < 0:
            raise ModelError(f"resource subtraction went negative: {self} - {other}")
        return tuple.__new__(ResourceVector, diff)

    @classmethod
    def zero(cls) -> "ResourceVector":
        return _ZERO

    @classmethod
    def from_dict(cls, d: dict, where="resource vector") -> "ResourceVector":
        """The vector of a document's resource dict, each absent kind 0.

        One pass over the kinds: a plain int is taken as it is, and any
        other entry goes through ``_number_entry``, which turns a whole
        float such as ``4.0`` into 4 and refuses a bool, a string or a
        fraction.  Then unknown kinds and negative counts are refused.
        ``where`` names the dict in error messages (see ``_context``).
        """
        if not isinstance(d, dict):
            raise ModelError(f"{_context(where)} must be an object, got {d!r}")
        counts = []
        for kind in RESOURCE_KINDS:
            v = d.get(kind, 0)
            if type(v) is not int:
                v = _number_entry(d, kind, where, 0)
            counts.append(v)
        if not d.keys() <= _KIND_SET:
            raise ModelError(f"unknown resource kinds {sorted(d.keys() - _KIND_SET)}")
        if min(counts) < 0:
            return cls(*counts)  # raises, naming the negative kind
        return tuple.__new__(cls, counts)

    @classmethod
    def sum(cls, vectors) -> "ResourceVector":
        """The sum of ``vectors``, the zero vector when there are none."""
        vectors = iter(vectors)
        total = next(vectors, _ZERO)
        for v in vectors:
            total = total + v
        return total


_ZERO = ResourceVector()
_KIND_SET = frozenset(RESOURCE_KINDS)


def kind_ratio(used: int, capacity: int) -> float:
    """used/capacity for one resource kind or one SLL boundary half.

    A kind (or half) with zero capacity has ratio 0 when unused and inf when
    used: there is nowhere the usage could go.  This is the one place that
    rule lives: every resource ratio and every wire fill ratio in the
    package is either computed here or, where no capacity is zero, a plain
    division that gives the same value.
    """
    if capacity > 0:
        return used / capacity
    return math.inf if used else 0.0


def kind_ratios(used: ResourceVector, capacity: ResourceVector) -> list[float]:
    """used/capacity per resource kind: a plain division, unless some
    capacity is zero, and then ``kind_ratio`` kind by kind."""
    try:
        return list(map(truediv, used, capacity))
    except ZeroDivisionError:
        return list(map(kind_ratio, used, capacity))


def utilization_ratio(used: ResourceVector, capacity: ResourceVector) -> float:
    """Max over resource kinds of used/capacity: the largest of
    ``kind_ratios``, without building the list."""
    try:
        return max(map(truediv, used, capacity))
    except ZeroDivisionError:
        return max(map(kind_ratio, used, capacity))


def fit_budget(capacity: tuple, limit: float) -> tuple:
    """Ceilings limit * capacity + LIMIT_EPS, one per entry of ``capacity``:
    per resource kind for a slot, per column for a die boundary's wire
    halves.  A load fits when no entry exceeds its ceiling (see
    ``within_budget``)."""
    return tuple(limit * c + LIMIT_EPS for c in capacity)


def floored_total(ceilings) -> int:
    """The sum of ``ceilings`` (fit budgets of several bins for one kind),
    each rounded down.  Loads are whole units, resources or wires, so a
    bin holds at most its ceiling rounded down, and a total above this sum
    overflows some bin however it is split: the reject bound of a device's
    slots per resource kind and of a die boundary's halves."""
    return sum(map(math.floor, ceilings))


_NO_EXTRA = (0,) * len(RESOURCE_KINDS)


def within_budget(counts: tuple, budget: tuple, extra: tuple = _NO_EXTRA) -> bool:
    """True when each kind's count plus its ``extra`` (per-kind, possibly
    negative) stays at or below its ceiling in ``budget``.

    This is the one resource fit comparison: every fit test and legality
    check of slot, region or device resources in the package goes through
    it, with one exception.  ``floorplan._greedy_split`` tests each side's
    load against its whole-unit bound with the same comparison written out
    on plain tuples (``all(map(le, load, bound))``).  Wire halves hold one
    count each, and ``pipeliner`` compares those directly.
    """
    for u, e, b in zip(counts, extra, budget):
        if u + e > b:
            return False
    return True


# ---------------------------------------------------------------------------
# Device


@dataclass(frozen=True)
class Slot:
    id: int
    x: int
    y: int
    capacity: ResourceVector


@dataclass
class DeviceModel:
    width: int
    height: int
    slots: list[Slot]
    die_boundaries: dict[int, tuple]  # row y, between rows y and y+1 -> SLL capacity per column
    io_boundaries: list[int]
    util_limit: float = 0.65
    sll_limit: float = 0.90

    def __post_init__(self) -> None:
        self._by_id = {s.id: s for s in self.slots}

    def slot(self, slot_id: int) -> Slot:
        return self._by_id[slot_id]

    @cached_property
    def slot_budget(self) -> dict[int, tuple]:
        """Each slot's ``fit_budget`` at ``util_limit``, by id: built on first use."""
        return {s.id: fit_budget(s.capacity, self.util_limit) for s in self.slots}

    def holds(self, slots) -> tuple:
        """Per kind, the most ``slots`` hold together: each slot's budget
        rounded down to whole units, summed (``floored_total``)."""
        return tuple(map(floored_total, zip(*(self.slot_budget[s.id] for s in slots))))

    @cached_property
    def device_bound(self) -> tuple:
        """What all the slots hold together (``holds``): no packing places
        a total demand over it in some kind."""
        return self.holds(self.slots)

    @cached_property
    def routes(self) -> "_Routes":
        """Slot pair -> route, each worked out on first lookup (``_Routes``)."""
        return _Routes(self._by_id, list(self.die_boundaries), self.io_boundaries)

    @cached_property
    def boundary_table(self) -> dict[int, tuple]:
        """Per die boundary row: its halves' capacities by column (the
        ``die_boundaries`` tuple itself), their ``fit_budget`` at
        ``sll_limit``, its reject and accept bounds on the total crossing
        width (see ``pipeliner``) and whether it is even, its halves sharing
        one positive capacity."""
        table = {}
        for y, caps in self.die_boundaries.items():
            budget = fit_budget(caps, self.sll_limit)
            table[y] = (caps, budget, floored_total(budget), min(budget),
                        min(caps) == max(caps) > 0)
        return table


class _Routes(dict):
    """Slot pair -> route of an edge from the first slot to the second: the
    die rows it crosses, its lowest and highest column and its register
    groups, one per die row or io column crossed, worked out on first use."""

    def __init__(self, slot_of: dict, die_rows: list, io_cols: list):
        self._slot_of, self._die_rows, self._io_cols = slot_of, die_rows, io_cols

    def __missing__(self, pair: tuple) -> tuple:
        src, dst = self._slot_of[pair[0]], self._slot_of[pair[1]]
        ylo, yhi = min(src.y, dst.y), max(src.y, dst.y)
        lo, hi = min(src.x, dst.x), max(src.x, dst.x)
        rows = tuple(y for y in self._die_rows if ylo <= y < yhi)
        route = self[pair] = (rows, lo, hi, len(rows) + sum(lo <= x < hi for x in self._io_cols))
        return route


_REQUIRED = object()


def _context(where) -> str:
    """The name of a document object in an error message: ``where`` itself,
    or, when it is a callable, what it returns.  Loops over many objects
    pass a callable, so a name is put together only when an error is
    raised."""
    return where() if callable(where) else where


def _entry(raw, key: str, where, default=_REQUIRED):
    """``raw[key]`` of one document object, else a ModelError naming it
    (``where``, see ``_context``).

    A missing entry takes ``default`` when one is given.
    """
    if not isinstance(raw, dict):
        raise ModelError(f"{_context(where)} must be an object, got {raw!r}")
    if key in raw:
        return raw[key]
    if default is _REQUIRED:
        raise ModelError(f"{_context(where)} has no {key!r} entry")
    return default


def _number_entry(raw, key: str, where, default=_REQUIRED, kind=int):
    """``kind(raw[key])`` (see ``_entry``), else a ModelError naming it.

    Only a JSON number is taken: a bool or a string is an error, never
    converted.  An int entry also refuses a fraction rather than truncate it.
    """
    if type(raw) is dict:
        value = raw.get(key, default)
        if type(value) is kind:  # the common case: nothing to check or convert
            return value
    value = _entry(raw, key, where, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        noun = "an integer" if kind is int else "a number"
        raise ModelError(f"{_context(where)}: {key!r} must be {noun}, got {value!r}")
    if kind is int:
        if isinstance(value, float) and not value.is_integer():
            raise ModelError(f"{_context(where)}: {key!r} must be an integer, got {value!r}")
        return int(value)
    return float(value)


def _list_entry(raw, key: str, where, default=_REQUIRED) -> list:
    value = _entry(raw, key, where, default)
    if not isinstance(value, (list, tuple)):
        raise ModelError(f"{_context(where)}: {key!r} must be a list, got {value!r}")
    return value


def _dict_entry(raw, key: str, where, default=_REQUIRED) -> dict:
    value = _entry(raw, key, where, default)
    if not isinstance(value, dict):
        raise ModelError(f"{_context(where)}: {key!r} must be an object, got {value!r}")
    return value


def device_from_dict(doc: dict) -> DeviceModel:
    width = _number_entry(doc, "width", "device document")
    height = _number_entry(doc, "height", "device document")
    raw_slots = _list_entry(doc, "slots", "device document")
    if width < 1 or height < 1:
        raise ModelError("device grid must be at least 1x1")

    slots = []
    for i, raw in enumerate(raw_slots):
        where = lambda: f"device slot #{i}"
        cap = ResourceVector.from_dict(_entry(raw, "capacity", where, {}),
                                       lambda: f"{where()} capacity")
        if sum(cap) <= 0:
            raise ModelError(f"slot {raw.get('id')} has non-positive capacity")
        slots.append(Slot(
            id=_number_entry(raw, "id", where),
            x=_number_entry(raw, "x", where),
            y=_number_entry(raw, "y", where),
            capacity=cap,
        ))

    ids = [s.id for s in slots]
    if len(set(ids)) != len(ids):
        raise ModelError("duplicate slot ids")
    # count first, so a grid far larger than its slots is never built
    if len(slots) != width * height or (
        {(s.x, s.y) for s in slots} != {(x, y) for x in range(width) for y in range(height)}
    ):
        raise ModelError(f"slots must cover the {width}x{height} grid exactly once")

    boundaries = []
    for i, raw in enumerate(_list_entry(doc, "die_boundaries", "device document", [])):
        y = _number_entry(raw, "y", lambda: f"die boundary #{i}")
        if not 0 <= y <= height - 2:
            raise ModelError(f"die boundary y={y} outside row gaps")
        halves = {}
        for j, h in enumerate(_list_entry(raw, "halves", lambda: f"die boundary y={y}", [])):
            where = lambda: f"die boundary y={y} half #{j}"
            hx = _number_entry(h, "x", where)
            cap = _number_entry(h, "sll_capacity", where)
            if cap < 0:
                raise ModelError(f"negative SLL capacity at boundary y={y} x={hx}")
            if hx in halves:
                raise ModelError(f"die boundary y={y} lists column x={hx} twice")
            halves[hx] = cap
        if sorted(halves) != list(range(width)):
            raise ModelError(f"die boundary y={y} must define one half per column")
        boundaries.append((y, tuple(halves[x] for x in range(width))))
    by_row = dict(sorted(boundaries))
    if len(by_row) != len(boundaries):
        raise ModelError("duplicate die boundary rows")

    io_cols = []
    for i, raw in enumerate(_list_entry(doc, "io_boundaries", "device document", [])):
        x = _number_entry(raw, "x", lambda: f"io boundary #{i}")
        if not 0 <= x <= width - 2:
            raise ModelError(f"io boundary x={x} outside column gaps")
        io_cols.append(x)
    if len(set(io_cols)) != len(io_cols):
        raise ModelError("duplicate io boundary columns")

    util_limit = _number_entry(doc, "util_limit", "device document", 0.65, float)
    sll_limit = _number_entry(doc, "sll_limit", "device document", 0.90, float)
    if not 0 < util_limit <= 1.0 or not 0 < sll_limit <= 1.0:
        raise ModelError("util_limit and sll_limit must be in (0, 1]")

    return DeviceModel(
        width=width,
        height=height,
        slots=sorted(slots, key=lambda s: s.id),
        die_boundaries=by_row,
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


class Function(NamedTuple):
    name: str
    template: str
    kernel: str
    kernel_kind: str


class Edge(NamedTuple):
    index: int
    src: str
    dst: str
    kind: str
    width: int


class Group(NamedTuple):
    """A set of functions that must share a slot: those wired through
    shared RAM.

    ``pinned`` groups contain a function outside any dataflow region; their
    placement is supposed to stay put during offline re-packing.
    """

    gid: str
    members: tuple
    pinned: bool


@dataclass
class DesignGraph:
    functions: dict[str, Function]
    edges: list[Edge]
    latency_plan: tuple

    @cached_property
    def ram_groups(self) -> tuple[Group, ...]:
        """The RAM-connected groups of functions, the unit of placement,
        built on first use: sorted by id, each group's id its smallest
        member name."""
        parent = {f: f for f in self.functions}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in self.ram_edges():
            ra, rb = find(e.src), find(e.dst)
            if ra != rb:
                parent[ra] = rb

        buckets: dict[str, list] = {}
        for f in self.functions:
            buckets.setdefault(find(f), []).append(f)

        groups = []
        for members in buckets.values():
            members = tuple(sorted(members))
            pinned = any(self.functions[m].kernel_kind == NON_DATAFLOW for m in members)
            groups.append(Group(members[0], members, pinned))
        return tuple(sorted(groups))  # by gid: no two groups share one

    @cached_property
    def group_of(self) -> dict[str, Group]:
        """Each function's group in ``ram_groups``, built on first use."""
        return {m: g for g in self.ram_groups for m in g.members}

    @cached_property
    def kernel_at(self) -> dict[str, int]:
        """Each function's kernel's position in ``latency_plan``."""
        return {f: i for i, (members, _, _) in enumerate(self.latency_plan) for f in members}

    @cached_property
    def fifo_width(self) -> list[int]:
        """By edge id: a FIFO edge's width, 0 for a RAM edge."""
        return [e.width if e.kind == FIFO else 0 for e in self.edges]

    @cached_property
    def fifo_of(self) -> dict[str, list[Edge]]:
        """Each function's FIFO edges, in id order, a self-loop listed twice."""
        fifo_of = {f: [] for f in self.functions}
        for e in self.fifo_edges():
            fifo_of[e.src].append(e)
            fifo_of[e.dst].append(e)
        return fifo_of

    def fifo_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.kind == FIFO]

    def ram_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.kind == RAM]


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


def _latency_plan(order: list[str], members: dict[str, list], preds: dict[str, set]) -> tuple:
    """The ``latency_plan`` of kernels in topological ``order``."""
    at = {k: i for i, k in enumerate(order)}
    pred_at = [tuple(sorted(at[p] for p in preds[k])) for k in order]
    ends = [len(order)] * len(order)
    for i in range(len(order) - 2, -1, -1):
        ends[i] = ends[i + 1] if pred_at[i + 1] == (i,) else i + 1
    return tuple(zip((tuple(members[k]) for k in order), pred_at, ends))


def _name_entry(raw, key: str, where):
    """``raw[key]`` (see ``_entry``) when it is a non-empty string, else None."""
    value = raw.get(key) if type(raw) is dict else _entry(raw, key, where, None)
    return value if isinstance(value, str) and value else None


def design_from_dict(doc: dict) -> DesignGraph:
    raw_kernels = _list_entry(doc, "kernels", "design document", [])
    if not raw_kernels:
        raise ModelError("design must declare at least one kernel")

    members: dict[str, list] = {}  # kernel name -> member function names
    functions: dict[str, Function] = {}
    for i, raw in enumerate(raw_kernels):
        where = lambda: f"design kernel #{i}"
        name = _name_entry(raw, "name", where)
        if not name:
            raise ModelError(f"design kernel #{i} needs a name")
        kind = _entry(raw, "kind", where, None)
        if kind not in (DATAFLOW, NON_DATAFLOW):
            raise ModelError(f"kernel {name!r} must have kind dataflow or non_dataflow")
        fns = _list_entry(raw, "functions", lambda: f"kernel {name!r}", [])
        if not fns:
            raise ModelError(f"kernel {name!r} has no functions")
        if kind == NON_DATAFLOW and len(fns) != 1:
            raise ModelError(f"non-dataflow kernel {name!r} must have exactly one function")
        fnames = members[name] = []
        for j, f in enumerate(fns):
            where = lambda: f"kernel {name!r} function #{j}"
            fname, tmpl = _name_entry(f, "name", where), _name_entry(f, "template", where)
            if not fname or not tmpl:
                raise ModelError(f"function entries need name and template (kernel {name!r})")
            if fname in functions:
                raise ModelError(f"duplicate function name {fname!r}")
            functions[fname] = Function(fname, tmpl, name, kind)
            fnames.append(fname)
    if len(members) != len(raw_kernels):
        raise ModelError("duplicate kernel names")

    edges = []
    succs: dict[str, set] = {k: set() for k in members}
    preds: dict[str, set] = {k: set() for k in members}
    for i, raw in enumerate(_list_entry(doc, "edges", "design document", [])):
        where = lambda: f"design edge #{i}"
        src, dst = _name_entry(raw, "src", where), _name_entry(raw, "dst", where)
        kind = _entry(raw, "kind", where, None)
        if src not in functions or dst not in functions:
            raise ModelError(f"edge {src!r}->{dst!r} references unknown function")
        if kind not in (FIFO, RAM):
            raise ModelError(f"edge kind must be fifo or ram, got {kind!r}")
        width = _number_entry(raw, "width", where)
        if width <= 0:
            raise ModelError(f"edge {src!r}->{dst!r} needs a positive integer width")
        edges.append(Edge(i, src, dst, kind, width))
        ks, kd = functions[src].kernel, functions[dst].kernel
        if ks != kd:
            succs[ks].add(kd)
            preds[kd].add(ks)

    order = _toposort_kernels(list(members), succs)
    return DesignGraph(functions, edges, _latency_plan(order, members, preds))


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


class QoRPoint(NamedTuple):
    id: str
    directives: tuple  # sorted (name, value) pairs
    latency: int
    resources: ResourceVector


@dataclass
class Template:
    name: str
    loops: list[LoopInfo]
    points: list[QoRPoint]

    def __post_init__(self) -> None:
        self.by_id = {p.id: p for p in self.points}

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
    template_of: dict[str, str]  # function -> template name

    @cached_property
    def _points_of(self) -> dict[str, dict[str, QoRPoint]]:
        """Each function's points by id (its template's ``by_id``), built on
        first use."""
        return {f: self.templates[t].by_id for f, t in self.template_of.items()}

    def template_for(self, function: str) -> Template:
        return self.templates[self.template_of[function]]

    def point(self, function: str, point_id: str) -> QoRPoint:
        try:
            return self._points_of[function][point_id]
        except KeyError:
            tmpl = self.template_of[function]
            raise ModelError(f"template {tmpl!r} has no point {point_id!r}") from None


def _parse_loop(raw: dict, where, idx: int) -> LoopInfo:
    min_ii = _number_entry(raw, "min_ii", where, 1)
    return LoopInfo(
        label=raw.get("label", f"L{idx}"),
        depth=_number_entry(raw, "depth", where, 1),
        bound=_number_entry(raw, "bound", where),
        min_ii=min_ii,
        iter_latency=_number_entry(raw, "iter_latency", where, min_ii),
    )


def _parse_point(raw: dict, template: str) -> QoRPoint:
    if type(raw) is dict:  # the common case: the checks below do the rest
        pid = raw.get("id")
    else:
        pid = _entry(raw, "id", lambda: f"template {template!r} point", None)
    if not pid or not isinstance(pid, str):
        raise ModelError(f"template {template!r}: point without string id")
    where = lambda: f"template {template!r} point {pid!r}"
    latency = _number_entry(raw, "latency", where)
    if latency < 1:
        raise ModelError(f"{where()}: latency must be a positive int")
    directives = raw.get("directives", {})
    if not isinstance(directives, dict):
        raise ModelError(f"{where()}: directives must be an object")
    for k, v in directives.items():
        if isinstance(v, (dict, list)):
            raise ModelError(f"{where()}: directive {k!r} needs a scalar value")
    res = ResourceVector.from_dict(raw.get("resources", {}), lambda: f"{where()} resources")
    return QoRPoint(pid, tuple(sorted(directives.items())), latency, res)


def qor_from_dict(doc: dict, graph: DesignGraph) -> QoRLibrary:
    if not isinstance(doc, dict):
        raise ModelError("qor document must be an object")
    raw_templates = doc.get("templates")
    if not raw_templates:
        raise ModelError("qor library has no templates")
    if not isinstance(raw_templates, dict):
        raise ModelError("qor templates must be an object keyed by template name")

    compiled = []
    for raw in _list_entry(doc, "name_rules", "qor document", []):
        pat = _entry(raw, "regex", "name rule", None)
        tmpl = _entry(raw, "template", "name rule", None)
        if not pat or not tmpl:
            raise ModelError("name rules need regex and template")
        if not isinstance(pat, str) or not isinstance(tmpl, str):
            raise ModelError(f"name rule regex and template must be strings, got {pat!r}, {tmpl!r}")
        try:
            compiled.append((re.compile(pat), tmpl))
        except re.error as exc:
            raise ModelError(f"bad name rule regex {pat!r}: {exc}") from exc

    # Candidate normalization for sort tie-breaks: explicit vector from the
    # file, else the per-kind maximum over every point in the library.
    points_seen: list[ResourceVector] = []
    parsed: dict[str, tuple[list[LoopInfo], list[QoRPoint]]] = {}
    for name, raw in raw_templates.items():
        where = lambda: f"template {name!r}"
        loops = [
            _parse_loop(l, lambda: f"{where()} loop #{idx}", idx)
            for idx, l in enumerate(_list_entry(raw, "loops", where, []))
        ]
        raw_points = _list_entry(raw, "points", where, [])
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
        norm = ResourceVector(*map(max, zip(*points_seen)))
    # Guard against zero columns in derived normalization.
    norm = ResourceVector(*(v if v > 0 else 1 for v in norm))

    templates: dict[str, Template] = {}
    for name, (loops, pts) in parsed.items():
        pts_sorted = sorted(
            pts, key=lambda p: (p.latency, utilization_ratio(p.resources, norm), p.id)
        )
        baseline = next(p for p in pts_sorted if p.id == BASELINE_POINT_ID)
        if baseline.latency < pts_sorted[-1].latency:
            log.warning("template %r: baseline latency %s is below the slowest point (%s)",
                        name, baseline.latency, pts_sorted[-1].latency)
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
        template_of=template_of,
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
        if not isinstance(pid, str):
            raise ModelError(f"configuration entry {f!r} must be a point id, got {pid!r}")
        lib.point(f, pid)


def function_latencies(graph: DesignGraph, lib: QoRLibrary, config: Configuration) -> dict[str, int]:
    return {f: lib.point(f, config[f]).latency for f in graph.functions}


def kernel_weight(members: tuple, latency_of: dict[str, int]) -> int:
    """A kernel's weight on the latency path: the largest latency in
    ``latency_of`` among its ``members``."""
    return max(map(latency_of.__getitem__, members))


def longest_path(plan: tuple, weights: list, dist: list, start: int = 0) -> int:
    """The longest-path rule over a ``latency_plan``: each kernel's path
    length ``dist[i]`` is its weight plus the longest path of its
    predecessors (0 for none).  Sets ``dist[i]`` for each plan position from
    ``start`` on, reading ``dist`` before ``start`` as it stands, and
    returns the longest path overall.

    Predecessors come earlier in the plan, so after a change to
    ``weights`` starting at ``start`` this walk alone makes ``dist`` exact.
    It goes one chain run at a time: at ``start`` and at each run's first
    kernel the rule is applied as stated, and through the rest of the run,
    where the only predecessor is the kernel just before, the path lengths
    are one running sum of the weights.
    """
    at = dist.__getitem__
    i, n = start, len(plan)
    while i < n:
        _, preds, end = plan[i]
        first = weights[i] + max(map(at, preds), default=0)
        if end > i + 1:
            dist[i:end] = accumulate(weights[i + 1:end], initial=first)
        else:  # a one-kernel run: cheaper without the running sum's set-up
            dist[i] = first
        i = end
    return max(dist)


def path_latency(graph: DesignGraph, latency_of: dict[str, int]) -> int:
    """Longest kernel-level path, each kernel weighted by the largest of its
    functions' latencies in ``latency_of``, over the graph's
    ``latency_plan``."""
    plan = graph.latency_plan
    weights = [kernel_weight(members, latency_of) for members, _, _ in plan]
    return longest_path(plan, weights, [0] * len(plan))


def group_sizes(graph: DesignGraph, lib: QoRLibrary, config: Configuration) -> dict:
    """Each RAM group's size under ``config``, by group id: its members'
    summed resources."""
    point = lib.point
    return {g.gid: ResourceVector.sum(point(m, config[m]).resources for m in g.members)
            for g in graph.ram_groups}


def design_latency(graph: DesignGraph, lib: QoRLibrary, config: Configuration) -> int:
    """Longest kernel-level path under ``config`` (see ``path_latency``)."""
    return path_latency(graph, function_latencies(graph, lib, config))
