"""Document builders and reference implementations shared across the test suite."""

from __future__ import annotations

import copy
import math
from operator import le, sub

from hypothesis import strategies as st

from fado import instancegen
from fado.model import (
    LIMIT_EPS,
    RESOURCE_KINDS,
    ModelError,
    ResourceVector,
    design_from_dict,
    device_from_dict,
    function_latencies,
    kind_ratio,
    path_latency,
    qor_from_dict,
    utilization_ratio,
)
from fado.oracle import OracleResult, assign_slots
from fado.packer import _candidate_slots, _fits_slot


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


@st.composite
def grid_documents(draw):
    """(device, design, qor) documents of a small multi-die grid: 2-3
    columns with an io column after x=0, 1-3 die boundaries whose halves
    hold 0-48 wires each, and one resource kind no slot has (and no point
    uses).  1-3 dataflow kernels of 1-4 functions, and maybe a
    non-dataflow one, are chained by FIFO edges, with random FIFO and RAM
    edges inside each kernel; every template has 2-4 points of falling
    latency, the faster ones mostly larger, so the search accepts, moves
    groups and excludes."""
    width = draw(st.integers(2, 3))
    n_rows = draw(st.integers(1, 3))
    height = draw(st.integers(n_rows + 1, 4))
    die_rows = sorted(draw(st.lists(st.integers(0, height - 2), min_size=n_rows,
                                    max_size=n_rows, unique=True)))
    absent = draw(st.sampled_from(RESOURCE_KINDS))
    cap = {"bram": 8, "dsp": 12, "ff": 200, "lut": 100, "uram": 4, absent: 0}
    device = device_doc(width, height, cap=cap, util_limit=draw(st.sampled_from((0.65, 0.8, 1.0))),
                        io_cols=(0,), die_rows=die_rows)
    for boundary in device["die_boundaries"]:
        for half in boundary["halves"]:
            half["sll_capacity"] = draw(st.sampled_from((0, 6, 12, 24, 48)))

    kernels, edges, names = [], [], []
    for k in range(draw(st.integers(1, 3))):
        fns = [f"k{k}f{i}" for i in range(draw(st.integers(1, 4)))]
        fn = st.sampled_from(fns)
        edges.extend(draw(st.lists(
            st.tuples(fn, fn, st.sampled_from(("fifo", "fifo", "ram")), st.integers(1, 8)),
            max_size=4)))
        if names:
            edges.append((names[-1], fns[0], "fifo", draw(st.integers(1, 8))))
        kernels.append((f"K{k}", "dataflow", fns))
        names.extend(fns)
    if draw(st.booleans()):
        edges.append((names[-1], "tail", "fifo", draw(st.integers(1, 8))))
        kernels.append(("N", "non_dataflow", ["tail"]))
        names.append("tail")

    amount = {"bram": st.integers(0, 2), "dsp": st.integers(0, 3), "ff": st.integers(0, 40),
              "lut": st.integers(1, 20), "uram": st.integers(0, 1)}
    templates = {}
    for f in names:
        lats = sorted(draw(st.lists(st.integers(1, 60), min_size=2, max_size=4, unique=True)),
                      reverse=True)
        templates[f"t_{f}"] = template_doc([
            ("baseline" if i == 0 else f"p{i}", lat,
             {kind: draw(a) * (1 + i) for kind, a in amount.items() if kind != absent})
            for i, lat in enumerate(lats)
        ])
    return device, design_doc(kernels, edges), qor_doc(templates)


def loop_doc(label, depth, bound, il):
    return {"label": label, "depth": depth, "bound": bound,
            "min_ii": 1, "iter_latency": il}


def lib_with_loops(loops):
    """A one-function design whose template has ``loops``: (QoR library, graph)."""
    graph = design_from_dict(design_doc([("K", "dataflow", ["a"])]))
    doc = qor_doc({"t_a": template_doc([("baseline", 9, {"lut": 1})], loops=loops)})
    return qor_from_dict(doc, graph), graph


def reference_lookahead_depth(nests, mode):
    """The look-ahead window size of ``nests`` by the three tier sums, from
    scratch.  ``search.compute_lookahead_N`` must match it exactly."""
    def leveled(values, cap):
        chosen = values if mode == "max" else values[:cap]
        return sum(int(math.log2(min(64, v))) if v > 1 else 0 for v in chosen)

    n1 = max(leveled([l.iter_latency for l in nest], 3) for nest in nests)
    n2 = max(leveled([l.bound for l in nest], 3) for nest in nests)
    n3 = max(leveled([l.bound for l in nest], 2) for nest in nests)
    return n1 + n2 + n3


def reference_directive_space(loops, arrays, limit=None):
    """Every directive combination built first, loops then arrays with the
    last axis varying fastest, then stride-sampled.
    ``instancegen.gen_directive_space`` must match it exactly, key order
    included."""
    combos = [{}]
    for loop in loops:
        combos = [dict(base, **c) for base in combos for c in instancegen._loop_choices(loop)]
    for array in arrays:
        combos = [dict(base, **c) for base in combos for c in instancegen._array_choices(array)]
    return instancegen._stride_sample(combos, limit)


def reference_repack(state):
    """The plain offline repack schedule: every unpinned group of every
    ranked source tries every non-empty fuller slot, rescanning the groups
    per source.  ``packer.offline_repack`` must match it exactly."""
    ranks = sorted(state.device.slots, key=lambda s: (-state.utilization(s.id), s.id))
    group_load = state.group_load
    moves = []
    for m in range(1, len(ranks)):
        src = ranks[m]
        movable = sorted(
            (g for g in state.graph.ram_groups
             if state.placement[g.members[0]] == src.id and not g.pinned),
            key=lambda g: (-utilization_ratio(group_load[g.gid], src.capacity), g.gid),
        )
        empty = {dest.id for dest in ranks[:m] if state.slot_load[dest.id].is_zero()}
        for g in movable:
            for dest in ranks[:m]:
                if (dest.id not in empty and _fits_slot(state, dest.id, group_load[g.gid])
                        and state.trial_move(g, dest.id)):
                    moves.extend((fn, src.id, dest.id) for fn in g.members)
                    break
    return moves


def reference_online_pack(state, targets, allow_moves=True):
    """Online packing with no device-wide bound: every function that does
    not fit in place tries every candidate slot before the batch fails.
    On a state whose slots are all within budget, ``packer.online_pack``
    must match it exactly, in its result and in the state it leaves."""
    for fn, pid in targets.items():
        if fn not in state.graph.functions:
            raise ModelError(f"unknown function {fn!r}")
        state.lib.point(fn, pid)
    saved = copy_state(state)
    moves = []
    order = sorted(
        targets,
        key=lambda f: (
            -utilization_ratio(
                state.lib.point(f, targets[f]).resources,
                state.device.slot(state.placement[f]).capacity,
            ),
            f,
        ),
    )
    for fn in order:
        pid = targets[fn]
        new = state.lib.point(fn, pid).resources
        old = state.fn_resources(fn)
        sid = state.placement[fn]
        if _fits_slot(state, sid, tuple(map(sub, new, old))):
            state.apply_point(fn, pid)
            continue
        if not allow_moves:
            restore_state(state, saved)
            return False, []
        group = state.graph.group_of[fn]
        extra = (state.group_load[group.gid] - old) + new
        for dest in _candidate_slots(state, sid, extra):
            if _fits_slot(state, dest, extra) and state.trial_move(group, dest):
                state.apply_point(fn, pid)
                moves.extend((m, sid, dest) for m in group.members)
                break
        else:
            restore_state(state, saved)
            return False, []
    return True, moves


STATE_ENTRIES = ("config", "placement", "slot_load", "group_load")


def copy_state(state):
    """A copy of a ``PackState`` whose entries and routing state are its
    own: each of ``STATE_ENTRIES`` copied, and the routing state a new
    object."""
    twin = copy.copy(state)
    for name in STATE_ENTRIES:
        setattr(twin, name, dict(getattr(state, name)))
    twin.sll = copy.copy(state.sll)
    return twin


def restore_state(state, saved):
    """Put a ``copy_state`` copy's entries and routing state back into
    ``state``, copied again, so ``saved`` stays as it is."""
    twin = copy_state(saved)
    for name in (*STATE_ENTRIES, "sll"):
        setattr(state, name, getattr(twin, name))


def reference_holds(device, slots):
    """Per kind, the sum over ``slots`` of each slot's whole units under the
    device's limit, computed from scratch."""
    limit = device.util_limit
    return tuple(
        sum(math.floor(limit * s.capacity[k] + LIMIT_EPS) for s in slots)
        for k in range(len(RESOURCE_KINDS))
    )


def within_device_bound(state, targets):
    """Whether the design's total demand with ``targets`` applied stays, in
    every resource kind, within what the slots hold together
    (``reference_holds``)."""
    config = {**state.config, **targets}
    total = ResourceVector.sum(state.lib.point(f, p).resources for f, p in config.items())
    return all(map(le, total, reference_holds(state.device, state.device.slots)))


def reference_fold(device, graph, placement, y):
    """Boundary y's ``{half: wires}`` by the plain half rule, from scratch:
    each FIFO edge crossing y, in ascending id order, takes the column of its
    endpoint span with the lowest post-add fill ratio, the first such column
    on a tie.  ``SllState.boundary_loads`` must match it exactly."""
    caps = device.die_boundaries[y]
    loads = {}
    for edge in sorted(graph.fifo_edges(), key=lambda e: e.index):
        src, dst = device.slot(placement[edge.src]), device.slot(placement[edge.dst])
        if not min(src.y, dst.y) <= y < max(src.y, dst.y):
            continue
        best_x = best_ratio = None
        for x in range(min(src.x, dst.x), max(src.x, dst.x) + 1):
            ratio = kind_ratio(loads.get(x, 0) + edge.width, caps[x])
            if best_ratio is None or ratio < best_ratio:
                best_x, best_ratio = x, ratio
        loads[best_x] = loads.get(best_x, 0) + edge.width
    return loads


def select_bottleneck(latencies, excluded):
    """(L1, batch, L2) over non-excluded functions, or None when done, from
    scratch: batch = every function at the maximum latency L1; L2 = largest
    latency strictly below L1 (0 when the batch is all that's left).  The
    levels ``search.run`` keeps must select the same at every iteration."""
    active = {f: l for f, l in latencies.items() if f not in excluded}
    if not active:
        return None
    l1 = max(active.values())
    batch = sorted(f for f, l in active.items() if l == l1)
    below = [l for l in active.values() if l < l1]
    return l1, batch, max(below) if below else 0


def reference_path_latency(graph, latency_of):
    """Longest kernel-level path worked out from the graph's functions and
    edges alone, each kernel weighted by its largest function latency and
    preceded by the kernels with an edge into it.  ``model.path_latency``
    must match it."""
    weights, preds = {}, {}
    for f, fn in graph.functions.items():
        weights[fn.kernel] = max(weights.get(fn.kernel, 0), latency_of[f])
        preds.setdefault(fn.kernel, set())
    for e in graph.edges:
        src, dst = graph.functions[e.src].kernel, graph.functions[e.dst].kernel
        if src != dst:
            preds[dst].add(src)
    dist = {}
    for k in weights:  # depth first, each kernel after its predecessors
        todo = [k]
        while todo:
            top = todo[-1]
            waiting = [p for p in preds[top] if p not in dist]
            if waiting:
                todo.extend(waiting)
            else:
                dist[top] = weights[top] + max((dist[p] for p in preds[top]), default=0)
                todo.pop()
    return max(dist.values())


def reference_search(device, graph, lib, node_budget, below=math.inf):
    """The exact oracle's branch and bound with each node's design latency
    walked from scratch (``path_latency``): functions in name order, each
    one's points in latency order, a node pruned when its latency is above
    the best found or not below ``below``, a tie replacing the witness only
    with a lexicographically smaller configuration, and every configuration
    and slot-assignment node counted against ``node_budget``.
    ``oracle.solve`` (``below`` infinite) and ``verify_optimal`` must walk
    the same nodes and return the same answer."""
    fns = sorted(graph.functions)
    points = [lib.template_for(f).points for f in fns]
    partial = {f: pts[0].id for f, pts in zip(fns, points)}
    latency = function_latencies(graph, lib, partial)
    spent = candidates = checked = 0
    best = None  # (latency, configuration, placement)

    class Stop(Exception):
        pass

    def tick():
        nonlocal spent
        spent += 1
        if spent > node_budget:
            raise Stop

    def descend(i):
        nonlocal candidates, checked, best
        tick()
        lb = path_latency(graph, latency)
        if (best is not None and lb > best[0]) or lb >= below:
            return
        if i == len(fns):
            candidates += 1
            config = [partial[f] for f in fns]
            if best is not None and lb == best[0] and config >= [best[1][f] for f in fns]:
                return
            checked += 1
            placement = assign_slots(device, graph, lib, partial, tick=tick)
            if placement is not None:
                best = lb, dict(partial), placement
            return
        f = fns[i]
        kept = partial[f], latency[f]
        for p in points[i]:
            partial[f], latency[f] = p.id, p.latency
            descend(i + 1)
        partial[f], latency[f] = kept

    try:
        descend(0)
        status = "infeasible" if best is None else "optimal"
    except Stop:
        status = "budget_exceeded"
    return OracleResult(status, *(best or (None, None, None)), spent, candidates, checked)


def route_changes(sll, placement):
    """``{edge id: route}`` for each FIFO edge whose route under
    ``placement``, read from the device's slot-pair routes, differs from the
    one ``sll`` records: the changes ``SllState.update`` takes after a move
    to ``placement``."""
    routes, route_of = sll.device.routes, sll.route_of
    changed = {}
    for e in sll.graph.fifo_edges():
        route = routes[placement[e.src], placement[e.dst]]
        if route != route_of[e.index]:
            changed[e.index] = route
    return changed


def sll_fingerprint(sll):
    """Everything an ``SllState`` routes: per-boundary half loads and
    crossing lists, which with the placement determine each crossing edge's
    half, and every edge's register groups, with every pending fold settled
    first."""
    loads = sll.boundary_loads  # settles the pending folds
    return (
        tuple(sorted((y, tuple(sorted(l.items()))) for y, l in loads.items())),
        tuple(sorted((y, tuple(eids)) for y, eids in sll.crossing.items())),
        tuple(sorted(sll.reg_groups.items())),
    )
