"""Spans around the public calls of each fado layer, recorded from outside.

The program is not modified: each public function is replaced, for the
duration of a traced pass, at the name its caller resolves.  ``search``
imports the packer, floorplan and latency functions by name, ``cli`` the
three parsers, and ``oracle`` ``design_latency``; ``SllState.update`` and
``SllState.feasible`` are class attributes.  Spans live in memory, carry
their parent and root span ids, and are written out once the pass ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import fado.cli
import fado.oracle
import fado.pipeliner
import fado.search

_STAGES = ("online", "offline", "look_ahead", "look_back", "excluded")


def _moves(moves):
    return {"moves": len(moves)}


def _pack(out):
    return {"ok": bool(out[0])}


def _feasible(ok):
    return {"ok": bool(ok)}


def _search(result):
    stages = {s: 0 for s in _STAGES}
    for row in result.trace:
        stages[row.stage] += 1
    return {
        "iterations": result.iterations,
        "legalize_s": sum(row.legalize_seconds for row in result.trace),
        "stages": stages,
    }


def _solve(res):
    return {"nodes": res.nodes}


def _verify(verdict):
    return {"candidates": verdict["candidates"], "checked": verdict["checked"]}


# (owner, attribute, span name, summary of the return value)
PATCHES = (
    (fado.cli, "device_from_dict", "model.parse", None),
    (fado.cli, "design_from_dict", "model.parse", None),
    (fado.cli, "qor_from_dict", "model.parse", None),
    (fado.search, "run", "search.run", _search),
    (fado.search, "min_cut_initial", "floorplan.min_cut_initial", None),
    (fado.search, "online_pack", "packer.online_pack", _pack),
    (fado.search, "offline_repack", "packer.offline_repack", _moves),
    (fado.search, "design_latency", "model.design_latency", None),
    (fado.oracle, "design_latency", "model.design_latency", None),
    (fado.oracle, "solve", "oracle.solve", _solve),
    (fado.oracle, "verify_optimal", "oracle.verify", _verify),
    (fado.oracle, "assign_slots", "oracle.assign_slots", None),
    (fado.pipeliner.SllState, "update", "pipeliner.sll_update", None),
    (fado.pipeliner.SllState, "feasible", "pipeliner.sll_feasible", _feasible),
)


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self):
        # Each span: [id, parent id, root id, name, start, end, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self.spans[parent][2] if parent is not None else sid
        span = [sid, parent, root, name, time.perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(sid)
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, name: str, fn, summarize=None):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if summarize is not None:
                rec[6] = summarize(out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Replace every patched name with its traced wrapper, then restore."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in PATCHES]
        try:
            for (owner, attr, name, summarize), (_, _, fn) in zip(PATCHES, originals):
                setattr(owner, attr, self.wrap(name, fn, summarize))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[1] is not None:
                own[s[1]] -= s[5] - s[4]
        return own

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s[0], "parent": s[1], "root": s[2], "name": s[3],
                    "start": s[4], "end": s[5], "attrs": s[6],
                }) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, self times and ratios from the recorded spans."""
    own = tracer.self_times()
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    attrs: dict[str, list] = {}
    for s, t in zip(tracer.spans, own):
        name = s[3]
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + t
        if s[6] is not None:
            attrs.setdefault(name, []).append(s[6])

    def n(name):
        return calls.get(name, 0)

    def total(name, key):
        return sum(a[key] for a in attrs.get(name, []))

    def frac(part, whole):
        return part / whole if whole else 0.0

    repack = attrs.get("packer.offline_repack", [])
    searches = attrs.get("search.run", [])
    out = {
        "packer.offline_repack.calls": n("packer.offline_repack"),
        "packer.offline_repack_s": secs.get("packer.offline_repack", 0.0),
        "packer.offline_repack.noop_frac":
            frac(sum(1 for a in repack if a["moves"] == 0), len(repack)),
        "packer.offline_repack.moves": total("packer.offline_repack", "moves"),
        "packer.online_pack.calls": n("packer.online_pack"),
        "packer.online_pack_s": secs.get("packer.online_pack", 0.0),
        "packer.online_pack.ok_frac":
            frac(total("packer.online_pack", "ok"), n("packer.online_pack")),
        "pipeliner.sll_update.calls": n("pipeliner.sll_update"),
        "pipeliner.sll_update_s": secs.get("pipeliner.sll_update", 0.0),
        "pipeliner.sll_feasible.calls": n("pipeliner.sll_feasible"),
        "pipeliner.sll_feasible_s": secs.get("pipeliner.sll_feasible", 0.0),
        "pipeliner.sll_feasible.reject_frac":
            frac(n("pipeliner.sll_feasible") - total("pipeliner.sll_feasible", "ok"),
                 n("pipeliner.sll_feasible")),
        "floorplan.min_cut_initial.calls": n("floorplan.min_cut_initial"),
        "floorplan.min_cut_initial_s": secs.get("floorplan.min_cut_initial", 0.0),
        "model.parse_s": secs.get("model.parse", 0.0),
        "model.design_latency.calls": n("model.design_latency"),
        "model.design_latency_s": secs.get("model.design_latency", 0.0),
        "cli.io_s": secs.get("cli.optimize", 0.0),
        "search.run_s": secs.get("search.run", 0.0),
        "search.iterations": sum(a["iterations"] for a in searches),
        "search.legalize_s": sum(a["legalize_s"] for a in searches),
    }
    for stage in _STAGES:
        out[f"search.stage.{stage}"] = sum(a["stages"][stage] for a in searches)
    out.update({
        "oracle.solve_s": secs.get("oracle.solve", 0.0),
        "oracle.solve.nodes": total("oracle.solve", "nodes"),
        "oracle.verify_s": secs.get("oracle.verify", 0.0),
        "oracle.verify.candidates": total("oracle.verify", "candidates"),
        "oracle.verify.checked": total("oracle.verify", "checked"),
        "oracle.assign_slots.calls": n("oracle.assign_slots"),
        "oracle.assign_slots_s": secs.get("oracle.assign_slots", 0.0),
    })
    return out
