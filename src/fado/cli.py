"""Command-line interface.

Subcommands: optimize, check, oracle, verify-optimal, gen.  Exit codes are
stable: 0 success / legal / optimal, 1 usage or schema errors, 2 infeasible
(or counterexample / legality violations), 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from . import __version__, instancegen, oracle, search
from .floorplan import FloorplanError
from .model import (
    ModelError,
    design_from_dict,
    device_from_dict,
    qor_from_dict,
    validate_configuration,
)
from .packer import PackState
from .pipeliner import recompute_all

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    """argparse terminates with status 2 on bad usage; we reserve 2 for
    infeasibility, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_inputs(args):
    device_doc = _read_json(args.device)
    if getattr(args, "util_limit", None) is not None:
        device_doc["util_limit"] = args.util_limit
    if getattr(args, "sll_limit", None) is not None:
        device_doc["sll_limit"] = args.sll_limit
    device = device_from_dict(device_doc)
    graph = design_from_dict(_read_json(args.design))
    lib = qor_from_dict(_read_json(args.qor), graph)
    return device, graph, lib


def _field(doc, key: str):
    """``doc[key]`` of a result document, or a ModelError naming the key."""
    if not isinstance(doc, dict) or key not in doc:
        raise ModelError(f"result document has no {key!r} entry")
    return doc[key]


def _load_result(path: str):
    """A result document and the device, design and QoR library it embeds."""
    doc = _read_json(path)
    inputs = _field(doc, "inputs")
    device = device_from_dict(_field(inputs, "device"))
    graph = design_from_dict(_field(inputs, "design"))
    lib = qor_from_dict(_field(inputs, "qor"), graph)
    return doc, device, graph, lib


def _write_trace_csv(path: Path, trace) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["record", "iter", "stage", "batch", "points", "latency",
                    "max_util", "max_sll_util", "function", "from", "to"])
        for row in trace:
            w.writerow([
                "iteration", row.iteration, row.stage, " ".join(row.batch),
                " ".join(f"{f}={p}" for f, p in sorted(row.accepted.items())),
                row.design_latency, f"{row.max_util:.6f}", f"{row.max_sll_util:.6f}",
                "", "", "",
            ])
            for fn, src, dst in row.moves:
                w.writerow(["move", row.iteration, row.stage, "", "", "", "", "",
                            fn, src, dst])


def _write_directives(path: Path, graph, lib, config) -> None:
    lines = []
    for fn in sorted(graph.functions):
        point = lib.point(fn, config[fn])
        settings = "; ".join(f"{k}={v}" for k, v in point.directives) or "(none)"
        lines.append(f"{fn}: point={point.id}; {settings}")
    path.write_text("\n".join(lines) + "\n")


def _write_tcl_stub(path: Path, graph, lib, config, placement) -> None:
    lines = ["# auto-generated directive/floorplan stub; inspection only"]
    for fn in sorted(graph.functions):
        point = lib.point(fn, config[fn])
        for name, value in point.directives:
            kind, _, target = name.partition(":")
            lines.append(f"set_directive_{kind.lower()} -value {{{value}}} {fn} {target}")
        lines.append(f"assign_region slot_{placement[fn]} {fn}")
    path.write_text("\n".join(lines) + "\n")


def _result_document(device, graph, lib, result, wall_seconds, flags) -> dict:
    state = result.state
    return {
        "design_latency": result.design_latency,
        "baseline_latency": result.baseline_latency,
        "iterations": result.iterations,
        "cap_reached": result.cap_reached,
        "excluded": result.excluded,
        "configuration": result.config,
        "placement": result.placement,
        "initial_placement": result.initial_placement,
        "applied_directives": {
            fn: dict(lib.point(fn, result.config[fn]).directives)
            for fn in sorted(graph.functions)
        },
        "max_utilization": state.max_utilization(),
        "max_sll_utilization": state.max_sll_utilization(),
        "sll": {
            str(y): {str(x): used for x, used in sorted(loads.items())}
            for y, loads in sorted(state.sll.boundary_loads.items())
        },
        "register_groups": {str(i): n for i, n in sorted(state.sll.reg_groups.items()) if n},
        "total_register_groups": state.sll.total_register_groups(),
        "manifest": {
            "tool_version": __version__,
            "created_unix": time.time(),
            "wall_seconds": wall_seconds,
            "flags": flags,
        },
        "inputs": {
            "device": device.to_dict(),
            "design": graph.to_dict(),
            "qor": lib.to_dict(),
        },
    }


def cmd_optimize(args) -> int:
    device, graph, lib = _load_inputs(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    result = search.run(
        device, graph, lib,
        initial=args.initial,
        freeze_floorplan=args.freeze_floorplan,
        lookahead_n=args.lookahead_n,
        lookahead_mode=args.lookahead_mode,
        iter_cap=args.iter_cap,
    )
    wall = time.perf_counter() - t0

    flags = {
        "initial": args.initial,
        "freeze_floorplan": args.freeze_floorplan,
        "util_limit": device.util_limit,
        "sll_limit": device.sll_limit,
        "lookahead_n": result.lookahead_n,
        "lookahead_mode": args.lookahead_mode,
        "iter_cap": args.iter_cap,
        "device": args.device,
        "design": args.design,
        "qor": args.qor,
    }
    doc = _result_document(device, graph, lib, result, wall, flags)
    (out / "result.json").write_text(json.dumps(doc, indent=2) + "\n")
    _write_trace_csv(out / "trace.csv", result.trace)
    _write_directives(out / "directives.txt", graph, lib, result.config)
    state = result.state
    (out / "floorplan.json").write_text(json.dumps({
        "assignment": result.placement,
        "slots": {
            str(s.id): {
                "functions": sorted(f for f in graph.functions if result.placement[f] == s.id),
                "usage": state.slot_load[s.id].as_dict(),
                "utilization": state.utilization(s.id),
            }
            for s in device.slots
        },
        "sll": doc["sll"],
        "register_groups": doc["register_groups"],
    }, indent=2) + "\n")
    if args.tcl_stub:
        _write_tcl_stub(out / "constraints.tcl", graph, lib, result.config, result.placement)

    print(
        f"design latency {result.design_latency} (baseline {result.baseline_latency}), "
        f"max utilization {doc['max_utilization']:.3f}, "
        f"max SLL utilization {doc['max_sll_utilization']:.3f}, "
        f"{result.iterations} iterations, {wall:.3f}s"
    )
    return EXIT_OK


def cmd_check(args) -> int:
    doc, device, graph, lib = _load_result(args.result)
    config = _field(doc, "configuration")
    validate_configuration(graph, lib, config)
    placement = {f: int(s) for f, s in _field(doc, "placement").items()}

    state = PackState(device, graph, lib, config, placement)
    problems = state.check_legal()

    fresh = recompute_all(device, graph, placement)
    recorded_sll = {
        int(y): {int(x): used for x, used in table.items()}
        for y, table in doc.get("sll", {}).items()
    }
    fresh_sll = {y: dict(loads) for y, loads in fresh.boundary_loads.items()}
    if {y: {x: u for x, u in t.items() if u} for y, t in fresh_sll.items()} != \
       {y: {x: u for x, u in t.items() if u} for y, t in recorded_sll.items()}:
        problems.append("recorded SLL table does not match a recompute from scratch")
    recorded_regs = {int(i): n for i, n in doc.get("register_groups", {}).items()}
    fresh_regs = {i: n for i, n in fresh.reg_groups.items() if n}
    if fresh_regs != recorded_regs:
        problems.append("recorded register groups do not match a recompute from scratch")

    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return EXIT_INFEASIBLE
    print("legal")
    return EXIT_OK


def cmd_oracle(args) -> int:
    device, graph, lib = _load_inputs(args)
    res = oracle.solve(device, graph, lib, node_budget=args.node_budget)
    print(json.dumps({
        "status": res.status,
        "latency": res.latency,
        "configuration": res.config,
        "placement": res.placement,
        "nodes": res.nodes,
    }, indent=2))
    if res.status == "optimal":
        return EXIT_OK
    if res.status == "infeasible":
        return EXIT_INFEASIBLE
    return EXIT_BUDGET


def cmd_verify_optimal(args) -> int:
    doc, device, graph, lib = _load_result(args.result)
    verdict = oracle.verify_optimal(
        device, graph, lib, _field(doc, "design_latency"),
        sample=args.sample, enum_cap=args.enum_cap, seed=args.seed,
    )
    print(json.dumps(verdict, indent=2))
    if verdict["verdict"] == "optimal":
        return EXIT_OK
    if verdict["verdict"] == "counterexample":
        return EXIT_INFEASIBLE
    return EXIT_BUDGET


def cmd_gen(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.preset == "toy":
        device, design, qor = instancegen.toy_instance()
    elif args.preset == "stress":
        device, design, qor = instancegen.gen_stress(
            args.seed, n_functions=args.functions, points_per_template=args.points)
    else:
        presets = {
            "mixed": dict(device="quad", mode="non_monotone",
                          dataflow_kernels=6, non_dataflow_kernels=2),
            "monotone": dict(device="pair", mode="monotone",
                             dataflow_kernels=2, non_dataflow_kernels=1,
                             functions_per_dataflow=(1, 3)),
            "small": dict(device="pair", mode="non_monotone",
                          dataflow_kernels=2, non_dataflow_kernels=1,
                          functions_per_dataflow=(1, 3)),
        }
        spec = instancegen.GenSpec(seed=args.seed, **presets[args.preset])
        device, design, qor = instancegen.gen_instance(spec)
    (out / "device.json").write_text(json.dumps(device, indent=2, sort_keys=True) + "\n")
    (out / "design.json").write_text(json.dumps(design, indent=2, sort_keys=True) + "\n")
    (out / "qor.json").write_text(json.dumps(qor, indent=2, sort_keys=True) + "\n")
    print(f"wrote device.json, design.json, qor.json to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="fado", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_inputs(sp):
        sp.add_argument("--device", required=True, help="device JSON")
        sp.add_argument("--design", required=True, help="design graph JSON")
        sp.add_argument("--qor", required=True, help="QoR library JSON")

    sp = sub.add_parser("optimize", help="run the co-optimization loop")
    add_inputs(sp)
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--initial", choices=("mincut", "balanced"), default="mincut")
    sp.add_argument("--freeze-floorplan", action="store_true",
                    help="directive search only; no packing moves")
    sp.add_argument("--util-limit", type=float, default=None)
    sp.add_argument("--sll-limit", type=float, default=None)
    sp.add_argument("--lookahead-n", type=int, default=None)
    sp.add_argument("--lookahead-mode", choices=("min", "max"), default="min")
    sp.add_argument("--iter-cap", type=int, default=None)
    sp.add_argument("--tcl-stub", action="store_true")
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("check", help="re-validate an emitted result")
    sp.add_argument("--result", required=True, help="result.json from optimize")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("oracle", help="exact reference optimum (small instances)")
    add_inputs(sp)
    sp.add_argument("--util-limit", type=float, default=None)
    sp.add_argument("--sll-limit", type=float, default=None)
    sp.add_argument("--node-budget", type=int, default=oracle.DEFAULT_NODE_BUDGET)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("verify-optimal", help="search for a faster legal configuration")
    sp.add_argument("--result", required=True)
    sp.add_argument("--sample", type=int, default=oracle.DEFAULT_SAMPLE)
    sp.add_argument("--enum-cap", type=int, default=oracle.DEFAULT_ENUM_CAP)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify_optimal)

    sp = sub.add_parser("gen", help="emit a synthetic instance")
    sp.add_argument("--preset", choices=("toy", "mixed", "monotone", "small", "stress"),
                    default="mixed")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--functions", type=int, default=400, help="stress preset size")
    sp.add_argument("--points", type=int, default=10, help="stress points per template")
    sp.set_defaults(func=cmd_gen)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits for --help and usage errors; keep main() returnable.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FloorplanError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ModelError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
