"""Command-line interface.

Subcommands: optimize, check, oracle, verify-optimal, gen.  Exit codes are
stable: 0 success / legal / optimal, 1 usage or schema errors, 2 infeasible
(or counterexample / legality violations), 3 budget exceeded.

A call that names a command is parsed by that command's parser alone, and
the whole ``fado`` parser (``build_parser``) is built only when the call
needs its wording: no command, a top-level option or an unknown command
first, or arguments the command leaves over.  The optimizer is meant to be
called many times from a design-space exploration loop, and building the
top-level parser beside the command's cost about a tenth of a small
``fado optimize`` call.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import shutil
import sys
import time
from pathlib import Path

from . import __version__, instancegen, oracle, search
from .floorplan import FloorplanError
from .model import (
    ModelError,
    _dict_entry,
    _entry,
    _number_entry,
    design_from_dict,
    design_latency,
    device_from_dict,
    qor_from_dict,
    validate_configuration,
)
from .packer import PackState

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3

# ``fado --help`` shows the module docstring but its last paragraph (none
# under ``python -OO``, which strips docstrings).
_DESCRIPTION = (__doc__ or "").rsplit("\n\n", 1)[0] or None


class _Parser(argparse.ArgumentParser):
    """argparse terminates with status 2 on bad usage; we reserve 2 for
    infeasibility, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    """A file's text, decoded as UTF-8 whatever the locale, with every line
    break read as ``\\n``."""
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _decode(text: str, path: str):
    """The JSON document ``text``, read from ``path``.  A document nested
    too deeply for the decoder is a ModelError naming the file."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ModelError(f"{path}: JSON nested too deeply to decode") from None


def _load_inputs(args):
    """The device, design and QoR library, and what they were parsed from
    (see ``_result_pieces``): the device document with the CLI limit
    overrides applied, and the design and QoR documents' texts as read."""
    device_doc = _decode(_read_text(args.device), args.device)
    for key in ("util_limit", "sll_limit"):
        value = getattr(args, key, None)
        if value is not None and isinstance(device_doc, dict):
            device_doc[key] = value
    device = device_from_dict(device_doc)
    design_text = _read_text(args.design)
    graph = design_from_dict(_decode(design_text, args.design))
    qor_text = _read_text(args.qor)
    lib = qor_from_dict(_decode(qor_text, args.qor), graph)
    return device, graph, lib, (device_doc, design_text, qor_text)


def _compact(doc) -> str:
    # Without an indent the json module encodes in C.
    return json.dumps(doc, separators=(",", ":"))


RESULT_DOC = "result document"


def _load_result(path: str):
    """A result document and the device, design and QoR library it embeds."""
    doc = _decode(_read_text(path), path)
    inputs = _entry(doc, "inputs", RESULT_DOC)
    device = device_from_dict(_entry(inputs, "device", "result 'inputs'"))
    graph = design_from_dict(_entry(inputs, "design", "result 'inputs'"))
    lib = qor_from_dict(_entry(inputs, "qor", "result 'inputs'"), graph)
    return doc, device, graph, lib


def _write_text(path: Path, *pieces: str) -> None:
    """Write the concatenated ``pieces`` to ``path`` as UTF-8, overwriting
    an existing file in place.

    Each piece's bytes go to a binary file in turn, with no text layer, no
    line-break translation and no joined copy.  The file is opened without
    ``O_TRUNC`` and cut to the new length after the write.  Truncating a
    written file to zero makes ext4 start writeback when it is closed
    (``auto_da_alloc``), which dominates a re-run into an existing output
    directory.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        for piece in pieces:
            fh.write(piece.encode())
        fh.truncate()


def _write_trace_csv(path: Path, trace) -> None:
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
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
    _write_text(path, buf.getvalue())


def _write_directives(path: Path, graph, lib, config) -> None:
    lines = []
    for fn in sorted(graph.functions):
        point = lib.point(fn, config[fn])
        settings = "; ".join(f"{k}={v}" for k, v in point.directives) or "(none)"
        lines.append(f"{fn}: point={point.id}; {settings}")
    _write_text(path, "\n".join(lines) + "\n")


def _write_tcl_stub(path: Path, graph, lib, config, placement) -> None:
    lines = ["# auto-generated directive/floorplan stub; inspection only"]
    for fn in sorted(graph.functions):
        point = lib.point(fn, config[fn])
        for name, value in point.directives:
            kind, _, target = name.partition(":")
            lines.append(f"set_directive_{kind.lower()} -value {{{value}}} {fn} {target}")
        lines.append(f"assign_region slot_{placement[fn]} {fn}")
    _write_text(path, "\n".join(lines) + "\n")


def _result_document(graph, lib, result, wall_seconds, flags) -> dict:
    """Everything ``result.json`` records but the input documents."""
    state = result.state
    register_groups = {str(i): n for i, n in sorted(state.sll.reg_groups.items())}
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
        "max_sll_utilization": state.sll.max_utilization(),
        "sll": {
            str(y): {str(x): used for x, used in sorted(loads.items())}
            for y, loads in sorted(state.sll.boundary_loads.items())
        },
        "register_groups": register_groups,
        "total_register_groups": sum(register_groups.values()),
        "manifest": {
            "tool_version": __version__,
            "created_unix": time.time(),
            "wall_seconds": wall_seconds,
            "flags": flags,
        },
    }


def _result_pieces(doc: dict, inputs: tuple) -> list[str]:
    """``result.json`` as pieces to write in turn: ``doc`` in compact JSON,
    then, as its last entry ``inputs``, the device document in compact JSON
    and the design and QoR texts from ``_load_inputs`` with their line
    breaks removed, so the file is one line.

    JSON allows no raw line break inside a string, so a line break in a
    valid JSON text is whitespace between tokens, and removing it leaves
    the document it encodes unchanged.
    """
    device_doc, design_text, qor_text = inputs
    return [_compact(doc)[:-1], ',"inputs":{"device":', _compact(device_doc),
            ',"design":', design_text.replace("\n", ""),
            ',"qor":', qor_text.replace("\n", ""), "}}\n"]


def cmd_optimize(args) -> int:
    device, graph, lib, inputs = _load_inputs(args)
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
    doc = _result_document(graph, lib, result, wall, flags)
    _write_text(out / "result.json", *_result_pieces(doc, inputs))
    _write_trace_csv(out / "trace.csv", result.trace)
    _write_directives(out / "directives.txt", graph, lib, result.config)
    state = result.state
    _write_text(out / "floorplan.json", json.dumps({
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


def _result_latency(doc, graph, lib):
    """A result's configuration, validated, its design latency recomputed,
    and a message when the recorded ``design_latency`` differs (else None)."""
    config = _dict_entry(doc, "configuration", RESULT_DOC)
    validate_configuration(graph, lib, config)
    recorded = _number_entry(doc, "design_latency", RESULT_DOC)
    latency = design_latency(graph, lib, config)
    mismatch = None
    if recorded != latency:
        mismatch = (f"recorded design latency {recorded} does not match {latency}"
                    " recomputed from the configuration")
    return config, latency, mismatch


def _int_key(key: str, where: str) -> int:
    """A result table's key as the integer it names, else a ModelError
    naming the table (``where``)."""
    try:
        return int(key)
    except ValueError:
        raise ModelError(f"{where}: key {key!r} is not an integer") from None


def _counts(table: dict, where: str) -> dict[int, int]:
    """A result table of counts by integer key, each key and each count read
    by its one rule, else a ModelError naming the table (``where``)."""
    return {_int_key(key, where): _number_entry(table, key, where) for key in table}


def cmd_check(args) -> int:
    doc, device, graph, lib = _load_result(args.result)
    config, _, mismatch = _result_latency(doc, graph, lib)
    slots = _dict_entry(doc, "placement", RESULT_DOC)
    placement = {f: _number_entry(slots, f, "result 'placement'") for f in slots}

    state = PackState(device, graph, lib, config, placement)
    problems = state.check_legal()
    if mismatch:
        problems.append(mismatch)

    tables = _dict_entry(doc, "sll", RESULT_DOC, {})
    recorded_sll = {
        _int_key(y, "result 'sll'"):
            _counts(_dict_entry(tables, y, "result 'sll'"), f"result 'sll' row {y!r}")
        for y in tables
    }
    if state.sll.boundary_loads != recorded_sll:
        problems.append("recorded SLL table does not match a recompute from scratch")
    recorded_regs = _counts(_dict_entry(doc, "register_groups", RESULT_DOC, {}),
                            "result 'register_groups'")
    if state.sll.reg_groups != recorded_regs:
        problems.append("recorded register groups do not match a recompute from scratch")

    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return EXIT_INFEASIBLE
    print("legal")
    return EXIT_OK


def cmd_oracle(args) -> int:
    device, graph, lib, _ = _load_inputs(args)
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
    _, latency, mismatch = _result_latency(doc, graph, lib)
    if mismatch:
        print(f"error: {mismatch}", file=sys.stderr)
        return EXIT_USAGE
    verdict = oracle.verify_optimal(device, graph, lib, latency, node_budget=args.node_budget)
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
    for name, doc in (("device", device), ("design", design), ("qor", qor)):
        _write_text(out / f"{name}.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote device.json, design.json, qor.json to {out}")
    return EXIT_OK


def _count(text: str) -> int:
    """An argparse type: a whole number, 0 or more."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


# argparse names the type function in "invalid <name> value" errors.
_count.__name__ = "count"


def _add_inputs(sp):
    sp.add_argument("--device", required=True, help="device JSON")
    sp.add_argument("--design", required=True, help="design graph JSON")
    sp.add_argument("--qor", required=True, help="QoR library JSON")


def _add_node_budget(sp):
    sp.add_argument("--node-budget", type=_count, default=oracle.DEFAULT_NODE_BUDGET,
                    help="search nodes before the run stops with exit 3")


def _optimize_arguments(sp):
    _add_inputs(sp)
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--initial", choices=("mincut", "balanced"), default="mincut",
                    help="initial floorplan; balanced ignores die-boundary wire"
                         " budgets, so where they are tight it starts wire-illegal"
                         " and optimize exits 2")
    sp.add_argument("--freeze-floorplan", action="store_true",
                    help="directive search only; no packing moves")
    sp.add_argument("--util-limit", type=float, default=None)
    sp.add_argument("--sll-limit", type=float, default=None)
    sp.add_argument("--lookahead-n", type=_count, default=None)
    sp.add_argument("--lookahead-mode", choices=("min", "max"), default="min")
    sp.add_argument("--iter-cap", type=_count, default=None)
    sp.add_argument("--tcl-stub", action="store_true")


def _check_arguments(sp):
    sp.add_argument("--result", required=True, help="result.json from optimize")


def _oracle_arguments(sp):
    _add_inputs(sp)
    sp.add_argument("--util-limit", type=float, default=None)
    sp.add_argument("--sll-limit", type=float, default=None)
    _add_node_budget(sp)


def _verify_optimal_arguments(sp):
    sp.add_argument("--result", required=True)
    _add_node_budget(sp)


def _gen_arguments(sp):
    sp.add_argument("--preset", choices=("toy", "mixed", "monotone", "small", "stress"),
                    default="mixed")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--functions", type=int, default=400, help="stress preset size")
    sp.add_argument("--points", type=int, default=10, help="stress points per template")


# name -> (help line, function adding the arguments, handler), in help order
COMMANDS = {
    "optimize": ("run the co-optimization loop", _optimize_arguments, cmd_optimize),
    "check": ("re-validate an emitted result", _check_arguments, cmd_check),
    "oracle": ("exact reference optimum, bounded by --node-budget",
               _oracle_arguments, cmd_oracle),
    "verify-optimal": ("search for a faster legal configuration, bounded by --node-budget",
                       _verify_optimal_arguments, cmd_verify_optimal),
    "gen": ("emit a synthetic instance", _gen_arguments, cmd_gen),
}


def _formatter_class():
    """A help formatter class for every parser of one build: argparse's
    own, bound to the width it would compute for itself, looked up once
    rather than once per formatter (one per ``add_argument``)."""
    return functools.partial(argparse.HelpFormatter,
                             width=shutil.get_terminal_size().columns - 2)


def _command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``parser`` given the arguments and handler of command ``name``."""
    _, add_arguments, handler = COMMANDS[name]
    add_arguments(parser)
    parser.set_defaults(func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The whole ``fado`` parser: the top-level options and a subparser,
    with prog ``fado <command>``, for each of ``COMMANDS``.

    ``main`` builds it only for the calls whose wording is its own (see the
    module docstring); a call that names a command is parsed by a parser
    equal to that command's subparser.
    """
    formatter_class = _formatter_class()
    p = _Parser(prog="fado", description=_DESCRIPTION, formatter_class=formatter_class)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_line, _, _) in COMMANDS.items():
        _command(sub.add_parser(name, help=help_line, formatter_class=formatter_class), name)
    return p


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of a call, as the whole parser reads them (less its
    ``command`` entry when the command's parser reads them alone).

    The whole parser may refuse a ``--=`` token anywhere in a call as an
    ambiguous abbreviation of its own options, so such a call goes to it.
    """
    name = argv[0] if argv else None
    if name in COMMANDS and not any(a.startswith("--=") for a in argv):
        parser = _Parser(prog=f"fado {name}", formatter_class=_formatter_class())
        args, rest = _command(parser, name).parse_known_args(argv[1:])
        if not rest:
            return args
    # The whole parser words "unrecognized arguments" with its own usage.
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as exc:
        # argparse exits for --help and usage errors; keep main() returnable.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FloorplanError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, ValueError) as exc:  # ModelError and JSONDecodeError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
