from __future__ import annotations

import argparse
import copy
import csv
import gc
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from fado import __version__, cli, instancegen
from fado.cli import COMMANDS, build_parser, main

from helpers import design_doc, device_doc, grid_documents, qor_doc, stress_grid, template_doc


@pytest.fixture
def toy_files(tmp_path):
    out = tmp_path / "toy"
    assert main(["gen", "--preset", "toy", "--out", str(out)]) == 0
    return out


def _optimize(toy_files, tmp_path, *extra):
    run_dir = tmp_path / "run"
    code = main([
        "optimize",
        "--device", str(toy_files / "device.json"),
        "--design", str(toy_files / "design.json"),
        "--qor", str(toy_files / "qor.json"),
        "--out", str(run_dir),
        *extra,
    ])
    return code, run_dir


def test_gen_writes_the_three_documents(toy_files):
    for name in ("device.json", "design.json", "qor.json"):
        assert (toy_files / name).exists()
        json.loads((toy_files / name).read_text())


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--preset", "mixed", "--seed", "7", "--out", str(a)]) == 0
    assert main(["gen", "--preset", "mixed", "--seed", "7", "--out", str(b)]) == 0
    for name in ("device.json", "design.json", "qor.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_other_presets_parse(tmp_path):
    for preset in ("monotone", "small"):
        out = tmp_path / preset
        assert main(["gen", "--preset", preset, "--out", str(out)]) == 0
        json.loads((out / "qor.json").read_text())


def test_optimize_toy_end_to_end(toy_files, tmp_path, capsys):
    code, run_dir = _optimize(toy_files, tmp_path)
    assert code == 0
    assert "design latency 13" in capsys.readouterr().out

    doc = json.loads((run_dir / "result.json").read_text())
    assert doc["design_latency"] == 13
    assert doc["baseline_latency"] == 18
    assert doc["inputs"]["device"]["util_limit"] == 0.7
    assert doc["configuration"]["B"] == "fast"
    assert set(doc["placement"]) == set("ABCDE")
    assert doc["max_utilization"] <= 0.7 + 1e-9

    directives = (run_dir / "directives.txt").read_text()
    assert "B: point=fast" in directives
    floorplan = json.loads((run_dir / "floorplan.json").read_text())
    assert set(floorplan["assignment"]) == set("ABCDE")

    with open(run_dir / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    kinds = {r["record"] for r in rows}
    assert "iteration" in kinds and "move" in kinds


def test_optimize_iter_cap_zero_reports_the_baseline(toy_files, tmp_path):
    code, run_dir = _optimize(toy_files, tmp_path, "--iter-cap", "0")
    assert code == 0
    doc = json.loads((run_dir / "result.json").read_text())
    assert doc["design_latency"] == 18
    assert doc["cap_reached"] is True
    assert all(p == "baseline" for p in doc["configuration"].values())


@pytest.mark.parametrize("flag", [
    "--iter-cap", "--lookahead-n",
    pytest.param("oracle --node-budget", id="--node-budget"),
    pytest.param("verify-optimal --node-budget", id="verify-optimal--node-budget"),
])
def test_optimize_refuses_a_negative_count(toy_files, tmp_path, capsys, flag):
    command, _, flag = flag.rpartition(" ")
    if command == "oracle":
        inputs = [f"--{n}={toy_files / n}.json" for n in ("device", "design", "qor")]
        code = main([command, *inputs, flag, "-3"])
    elif command:
        _, run_dir = _optimize(toy_files, tmp_path)
        capsys.readouterr()
        code = main([command, "--result", str(run_dir / "result.json"), flag, "-3"])
    else:
        code, run_dir = _optimize(toy_files, tmp_path, flag, "-3")
        assert not (run_dir / "result.json").exists()
    assert code == 1
    out, err = capsys.readouterr()
    assert f"argument {flag}: must be 0 or more, got -3" in err
    assert out == ""


_IN = ["--device", "d.json", "--design", "g.json", "--qor", "q.json"]

# Each command's arguments up to a count flag; parsing fails before any
# file is read.
_COUNTED = {
    "optimize": ["optimize", *_IN, "--out", "o"],
    "oracle": ["oracle", *_IN],
    "verify-optimal": ["verify-optimal", "--result", "r.json"],
}


@pytest.mark.parametrize("command, flag, value", [
    ("optimize", "--iter-cap", "1.5"),
    ("optimize", "--lookahead-n", "x"),
    ("oracle", "--node-budget", "x"),
    ("verify-optimal", "--node-budget", "x"),
])
def test_a_count_that_is_not_a_whole_number_names_the_count_type(capsys, command, flag, value):
    assert main([*_COUNTED[command], flag, value]) == 1
    out, err = capsys.readouterr()
    assert err.endswith(f"fado {command}: error: argument {flag}: invalid count value: '{value}'\n")
    assert out == ""


def test_optimize_lookahead_n_zero_is_valid(toy_files, tmp_path):
    code, run_dir = _optimize(toy_files, tmp_path, "--lookahead-n", "0")
    assert code == 0
    doc = json.loads((run_dir / "result.json").read_text())
    assert doc["manifest"]["flags"]["lookahead_n"] == 0


def test_result_json_is_compact_and_floorplan_json_stays_indented(toy_files, tmp_path):
    code, run_dir = _optimize(toy_files, tmp_path)
    assert code == 0
    text = (run_dir / "result.json").read_text()
    assert text.count("\n") == 1 and text.endswith("}\n")
    assert json.loads(text)["design_latency"] == 13
    assert (run_dir / "floorplan.json").read_text().startswith('{\n  "assignment"')


def test_optimize_balanced_initial_differs_but_converges(toy_files, tmp_path):
    _, mincut_dir = _optimize(toy_files, tmp_path / "m")
    code, bal_dir = _optimize(toy_files, tmp_path / "b", "--initial", "balanced")
    assert code == 0
    a = json.loads((mincut_dir / "result.json").read_text())
    b = json.loads((bal_dir / "result.json").read_text())
    assert a["design_latency"] == b["design_latency"] == 13
    assert a["initial_placement"] != b["initial_placement"]


def test_optimize_tcl_stub(toy_files, tmp_path):
    code, run_dir = _optimize(toy_files, tmp_path, "--tcl-stub")
    assert code == 0
    tcl = (run_dir / "constraints.tcl").read_text()
    assert "set_directive_pipeline" in tcl
    assert "assign_region" in tcl


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _without_volatile_manifest(result_bytes):
    doc = json.loads(result_bytes)
    for key in ("created_unix", "wall_seconds"):
        del doc["manifest"][key]
    return doc


def test_a_rerun_overwrites_every_longer_output_to_its_new_length(toy_files, tmp_path):
    # a 100-function run writes longer files than the toy run that follows
    # it into the same directory; none of their old tails may survive
    stress = tmp_path / "stress"
    assert main(["gen", "--preset", "stress", "--functions", "100", "--out", str(stress)]) == 0
    code, reused = _optimize(stress, tmp_path / "reused", "--tcl-stub")
    assert code == 0
    before = _files(reused)
    code, reused = _optimize(toy_files, tmp_path / "reused", "--tcl-stub")
    assert code == 0
    code, fresh = _optimize(toy_files, tmp_path / "fresh", "--tcl-stub")
    assert code == 0

    after, expected = _files(reused), _files(fresh)
    assert set(after) == set(expected) == set(before) == {
        "constraints.tcl", "directives.txt", "floorplan.json", "result.json", "trace.csv"}
    for name, data in expected.items():
        assert len(before[name]) > len(data), name
        if name == "result.json":
            assert after[name].count(b"\n") == 1 and after[name].endswith(b"}\n")
            assert _without_volatile_manifest(after[name]) == \
                _without_volatile_manifest(data)
        else:
            assert after[name] == data, name
    assert b"\r\n" in after["trace.csv"]

    generated = _files(stress)
    assert main(["gen", "--preset", "toy", "--out", str(stress)]) == 0
    toy = _files(toy_files)
    assert all(len(generated[name]) > len(data) for name, data in toy.items())
    assert _files(stress) == toy


def test_write_text_overwrites_a_longer_file_with_the_pieces_utf8_bytes(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"x" * 200)
    pieces = ["début\n", "", "路由\r\n", "fin µs\r", "\n"]
    cli._write_text(path, *pieces)
    assert path.read_bytes() == "".join(pieces).encode("utf-8")


def test_optimize_util_limit_override_can_make_the_start_infeasible(
        toy_files, tmp_path, capsys):
    code, _ = _optimize(toy_files, tmp_path, "--util-limit", "0.3")
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


def _write_inputs(out, device, design, qor):
    out.mkdir(parents=True)
    for name, doc in (("device", device), ("design", design), ("qor", qor)):
        (out / f"{name}.json").write_text(json.dumps(doc))
    return out


def test_repeated_optimize_calls_in_one_process_leave_no_objects_behind(tmp_path, capsys):
    # a cache kept across calls, such as one keyed by a plan's id, grows
    # with every call; after three warm-up calls every lazy set-up is done
    files = _write_inputs(tmp_path / "in", *instancegen.gen_stress(3, 60, 4))
    argv = ["optimize", *(f"--{name}={files / name}.json" for name in ("device", "design", "qor")),
            "--out", str(tmp_path / "run")]
    for _ in range(3):
        assert main(argv) == 0
    gc.collect()
    before = len(gc.get_objects())
    for _ in range(10):
        assert main(argv) == 0
    gc.collect()
    assert len(gc.get_objects()) <= before


def test_optimize_exits_zero_only_with_a_result_check_accepts(tmp_path, capsys):
    # 60-function designs on a 2x4 grid with 50-wire halves: some min-cut
    # starts and every balanced start put a die boundary over its budget
    codes = set()
    for seed in range(1, 6):
        inputs = _write_inputs(tmp_path / f"in{seed}", *stress_grid(seed, 60, 4, sll=50))
        for initial in ("mincut", "balanced"):
            code, run_dir = _optimize(inputs, tmp_path / f"{seed}-{initial}", "--initial", initial)
            if code == 0:
                assert main(["check", "--result", str(run_dir / "result.json")]) == 0
            else:
                assert code == 2
            codes.add((initial, code))
    assert codes == {("mincut", 0), ("mincut", 2), ("balanced", 2)}


@settings(max_examples=60, deadline=None)
@given(grid_documents())
def test_optimize_on_generated_grids_exits_zero_only_with_a_result_check_accepts(docs):
    with tempfile.TemporaryDirectory() as tmp:
        inputs = _write_inputs(Path(tmp) / "in", *docs)
        code, run_dir = _optimize(inputs, Path(tmp))
        event(f"optimize exit {code}")
        if code == 0:
            assert main(["check", "--result", str(run_dir / "result.json")]) == 0
        else:
            assert code == 2


def test_optimize_refuses_a_wire_illegal_start_in_one_line(tmp_path, capsys):
    inputs = _write_inputs(tmp_path / "in", *stress_grid(1, 200, 10, sll=400))
    capsys.readouterr()
    code, _ = _optimize(inputs, tmp_path, "--initial", "balanced")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible: initial floorplan illegal: boundary y=")
    assert len(err.strip().splitlines()) == 1


def test_check_accepts_a_fresh_result(toy_files, tmp_path, capsys):
    _, run_dir = _optimize(toy_files, tmp_path)
    assert main(["check", "--result", str(run_dir / "result.json")]) == 0
    assert "legal" in capsys.readouterr().out


def test_result_embeds_the_inputs_as_given(toy_files, tmp_path, capsys):
    # documents no serializer would write: no normalization, points slowest
    # first, whole numbers written as floats
    docs = {name: json.loads((toy_files / f"{name}.json").read_text())
            for name in ("device", "design", "qor")}
    assert "normalization" not in docs["qor"]
    for template in docs["qor"]["templates"].values():
        template["points"].sort(key=lambda p: -p["latency"])
    docs["device"]["width"] = 1.0
    docs["device"]["die_boundaries"][0]["halves"][0]["sll_capacity"] = 100.0
    inputs = _write_inputs(tmp_path / "in", docs["device"], docs["design"], docs["qor"])
    code, run_dir = _optimize(inputs, tmp_path)
    assert code == 0
    result = run_dir / "result.json"
    assert json.loads(result.read_text())["inputs"] == docs
    capsys.readouterr()
    assert main(["check", "--result", str(result)]) == 0
    assert capsys.readouterr().out == "legal\n"
    assert main(["verify-optimal", "--result", str(result)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "optimal"


def _rename(node, old, new):
    """``node`` with every string equal to ``old``, dict keys included,
    replaced by ``new``."""
    if isinstance(node, dict):
        return {_rename(k, old, new): _rename(v, old, new) for k, v in node.items()}
    if isinstance(node, list):
        return [_rename(v, old, new) for v in node]
    return new if node == old else node


def test_result_embeds_crlf_non_ascii_inputs_whatever_the_locale(toy_docs, tmp_path):
    # CRLF files naming a function outside ASCII, read and written under a
    # locale whose default encoding is ASCII; the device carries an override
    device, design, qor = copy.deepcopy(toy_docs)
    design = _rename(design, "A", "Äbtast_函数")
    inputs = tmp_path / "in"
    inputs.mkdir()
    for name, doc in (("device", device), ("design", design), ("qor", qor)):
        text = json.dumps(doc, indent=2, ensure_ascii=False).replace("\n", "\r\n")
        (inputs / f"{name}.json").write_bytes(text.encode("utf-8"))
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    result = tmp_path / "run" / "result.json"
    optimize = [sys.executable, "-m", "fado.cli", "optimize", "--util-limit", "0.6",
                *(f"--{n}={inputs / n}.json" for n in ("device", "design", "qor")),
                "--out", str(tmp_path / "run")]
    check = [sys.executable, "-m", "fado.cli", "check", "--result", str(result)]
    for argv in (optimize, check):
        done = subprocess.run(argv, env=env, capture_output=True)
        assert done.returncode == 0, done.stderr
    data = result.read_bytes()
    assert data.count(b"\n") == 1 and b"\r" not in data
    assert "Äbtast_函数".encode("utf-8") in data
    device["util_limit"] = 0.6
    assert json.loads(data.decode("utf-8"))["inputs"] == {
        "device": device, "design": design, "qor": qor}


def test_check_rejects_a_split_ram_group(toy_files, tmp_path, capsys):
    _, run_dir = _optimize(toy_files, tmp_path)
    path = run_dir / "result.json"
    doc = json.loads(path.read_text())
    doc["placement"]["C"] = 1 - doc["placement"]["C"]
    path.write_text(json.dumps(doc))
    assert main(["check", "--result", str(path)]) == 2
    assert "share a slot" in capsys.readouterr().err


def test_check_rejects_a_tampered_wire_table(toy_files, tmp_path, capsys):
    _, run_dir = _optimize(toy_files, tmp_path)
    path = run_dir / "result.json"
    doc = json.loads(path.read_text())
    doc["sll"]["0"]["0"] = int(doc["sll"]["0"]["0"]) + 7
    path.write_text(json.dumps(doc))
    assert main(["check", "--result", str(path)]) == 2
    assert "recompute" in capsys.readouterr().err


def test_check_rejects_a_tampered_design_latency(toy_files, tmp_path, capsys):
    _, run_dir = _optimize(toy_files, tmp_path)
    path = run_dir / "result.json"
    doc = json.loads(path.read_text())
    assert doc["design_latency"] == 13
    doc["design_latency"] = 5
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", "--result", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "recorded design latency 5 does not match 13 recomputed from the configuration\n"


def test_verify_optimal_refuses_a_tampered_design_latency(toy_files, tmp_path, capsys):
    # bounded by the recorded 5, the search would find nothing faster and
    # answer "optimal" for a result whose configuration runs at 13
    _, run_dir = _optimize(toy_files, tmp_path)
    path = run_dir / "result.json"
    doc = json.loads(path.read_text())
    doc["design_latency"] = 5
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify-optimal", "--result", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: recorded design latency 5 does not match 13"
                   " recomputed from the configuration\n")


def test_oracle_exit_codes(toy_files, tmp_path):
    args = [
        "--device", str(toy_files / "device.json"),
        "--design", str(toy_files / "design.json"),
        "--qor", str(toy_files / "qor.json"),
    ]
    assert main(["oracle", *args]) == 0
    assert main(["oracle", *args, "--node-budget", "1"]) == 3
    assert main(["oracle", *args, "--util-limit", "0.03"]) == 2


def test_oracle_prints_the_optimum(toy_files, capsys):
    assert main([
        "oracle",
        "--device", str(toy_files / "device.json"),
        "--design", str(toy_files / "design.json"),
        "--qor", str(toy_files / "qor.json"),
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "optimal"
    assert doc["latency"] == 13


def test_verify_optimal_cli(toy_files, tmp_path, capsys):
    _, run_dir = _optimize(toy_files, tmp_path / "full")
    assert main(["verify-optimal", "--result", str(run_dir / "result.json")]) == 0
    capsys.readouterr()

    _, partial_dir = _optimize(toy_files, tmp_path / "partial", "--iter-cap", "1")
    capsys.readouterr()
    code = main(["verify-optimal", "--result", str(partial_dir / "result.json")])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "counterexample"
    assert doc["counterexample"]["latency"] == 13
    assert main(["verify-optimal", "--result", str(partial_dir / "result.json"),
                 "--node-budget", "1"]) == 3
    assert json.loads(capsys.readouterr().out)["verdict"] == "inconclusive"


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["no-such-command"]) == 1
    assert main(["optimize", "--device", "missing.json", "--design", "x",
                 "--qor", "y", "--out", str(tmp_path)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--result", str(bad)]) == 1
    capsys.readouterr()


def test_top_level_help_version_and_usage_errors(capsys):
    assert main(["--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(
        "usage: fado [-h] [--version] {optimize,check,oracle,verify-optimal,gen} ...\n")
    words = " ".join(out.split())
    assert all(help_line in words for help_line, _, _ in COMMANDS.values())
    assert "Exit codes are stable" in words and "A call that names" not in words
    assert err == ""
    assert main(["--version"]) == 0
    assert capsys.readouterr() == (f"{__version__}\n", "")
    assert main([]) == 1
    out, err = capsys.readouterr()
    assert err.endswith("fado: error: the following arguments are required: command\n")
    assert main(["no-such-command"]) == 1
    out, err = capsys.readouterr()
    assert "fado: error: argument command: invalid choice: 'no-such-command'" in err
    assert out == ""


def _whole_parser():
    """``build_parser()`` with argparse's own help formatter, which looks
    up the terminal width itself, on each of its parsers: the reference for
    what a call parses and prints."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for p in (parser, *sub.choices.values()):
        p.formatter_class = argparse.HelpFormatter
    return parser


def test_a_call_builds_its_commands_parser_and_the_whole_one_only_for_leftovers(
        toy_files, tmp_path, monkeypatch, capsys):
    built, widths = [], []

    class Spy(cli._Parser):
        def __init__(self, **kwargs):
            built.append(kwargs["prog"])
            super().__init__(**kwargs)

    real = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: widths.append(1) or real(*a))
    monkeypatch.setattr(cli, "_Parser", Spy)
    code, _ = _optimize(toy_files, tmp_path)
    assert code == 0
    assert (built, len(widths)) == (["fado optimize"], 1)
    built.clear()
    widths.clear()
    monkeypatch.setattr(sys, "argv", ["fado", "check", "--result", "r.json", "extra"])
    assert main() == 1
    assert (built, len(widths)) == (["fado check", "fado", *(f"fado {n}" for n in COMMANDS)], 2)
    assert capsys.readouterr().err.endswith("fado: error: unrecognized arguments: extra\n")


# Argument lists that parse: per command, its required options alone and,
# where it has others, every option given.
PARSED = [
    ["optimize", *_IN, "--out", "o"],
    ["optimize", *_IN, "--out", "o", "--initial", "balanced", "--freeze-floorplan",
     "--util-limit", "0.6", "--sll-limit", "0.5", "--lookahead-n", "2",
     "--lookahead-mode", "max", "--iter-cap", "0", "--tcl-stub"],
    ["check", "--result", "r.json"],
    ["oracle", *_IN],
    ["oracle", *_IN, "--util-limit", "0.6", "--sll-limit", "0.5", "--node-budget", "7"],
    ["verify-optimal", "--result", "r.json"],
    ["verify-optimal", "--result", "r.json", "--node-budget", "7"],
    ["gen", "--out", "o"],
    ["gen", "--preset", "stress", "--seed", "3", "--out", "o", "--functions", "9",
     "--points", "2"],
]

# Argument lists that exit: the top-level parser's own (no command, help,
# version, an unknown command), each command's help, then usage errors (a
# missing required option, a bad choice, an unknown option, a bad count, a
# stray argument the top-level parser reports with its own usage line, and
# a token the top-level parser may read as an ambiguous abbreviation).
EXITED = [
    [],
    ["--help"],
    ["--version"],
    ["no-such-command"],
    *([name, "--help"] for name in COMMANDS),
    ["optimize", "--help", "--bogus"],
    ["optimize", *_IN],
    ["optimize", *_IN, "--out", "o", "--initial", "bogus"],
    ["optimize", *_IN, "--out", "o", "--unknown"],
    ["optimize", *_IN, "--out", "o", "--iter-cap", "1.5"],
    ["optimize", *_IN, "--out", "o", "extra"],
    ["check"],
    ["check", "--result", "r.json", "--unknown"],
    ["check", "--result", "r.json", "--version"],
    ["check", "--result", "r.json", "--=x"],
    ["oracle", "--device", "d.json"],
    ["oracle", *_IN, "--unknown"],
    ["oracle", *_IN, "--node-budget", "x"],
    ["verify-optimal", "--node-budget", "1"],
    ["verify-optimal", "--result", "r.json", "--unknown"],
    ["verify-optimal", "--result", "r.json", "--node-budget", "-1"],
    ["gen"],
    ["gen", "--out", "o", "--preset", "bogus"],
    ["gen", "--out", "o", "--unknown"],
    ["gen", "--out", "o", "--seed", "1.5"],
]


@pytest.mark.parametrize("argv", PARSED, ids=" ".join)
def test_a_command_parses_as_in_the_whole_parser(monkeypatch, argv):
    seen = []
    help_line, add_arguments, _ = COMMANDS[argv[0]]
    monkeypatch.setitem(COMMANDS, argv[0], (help_line, add_arguments, seen.append))
    whole = vars(_whole_parser().parse_args(argv))
    assert whole.pop("command") == argv[0]
    assert whole["func"] == seen.append
    main(argv)
    (args,) = seen
    assert vars(args) == whole


@pytest.mark.parametrize("columns", ["50", "150"])
@pytest.mark.parametrize("argv", EXITED, ids=" ".join)
def test_a_call_exits_as_in_the_whole_parser(monkeypatch, capsys, argv, columns):
    monkeypatch.setenv("COLUMNS", columns)
    try:
        _whole_parser().parse_args(argv)
    except SystemExit as exc:
        whole = (exc.code, *capsys.readouterr())
    assert whole[0] == (0 if "--help" in argv or "--version" in argv[:1] else 1)
    assert (main(argv), *capsys.readouterr()) == whole


def test_optimize_moves_a_function_to_the_only_slot_with_its_resource(tmp_path, capsys):
    device = device_doc(width=1, height=2, cap={"lut": 100})
    device["slots"][1]["capacity"] = {"lut": 100, "uram": 10}
    design = design_doc([("K_f", "dataflow", ["f"]), ("K_g", "dataflow", ["g"])])
    qor = qor_doc({
        "t_f": template_doc([("baseline", 10, {"lut": 10}),
                             ("fast", 5, {"lut": 10, "uram": 2})]),
        "t_g": template_doc([("baseline", 7, {"lut": 10})]),
    })
    inputs = tmp_path / "in"
    inputs.mkdir()
    for name, doc in (("device", device), ("design", design), ("qor", qor)):
        (inputs / f"{name}.json").write_text(json.dumps(doc))
    code, run_dir = _optimize(inputs, tmp_path)
    assert code == 0, capsys.readouterr().err
    result = json.loads((run_dir / "result.json").read_text())
    assert result["design_latency"] == 7
    assert result["configuration"]["f"] == "fast"
    assert result["placement"]["f"] == 1
    capsys.readouterr()
    assert main(["check", "--result", str(run_dir / "result.json")]) == 0
    assert capsys.readouterr().out.strip() == "legal"


@pytest.mark.parametrize("command", ["check", "verify-optimal"])
def test_result_without_inputs_is_a_usage_error(toy_files, tmp_path, capsys, command):
    _, run_dir = _optimize(toy_files, tmp_path)
    path = run_dir / "result.json"
    doc = json.loads(path.read_text())
    del doc["inputs"]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, "--result", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'inputs'" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("field", ["configuration", "placement"])
def test_check_rejects_a_function_missing_or_misplaced(toy_files, tmp_path, capsys, field):
    _, run_dir = _optimize(toy_files, tmp_path)
    path = run_dir / "result.json"
    doc = json.loads(path.read_text())
    if field == "configuration":
        del doc["configuration"]["A"]
    else:
        doc["placement"]["A"] = 99
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["check", "--result", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'A'" in err
    assert len(err.strip().splitlines()) == 1


def _drop_slot_x(doc):
    del doc["slots"][0]["x"]


def _drop_half_capacity(doc):
    del doc["die_boundaries"][0]["halves"][0]["sll_capacity"]


def _repeat_half(doc):
    halves = doc["die_boundaries"][0]["halves"]
    halves.append(dict(halves[0], sll_capacity=7))


def _null_slot_id(doc):
    doc["slots"][1]["id"] = None


def _null_util_limit(doc):
    doc["util_limit"] = None


def _bool_util_limit(doc):
    doc["util_limit"] = True


def _string_sll_limit(doc):
    doc["sll_limit"] = "0.5"


def _drop_loop_bound(doc):
    tmpl = next(iter(doc["templates"].values()))
    tmpl["loops"] = [{"label": "L0", "depth": 1}]


def _string_name_rule(doc):
    doc["name_rules"] = ["x"]


def _number_rule_regex(doc):
    doc["name_rules"] = [{"regex": 5, "template": "tA"}]


def _list_rule_template(doc):
    doc["name_rules"] = [{"regex": "A", "template": ["tA"]}]


def _string_function(doc):
    doc["kernels"][0]["functions"][0] = "A"


def _number_edge(doc):
    doc["edges"][0] = 5


def _list_kernel(doc):
    doc["kernels"][0] = []


def _edges_object(doc):
    doc["edges"] = {"a": 1}


def _functions_string(doc):
    doc["kernels"][0]["functions"] = "AB"


def _points_bool(doc):
    next(iter(doc["templates"].values()))["points"] = True


def _huge_width(doc):
    doc["width"] = 1_000_000_000


def _fractional_latency(doc):
    doc["templates"]["tA"]["points"][0]["latency"] = 7.5


def _bool_width(doc):
    doc["edges"][0]["width"] = True


def _string_resource_count(doc):
    doc["templates"]["tA"]["points"][0]["resources"]["lut"] = "22"


def _bare_int_io_boundary(doc):
    doc["io_boundaries"] = [0]


MALFORMED = {
    "slot-without-x": ("device", _drop_slot_x, "'x'"),
    "half-without-sll-capacity": ("device", _drop_half_capacity, "'sll_capacity'"),
    "half-listed-twice": ("device", _repeat_half, "y=0 lists column x=0 twice"),
    "slot-with-null-id": ("device", _null_slot_id, "'id'"),
    "null-util-limit": ("device", _null_util_limit, "'util_limit'"),
    "util-limit-bool": ("device", _bool_util_limit, "'util_limit'"),
    "sll-limit-string": ("device", _string_sll_limit, "'sll_limit'"),
    "loop-without-bound": ("qor", _drop_loop_bound, "'bound'"),
    "name-rule-not-an-object": ("qor", _string_name_rule, "name rule"),
    "name-rule-regex-not-a-string": ("qor", _number_rule_regex, "name rule"),
    "name-rule-template-not-a-string": ("qor", _list_rule_template, "name rule"),
    "function-not-an-object": ("design", _string_function, "function #0"),
    "edge-not-an-object": ("design", _number_edge, "edge #0"),
    "kernel-not-an-object": ("design", _list_kernel, "kernel #0"),
    "edges-not-a-list": ("design", _edges_object, "'edges'"),
    "functions-not-a-list": ("design", _functions_string, "'functions'"),
    "points-not-a-list": ("qor", _points_bool, "'points'"),
    "grid-larger-than-its-slots": ("device", _huge_width, "exactly once"),
    "latency-a-fraction": ("qor", _fractional_latency, "'latency'"),
    "width-a-bool": ("design", _bool_width, "'width'"),
    "resource-count-a-string": ("qor", _string_resource_count, "'lut'"),
    "io-boundary-a-bare-int": ("device", _bare_int_io_boundary, "io boundary #0"),
}


def _assert_one_line_error(capsys, needle):
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err, err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_optimize_rejects_a_malformed_document_in_one_line(toy_files, tmp_path, capsys, case):
    name, damage, needle = MALFORMED[case]
    path = toy_files / f"{name}.json"
    doc = json.loads(path.read_text())
    damage(doc)
    path.write_text(json.dumps(doc))
    code, _ = _optimize(toy_files, tmp_path)
    assert code == 1
    _assert_one_line_error(capsys, needle)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_oracle_rejects_a_malformed_document_in_one_line(toy_files, capsys, case):
    name, damage, needle = MALFORMED[case]
    path = toy_files / f"{name}.json"
    doc = json.loads(path.read_text())
    damage(doc)
    path.write_text(json.dumps(doc))
    inputs = [f"--{n}={toy_files / n}.json" for n in ("device", "design", "qor")]
    assert main(["oracle", *inputs]) == 1
    _assert_one_line_error(capsys, needle)


@pytest.mark.parametrize("command", ["check", "verify-optimal"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_result_embedding_a_malformed_document_is_a_usage_error(
        toy_files, tmp_path, capsys, command, case):
    name, damage, needle = MALFORMED[case]
    _, run_dir = _optimize(toy_files, tmp_path)
    path = run_dir / "result.json"
    doc = json.loads(path.read_text())
    damage(doc["inputs"][name])
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, "--result", str(path)]) == 1
    _assert_one_line_error(capsys, needle)


# Values a fuzzed entry takes: nested nulls, and every JSON type including
# a whole float, bools and a name outside ASCII.
_NULLS = (None, [None], [[None]], {"x": None})
_SWAPS = (*_NULLS, True, False, 0, -1, 4.0, 2.5, "", "x", "é名", [], {})


def _slots_of(node):
    """Every (container, key) pair in a JSON tree, parents first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    found = []
    for key, value in items:
        found.append((node, key))
        found.extend(_slots_of(value))
    return found


def _names_of(node):
    """Every string value in a JSON tree, and the keys of its templates."""
    if isinstance(node, dict):
        keys = list(node["templates"]) if isinstance(node.get("templates"), dict) else []
        return keys + [s for v in node.values() for s in _names_of(v)]
    if isinstance(node, list):
        return [s for v in node for s in _names_of(v)]
    return [node] if isinstance(node, str) else []


def _mutate(docs, data):
    """One random change to one of ``docs``: a value swapped for another
    type, a key or item dropped, a value replaced by nested nulls, an int
    written as a whole float or a bool, or a string renamed outside ASCII
    wherever it occurs in the three documents (a name: a string value or a
    template's key)."""
    name = data.draw(st.sampled_from(sorted(docs)))
    op = data.draw(st.sampled_from(("swap", "drop", "null", "float", "bool", "rename")))
    if op == "rename":
        old = data.draw(st.sampled_from(sorted(set(_names_of(docs[name])) or {""})))
        for n in docs:
            docs[n] = _rename(docs[n], old, old + "_é名")
        return
    slots = _slots_of(docs[name])
    if op == "float":
        slots = [(c, k) for c, k in slots if type(c[k]) is int]
    if not slots:
        return
    container, key = data.draw(st.sampled_from(slots))
    if op == "swap":
        container[key] = copy.deepcopy(data.draw(st.sampled_from(_SWAPS)))
    elif op == "drop":
        del container[key]
    elif op == "null":
        container[key] = copy.deepcopy(data.draw(st.sampled_from(_NULLS)))
    elif op == "float":
        container[key] = float(container[key])
    else:
        container[key] = data.draw(st.booleans())


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_documents_end_in_an_exit_code_never_a_traceback(tmp_path, capsys, data):
    # seeded from the malformed cases above, then changed at random; exit 0
    # must also leave a result that check accepts
    docs = dict(zip(("device", "design", "qor"), instancegen.toy_instance()))
    case = data.draw(st.none() | st.sampled_from(sorted(MALFORMED)))
    if case is not None:
        name, damage, _ = MALFORMED[case]
        damage(docs[name])
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(docs, data)
    indent = data.draw(st.sampled_from((None, 2)))
    for name, doc in docs.items():
        text = json.dumps(doc, indent=indent, ensure_ascii=False)
        (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
    capsys.readouterr()
    code, run_dir = _optimize(tmp_path, tmp_path)
    err = capsys.readouterr().err
    event(f"optimize exit {code}")
    assert code in (0, 1, 2, 3) and "Traceback" not in err
    if code == 1:
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1, err
    if code == 0:
        assert main(["check", "--result", str(run_dir / "result.json")]) == 0, \
            capsys.readouterr().err


def _placement_list(doc):
    doc["placement"] = sorted(doc["placement"])


def _null_placement_slot(doc):
    doc["placement"]["A"] = None


def _unknown_placement_function(doc):
    doc["placement"]["ZZZ"] = 0


def _fractional_placement_slot(doc):
    doc["placement"]["A"] = 1.5


def _bool_placement_slot(doc):
    doc["placement"]["A"] = True


def _list_configuration_point(doc):
    doc["configuration"]["A"] = ["baseline"]


def _configuration_list(doc):
    doc["configuration"] = sorted(doc["configuration"])


def _sll_list(doc):
    doc["sll"] = []


def _sll_table_number(doc):
    doc["sll"]["0"] = 5


def _sll_row_key_a_name(doc):
    doc["sll"]["a"] = {}


def _sll_half_key_a_name(doc):
    doc["sll"]["0"] = {"b": 3}


def _register_groups_string(doc):
    doc["register_groups"] = "x"


def _register_groups_key_a_name(doc):
    doc["register_groups"]["c"] = 1


def _recorded_count(table, value):
    """Damage writing ``value`` as the first count of the result's ``table``
    (``sll``'s first row, or ``register_groups``)."""
    def damage(doc):
        counts = doc[table]
        if table == "sll":
            counts = next(iter(counts.values()))
        counts[next(iter(counts))] = value
    return damage


def _string_design_latency(doc):
    doc["design_latency"] = "fast"


# Damage to the result document itself: (command reading the entry, damage, needle)
MALFORMED_RESULT = {
    "placement-not-an-object": ("check", _placement_list, "'placement'"),
    "placement-slot-null": ("check", _null_placement_slot, "'A'"),
    "placement-unknown-function": ("check", _unknown_placement_function, "'ZZZ'"),
    "placement-slot-fraction": ("check", _fractional_placement_slot, "'A'"),
    "placement-slot-bool": ("check", _bool_placement_slot, "'A'"),
    "configuration-not-an-object": ("check", _configuration_list, "'configuration'"),
    "configuration-point-a-list": ("check", _list_configuration_point, "'A'"),
    "sll-not-an-object": ("check", _sll_list, "'sll'"),
    "sll-table-not-an-object": ("check", _sll_table_number, "'0'"),
    "sll-row-key-not-an-integer": ("check", _sll_row_key_a_name, "'sll'"),
    "sll-half-key-not-an-integer": ("check", _sll_half_key_a_name, "'sll' row '0'"),
    "register-groups-not-an-object": ("check", _register_groups_string, "'register_groups'"),
    "register-groups-key-not-an-integer":
        ("check", _register_groups_key_a_name, "'register_groups'"),
    "sll-count-a-bool": ("check", _recorded_count("sll", True), "'sll' row '0'"),
    "sll-count-a-string": ("check", _recorded_count("sll", "16"), "'sll' row '0'"),
    "sll-count-a-fraction": ("check", _recorded_count("sll", 16.5), "'sll' row '0'"),
    "register-groups-count-a-bool":
        ("check", _recorded_count("register_groups", True), "'register_groups'"),
    "register-groups-count-a-string":
        ("check", _recorded_count("register_groups", "1"), "'register_groups'"),
    "register-groups-count-a-fraction":
        ("check", _recorded_count("register_groups", 1.5), "'register_groups'"),
    "design-latency-not-a-number": ("verify-optimal", _string_design_latency, "'design_latency'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RESULT))
def test_malformed_result_entry_is_a_usage_error(toy_files, tmp_path, capsys, case):
    command, damage, needle = MALFORMED_RESULT[case]
    _, run_dir = _optimize(toy_files, tmp_path)
    path = run_dir / "result.json"
    doc = json.loads(path.read_text())
    damage(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, "--result", str(path)]) == 1
    _assert_one_line_error(capsys, needle)


@pytest.fixture
def toy_result(toy_files, tmp_path):
    code, run_dir = _optimize(toy_files, tmp_path)
    assert code == 0
    return json.loads((run_dir / "result.json").read_text())


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_results_end_in_an_exit_code_never_a_traceback(toy_result, tmp_path, capsys, data):
    # seeded from the malformed result entries above, then changed at random
    # as the fuzzed input documents are, the embedded inputs included
    docs = {"result": copy.deepcopy(toy_result)}
    case = data.draw(st.none() | st.sampled_from(sorted(MALFORMED_RESULT)))
    if case is not None:
        MALFORMED_RESULT[case][1](docs["result"])
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(docs, data)
    path = tmp_path / "fuzzed.json"
    path.write_text(json.dumps(docs["result"], ensure_ascii=False), encoding="utf-8")
    capsys.readouterr()
    for command in (["check"], ["verify-optimal", "--node-budget", "200"]):
        code = main([*command, "--result", str(path)])
        err = capsys.readouterr().err
        event(f"{command[0]} exit {code}")
        assert code in (0, 1, 2, 3) and "Traceback" not in err
        if code == 1:
            assert err.startswith("error:") and len(err.strip().splitlines()) == 1, err


def test_limit_override_on_a_device_list_is_a_usage_error(toy_files, tmp_path, capsys):
    (toy_files / "device.json").write_text("[1, 2]")
    code, _ = _optimize(toy_files, tmp_path, "--util-limit", "0.5")
    assert code == 1
    _assert_one_line_error(capsys, "device document must be an object")


@pytest.mark.parametrize("flag, count, needle", [
    ("--functions", "0", "at least one function"),
    ("--functions", "-3", "at least one function"),
    ("--points", "0", "at least one point"),
])
def test_gen_stress_with_a_count_below_one_is_a_usage_error(tmp_path, capsys, flag, count, needle):
    args = ["gen", "--preset", "stress", flag, count, "--out", str(tmp_path)]
    assert main(args) == 1
    _assert_one_line_error(capsys, needle)
