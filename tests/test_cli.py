from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from fado.cli import main

from helpers import design_doc, device_doc, qor_doc, template_doc


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


def test_optimize_util_limit_override_can_make_the_start_infeasible(
        toy_files, tmp_path, capsys):
    code, _ = _optimize(toy_files, tmp_path, "--util-limit", "0.3")
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


def test_check_accepts_a_fresh_result(toy_files, tmp_path, capsys):
    _, run_dir = _optimize(toy_files, tmp_path)
    assert main(["check", "--result", str(run_dir / "result.json")]) == 0
    assert "legal" in capsys.readouterr().out


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


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["no-such-command"]) == 1
    assert main(["optimize", "--device", "missing.json", "--design", "x",
                 "--qor", "y", "--out", str(tmp_path)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", "--result", str(bad)]) == 1
    capsys.readouterr()


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
