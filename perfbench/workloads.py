"""The benchmark's workloads: seeded instance sets written as fado input documents.

Every instance is generated from the workload seed alone; fado itself only
ever sees the JSON documents written here.  ``call`` runs one fado command
in-process through ``fado.cli.main``, so interpreter start-up is never timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

from fado import cli, instancegen

STRESS_FUNCTIONS = 400
STRESS_POINTS = 10

# The 2x4 grid: four rows of two slots, so three die boundaries, plus an io
# column between x=0 and x=1, with quad's slot capacities.  It carries
# 200-function stress designs: at 400 functions one search takes 4-8 s and
# varies too much between seeds for a few per run to be steady.  400 wires
# per boundary half make the SLL budget bind (final max SLL utilisation
# ~0.9, about half of all feasibility checks rejected); at quad's 5000 per
# half it never would.
GRID_WIDTH = 2
GRID_HEIGHT = 4
GRID_FUNCTIONS = 200
GRID_SLL_PER_HALF = 400


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instances: int
    oracle: bool = False
    # Draw generator seeds until fado finds a legal initial floorplan; the
    # stress generator's DSP demand sits at 71-108% of the device budget, so
    # some of its seeds are infeasible before the search starts.
    screen: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stress-quad",
            "400-function stress designs on the 2x2 quad device: legalization "
            "(online pack, offline repack) does most of the work, wires never bind",
            instances=8,
            screen=True,
        ),
        Workload(
            "grid-wirebound",
            "200-function stress designs on a 2x4 grid with three die boundaries "
            "and tight SLL halves, so incremental wiring binds and is exercised",
            instances=12,
            screen=True,
        ),
        Workload(
            "oracle-pair",
            "200 small non-monotone designs on the pair device, optimized, solved "
            "exactly and verified: parsing and result writing dominate optimize; "
            "the only oracle workload",
            instances=200,
            oracle=True,
        ),
    )
}


def call(argv: list[str]) -> tuple[int, float, str, str]:
    """Run one fado command in-process: (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        seconds = time.perf_counter() - t0
    return rc, seconds, out.getvalue(), err.getvalue()


def input_args(inst_dir: Path) -> list[str]:
    return [
        "--device", str(inst_dir / "device.json"),
        "--design", str(inst_dir / "design.json"),
        "--qor", str(inst_dir / "qor.json"),
    ]


def generator_seeds(workload: Workload, seed: int):
    """Endless deterministic stream of generator seeds for one workload seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        yield rng.randrange(2**31)


def grid_device(slot_capacity: dict) -> dict:
    """2x4 device document with quad's per-slot capacities."""
    return {
        "width": GRID_WIDTH,
        "height": GRID_HEIGHT,
        "slots": [
            {"id": y * GRID_WIDTH + x, "x": x, "y": y, "capacity": dict(slot_capacity)}
            for y in range(GRID_HEIGHT)
            for x in range(GRID_WIDTH)
        ],
        "die_boundaries": [
            {"y": y,
             "halves": [{"x": x, "sll_capacity": GRID_SLL_PER_HALF} for x in range(GRID_WIDTH)]}
            for y in range(GRID_HEIGHT - 1)
        ],
        "io_boundaries": [{"x": 0}],
        "util_limit": 0.65,
        "sll_limit": 0.9,
    }


def _write_docs(out: Path, device: dict, design: dict, qor: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, doc in (("device", device), ("design", design), ("qor", qor)):
        (out / f"{name}.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _gen(argv: list[str]) -> None:
    rc, _, _, err = call(["gen", *argv])
    if rc != 0:
        raise RuntimeError(f"fado gen {' '.join(argv)} exited {rc}: {err.strip()}")


def write_instance(workload: Workload, gen_seed: int, out: Path) -> None:
    """Generate one instance of ``workload`` and write its three documents."""
    if workload.name == "stress-quad":
        _gen(["--preset", "stress", "--functions", str(STRESS_FUNCTIONS),
              "--points", str(STRESS_POINTS), "--seed", str(gen_seed), "--out", str(out)])
    elif workload.name == "grid-wirebound":
        quad, design, qor = instancegen.gen_stress(gen_seed, GRID_FUNCTIONS, STRESS_POINTS)
        _write_docs(out, grid_device(quad["slots"][0]["capacity"]), design, qor)
    elif workload.name == "oracle-pair":
        _write_docs(out, *instancegen.gen_instance(instancegen.GenSpec(seed=gen_seed)))
    else:
        raise ValueError(f"unknown workload {workload.name!r}")
