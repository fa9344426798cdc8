#!/usr/bin/env python3
"""fado benchmark: seeded workloads, end-to-end times and QoR, per-layer spans.

    python3 perfbench/run.py --workload stress-quad --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload's instances are generated
from ``--seed`` and written under ``.perfbench_work/<workload>/``.  Every
fado command runs in-process through ``fado.cli.main`` in this one thread.

``--trace 0`` repeats passes over the instance set for ``--seconds``
seconds and reports the end-to-end metrics, each instance timed by the
median over passes.  ``--trace 1`` makes one untraced pass and one traced
pass and reports the per-layer metrics of the traced pass plus the tracing
overhead.  Every command's outcome is checked in either mode; the last line
of standard output is the result as one JSON object.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
SCREEN_ATTEMPTS = 10  # generator seeds tried per instance before giving up
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
ORACLE_GUARD_MESSAGES = ("exact solve limited to", "exceeds the hard guard")
# Calibration: after every timed step, CALIB_DUTY of its duration goes to a
# fixed pure-Python work unit; times are reported scaled to a machine on
# which that unit takes CALIB_REF_S.  See NOTES.md.
CALIB_DUTY = 0.1
CALIB_REF_S = 500e-6
CALIB_WINDOW = 8


def unit(name: str) -> str:
    """Unit of a reported figure, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("qor_") or name.endswith("_factor"):
        return "x"
    if name.endswith(("_frac", "_rate")):
        return "ratio"
    if name.endswith("_percentile"):
        return "%"
    return "count"


def calibration_unit() -> int:
    """Fixed interpreter-bound work: dict updates, tuples, a keyed sort."""
    counts: dict[int, int] = {}
    for i in range(3000):
        k = i % 97
        counts[k] = counts.get(k, 0) + i
    return len(sorted(counts.items(), key=lambda kv: kv[1]))


class Meter:
    """Tracks the machine's speed with calibration run right after each
    timed step, so that times taken while the machine is loaded compare.

    Each step is scaled by the calibration of the steps of its own kind
    nearest to it in time (CALIB_WINDOW on either side): neighbours smooth
    out the noise of a short step's own few samples, and staying local
    follows the load as it changes during a run.
    """

    def __init__(self):
        # label -> per step: (calibration seconds, calibration units)
        self.steps: dict[str, list[tuple[float, int]]] = {}

    def after(self, label: str, seconds: float) -> int:
        """Calibrate after a step of ``seconds``; returns the step's index."""
        spent, units = 0.0, 0
        while units == 0 or spent < CALIB_DUTY * seconds:
            t0 = time.perf_counter()
            calibration_unit()
            spent += time.perf_counter() - t0
            units += 1
        steps = self.steps.setdefault(label, [])
        steps.append((spent, units))
        return len(steps) - 1

    def factor(self, label: str | None = None, index: int | None = None) -> float:
        """Multiplier from wall seconds to reference seconds: around step
        ``index`` of ``label``, or over a whole kind (every kind when None)."""
        if label is None:
            steps = [s for ss in self.steps.values() for s in ss]
        elif index is None:
            steps = self.steps[label]
        else:
            steps = self.steps[label][max(0, index - CALIB_WINDOW):index + CALIB_WINDOW + 1]
        return CALIB_REF_S * sum(u for _, u in steps) / sum(t for t, _ in steps)


class BenchError(Exception):
    """The benchmark cannot run at all (as opposed to a wrong output)."""


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail(values: list[float]) -> tuple[float, float]:
    """(p, value): the highest percentile with at least ten samples beyond
    it.  Below twenty samples none has; the median stands in, since the
    maximum of a few instances is set by which instances the seed drew."""
    for p in TAIL_LADDER:
        if len(values) * (100 - p) / 100 >= 10:
            return p, percentile(values, p)
    return 50.0, statistics.median(values)


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def outcome_digest(out_dir: Path, result: dict) -> str:
    """Configuration, placement and the timing-free trace rows of one run."""
    h = hashlib.sha256()
    h.update(json.dumps({"configuration": result["configuration"],
                         "placement": result["placement"]}, sort_keys=True).encode())
    h.update((out_dir / "trace.csv").read_bytes())
    return h.hexdigest()


def run_context(workload, seed: int, instances: list, skipped: list) -> dict:
    def git_commit() -> str:
        head = ROOT / ".git" / "HEAD"
        if not head.is_file():
            return "unknown"
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
        return "unknown"

    def cpu_model() -> str:
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or platform.machine()

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fado").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "workload": workload.name,
        "seed": seed,
        "generator_seeds": [inst.gen_seed for inst in instances],
        "skipped_infeasible_seeds": skipped,
    }


@dataclass(frozen=True)
class Instance:
    gen_seed: int
    inputs: Path  # device.json, design.json, qor.json
    out: Path  # fado optimize --out


class Runner:
    """Runs the workload's fado commands and gates their outcomes."""

    def __init__(self, workload):
        from workloads import call

        self.workload = workload
        self.call = call
        self.tracer = None
        self.meter = Meter()
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, inst: str, what: str) -> None:
        self.failures.append(f"{inst}: {what}")

    def command(self, label: str, argv: list[str], rec: dict):
        """Run one fado command, recording its wall seconds in ``rec``."""
        self.attempted += 1
        if self.tracer is None:
            rc, seconds, stdout, stderr = self.call(argv)
        else:
            with self.tracer.span(f"cli.{label}"):
                rc, seconds, stdout, stderr = self.call(argv)
        rec[label] = seconds
        rec[f"{label}_step"] = self.meter.after(label, seconds)
        return rc, stdout, stderr

    def instance(self, index: int, inst: Instance) -> dict:
        """Run the workload's commands on one instance and gate every outcome."""
        from fado import model, oracle
        from workloads import input_args

        name = f"{self.workload.name}[{index}]"
        inst_dir, out = inst.inputs, inst.out
        rec: dict = {}
        rc, _, err = self.command(
            "optimize", ["optimize", *input_args(inst_dir), "--out", str(out)], rec)
        if rc != 0:
            self.fail(name, f"optimize exited {rc}: {err.strip()}")
            return rec
        result = json.loads((out / "result.json").read_text())
        latency, baseline = result["design_latency"], result["baseline_latency"]
        rec.update(latency=latency, baseline=baseline, digest=outcome_digest(out, result))
        if latency > baseline:
            self.fail(name, f"design latency {latency} above baseline {baseline}")

        rc, _, err = self.command("check", ["check", "--result", str(out / "result.json")], rec)
        if rc != 0:
            self.fail(name, f"check exited {rc}: {err.strip()}")
        if not self.workload.oracle:
            return rec

        rc, stdout, err = self.command("oracle", ["oracle", *input_args(inst_dir)], rec)
        rec["oracle_out"] = stdout
        optimum = None
        if rc == 0:
            optimum = json.loads(stdout)["latency"]
            rec["optimum"] = optimum
            if optimum > latency:
                self.fail(name, f"oracle optimum {optimum} above search latency {latency}")
        elif rc == 1 and any(m in err for m in ORACLE_GUARD_MESSAGES):
            rec["refused"] = True
        elif rc == 3:
            rec["budget"] = True
        else:
            self.fail(name, f"oracle exited {rc}: {err.strip()}")

        rc, stdout, err = self.command(
            "verify", ["verify-optimal", "--result", str(out / "result.json")], rec)
        rec["verify_out"] = stdout
        if rc == 2:
            rec["counterexample"] = True
            ce = json.loads(stdout)["counterexample"]
            inputs = result["inputs"]
            graph = model.design_from_dict(inputs["design"])
            problems = oracle.certify(
                model.device_from_dict(inputs["device"]), graph,
                model.qor_from_dict(inputs["qor"], graph),
                ce["config"], {f: int(s) for f, s in ce["placement"].items()})
            if problems:
                self.fail(name, f"counterexample does not re-certify: {problems}")
            if ce["latency"] >= latency:
                self.fail(name, f"counterexample latency {ce['latency']} not below {latency}")
            if optimum is not None and optimum > ce["latency"]:
                self.fail(name, f"oracle optimum {optimum} above counterexample {ce['latency']}")
        elif rc not in (0, 3):
            self.fail(name, f"verify-optimal exited {rc}: {err.strip()}")
        return rec

    def run_pass(self, instances: list, reference: list | None) -> list[dict]:
        records = [self.instance(i, inst) for i, inst in enumerate(instances)]
        for i, (rec, ref) in enumerate(zip(records, reference or [])):
            for key in ("digest", "oracle_out", "verify_out"):
                if rec.get(key) != ref.get(key):
                    self.fail(f"{self.workload.name}[{i}]", f"{key} differs between passes")
        return records


def choose_instances(workload, seed: int, wdir: Path) -> tuple[list[Instance], list[int]]:
    """The run's instances, and the generator seeds skipped as infeasible
    when the workload screens its generator.

    Each output directory is left holding (empty) files of the names fado
    optimize writes, so the timed runs overwrite files rather than create
    them, as when re-running into one directory.  Creating files on a
    loaded machine varies by a quarter of a small instance's run time.
    """
    from workloads import call, generator_seeds, input_args, write_instance

    def screen(inputs: Path) -> int:
        rc, _, _, err = call(["optimize", *input_args(inputs), "--iter-cap", "0",
                              "--out", str(wdir / "screen")])
        if rc not in (0, 2):
            raise BenchError(f"optimize --iter-cap 0 on {inputs} exited {rc}: {err.strip()}")
        return rc

    seeds = generator_seeds(workload, seed)
    chosen, skipped = [], []
    while len(chosen) < workload.instances:
        if len(skipped) >= SCREEN_ATTEMPTS * workload.instances:
            raise BenchError(f"{len(skipped)} generator seeds were infeasible")
        gen_seed = next(seeds)
        name = f"i{len(chosen):03d}"
        inst = Instance(gen_seed, wdir / "in" / name, wdir / "out" / name)
        write_instance(workload, gen_seed, inst.inputs)
        if workload.screen and screen(inst.inputs) == 2:
            skipped.append(gen_seed)
            continue
        chosen.append(inst)

    if not workload.screen and screen(chosen[0].inputs) != 0:
        raise BenchError(f"optimize --iter-cap 0 on {chosen[0].inputs} found it infeasible")
    outputs = [p.name for p in (wdir / "screen").iterdir()]
    for inst in chosen:
        inst.out.mkdir(parents=True, exist_ok=True)
        for name in outputs:
            (inst.out / name).touch()
    return chosen, skipped


def time_setup(workload, instances: list[Instance], meter: Meter) -> list[dict]:
    """Write every instance's documents again; one timing record each."""
    from workloads import write_instance

    records = []
    for inst in instances:
        t0 = time.perf_counter()
        write_instance(workload, inst.gen_seed, inst.inputs)
        seconds = time.perf_counter() - t0
        records.append({"setup": seconds, "setup_step": meter.after("setup", seconds)})
    return records


def qor_numbers(records: list[dict]) -> dict:
    ok = [r for r in records if "digest" in r]
    solved = [r for r in ok if "optimum" in r]
    return {
        "qor_speedup": geomean([r["baseline"] / r["latency"] for r in ok]),
        "qor_gap": geomean([r["latency"] / r["optimum"] for r in solved]),
        "solved": len(solved),
        "refused": sum(1 for r in ok if r.get("refused")),
        "budget_exceeded": sum(1 for r in ok if r.get("budget")),
        "counterexamples": sum(1 for r in ok if r.get("counterexample")),
        "verified": len(ok),
        "counterexample_rate": sum(1 for r in ok if r.get("counterexample")) / max(1, len(ok)),
    }


def ref_seconds(rec: dict, label: str, meter: Meter) -> float:
    """A recorded step's wall seconds scaled to reference seconds."""
    if label not in rec:
        return 0.0
    return rec[label] * meter.factor(label, rec[f"{label}_step"])


def scaled(records: list[dict], meter: Meter, label: str) -> float:
    return sum(ref_seconds(r, label, meter) for r in records)


def end_to_end(workload, passes: list[list[dict]], setup_s: float,
               meter: Meter) -> tuple[dict, dict]:
    """(metric values, report-only figures) of an untraced run; times are
    per-instance medians over passes, in reference seconds."""
    per_inst = list(zip(*passes))

    def med(label):
        return [statistics.median(ref_seconds(r, label, meter) for r in runs)
                for runs in per_inst]

    opt = med("optimize")
    tail_p, tail_v = tail(opt)
    qor = qor_numbers(passes[0])
    metrics = {
        "setup_s": setup_s,
        "optimize_s": sum(opt),
        "optimize_p50_ms": statistics.median(opt) * 1e3,
        "optimize_tail_ms": tail_v * 1e3,
        "qor_speedup": qor["qor_speedup"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "speed_factor": meter.factor("optimize"),
        "optimize_wall_s": sum(statistics.median(r.get("optimize", 0.0) for r in runs)
                               for runs in per_inst),
        "tail_percentile": tail_p,
        "instances": len(per_inst),
        "samples_per_instance": len(passes),
        "check_s": sum(med("check")),
        **qor,
    }
    if workload.oracle:
        extra.update(oracle_s=sum(med("oracle")), verify_s=sum(med("verify")))
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fado" / "__init__.py").is_file():
        print(f"error: no fado sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import fado
    from workloads import WORKLOADS

    if Path(fado.__file__).resolve().parent != ROOT / "src" / "fado":
        print(f"error: imported fado from {fado.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    wdir = WORK / workload.name
    wdir.mkdir(parents=True, exist_ok=True)
    try:
        instances, skipped = choose_instances(workload, args.seed, wdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_meter = Meter()
    setups = [time_setup(workload, instances, setup_meter) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(scaled(run, setup_meter, "setup") for run in setups)
    context = run_context(workload, args.seed, instances, skipped)

    runner = Runner(workload)
    if args.trace:
        from tracing import Tracer, layer_metrics

        plain = runner.run_pass(instances, None)
        plain_meter = runner.meter
        tracer = Tracer()
        runner.tracer, runner.meter = tracer, Meter()
        with tracer.installed():
            traced = runner.run_pass(instances, plain)
        tracer.write(wdir / "spans.jsonl")
        factor = runner.meter.factor()
        untraced_s = scaled(plain, plain_meter, "optimize")
        traced_s = scaled(traced, runner.meter, "optimize")
        qor = qor_numbers(traced)
        metrics = {name: value * factor if unit(name) == "s" else value
                   for name, value in layer_metrics(tracer).items()}
        metrics.update({
            "trace.optimize_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "oracle_s": scaled(plain, plain_meter, "oracle"),
            "verify_s": scaled(plain, plain_meter, "verify"),
            "qor_gap": qor["qor_gap"],
            "counterexample_rate": qor["counterexample_rate"],
        })
        extra = {"speed_factor": factor, "untraced_optimize_s": untraced_s,
                 "spans": len(tracer.spans), **qor}
        digests = [r.get("digest", "") for r in traced]
        passes = [plain, traced]
    else:
        passes = []
        t0 = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            passes.append(runner.run_pass(instances, passes[0] if passes else None))
            now = time.perf_counter()
            if now - t0 + (now - t_pass) > args.seconds:
                break
        metrics, extra = end_to_end(workload, passes, setup_s, runner.meter)
        digests = [r.get("digest", "") for r in passes[0]]

    workload_digest = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    failed = len(runner.failures)
    report = {
        "context": context,
        "setup_wall_s_samples": [sum(r["setup"] for r in run) for run in setups],
        "attempted": runner.attempted,
        "failed": failed,
        "fail_frac": failed / runner.attempted,
        "failures": runner.failures,
        "calibration": runner.meter.steps,
        "setup_calibration": setup_meter.steps,
        "records": [[{k: v for k, v in r.items() if not k.endswith("_out")} for r in run]
                    for run in passes],
        "setup_records": setups,
        "workload_digest": workload_digest,
        "instance_digests": digests,
        "metrics": metrics,
        **extra,
    }
    (wdir / "report.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("context " + json.dumps({k: v for k, v in context.items() if k != "generator_seeds"}))
    for key, value in extra.items():
        print(f"  {key} {value} {unit(key)}")
    print(f"  fail_frac {report['fail_frac']} ({failed} of {runner.attempted} operations)")
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"  digest {workload_digest}")
    for name, value in metrics.items():
        print(f"  {name} {value} {unit(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit(name)}
            for name, value in metrics.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
