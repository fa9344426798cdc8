"""Mutants of the fado source that the tests must catch.

Each entry names a mutant, a file under ``src/fado``, an exact old text
that occurs in it once, the new text that replaces it, and the pytest node
ids expected to fail.  For each entry the runner copies ``src`` and
``tests`` to a temporary directory, applies the edit to the copy and runs
the listed tests there against the copied source; the mutant is caught
when at least one of them fails.  An old text that is missing, or that
occurs more than once, fails the runner by the mutant's name, so a change
that makes an entry stale rewrites or deletes it on purpose.  Before any
mutant, the listed tests must pass on an unchanged copy, so that a failure
is the mutant's.

Run it from anywhere with pytest and hypothesis installed:

    python tests/mutants.py

It prints one line per mutant and exits 1 when any is stale or not caught.
Hypothesis runs with seed 0, so a run is repeatable, and under the
``mutants`` profile (``tests/conftest.py``), which skips the shrink phase:
a failing property stops at its first failing example.  The name has no
``test_`` prefix, so pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ACCEPTANCE = "tests/test_acceptance.py::"
CLI = "tests/test_cli.py::"
FLOORPLAN = "tests/test_floorplan.py::"
INSTANCEGEN = "tests/test_instancegen.py::"
MODEL = "tests/test_model.py::"
PACKER = "tests/test_packer.py::"
PIPELINER = "tests/test_pipeliner.py::"
SEARCH = "tests/test_search.py::"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/fado
    old: str  # must occur in the file exactly once
    new: str
    tests: tuple  # pytest node ids, at least one of which must fail


MUTANTS = (
    Mutant("route-low-column-from-the-source", "model.py",
           "lo, hi = min(src.x, dst.x), max(src.x, dst.x)",
           "lo, hi = src.x, max(src.x, dst.x)",
           (PIPELINER + "test_a_route_counts_the_io_columns_it_crosses",
            PIPELINER + "test_allowed_halves_is_the_column_span",
            PIPELINER + "test_register_groups_map_only_the_edges_that_carry_them")),
    Mutant("even-on-zero-capacity-halves", "model.py",
           "min(caps) == max(caps) > 0", "min(caps) == max(caps)",
           (PIPELINER + "test_fold_takes_the_lowest_post_add_ratio_then_the_lower_column",
            PIPELINER + "test_an_even_boundary_folds_as_the_reference_rule")),
    Mutant("even-on-unequal-halves", "model.py",
           "min(caps) == max(caps) > 0", "min(caps) > 0",
           (PIPELINER + "test_an_even_boundary_folds_as_the_reference_rule",)),
    Mutant("boundary-budgets-ignore-sll-limit", "model.py",
           "budget = fit_budget(caps, self.sll_limit)", "budget = fit_budget(caps, 1.0)",
           (ACCEPTANCE + "test_09_wire_budget_blocks_a_capacity_feasible_move",
            PIPELINER + "test_a_fresh_build_folds_only_what_a_query_needs",
            PIPELINER + "test_feasible_folds_only_above_the_narrowest_half",
            PIPELINER + "test_the_accept_bound_is_the_narrowest_half")),
    Mutant("two-column-tie-to-the-higher-column", "pipeliner.py",
           "x = hi if loads[hi] < loads[lo] else lo",
           "x = hi if loads[hi] <= loads[lo] else lo",
           (PIPELINER + "test_colocated_then_moved_edge_gains_register_groups",
            PIPELINER + "test_fold_takes_the_lowest_post_add_ratio_then_the_lower_column",
            PIPELINER + "test_an_even_boundary_folds_as_the_reference_rule")),
    Mutant("failed-pack-leaves-its-moved-group", "packer.py",
           "state._place(group, sid)", "pass",
           (PACKER + "test_a_failed_pack_takes_back_the_move_it_kept",)),
    Mutant("dash-dash-equals-call-to-the-commands-parser", "cli.py",
           'if name in COMMANDS and not any(a.startswith("--=") for a in argv):',
           "if name in COMMANDS:",
           (CLI + "test_a_call_exits_as_in_the_whole_parser[check --result r.json --=x-50]",)),
    Mutant("fixed-formatter-width", "cli.py",
           "width=shutil.get_terminal_size().columns - 2)", "width=78)",
           (CLI + "test_a_call_builds_its_commands_parser_and_the_whole_one_only_for_leftovers",)),
    Mutant("region-bound-from-unfloored-budgets", "floorplan.py",
           "budget_a, budget_b = device.holds(side_a), device.holds(side_b)",
           "budget_a, budget_b = (tuple(map(sum, zip(*(device.slot_budget[s.id] for s in side))))"
           " for side in (side_a, side_b))",
           (FLOORPLAN + "test_min_cut_gives_a_region_only_what_its_slots_hold[2-2]",)),
    Mutant("largest-first-by-summed-resources", "floorplan.py",
           "key=lambda g: (-max(sizes[g.gid]), g.gid)", "key=lambda g: (-sum(sizes[g.gid]), g.gid)",
           (FLOORPLAN + "test_largest_first_orders_by_the_largest_single_count",)),
    Mutant("plan-keeps-only-the-first-predecessor", "model.py",
           "pred_at = [tuple(sorted(at[p] for p in preds[k])) for k in order]",
           "pred_at = [tuple(sorted(at[p] for p in preds[k]))[:1] for k in order]",
           (MODEL + "test_design_latency_matches_brute_force",
            MODEL + "test_longest_path_by_chain_runs_matches_a_per_kernel_walk")),
    Mutant("trace-row-keeps-the-previous-maxima-after-moves", "search.py",
           "max_util=state.max_utilization(),\n"
           "            max_sll_util=state.sll.max_utilization(),",
           "max_util=trace[-1].max_util if trace and moves else state.max_utilization(),\n"
           "            max_sll_util=trace[-1].max_sll_util if trace and moves"
           " else state.sll.max_utilization(),",
           (SEARCH + "test_every_rows_maxima_match_a_recompute[stress-quad]",
            SEARCH + "test_every_row_keeps_the_search_invariants",
            SEARCH + "test_search_outcome_is_pinned")),
    Mutant("moving-endpoint-routed-from-its-old-slot", "pipeliner.py",
           "at.get(e.dst, placement[e.dst])", "placement[e.dst]",
           (PACKER + "test_a_move_that_fills_the_reject_bound_exactly_is_applied",
            PIPELINER + "test_moved_leaves_its_source_as_it_was",
            PIPELINER + "test_moved_leaves_its_source_and_matches_recompute")),
    Mutant("moved-state-kept-without-asking-feasible", "pipeliner.py",
           "return new if new.feasible() else None", "return new",
           (PACKER + "test_a_move_within_the_reject_bound_that_overflows_a_half_is_refused",
            PACKER + "test_a_trial_builds_and_asks_one_new_state",
            PIPELINER + "test_moved_leaves_its_source_and_matches_recompute")),
    Mutant("reject-bound-refuses-a-move-that-fills-it", "pipeliner.py",
           "total[y] + d > table[y][2]", "total[y] + d >= table[y][2]",
           (PACKER + "test_a_move_that_fills_the_reject_bound_exactly_is_applied",)),
    Mutant("preset-slots-numbered-column-major", "instancegen.py",
           '"id": y * width + x', '"id": x * 2 + y',
           (INSTANCEGEN + "test_gen_stress_is_pinned[0]",
            INSTANCEGEN + "test_gen_output_is_pinned[mixed-0]")),
    Mutant("lut-budget-of-one-slot", "instancegen.py",
           'device["slots"][0]["capacity"]["lut"] * len(device["slots"])',
           'device["slots"][0]["capacity"]["lut"]',
           (INSTANCEGEN + "test_gen_stress_is_pinned[0]",
            INSTANCEGEN + "test_gen_output_is_pinned[small-0]")),
    Mutant("boundary-capacities-in-reversed-column-order", "model.py",
           "tuple(halves[x] for x in range(width))",
           "tuple(halves[x] for x in reversed(range(width)))",
           (MODEL + "test_die_boundaries_hold_each_rows_capacities_in_column_order",
            PIPELINER + "test_the_accept_bound_is_the_narrowest_half")),
)


def _pytest(workdir: Path, tests) -> subprocess.CompletedProcess:
    """The listed tests run in ``workdir`` against its copy of ``src``: seed
    0 and no shrinking, stopping at the first failure, with nothing cached
    in the checkout."""
    env = {**os.environ, "PYTHONPATH": str(workdir / "src")}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", "--hypothesis-profile=mutants", *tests],
        cwd=workdir, env=env, capture_output=True, text=True)


def _copy(workdir: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, workdir / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", workdir)


def _verdict(mutant: Mutant) -> str | None:
    """None when the mutant is caught, else why it is not."""
    with tempfile.TemporaryDirectory(prefix="fado-mutant-") as tmp:
        workdir = Path(tmp)
        _copy(workdir)
        path = workdir / "src" / "fado" / mutant.file
        text = path.read_text(encoding="utf-8")
        count = text.count(mutant.old)
        if count != 1:
            return f"its old text occurs {count} times in src/fado/{mutant.file}, not once"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        proc = _pytest(workdir, mutant.tests)
    if proc.returncode == 1:
        return None
    if proc.returncode == 0:
        return "every listed test passed"
    return f"pytest exited {proc.returncode}: {proc.stdout.strip()[-300:]}"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="fado-mutant-") as tmp:
        _copy(Path(tmp))
        tests = sorted({t for m in MUTANTS for t in m.tests})
        proc = _pytest(Path(tmp), tests)
    if proc.returncode != 0:
        print(proc.stdout, proc.stderr, sep="\n")
        print("the listed tests do not all pass on the unchanged source")
        return 1
    missed = 0
    for mutant in MUTANTS:
        why = _verdict(mutant)
        print(f"caught  {mutant.name}" if why is None else f"FAILED  {mutant.name}: {why}")
        missed += why is not None
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
