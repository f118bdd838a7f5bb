"""Fast self-test of the benchmark, run from the repository root:

    python3 perfbench/smoke.py

Runs every workload at a tiny size with tracing off and on, and checks that
the report prints each metric of BENCHMARK.json with its unit, that a
corrupted output counts as a failed invocation, and that the benchmark
refuses to run without the program's sources. Exits nonzero on failure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS

TINY = {
    "fig5-mse": {"parameter_sets": 2, "experiments_per_set": 20},
    "pauli-dist-n6": {"n": 3, "parameter_sets": 4},
    "nstar-analytic": {"rates": 1, "max_qubits": 3},
}


def check_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}, "workloads differ"
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for name, workload in WORKLOADS.items():
            text = run.report(run.measure(workload, seed=1, seconds=1,
                                          trace=trace, size=TINY[name]))
            lines = text.splitlines()
            summary = json.loads(lines[-1])
            assert summary["correct"] and summary["failed"] == 0, text
            printed = {k: v["unit"] for k, v in summary["metrics"].items()}
            assert printed == expected, (name, key, printed)
            for metric, unit in expected.items():
                assert any(line.split()[:2] == [metric, unit]
                           for line in lines), (name, metric)
            assert any(line.startswith("failed_fraction") for line in lines)
            print(f"ok   {name} trace={int(trace)}: {len(expected)} metrics")


def _change_digit(text: str) -> str:
    """Still a valid table; only the byte comparison can notice."""
    return text.replace("1", "2", 1)


def _move_crossover(text: str) -> str:
    """Moves the first n_star_sps_exact off the root of the MSE equation."""
    lines = text.splitlines(keepends=True)
    cells = lines[1].split(",")
    cells[3] = repr(float(cells[3]) * 1.01)
    lines[1] = ",".join(cells)
    return "".join(lines)


def check_corruption() -> None:
    """Damage one timed invocation's CSV; the run must count it failed."""
    real_spawn = run.spawn
    for name, damage in (("fig5-mse", _change_digit),
                         ("nstar-analytic", _move_crossover)):
        spawned = []

        def corrupting_spawn(args, log):
            proc = real_spawn(args, log)
            if "--out" in args:
                spawned.append(args)
                if len(spawned) == 2:
                    out = Path(args[args.index("--out") + 1])
                    csv = next(out.glob("*.csv"))
                    csv.write_text(damage(csv.read_text()))
            return proc

        run.spawn = corrupting_spawn
        try:
            result = run.measure(WORKLOADS[name], seed=1, seconds=1,
                                 trace=False, size=TINY[name])
        finally:
            run.spawn = real_spawn
        summary = json.loads(run.report(result).splitlines()[-1])
        assert summary["failed"] == 1 and not summary["correct"], summary
        print(f"ok   {name}: corrupted output counted as failed "
              f"({result['errors'][0]})")


def check_refuses_without_sources() -> None:
    bare = run.RUNS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "fig5-mse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout, proc
    print("ok   refuses to run without src/ (exit "
          f"{proc.returncode})")


if __name__ == "__main__":
    check_metrics()
    check_corruption()
    check_refuses_without_sources()
    print("smoke test passed")
