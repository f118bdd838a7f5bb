#!/usr/bin/env python3
"""Benchmark of the paulishift command line.

Run from the repository root:

    python3 perfbench/run.py --workload fig5-mse --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from ``--seed`` (see workloads.py) and
the ``paulishift`` CLI from ``src/`` runs on them in fresh processes, one
after another (a closed loop with one client; ``mse-curves`` gets
``--workers 1``). BLAS threads are left as the environment sets them, and
the thread variables are recorded. One run:

1. an untimed warm-up invocation, whose CSV becomes the run's reference and
   is also checked against the independent recomputation in reference.py;
2. for ``--seconds`` seconds (and at least three times), with ``--trace 0``
   a set-up probe (probe.py) followed by a timed invocation, or with
   ``--trace 1`` a traced invocation (traced_cli.py) followed by an
   untraced one.

Every invocation's outputs are checked, and its CSV must match the
reference byte for byte; a nonzero exit or a failed check counts as failed.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (layers.py) with ``--trace 1``. Timings are medians over
the run. Details, the environment block and the per-invocation records go to
``.perfbench/<workload>-trace<T>/result.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
from workloads import WORKLOADS, Generated, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench"
MIN_TIMED = 3
TIMEOUT_S = 30.0  # per process; invocations take a few seconds
OVERRUN_S = 60.0  # past --seconds, stop even if MIN_TIMED is not reached
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("items_per_s", "1/s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB")]


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a result."""


@dataclass
class Proc:
    started: float  # time.monotonic() just before the spawn
    wall_s: float
    cpu_s: float  # user + sys of the process and the children it waited for
    peak_rss_mb: float
    exit_code: int


def spawn(args: list[str], log: Path) -> Proc:
    """Run ``python3 <args>`` with src/ importable; stdout+stderr to log."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(log),
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    started = time.monotonic()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                         file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        if not select.select([pidfd], [], [], TIMEOUT_S)[0]:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.monotonic() - started
    return Proc(started=started, wall_s=wall,
                cpu_s=usage.ru_utime + usage.ru_stime,
                peak_rss_mb=usage.ru_maxrss / 1024.0,
                exit_code=os.waitstatus_to_exitcode(status))


@dataclass
class Invocation:
    proc: Proc
    traced: bool
    errors: list[str]
    per_layer: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors


def check_output(workload: Workload, gen: Generated, out: Path,
                 reference: bytes | None) -> list[str]:
    """Output errors of one invocation; reference=None marks the warm-up."""
    errors = workload.check(gen, out)
    if errors:
        return errors
    csv_bytes = (out / gen.csv_name).read_bytes()
    if reference is not None and csv_bytes != reference:
        errors.append(f"{gen.csv_name} differs from the run's first "
                      "invocation on the same inputs")
    return errors


class Runner:
    """Invocations of one workload's generated inputs within one run."""

    def __init__(self, workload: Workload, gen: Generated, run_dir: Path,
                 seed: int):
        self.workload = workload
        self.gen = gen
        self.run_dir = run_dir
        self.seed = seed
        self.reference: bytes | None = None
        self.invocations: list[Invocation] = []

    def probe(self) -> float:
        log = self.run_dir / "probe.log"
        proc = spawn([str(HERE / "probe.py"), *self.gen.argv], log)
        text = log.read_text().split()
        if proc.exit_code != 0 or not text:
            raise BenchError(f"set-up probe failed: {log.read_text()}")
        return float(text[-1]) - proc.started

    def invoke(self, traced: bool) -> Invocation:
        name = f"inv{len(self.invocations):03d}"
        out = self.run_dir / name
        out.mkdir()
        spans = self.run_dir / "spans.npz"
        cli_args = [*self.gen.argv, "--out", str(out)]
        args = ([str(HERE / "traced_cli.py"), str(spans), "--", *cli_args]
                if traced else ["-m", "paulishift.cli", *cli_args])
        proc = spawn(args, self.run_dir / f"{name}.log")
        inv = Invocation(proc=proc, traced=traced, errors=[])
        if proc.exit_code != 0:
            inv.errors.append(f"exit code {proc.exit_code}")
        else:
            inv.errors = check_output(self.workload, self.gen, out,
                                      self.reference)
        if inv.ok and self.reference is None:
            inv.errors = self.workload.deep_check(self.gen, out, self.seed)
            if inv.ok:
                self.reference = (out / self.gen.csv_name).read_bytes()
        if inv.ok and traced:
            size = sum(p.stat().st_size for p in out.iterdir())
            inv.per_layer = layers.layer_metrics(layers.Spans(spans), size)
        if inv.ok and len(self.invocations) > 0:
            shutil.rmtree(out)
            (self.run_dir / f"{name}.log").unlink()
        self.invocations.append(inv)
        return inv


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "loadavg_before": list(os.getloadavg()),
    }


def measure(workload: Workload, seed: int, seconds: int, trace: bool,
            size: dict | None = None) -> dict:
    """One benchmark run; returns the result document."""
    run_dir = RUNS / f"{workload.name}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    env = environment()
    gen = workload.generate(seed, run_dir / "inputs", size or workload.size)
    runner = Runner(workload, gen, run_dir, seed)
    runner.invoke(traced=False)  # untimed warm-up and reference

    setups: list[float] = []
    timed: list[Invocation] = []
    traced: list[Invocation] = []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or (
            len(timed) < MIN_TIMED
            and time.monotonic() < deadline + OVERRUN_S):
        if trace:
            traced.append(runner.invoke(traced=True))
        else:
            setups.append(runner.probe())
        timed.append(runner.invoke(traced=False))
    env["loadavg_after"] = list(os.getloadavg())

    good = [i.proc for i in timed if i.ok]
    if not good or (trace and not any(i.ok for i in traced)):
        raise BenchError("no invocation succeeded; see the logs in "
                         f"{run_dir}")
    stats: dict[str, tuple] = {}
    if trace:
        layer_runs = [i for i in traced if i.ok]
        for name, _ in layers.METRICS[:-1]:
            stats[name] = quartiles([i.per_layer[name] for i in layer_runs])
        overheads = statistics.median(i.proc.wall_s for i in layer_runs) \
            - statistics.median(p.wall_s for p in good)
        stats["trace.overhead_s"] = (overheads, overheads, overheads)
        units = layers.UNITS
        count = len(layer_runs)
    else:
        setup = statistics.median(setups)
        stats["setup_s"] = quartiles(setups)
        stats["run_s"] = quartiles([p.wall_s for p in good])
        stats["items_per_s"] = quartiles(
            [gen.items / (p.wall_s - setup) for p in good])
        stats["cpu_s"] = quartiles([p.cpu_s for p in good])
        stats["peak_rss_mb"] = quartiles([p.peak_rss_mb for p in good])
        units = dict(END_TO_END)
        count = len(good)

    invocations = runner.invocations
    failed = sum(not i.ok for i in invocations)
    result = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "why": workload.why,
        "input": {"items": gen.items, "items_unit": workload.items_unit,
                  "argv": list(gen.argv), "params": gen.params},
        "environment": env,
        "stats": {name: {"unit": units[name], "median": s[0], "q1": s[1],
                         "q3": s[2], "count": count}
                  for name, s in stats.items()},
        "attempted": len(invocations), "failed": failed,
        "failed_fraction": failed / len(invocations),
        "errors": [e for i in invocations for e in i.errors],
        "invocations": [{"traced": i.traced, "wall_s": i.proc.wall_s,
                         "cpu_s": i.proc.cpu_s,
                         "peak_rss_mb": i.proc.peak_rss_mb,
                         "exit_code": i.proc.exit_code, "errors": i.errors}
                        for i in invocations],
    }
    if trace:
        result["spans"] = str(run_dir / "spans.npz")
    (run_dir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def report(result: dict) -> str:
    """Human-readable table followed by the one-line JSON result."""
    inp = result["input"]
    lines = [f"workload {result['workload']} seed {result['seed']}: "
             f"{inp['items']} {inp['items_unit']} per invocation "
             f"({' '.join(inp['argv'][:1])})",
             "environment " + json.dumps(result["environment"],
                                         sort_keys=True),
             f"{'metric':40s} {'unit':6s} {'median':>14s} {'q1':>14s} "
             f"{'q3':>14s} {'n':>3s}"]
    for name, s in result["stats"].items():
        lines.append(f"{name:40s} {s['unit']:6s} {s['median']:14.6g} "
                     f"{s['q1']:14.6g} {s['q3']:14.6g} {s['count']:3d}"
                     + (f"  at {inp['items']} {inp['items_unit']}"
                        if name == "items_per_s" else ""))
    lines.append(f"{'failed_fraction':40s} {'ratio':6s} "
                 f"{result['failed_fraction']:14.6g} "
                 f"({result['failed']}/{result['attempted']} invocations)")
    if "spans" in result:
        lines.append(f"spans of the last traced invocation: {result['spans']}")
    for error in result["errors"]:
        lines.append(f"FAILED: {error}")
    summary = {"correct": result["failed"] == 0,
               "attempted": result["attempted"], "failed": result["failed"],
               "metrics": {name: {"value": s["median"], "unit": s["unit"]}
                           for name, s in result["stats"].items()}}
    lines.append(json.dumps(summary))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "paulishift" / "cli.py").is_file():
        print(f"error: {SRC / 'paulishift'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
