"""Command-line front end: analytic tables, Monte Carlo runs, verification.

Subcommands:

* ``analytic``   - tabulate closed-form MSEs and optimal parameters (or, with
  ``--nstar``, the crossover copy numbers) over grids of dimension, rate and
  copy budget;
* ``mse-curves`` - run the Monte Carlo MSE experiment described by a config
  file and write a CSV curve per (target, scheme, copy budget);
* ``dist``       - sample the clean/noise-mixed function distributions of a
  config's ensemble;
* ``verify``     - run the built-in invariant suite and report pass/fail.

File outputs land in ``--out`` (default: $PAULISHIFT_OUTDIR or the working
directory), made and checked before any run. Every file-producing run writes
a manifest JSON naming its outputs, the config hash and the tool version;
``mse-curves`` and ``dist`` share ``_run_config`` and differ in their CSVs.
CSV floats are printed with 17 significant digits; given the same config and
seed the bytes are identical for any worker count.

Exit codes: 0 success, 1 experiment or invariant failure, 2 usage or config
error, or an output that cannot be written.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import hashlib
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass

# One BLAS thread unless the user chose a count: runs parallelise through
# --workers. OpenBLAS reads the variable once, when numpy first loads.
_THREAD_VARS = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"}
if "numpy" not in sys.modules and not _THREAD_VARS & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__, analytics
from .estimators import DiagHessian, Gradient, OffDiagHessian, target_kind

_TARGET_NAMES = {"gradient": Gradient, "diag": DiagHessian,
                 "offdiag": OffDiagHessian}
# analytic tables stop at d = 2^200 and N = 10^300: the closed forms
# overflow a float somewhere between 2^200 and 2^210, and near N = 10^308.
_MAX_QUBITS = 200
_MAX_COPIES = 10 ** 300
# A range is counted before it is built. Each entry is a CSV row per target
# and scheme: 10^4 is past any plotted curve, and more is a slip of a digit.
_MAX_GRID_ENTRIES = 10_000


def _fmt(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _out_path(args, name: str, prefix: bool = False) -> str:
    """``name`` in the out dir, made if missing; OSError if either fails, or
    if ``name`` is a directory there and not a file-name ``prefix``."""
    out = getattr(args, "out", None) or os.environ.get("PAULISHIFT_OUTDIR",
                                                       ".")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    if not os.path.isdir(os.path.dirname(path)):
        raise FileNotFoundError(f"no directory for {path!r}")
    if not prefix and os.path.isdir(path):
        raise IsADirectoryError(f"{path!r} is a directory")
    return path


def _write_rows(fh, header: list[str], rows: list[list]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        _write_rows(fh, header, rows)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


@dataclass
class RunManifest:
    config_hash: str
    master_seed: int | None
    started: str
    finished: str
    outputs: list[str]
    extra: dict

    def write(self, path: str) -> None:
        doc = {"config_hash": self.config_hash,
               "master_seed": self.master_seed,
               "tool_version": __version__,
               "started": self.started,
               "finished": self.finished,
               "outputs": self.outputs}
        doc.update(self.extra)
        with open(path, "w") as fh:  # RFC 8259 JSON: no NaN or infinity
            json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


# ── grid parsing ─────────────────────────────────────────────────────────────

def parse_int_grid(text: str) -> list[int]:
    """Comma list ("96,960") or inclusive range ("96:960" / "96:9600:96")."""
    text = text.strip()
    if not text:
        raise ValueError("empty grid")
    if ":" in text:
        parts = text.split(":")
        if len(parts) == 2:
            start, stop, step = int(parts[0]), int(parts[1]), 1
        elif len(parts) == 3:
            start, stop, step = (int(p) for p in parts)
        else:
            raise ValueError(f"bad range syntax {text!r}")
        if step <= 0 or stop < start:
            raise ValueError(f"bad range {text!r}")
        count = (stop - start) // step + 1
        if count > _MAX_GRID_ENTRIES:
            raise ValueError(f"range {text!r} has {count} entries, above "
                             f"the cap of {_MAX_GRID_ENTRIES}")
        return list(range(start, stop + 1, step))
    return [int(p) for p in text.split(",")]


def parse_name_list(text: str) -> tuple[str, ...]:
    """Comma list of names ("gradient, diag"), each stripped."""
    return tuple(p.strip() for p in text.split(","))


def parse_targets(text: str) -> tuple[str, ...]:
    """Comma list of target kinds from gradient, diag and offdiag."""
    names = parse_name_list(text)
    for name in names:
        if name not in _TARGET_NAMES:
            raise ValueError(f"unknown target {name!r}")
    return names


def parse_float_list(text: str) -> list[float]:
    values = [float(p) for p in text.strip().split(",") if p.strip()]
    if not values:
        raise ValueError("empty list")
    return values


# ── config files ─────────────────────────────────────────────────────────────

def _boolean(text: str) -> bool:
    """configparser's boolean words, in any letter case."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"{text!r} is not one of 1, yes, true, on, "
                         "0, no, false, off") from None


def load_config(path: str):
    """Parse an INI experiment config; returns (config, error list).

    Errors carry ``section.key`` field paths. A non-empty error list means
    the config is unusable and ``config`` is None. A key that is never read
    is an error, so a misspelt key or section cannot go unnoticed. Values
    are literal (no % interpolation); a file that cannot be decoded or
    parsed is one error.
    """
    from . import harness
    parser = configparser.ConfigParser(interpolation=None)
    errors: list[str] = []
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeError) as exc:
        return None, [" ".join(str(exc).split())]
    if not read:
        return None, [f"{path}: cannot read config file"]
    known: set[tuple[str, str]] = set()

    def take(section, key, conv, default=None, required=False):
        known.add((section, parser.optionxform(key)))
        try:
            raw = parser.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            if required:
                errors.append(f"{section}.{key}: required")
            return default
        try:
            return conv(raw)
        except (ValueError, TypeError) as exc:
            errors.append(f"{section}.{key}: {exc}")
            return default

    n = take("circuit", "n", int, required=True)
    L = take("circuit", "L", int, required=True)
    kind = take("noise", "kind", str, default="none")
    rate = take("noise", "rate", float, default=0.0)
    redraw = take("noise", "redraw_weights", _boolean, default=False)
    grid = take("experiment", "nt_grid", parse_int_grid, required=True)
    sets = take("experiment", "parameter_sets", int, required=True)
    exps = take("experiment", "experiments_per_set", int, required=True)
    seed = take("experiment", "master_seed", int, required=True)
    schemes = take("experiment", "schemes", parse_name_list,
                   default=analytics.SCHEMES)
    targets = take("experiment", "targets", parse_targets,
                   default=tuple(_TARGET_NAMES))
    errors += [f"{section}.{key}: unknown key"
               for section in parser.sections()
               for key in parser.options(section)
               if (section, key) not in known]
    if errors:
        return None, errors
    try:
        spec = harness.NoiseSpec(kind=kind, rate=rate, redraw_weights=redraw)
    except ValueError as exc:
        return None, [f"noise: {exc}"]
    try:
        config = harness.ExperimentConfig(
            n=n, L=L, noise=spec, nt_grid=tuple(grid), parameter_sets=sets,
            experiments_per_set=exps, master_seed=seed,
            schemes=schemes,
            targets=tuple(_TARGET_NAMES[t]() for t in targets))
    except ValueError as exc:
        return None, [f"config: {exc}"]
    return config, []


def config_to_dict(config) -> dict:
    """Every ExperimentConfig field, the targets by kind, the one axis pattern
    (zyz) and the observable: the manifest's resolved config and hash input."""
    return dict(dataclasses.asdict(config), axis_pattern="zyz",
                targets=[target_kind(t) for t in config.targets],
                observable=config.observable().letters)


# ── analytic command ─────────────────────────────────────────────────────────

def _crossing(fn, kind: str, d: int, eta: float):
    """A crossover copy number, or an empty cell when there is none."""
    try:
        return fn(kind, d, eta)
    except analytics.CrossoverNotFound:
        return ""


def cmd_analytic(args) -> int:
    if bool(args.d) == bool(args.n):
        raise ValueError("give exactly one of --d and --n")
    dims = (parse_int_grid(args.d) if args.d
            else [2 ** q for q in parse_int_grid(args.n)])
    etas = parse_float_list(args.eta)
    if not (args.nstar or args.nt):
        raise ValueError("need --nt for the MSE table")
    grid = [] if args.nstar else parse_int_grid(args.nt)
    targets = list(_TARGET_NAMES if args.targets == "all"
                   else parse_targets(args.targets))
    bad = ([f"duplicate target {t!r}" for i, t in enumerate(targets)
            if t in targets[:i]]
           + [f"eta {e} outside [0, 1)" for e in etas if not 0 <= e < 1]
           + [f"dimension {d} below 2" for d in dims if d < 2]
           + [f"dimension above the cap 2^{_MAX_QUBITS}" for d in dims
              if d > 2 ** _MAX_QUBITS]
           + [f"copy budget {nt} below 1" for nt in grid if nt < 1]
           + ["copy budget above the cap 10^300" for nt in grid
              if nt > _MAX_COPIES])
    if bad:
        raise ValueError(bad[0])

    path = _out_path(args, args.csv) if args.csv else None
    started = _now()
    cells = list(itertools.product(targets, dims, etas))
    if args.nstar:
        header = ["target", "d", "eta", "n_star_sps_exact",
                  "n_star_sps_small_eta", "n_star_fd"]
        rows = [[kind, d, eta] + [_crossing(fn, kind, d, eta) for fn in (
            analytics.n_star_sps_exact, analytics.n_star_sps_small_eta,
            analytics.n_star_fd)] for kind, d, eta in cells]
    else:
        header = ["target", "d", "eta", "n_total", "scheme", "param",
                  "mse_finite", "mse_approx", "mse_total"]
        rows = []
        for (kind, d, eta), nt, scheme in itertools.product(
                cells, grid, analytics.SCHEMES):
            value, mse = analytics.scheme_mse(scheme, kind, d, nt, eta)
            rows.append([kind, d, eta, nt, scheme, value, mse.finite_copy,
                         mse.approximation, mse.total])

    if path:
        _write_csv(path, header, rows)
        manifest = RunManifest(
            config_hash=config_digest({"command": "analytic",
                                       "targets": targets, "dims": dims,
                                       "etas": etas, "grid": grid,
                                       "nstar": bool(args.nstar)}),
            master_seed=None, started=started, finished=_now(),
            outputs=[os.path.basename(path)], extra={})
        manifest.write(path + ".manifest.json")
    else:
        _write_rows(sys.stdout, header, rows)
    return 0


# ── config commands: mse-curves and dist ─────────────────────────────────────

def _run_config(args, run, write) -> int:
    """Load ``args.config``, make the out dir and ``run(config)``. Then
    ``write(result, config, prefix)`` writes CSVs named prefix + suffix
    (prefix: the config's stem in the out dir) and returns their paths, the
    manifest's extras and a note for the summary line."""
    config, errors = load_config(args.config)
    if errors:
        for e in errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2
    prefix = _out_path(args, os.path.splitext(
        os.path.basename(args.config))[0], prefix=True)
    started = _now()
    paths, extra, note = write(run(config), config, prefix)
    resolved = config_to_dict(config)
    manifest = RunManifest(
        config_hash=config_digest(resolved), master_seed=config.master_seed,
        started=started, finished=_now(),
        outputs=[os.path.basename(p) for p in paths],
        extra=dict(extra, config=resolved))
    manifest.write(prefix + ".manifest.json")
    print(f"wrote {paths[0]}{note}")
    return 0


def _write_mse(results, config, prefix: str):
    path = prefix + "_mse.csv"
    _write_csv(path, ["target", "scheme", "n_total", "mse_mean",
                      "mse_stderr"],
               [[target_kind(r.target), r.scheme, r.n_total, r.mean, r.stderr]
                for r in results])
    return [path], {"eta_total": config.eta_total()}, ""


def cmd_mse_curves(args) -> int:
    from . import harness
    return _run_config(args, lambda config: harness.monte_carlo_mse(
        config, workers=args.workers), _write_mse)


def _weights_hash(weights) -> str:
    return config_digest([_fmt(w) for w in weights])[:16]


def _write_dist(summary, config, prefix: str):
    dist_path = prefix + "_dist.csv"
    rows = [[i, f, g] for i, (f, g) in
            enumerate(zip(summary.f_samples, summary.g_samples))]
    _write_csv(dist_path, ["set_index", "f", "g"], rows)

    edges = np.linspace(-1.0, 1.0, 41)
    count_f, _ = np.histogram(summary.f_samples, bins=edges)
    count_g, _ = np.histogram(summary.g_samples, bins=edges)
    hist_path = prefix + "_hist.csv"
    _write_csv(hist_path, ["bin_left", "bin_right", "count_f", "count_g"],
               [[edges[i], edges[i + 1], int(count_f[i]), int(count_g[i])]
                for i in range(len(count_f))])

    extra = {"eta_total": summary.eta_total, "var_f": summary.var_f,
             "var_g": summary.var_g, "r_var": summary.r_var}
    if config.noise.kind == "cnot_pauli":
        hashes = [_weights_hash(c.weights) for c in summary.channels]
        if config.noise.redraw_weights:
            extra["weights_hashes"] = hashes
        else:
            extra["weights_hash"] = hashes[0]
    r = "undefined" if summary.r_var is None else f"{summary.r_var:.4g}"
    return [dist_path, hist_path], extra, (
        f" (eta_total={summary.eta_total:.6g}, var_f={summary.var_f:.4g}, "
        f"var_g={summary.var_g:.4g}, r_var={r})")


def cmd_dist(args) -> int:
    from . import harness
    return _run_config(args, harness.distribution_study, _write_dist)


# ── verify command ───────────────────────────────────────────────────────────

def cmd_verify(args) -> int:
    from . import invariants
    path = _out_path(args, args.json) if args.json else None
    rng = np.random.default_rng(invariants.SEED)
    report = []
    for row in invariants.CRITERIA:
        if row.verify is None or (args.quick and not row.quick):
            continue
        t0 = time.perf_counter()
        try:
            ok, detail = row.check(row.verify, rng)
        except Exception as exc:  # a crashed invariant is a failed invariant
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        report.append({"name": row.name, "passed": bool(ok), "detail": detail,
                       "seconds": round(seconds, 3)})
        print(f"{'PASS' if ok else 'FAIL'} {row.name}: {detail} "
              f"({seconds:.2f}s)")
    all_ok = all(r["passed"] for r in report)
    doc = {"passed": all_ok, "quick": bool(args.quick),
           "tool_version": __version__, "seed": invariants.SEED,
           "invariants": report}
    if path:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        print(f"wrote {path}")
    return 0 if all_ok else 1


# ── entry point ──────────────────────────────────────────────────────────────

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulishift",
        description="Noisy-circuit derivative estimator benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analytic",
                          help="tabulate closed-form MSEs and parameters")
    p_an.add_argument("--targets", default="all",
                      help="comma list of gradient,diag,offdiag (default all)")
    p_an.add_argument("--d", help="Hilbert dimensions, e.g. 4,16")
    p_an.add_argument("--n", help="qubit counts, e.g. 2:8 (d = 2^n)")
    p_an.add_argument("--eta", required=True,
                      help="total error rates, comma list")
    p_an.add_argument("--nt", help="copy grid, e.g. 96:9600:96")
    p_an.add_argument("--nstar", action="store_true",
                      help="tabulate crossover copy numbers instead of MSEs")
    p_an.add_argument("--csv", help="output CSV filename (default stdout)")
    p_an.add_argument("--out", help="output directory")
    p_an.set_defaults(fn=cmd_analytic)

    p_mse = sub.add_parser("mse-curves",
                           help="Monte Carlo MSE curves from a config file")
    p_mse.add_argument("config")
    p_mse.add_argument("--workers", type=int, default=1)
    p_mse.add_argument("--out", help="output directory")
    p_mse.set_defaults(fn=cmd_mse_curves)

    p_dist = sub.add_parser("dist",
                            help="sample f/g distributions from a config")
    p_dist.add_argument("config")
    p_dist.add_argument("--out", help="output directory")
    p_dist.set_defaults(fn=cmd_dist)

    p_ver = sub.add_parser("verify", help="run the invariant suite")
    p_ver.add_argument("--quick", action="store_true",
                       help="closed-form invariants only")
    p_ver.add_argument("--json", help="also write a JSON report (filename)")
    p_ver.add_argument("--out", help="output directory")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one command. Bad input, a run too large to hold and an output
    that cannot be written each end in one ``error:`` line and exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
