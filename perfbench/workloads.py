"""The benchmark's workloads: inputs generated from a seed, and output checks.

Each workload turns ``--seed`` into the files and arguments of one
``paulishift`` command. The command only ever sees those generated inputs.
Every invocation's outputs are checked here: CSV schema, row count and
values, the manifest's config hash against a hash computed from the
generator's own parameters, and (once per run, on the reference invocation)
a recomputation in ``reference``.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference

KINDS = ("gradient", "diag", "offdiag")
SCHEMES = ("ps", "nsps", "hsps", "nfd", "hfd")
DIST_SAMPLED_SETS = 3
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Generated:
    """One seed's inputs: CLI arguments (``--out`` is added per invocation)."""

    argv: tuple[str, ...]
    csv_name: str  # compared byte for byte across a run's invocations
    items: int
    params: dict
    expected_hash: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    items_unit: str
    size: dict
    generate: Callable[[int, Path, dict], Generated]
    check: Callable[[Generated, Path], list[str]]
    deep_check: Callable[[Generated, Path, int], list[str]] = field(
        default=lambda gen, out, seed: [])


def config_digest(obj) -> str:
    """sha256 of canonical JSON, the manifest's documented config hash."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _master_seed(seed: int) -> int:
    return random.Random(f"master:{seed}").randrange(1, 2 ** 31)


def _write_config(path: Path, cfg: dict) -> None:
    noise = (f"kind = {cfg['noise']['kind']}\nrate = {cfg['noise']['rate']!r}\n"
             f"redraw_weights = {str(cfg['noise']['redraw_weights']).lower()}\n")
    path.write_text(
        f"[circuit]\nn = {cfg['n']}\nL = {cfg['L']}\n\n[noise]\n{noise}\n"
        f"[experiment]\nnt_grid = {','.join(map(str, cfg['nt_grid']))}\n"
        f"parameter_sets = {cfg['parameter_sets']}\n"
        f"experiments_per_set = {cfg['experiments_per_set']}\n"
        f"master_seed = {cfg['master_seed']}\n"
        f"schemes = {','.join(cfg['schemes'])}\n"
        f"targets = {','.join(cfg['targets'])}\n")


def _config_workload(argv: tuple[str, ...], csv_suffix: str, cfg: dict,
                     in_dir: Path) -> Generated:
    """Write the config; argv[0] is the subcommand, the rest its options."""
    # The manifest hashes the resolved config, which adds the default
    # axis pattern and the cyclic X, Y, Z observable.
    resolved = dict(cfg, axis_pattern="zyz",
                    observable="".join("XYZ"[q % 3] for q in range(cfg["n"])))
    path = in_dir / "input.cfg"
    _write_config(path, cfg)
    return Generated(argv=(argv[0], str(path), *argv[1:]),
                     csv_name=f"input_{csv_suffix}",
                     items=cfg["parameter_sets"], params=resolved,
                     expected_hash=config_digest(resolved))


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _finite(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _check_manifest(gen: Generated, path: Path,
                    master_seed: int | None) -> list[str]:
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    errors = []
    if doc.get("config_hash") != gen.expected_hash:
        errors.append("manifest config_hash does not match the generated "
                      "config")
    if doc.get("master_seed") != master_seed:
        errors.append("manifest master_seed does not match")
    return errors


def _table(path: Path, header: list[str], rows: int,
           errors: list[str]) -> list[list[str]]:
    """Rows of a CSV whose header and row count are as expected, else []."""
    try:
        table = _read_csv(path)
    except OSError as exc:
        errors.append(f"{path.name} unreadable: {exc}")
        return []
    if not table or table[0] != header:
        errors.append(f"{path.name}: header {table[:1]} != {header}")
        return []
    if len(table) - 1 != rows:
        errors.append(f"{path.name}: {len(table) - 1} rows, expected {rows}")
        return []
    return table[1:]


# ── fig5-mse ─────────────────────────────────────────────────────────────────

def _gen_fig5(seed: int, in_dir: Path, size: dict) -> Generated:
    cfg = {"n": 4, "L": 5,
           "noise": {"kind": "cnot_depolarizing", "rate": 0.05,
                     "redraw_weights": False},
           "nt_grid": [96, 960, 9600, 96000, 960000],
           "parameter_sets": size["parameter_sets"],
           "experiments_per_set": size["experiments_per_set"],
           "master_seed": _master_seed(seed),
           "schemes": list(SCHEMES), "targets": list(KINDS)}
    return _config_workload(("mse-curves", "--workers", "1"), "mse.csv", cfg,
                            in_dir)


def _check_fig5(gen: Generated, out: Path) -> list[str]:
    p = gen.params
    errors = _check_manifest(gen, out / "input.manifest.json",
                             p["master_seed"])
    expected = [(t, s, str(nt)) for t in p["targets"] for s in p["schemes"]
                for nt in p["nt_grid"]]
    rows = _table(out / gen.csv_name,
                  ["target", "scheme", "n_total", "mse_mean", "mse_stderr"],
                  len(expected), errors)
    for row, key in zip(rows, expected):
        if tuple(row[:3]) != key:
            errors.append(f"row {row[:3]} out of order, expected {key}")
            break
        for cell in row[3:]:
            value = _finite(cell)
            if value is None or value < 0.0:
                errors.append(f"row {key}: MSE value {cell!r} is not a "
                              "finite nonnegative number")
    return errors


# ── pauli-dist-n6 ────────────────────────────────────────────────────────────

def _gen_dist(seed: int, in_dir: Path, size: dict) -> Generated:
    cfg = {"n": size["n"], "L": 5,
           "noise": {"kind": "cnot_pauli", "rate": 0.05,
                     "redraw_weights": True},
           "nt_grid": [96], "parameter_sets": size["parameter_sets"],
           "experiments_per_set": 1, "master_seed": _master_seed(seed),
           "schemes": ["ps"], "targets": ["gradient"]}
    return _config_workload(("dist",), "dist.csv", cfg, in_dir)


def _check_dist(gen: Generated, out: Path) -> list[str]:
    p = gen.params
    sets = p["parameter_sets"]
    errors = _check_manifest(gen, out / "input.manifest.json",
                             p["master_seed"])
    rows = _table(out / gen.csv_name, ["set_index", "f", "g"], sets, errors)
    for i, row in enumerate(rows):
        f, g = _finite(row[1]), _finite(row[2])
        if row[0] != str(i) or f is None or g is None or abs(f) > 1 + 1e-12:
            errors.append(f"dist row {i} malformed: {row}")
            break
    hist = _table(out / "input_hist.csv",
                  ["bin_left", "bin_right", "count_f", "count_g"], 40, errors)
    if hist and sum(int(r[2]) for r in hist) != sets:
        errors.append("histogram count_f does not add up to the set count")
    return errors


def _deep_check_dist(gen: Generated, out: Path, seed: int) -> list[str]:
    """f and g of a few sets against the independent dense simulation."""
    p = gen.params
    try:
        rows = _read_csv(out / gen.csv_name)[1:]
    except OSError as exc:
        return [f"dist CSV unreadable: {exc}"]
    picks = random.Random(f"sets:{seed}").sample(
        range(p["parameter_sets"]),
        min(DIST_SAMPLED_SETS, p["parameter_sets"]))
    errors = []
    for s in sorted(picks):
        f, g = reference.pauli_redraw_f_g(p["master_seed"], s, p["n"], p["L"],
                                          p["noise"]["rate"])
        got_f, got_g = float(rows[s][1]), float(rows[s][2])
        if abs(got_f - f) > TOLERANCE or abs(got_g - g) > TOLERANCE:
            errors.append(f"set {s}: (f, g) = ({got_f}, {got_g}), dense "
                          f"recomputation gives ({f}, {g})")
    return errors


# ── nstar-analytic ───────────────────────────────────────────────────────────

def _gen_nstar(seed: int, in_dir: Path, size: dict) -> Generated:
    rng = random.Random(f"rates:{seed}")
    # Total error rates log-uniform over the paper's range, 3 digits.
    etas = [float(f"{10 ** rng.uniform(-2.0, math.log10(0.5)):.3g}")
            for _ in range(size["rates"])]
    qubits = list(range(2, size["max_qubits"] + 1))
    argv = ("analytic", "--nstar", "--targets", "all",
            "--n", f"2:{size['max_qubits']}",
            "--eta", ",".join(repr(e) for e in etas), "--csv", "nstar.csv")
    dims = [2 ** q for q in qubits]
    hashed = {"command": "analytic", "targets": list(KINDS), "dims": dims,
              "etas": etas, "grid": [], "nstar": True}
    return Generated(argv=argv, csv_name="nstar.csv",
                     items=len(KINDS) * len(dims) * len(etas),
                     params={"targets": list(KINDS), "qubits": qubits,
                             "etas": etas},
                     expected_hash=config_digest(hashed))


def _check_nstar(gen: Generated, out: Path) -> list[str]:
    p = gen.params
    errors = _check_manifest(gen, out / "nstar.csv.manifest.json", None)
    expected = [(t, 2 ** q, eta) for t in p["targets"] for q in p["qubits"]
                for eta in p["etas"]]
    rows = _table(out / gen.csv_name,
                  ["target", "d", "eta", "n_star_sps_exact",
                   "n_star_sps_small_eta", "n_star_fd"], len(expected), errors)
    for row, (kind, d, eta) in zip(rows, expected):
        if row[0] != kind or row[1] != str(d) or _finite(row[2]) != eta:
            errors.append(f"row {row[:3]} out of order, expected "
                          f"{(kind, d, eta)}")
            break
        exact, small = _finite(row[3]), _finite(row[4])
        fd = _finite(row[5]) if row[5] else math.inf
        if exact is None or small is None or fd is None or min(
                exact, small, fd) <= 0.0:
            errors.append(f"row {row[:3]}: crossovers {row[3:]} malformed")
            continue
        residual = reference.crossing_residual(kind, d, eta, exact)
        if residual > TOLERANCE:
            errors.append(f"row {row[:3]}: n_star_sps_exact leaves relative "
                          f"MSE gap {residual:.3e}")
    return errors


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="fig5-mse",
            why="mse-curves on the fig5 shape (n=4, L=5, cnot_depolarizing "
                "0.05, 5 schemes x 3 targets x 5 budgets, 10 sets x 200 "
                "experiments): 98 evolve calls per set, Kronecker builds "
                "dominate",
            items_unit="parameter sets",
            size={"parameter_sets": 10, "experiments_per_set": 200},
            generate=_gen_fig5, check=_check_fig5),
        Workload(
            name="pauli-dist-n6",
            why="dist at n=6, L=5 under cnot_pauli 0.05 with weights "
                "redrawn per set, 30 sets: 2 evolve calls per set, dominated "
                "by the d^3 Pauli channel where BLAS threads matter",
            items_unit="parameter sets",
            size={"n": 6, "parameter_sets": 30},
            generate=_gen_dist, check=_check_dist,
            deep_check=_deep_check_dist),
        Workload(
            name="nstar-analytic",
            why="analytic --nstar --targets all --n 2:8 at one seeded rate "
                "in [0.01, 0.5], 21 rows: closed forms only (scalar mse_fd "
                "calls), no circuits or noise",
            items_unit="table rows",
            size={"rates": 1, "max_qubits": 8},
            generate=_gen_nstar, check=_check_nstar),
    )
}
