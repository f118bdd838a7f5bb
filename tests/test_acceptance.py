"""End-to-end acceptance checks at reduced Monte Carlo scale.

Each test prints one PASS/FAIL summary line with its observed margin, so
``pytest -s tests/test_acceptance.py`` gives a ten-line scorecard. The
Monte Carlo checks reuse the library's seeded substream layout and are
therefore deterministic for the pinned seed.
"""
import math
from pathlib import Path

import numpy as np
import pytest

from paulishift import harness, invariants
from paulishift.analytics import n_star_sps_exact, noise_bias
from paulishift.cli import load_config, main
from paulishift.estimators import Gradient
from paulishift.harness import (ExperimentConfig, NoiseSpec, empirical_n_star,
                                monte_carlo_mse)

SEED = invariants.SEED
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


_CAPTURE = None


@pytest.fixture(autouse=True)
def _scorecard_passthrough(capfd):
    """Let each criterion's PASS/FAIL line reach the terminal uncaptured."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(index: int, name: str, ok: bool, detail: str) -> None:
    line = f"[{index:2d}/10] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"{name}: {detail}"


def report_row(index: int, title: str, name: str) -> None:
    """Check the named ``invariants.CRITERIA`` row at its acceptance size."""
    row = next(r for r in invariants.CRITERIA if r.name == name)
    report(index, title, *row.check(row.tier1, np.random.default_rng(SEED)))


class TestOptimalScaleStationarity:
    """Criterion 1: both optimal-lambda forms sit at true MSE minima."""

    def test_optimum_is_stationary_and_grid_minimal(self):
        report_row(1, "optimal-scale stationarity", "stationarity")


class TestCrossoverAlgebra:
    """Criterion 2: crossover points equalize the two schemes exactly."""

    def test_crossing_roots_and_limits(self):
        report_row(2, "crossover-point consistency", "nstar_roots")


class TestStepSizeAsymptotics:
    """Criterion 3: numeric optimal steps reach their large-budget forms."""

    def test_numeric_optimum_matches_asymptote(self):
        report_row(3, "optimal step asymptotics", "epsilon_asymptotic")


class TestEstimatorExactness:
    """Criterion 4: shift rules differentiate exactly; step laws hold."""

    def test_shift_rules_against_numerics(self):
        report_row(4, "estimator exactness", "estimator_exactness")


class TestMonteCarloAgreement:
    """Criterion 5: simulated MSEs land on the closed-form predictions."""

    def test_closed_forms_predict_simulated_mse(self):
        report_row(5, "closed form vs Monte Carlo", "mc_oracle")


class TestCrossoverScaling:
    """Criterion 6: crossover budget doubles per qubit; simulation agrees."""

    def test_crossover_grows_one_bit_per_qubit(self):
        eta = 1.0 - (1.0 - 0.01) ** 5
        logs = [math.log2(n_star_sps_exact("gradient", 2 ** n, eta))
                for n in range(4, 9)]
        slopes = np.diff(logs)
        slope_ok = bool(np.all((slopes >= 0.8) & (slopes <= 1.2)))

        config, errors = load_config(str(CONFIG_DIR / "crossing_n4.cfg"))
        assert not errors, errors
        results = monte_carlo_mse(config)
        naive = [r for r in results if r.scheme == "nsps"]
        plain = [r for r in results if r.scheme == "ps"]
        crossing = empirical_n_star(naive, plain)
        pred = n_star_sps_exact("gradient", 16, config.eta_total())
        ratio = crossing.n_star / pred
        ratio_ok = 0.5 <= ratio <= 2.0
        report(6, "crossover scaling", slope_ok and ratio_ok,
               f"log2 slope per qubit in [{slopes.min():.2f}, "
               f"{slopes.max():.2f}] vs [0.8, 1.2]; measured crossing "
               f"{crossing.n_star:.0f}+-{crossing.uncertainty:.0f} vs "
               f"predicted {pred:.0f}, ratio {ratio:.2f} vs [0.5, 2]")


class TestNoiseFloorPlateaus:
    """Criterion 7: large-budget MSEs sit on the rate-squared floor."""

    @staticmethod
    def _plateau(kind, rate, sets, tol):
        config = ExperimentConfig(
            n=4, L=5, noise=NoiseSpec(kind, rate), nt_grid=(2400000000,),
            parameter_sets=sets, experiments_per_set=100, master_seed=SEED,
            targets=(Gradient(),))
        results = monte_carlo_mse(config)
        floor = noise_bias("gradient", 16, config.eta_total())
        by = {r.scheme: r for r in results}
        dev = max(abs(by[s].mean - floor) / floor
                  for s in ("ps", "nsps", "nfd", "hfd"))
        hsps, base = by["hsps"], min(by["nsps"], by["ps"],
                                     key=lambda r: r.mean)
        sep = ((base.mean - hsps.mean)
               / math.hypot(hsps.stderr, base.stderr))
        fd_gap = (abs(by["nfd"].mean - by["hfd"].mean)
                  / math.hypot(by["nfd"].stderr, by["hfd"].stderr))
        return dev <= tol and sep >= 3.0 and fd_gap <= 2.0, dev, sep, fd_gap

    def test_plateaus_match_the_floor(self):
        g_ok, g_dev, g_sep, g_gap = self._plateau(
            "global_depolarizing", 0.226, 20000, 0.05)
        c_ok, c_dev, c_sep, c_gap = self._plateau(
            "cnot_depolarizing", 1.0 - 0.774 ** (1.0 / 20.0), 3000, 0.30)
        report(7, "noise-floor plateaus", g_ok and c_ok,
               f"floor deviation {g_dev:.1%} vs 5% (global) and {c_dev:.1%} "
               f"vs 30% (per-gate); known-rate scaling beats naive by "
               f"{g_sep:.0f}/{c_sep:.0f} stderr vs 3; step-scheme pair gap "
               f"{g_gap:.1f}/{c_gap:.1f} stderr vs 2")


class TestNoiseTermDistribution:
    """Criterion 8: recovered noise term is much flatter than the signal."""

    def test_variance_ratios_and_total_rates(self):
        studies = {}
        for name in ("fig2_n4_L5", "fig2_n4_L1", "pauli_redraw_n4"):
            config, errors = load_config(str(CONFIG_DIR / f"{name}.cfg"))
            assert not errors, errors
            studies[name] = harness.distribution_study(config)
        deep, shallow, redraw = (studies["fig2_n4_L5"],
                                 studies["fig2_n4_L1"],
                                 studies["pauli_redraw_n4"])
        rates_ok = (deep.eta_total == 1.0 - (1.0 - 0.05) ** 20
                    and shallow.eta_total == 1.0 - (1.0 - 0.05) ** 4)
        ratios_ok = (deep.r_var > 1.0 and shallow.r_var > 1.0
                     and redraw.r_var > 1.0 and deep.r_var > shallow.r_var)
        report(8, "noise-term distribution", rates_ok and ratios_ok,
               f"total rates {shallow.eta_total:.8f}/{deep.eta_total:.8f} "
               f"exact; variance ratios {shallow.r_var:.0f} (L=1) < "
               f"{deep.r_var:.0f} (L=5), redrawn-weights {redraw.r_var:.0f}, "
               f"all > 1")


class TestMomentVerification:
    """Criterion 9: sampled ensemble moments match the closed forms."""

    def test_ensemble_moments(self):
        report_row(9, "ensemble moment verification", "two_design_moments")


class TestDeterminism:
    """Criterion 10: output bytes are independent of the worker count."""

    def test_worker_count_never_changes_csv_bytes(self, tmp_path):
        cfg = tmp_path / "determinism.cfg"
        cfg.write_text(
            "[circuit]\nn = 2\nL = 2\n\n"
            "[noise]\nkind = cnot_pauli\nrate = 0.08\n"
            "redraw_weights = true\n\n"
            "[experiment]\nnt_grid = 48,96\nparameter_sets = 6\n"
            "experiments_per_set = 8\nmaster_seed = 777\n"
            "schemes = ps,nsps,hsps,nfd,hfd\n"
            "targets = gradient,offdiag\n")
        payloads = []
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            code = main(["mse-curves", str(cfg), "--workers", str(workers),
                         "--out", str(out)])
            assert code == 0
            payloads.append((out / "determinism_mse.csv").read_bytes())
        ok = len(payloads[0]) > 0 and all(p == payloads[0]
                                          for p in payloads[1:])
        report(10, "byte-identical outputs across workers", ok,
               f"{len(payloads[0])} CSV bytes equal for 1, 2 and 3 workers")
