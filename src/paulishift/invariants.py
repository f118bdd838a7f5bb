"""Measured invariants of the closed forms, the estimators and the harness.

One function per checked identity, shared by the acceptance tests and
``paulishift verify``. Each takes its sample size (the Monte Carlo check an
``ExperimentConfig``) and returns the worst margins it saw; the caller
applies the bounds. Closed forms are looked up on ``analytics`` at call
time, so a patched function there is what gets measured.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import analytics, harness
from .circuits import build_ansatz, cyclic_observable, shifted
from .estimators import (DiagHessian, EstimatorSpec, Gradient, OffDiagHessian,
                         evaluation_points, target_kind)

KINDS = analytics.TARGET_KINDS


class Deviation(NamedTuple):
    """A sampled estimate against its closed form."""

    label: str
    rel: float  # |estimate / expected - 1|, inf when expected is 0
    sigmas: float  # |estimate - expected| in standard errors


def stationarity(rng: np.random.Generator,
                 draws: int) -> tuple[float, float]:
    """Criterion 1: both optimal-lambda forms sit at true MSE minima.

    The lambda-MSE is an exact quadratic, so three evaluations pin it down;
    the derivative residual at the claimed optimum, in units of the
    curvature scale, is its relative distance from the fitted vertex.
    Returns the max residual and the max relative dip of a 10^4-point grid
    below the MSE at the optimum.
    """
    worst_slope = 0.0
    worst_gap = -math.inf
    for _ in range(draws):
        kind = KINDS[rng.integers(3)]
        d = 2 ** int(rng.integers(1, 9))
        nt = float(rng.integers(12, 10 ** 7))
        eta = float(rng.uniform(1e-3, 0.9))
        for lam, mse_eta in (
                (analytics.lambda_opt(kind, d, nt), 0.0),
                (analytics.lambda_opt_eta(kind, d, nt, eta), eta)):
            def at(lam_value):
                return analytics.mse_sps(kind, d, lam_value, mse_eta, 0.0,
                                         nt).total
            best = at(lam)
            coeffs = np.polyfit([0.5 * lam, lam, 2.0 * lam],
                                [at(0.5 * lam), best, at(2.0 * lam)], 2)
            vertex = -coeffs[1] / (2.0 * coeffs[0])
            worst_slope = max(worst_slope, abs(lam - vertex) / lam)
            grid = np.linspace(lam / 1e3, 3.0 * lam, 10 ** 4)
            gap = (best - np.polyval(coeffs, grid).min()) / best
            worst_gap = max(worst_gap, gap)
    return float(worst_slope), float(worst_gap)


def crossing_consistency(rng: np.random.Generator,
                         draws: int) -> tuple[float, float, float]:
    """Criterion 2: exact crossings equalize the schemes; limits hold.

    Returns the max relative MSE imbalance at the exact crossing, the max
    |exact / small-eta crossing - 1| at eta = 1e-4, and the max
    |h(d, 1e-12) / 2d - 1|.
    """
    worst_eq = 0.0
    for _ in range(draws):
        kind = KINDS[rng.integers(3)]
        d = 2 ** int(rng.integers(1, 9))
        eta = float(rng.uniform(0.01, 0.8))
        ns = analytics.n_star_sps_exact(kind, d, eta)
        lam = analytics.lambda_opt(kind, d, ns)
        a = analytics.mse_sps(kind, d, lam, eta, 0.0, ns).total
        b = analytics.mse_sps(kind, d, 1.0, eta, 0.0, ns).total
        worst_eq = max(worst_eq, abs(a - b) / b)
    worst_ratio = 0.0
    for kind in KINDS:
        for d in (4, 16, 256):
            ratio = (analytics.n_star_sps_exact(kind, d, 1e-4)
                     / analytics.n_star_sps_small_eta(kind, d, 1e-4))
            worst_ratio = max(worst_ratio, abs(ratio - 1.0))
    worst_h = max(
        abs(analytics._crossing_h(2 ** k, 1e-12) / (2.0 * 2 ** k) - 1.0)
        for k in range(1, 9))
    return worst_eq, worst_ratio, worst_h


def step_asymptotics() -> float:
    """Criterion 3: max relative gap of numeric optimal steps to their
    large-budget closed form at N = 1e12, d = 4 and 16."""
    worst = 0.0
    for kind in KINDS:
        for d in (4, 16):
            num = analytics.epsilon_opt(kind, d, 1e12)
            asym = analytics.epsilon_opt_asymptotic(kind, d, 1e12)
            worst = max(worst, abs(num / asym - 1.0))
    return worst


def _probe(rng, n, L):
    return (int(rng.integers(1, n + 1)), int(rng.integers(1, L + 1)),
            int(rng.integers(1, 4)))


def estimator_exactness(rng: np.random.Generator,
                        draws: int) -> tuple[float, float, float]:
    """Criterion 4: shift rules differentiate exactly; step laws hold.

    Each draw is a random circuit (n in 1..4, L in 2..3) with two random
    distinct angles. Returns the max gaps of the shift rules to central
    differences, of FD means to the sinc damping law, and of shifted values
    to the single-angle expansion. Shifted values and FD means come from
    direct circuits (``_FunctionCache.exact``): values rebuilt from the
    shift grid obey the damping law and the expansion by construction.
    """
    h = 1e-6
    eps = 0.8
    damp = math.sin(eps / 2.0) / (eps / 2.0)
    worst_cd = worst_law = worst_exp = 0.0
    for _ in range(draws):
        n = int(rng.integers(1, 5))
        L = int(rng.integers(2, 4))
        layout = build_ansatz(n, L)
        obs = cyclic_observable(n)
        theta = harness.sample_parameter_set(layout, rng)
        p1 = _probe(rng, n, L)
        p2 = p1
        while p2 == p1:
            p2 = _probe(rng, n, L)
        g_t = Gradient(qubit=p1[0], layer=p1[1], slot=p1[2])
        d_t = DiagHessian(qubit=p1[0], layer=p1[1], slot=p1[2])
        o_t = OffDiagHessian(qubit=p1[0], layer=p1[1], slot=p1[2],
                             qubit2=p2[0], layer2=p2[1], slot2=p2[2])
        cache = harness._FunctionCache(layout, theta, obs)
        grad, hess, cross = (cache.mean(harness._shift_rule(t), None)
                             for t in (g_t, d_t, o_t))

        def f_at(shifts):
            return cache.exact(shifts, None)

        def grad_at(shifts):
            return harness.exact_derivative(
                g_t, layout, shifted(layout, theta, shifts), None, obs)

        cd = (f_at({p1: +h}) - f_at({p1: -h})) / (2.0 * h)
        cd2 = (grad_at({p1: +h}) - grad_at({p1: -h})) / (2.0 * h)
        cdx = (grad_at({p2: +h}) - grad_at({p2: -h})) / (2.0 * h)
        worst_cd = max(worst_cd, abs(cd - grad), abs(cd2 - hess),
                       abs(cdx - cross))
        for target, expect, power in ((g_t, grad, 1), (d_t, hess, 2),
                                      (o_t, cross, 2)):
            spec = EstimatorSpec("fd", target, epsilon=eps)
            mean = sum(coeff * f_at(shifts)
                       for shifts, coeff in evaluation_points(spec))
            worst_law = max(worst_law, abs(mean - damp ** power * expect))
        f0 = f_at({})
        for s in (0.3, -1.1, 2.5):
            lhs = f_at({p1: s})
            rhs = f0 + math.sin(s) * grad + (1.0 - math.cos(s)) * hess
            worst_exp = max(worst_exp, abs(lhs - rhs))
    return worst_cd, worst_law, worst_exp


def mc_agreement(config: harness.ExperimentConfig) -> list[Deviation]:
    """Criterion 5: each simulated MSE row against its closed-form value."""
    d = 2 ** config.n
    eta = config.eta_total()
    out = []
    for r in harness.monte_carlo_mse(config):
        pred = analytics.scheme_mse(r.scheme, r.target, d, r.n_total,
                                    eta)[1].total
        dev = abs(r.mean - pred)
        out.append(Deviation(
            label=f"{r.scheme} {target_kind(r.target)} N={r.n_total}",
            rel=dev / pred,
            sigmas=dev / r.stderr if r.stderr > 0 else math.inf))
    return out


def noise_floors() -> tuple[float, float, float, float]:
    """Known-noise scaling kills the floor; finite differences cannot.

    Over three (d, eta) pairs per target, returns the max HSPS
    approximation error at N = 1e9 over the naive floor, the max ratio of
    HSPS totals at consecutive decades of N, the max HSPS total at 1e9 over
    that at 1e2, and the min FD approximation error over the floor.
    """
    approx_ratio = step = decay = 0.0
    fd_ratio = math.inf
    for kind in KINDS:
        for d, eta in ((2, 0.2), (16, 0.226), (64, 0.5)):
            floor = analytics.noise_bias(kind, d, eta)
            hsps = [analytics.scheme_mse("hsps", kind, d, 10.0 ** k, eta)[1]
                    for k in range(2, 10)]
            totals = [m.total for m in hsps]
            approx_ratio = max(approx_ratio, hsps[-1].approximation / floor)
            step = max(step, max(b / a for a, b in zip(totals, totals[1:])))
            decay = max(decay, totals[-1] / totals[0])
            for nt in (1e2, 1e4, 1e6, 1e8):
                hfd = analytics.scheme_mse("hfd", kind, d, nt, eta)[1]
                fd_ratio = min(fd_ratio, hfd.approximation / floor)
    return approx_ratio, step, decay, fd_ratio


def moment_deviations(n: int, L: int, samples: int, rng: np.random.Generator
                      ) -> tuple[list[Deviation], list[Deviation]]:
    """Criterion 9: sampled ensemble moments against the 2-design values.

    Returns the function moments <f>, <f^2> and the derivative moments.
    """
    check = harness.verify_two_design(n, L, samples, rng)
    m = check.analytic

    def deviation(label, est, expect):
        rel = abs(est.value / expect - 1.0) if expect else math.inf
        return Deviation(label, rel, abs(est.value - expect) / est.stderr)

    return ([deviation("<f>", check.mean_f, m.mean_f),
             deviation("<f^2>", check.mean_f2, m.mean_f2)],
            [deviation("<grad^2>", check.mean_grad2, m.mean_grad2),
             deviation("<diag^2>", check.mean_hess_diag2, m.mean_hess_diag2),
             deviation("<off^2>", check.mean_hess_off2, m.mean_hess_off2)])
