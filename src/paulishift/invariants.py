"""Measured invariants of the closed forms, the estimators and the harness.

One function per checked identity. Each takes its sample size (the Monte
Carlo check an ``ExperimentConfig``) and returns the worst margins it saw.
``CRITERIA`` holds each check's sizes, bounds and report text once for the
acceptance tests and ``paulishift verify``. Closed forms are looked up on
``analytics`` at call time, so a patched function there is what gets
measured.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import analytics, harness
from .circuits import build_ansatz, cyclic_observable, shifted
from .estimators import (DiagHessian, EstimatorSpec, Gradient, OffDiagHessian,
                         evaluation_points, target_kind)

KINDS = analytics.TARGET_KINDS
SEED = 20260822  # the stream of every seeded criterion, in both suites


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


def step_asymptotics(dims: tuple[int, ...]) -> float:
    """Criterion 3: max relative gap of numeric optimal steps to their
    large-budget closed form at N = 1e12 and each dimension in ``dims``."""
    worst = 0.0
    for kind in KINDS:
        for d in dims:
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
    direct circuits (``exact`` at shifted angles): values rebuilt from the
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
            return harness._FunctionCache(
                layout, shifted(layout, theta, shifts), obs).exact(None)

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


def noise_floors(cells: tuple[tuple[int, float], ...]
                 ) -> tuple[float, float, float, float]:
    """Known-noise scaling kills the floor; finite differences cannot.

    Over the (d, eta) ``cells`` per target, returns the max HSPS
    approximation error at N = 1e9 over the naive floor, the max ratio of
    HSPS totals at consecutive decades of N, the max HSPS total at 1e9 over
    that at 1e2, and the min FD approximation error over the floor.
    """
    approx_ratio = step = decay = 0.0
    fd_ratio = math.inf
    for kind in KINDS:
        for d, eta in cells:
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


class Moments(NamedTuple):
    """Criterion 9's qubit counts (at L = 6) and samples, and the stderr
    that excuse a derivative moment past 10%."""

    ns: tuple[int, ...]
    samples: int
    sigmas: float


def moment_deviations(rng: np.random.Generator, size: Moments
                      ) -> tuple[list[Deviation], list[Deviation]]:
    """Criterion 9: sampled ensemble moments against the 2-design values.

    Per random parameter set of an L = 6 circuit, the exact noiseless f and
    its shift-rule derivatives. The identities assume scrambling circuits on
    both sides of the probed gate, so the probe sits in the middle layer, 4;
    at n = 1 the off-diagonal pair reaches back to layer 3. Each qubit count
    draws from the stream state ``rng`` had on entry, so adding a count
    leaves the others' draws alone. Returns the function moments <f>, <f^2>
    and the derivative moments over every count.
    """
    start = rng.bit_generator.state
    function, derivative = [], []
    for n in size.ns:
        rng.bit_generator.state = start
        layout, obs = build_ansatz(n, 6), cyclic_observable(n)
        off = (OffDiagHessian(layer=4, qubit2=2, layer2=4) if n >= 2
               else OffDiagHessian(layer=4, qubit2=1, layer2=3))
        rules = [harness._shift_rule(t)
                 for t in (Gradient(layer=4), DiagHessian(layer=4), off)]
        theta = np.array([harness.sample_parameter_set(layout, rng)
                          for _ in range(size.samples)])
        f, grad, diag, cross = values = np.empty((4, size.samples))
        for sets in harness._batches(size.samples, harness._batch_size(n)):
            cache = harness._FunctionCache(layout, theta[sets], obs)
            values[:, sets] = [cache.exact(None)] + [cache.mean(rule, None)
                                                     for rule in rules]
        m = analytics.two_design_moments(n)
        for out, label, x, expect in (
                (function, "<f>", f, m.mean_f),
                (function, "<f^2>", f * f, m.mean_f2),
                (derivative, "<grad^2>", grad ** 2, m.mean_grad2),
                (derivative, "<diag^2>", diag ** 2, m.mean_hess_diag2),
                (derivative, "<off^2>", cross ** 2, m.mean_hess_off2)):
            mean = float(x.mean())
            stderr = float(x.std(ddof=1) / math.sqrt(size.samples))
            rel = abs(mean / expect - 1.0) if expect else math.inf
            out.append(Deviation(label, rel, abs(mean - expect) / stderr))
    return function, derivative


class Criterion(NamedTuple):
    """A checked claim, with its sizes in the acceptance suite (``tier1``)
    and in ``paulishift verify``; a suite whose size is None skips it.
    ``quick`` rows also run in ``verify --quick``."""

    name: str
    measure: Callable  # (rng, size) -> margins
    tier1: object
    verify: object
    quick: bool
    passed: Callable  # (margins, size) -> bool
    detail: Callable  # margins -> str

    def check(self, size, rng: np.random.Generator) -> tuple[bool, str]:
        """Measure at ``size``; returns (passed, detail)."""
        margins = self.measure(rng, size)
        return bool(self.passed(margins, size)), self.detail(margins)


# In verify's order. The derivative moments' bound differs by suite: 1,500
# samples need max(10%, 3 stderr), while 5,000 meet 10% alone (a 0-stderr
# allowance adds nothing: the closed forms are positive).
CRITERIA = (
    Criterion("stationarity", stationarity, 200, 40, True,
              lambda m, _: m[0] < 1e-9 and m[1] < 1e-10,
              lambda m: f"max vertex residual {m[0]:.2e}, max grid "
                        f"undershoot {m[1]:.2e}"),
    Criterion("nstar_roots", crossing_consistency, 100, 30, True,
              lambda m, _: m[0] < 1e-9 and m[1] < 5e-3 and m[2] < 1e-6,
              lambda m: f"max crossing residual {m[0]:.2e}, small-rate "
                        f"ratio off by {m[1]:.2e}, h-limit off by {m[2]:.2e}"),
    Criterion("epsilon_asymptotic", lambda rng, dims: step_asymptotics(dims),
              (4, 16), (4, 16), True, lambda m, _: m < 0.01,
              lambda m: f"max relative gap {m:.2e}"),
    Criterion("noise_floors", lambda rng, cells: noise_floors(cells),
              None, ((2, 0.2), (16, 0.226), (64, 0.5)), True,
              lambda m, _: (m[0] <= 1e-8 and m[1] < 1.0 and m[2] <= 1e-5
                            and m[3] >= 1.0 - 1e-9),
              lambda m: f"HSPS approximation {m[0]:.1e} of the floor, total "
                        f"decay {m[2]:.1e}; FD approximation >= {m[3]:.9f} "
                        f"of the floor"),
    Criterion("two_design_moments", moment_deviations,
              Moments((2, 3), 5000, 0.0), Moments((2,), 1500, 3.0), False,
              lambda m, size: all(x.sigmas <= 3.0 for x in m[0]) and all(
                  x.rel <= 0.10 or x.sigmas <= size.sigmas for x in m[1]),
              lambda m: "function moments within {:.1f} stderr, derivative "
                        "moments within {:.1%} or {:.1f} stderr".format(
                            max(x.sigmas for x in m[0]),
                            max(x.rel for x in m[1]),
                            max(x.sigmas for x in m[1]))),
    Criterion("estimator_exactness", estimator_exactness, 50, 6, False,
              lambda m, _: m[0] < 1e-6 and m[1] < 1e-9 and m[2] < 1e-9,
              lambda m: f"central-difference gap {m[0]:.1e}, damping law gap "
                        f"{m[1]:.1e}, single-angle expansion gap {m[2]:.1e}"),
    Criterion("mc_oracle", lambda rng, size: mc_agreement(
                  harness.ExperimentConfig(
                      n=4, noise=harness.NoiseSpec("global_depolarizing",
                                                   0.226),
                      master_seed=SEED, **size)),
              dict(L=6, nt_grid=(96, 480, 2400), parameter_sets=200,
                   experiments_per_set=200),
              dict(L=5, nt_grid=(96, 960), parameter_sets=60,
                   experiments_per_set=80, schemes=("ps", "hsps"),
                   targets=(Gradient(),)), False,
              lambda m, _: all(x.rel <= 0.10 or x.sigmas <= 3.0 for x in m),
              lambda m: "worst {0.label}: {0.rel:.1%} rel at {0.sigmas:.1f} "
                        "stderr".format(max(m, key=lambda x: x.rel))),
)
