"""Closed-form error theory for the shift-rule and finite-difference schemes.

Everything in this module is exact arithmetic on ensemble-averaged quantities:
second moments of the circuit function and its derivatives over 2-design
parameter ensembles, the resulting mean-squared errors of the estimators at
finite copy number under depolarizing-type noise, the optimal scheme
parameters (lambda for the scaled shift rule, epsilon for finite differences),
and the copy-number crossings where the naively tuned schemes stop beating
the plain shift rule.

MSE convention: errors are measured against the noiseless derivative, and
each breakdown separates a finite-copy part (shot variance, decaying with the
copy budget) from an approximation part (bias squared, independent of it).

Schemes: ``ps`` is the plain shift rule; ``nsps``/``nfd`` tune their free
parameter for a clean circuit (naive), ``hsps``/``hfd`` for the known total
error rate (heuristic). ``scheme_param`` maps a name to its parameter.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .estimators import target_kind

TARGET_KINDS = ("gradient", "diag", "offdiag")
SCHEMES = ("ps", "nsps", "hsps", "nfd", "hfd")

# Per-target constants: shot-variance prefactor c of the scaled shift rule,
# finite-difference prefactor k with epsilon power p, and the sinc power m in
# the finite-difference bias.
_SPS_VAR_COEFF = {"gradient": 1.0, "diag": 9.0 / 8.0, "offdiag": 1.0}
_FD_VAR_COEFF = {"gradient": (4.0, 2), "diag": (18.0, 4), "offdiag": (16.0, 4)}
_FD_SINC_POWER = {"gradient": 1, "diag": 2, "offdiag": 2}

_EPS_LO = 1e-6
_N_BRACKET = (12.0, 1e12)


class CrossoverNotFound(RuntimeError):
    """No copy number in the search range equalizes the two schemes."""


class NoCrossoverAtZeroNoise(CrossoverNotFound):
    """Without noise the tuned scheme never loses: the crossing is infinite."""


class CrossoverBelowBracket(CrossoverNotFound):
    """The tuned scheme is already worse at the minimum copy number."""


class CrossoverAboveBracket(CrossoverNotFound):
    """The tuned scheme is still better at the top of the search range."""


def _kind(target) -> str:
    """Accept either a target dataclass or one of the kind strings."""
    if isinstance(target, str):
        if target not in TARGET_KINDS:
            raise ValueError(f"unknown target kind {target!r}")
        return target
    return target_kind(target)


def _sinc(x: float) -> float:
    """float(np.sinc(x / pi)) to the bit, without numpy's per-call cost."""
    t = x / math.pi
    y = math.pi * (t if t != 0.0 else 1e-20)
    return math.sin(y) / y


# ── moments ──────────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class TwoDesignMoments:
    """Ensemble moments of the circuit function over 2-design parameters."""

    d: int
    mean_f: float
    mean_f2: float
    mean_grad2: float
    mean_hess_diag2: float
    mean_hess_off2: float

    def moment_for(self, target) -> float:
        return {"gradient": self.mean_grad2,
                "diag": self.mean_hess_diag2,
                "offdiag": self.mean_hess_off2}[_kind(target)]


@lru_cache(maxsize=None)
def _moments(d: int) -> TwoDesignMoments:
    if d < 2:
        raise ValueError("need Hilbert dimension d >= 2")
    grad2 = d * d / (2.0 * (d + 1.0) * (d * d - 1.0))
    off2 = d ** 4 / (4.0 * (d + 1.0) * (d * d - 1.0) ** 2)
    return TwoDesignMoments(d=d, mean_f=0.0, mean_f2=1.0 / (d + 1.0),
                            mean_grad2=grad2, mean_hess_diag2=grad2,
                            mean_hess_off2=off2)


def two_design_moments(n: int) -> TwoDesignMoments:
    """Moments for an n-qubit circuit whose layers scramble like a 2-design."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return _moments(2 ** n)


# ── MSE breakdowns ───────────────────────────────────────────────────────────

@dataclass(frozen=True)
class MseBreakdown:
    """Finite-copy and approximation parts of a mean-squared error."""

    finite_copy: float
    approximation: float

    @property
    def total(self) -> float:
        return self.finite_copy + self.approximation


def _check_common(eta: float, g: float, n_total: float):
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    if not -1.0 <= g <= 1.0:
        raise ValueError("g must lie in [-1, 1]")
    if n_total < 1:
        raise ValueError("n_total must be at least 1")


def _shot_strength(d: int, eta: float, g: float) -> float:
    """Ensemble average of the single-copy variance bound 1 - <f_noisy^2>."""
    f2 = _moments(d).mean_f2
    return 1.0 - (1.0 - eta) ** 2 * f2 - eta ** 2 * g ** 2


def mse_sps(target, d: int, lam: float, eta: float, g: float,
            n_total: float) -> MseBreakdown:
    """MSE of the lambda-scaled shift-rule estimator (lambda=1 is plain PS)."""
    _check_common(eta, g, n_total)
    if not lam > 0:
        raise ValueError("lambda must be positive")
    kind = _kind(target)
    c = _SPS_VAR_COEFF[kind]
    moment = _moments(d).moment_for(kind)
    finite = c * lam * lam / n_total * _shot_strength(d, eta, g)
    approx = (1.0 - (1.0 - eta) * lam) ** 2 * moment
    return MseBreakdown(finite_copy=finite, approximation=approx)


def mse_fd(target, d: int, epsilon: float, eta: float, g: float,
           n_total: float) -> MseBreakdown:
    """MSE of the centralized finite-difference estimator with step epsilon."""
    _check_common(eta, g, n_total)
    if not 0.0 < epsilon < 2.0 * math.pi:
        raise ValueError("epsilon must lie in (0, 2*pi)")
    kind = _kind(target)
    k, p = _FD_VAR_COEFF[kind]
    m = _FD_SINC_POWER[kind]
    moment = _moments(d).moment_for(kind)
    finite = k / (n_total * epsilon ** p) * _shot_strength(d, eta, g)
    approx = (1.0 - (1.0 - eta) * _sinc(epsilon / 2.0) ** m) ** 2 * moment
    return MseBreakdown(finite_copy=finite, approximation=approx)


# ── optimal scheme parameters ────────────────────────────────────────────────

def lambda_opt(target, d: int, n_total: float) -> float:
    """Noise-free optimal scaling of the shift rule; always in (0, 1]."""
    _check_common(0.0, 0.0, n_total)
    kind = _kind(target)
    nt = float(n_total)
    if kind == "gradient":
        lam = d * nt / (2.0 * d * d + d * nt - 2.0)
    elif kind == "diag":
        lam = 4.0 * d * nt / (9.0 * d * d + 4.0 * d * nt - 9.0)
    else:
        lam = d ** 3 * nt / (4.0 * (d * d - 1.0) ** 2 + d ** 3 * nt)
    if math.isnan(lam):
        # d^k N overflowed (inf / inf): lam = 1 - O(d / N) rounds to 1.0
        lam = 1.0
    return lam


def lambda_opt_eta(target, d: int, n_total: float, eta: float) -> float:
    """Known-noise optimal scaling; may exceed 1 and tends to 1/(1-eta).

    Minimizes the g-dropped upper bound of the scaled-shift MSE:
    lambda* = (1-eta) M N_T / [c (1 - (1-eta)^2 <f^2>) + (1-eta)^2 M N_T].
    """
    _check_common(eta, 0.0, n_total)
    kind = _kind(target)
    if eta == 0.0:
        return lambda_opt(kind, d, n_total)
    c = _SPS_VAR_COEFF[kind]
    moment = _moments(d).moment_for(kind)
    k1 = 1.0 - eta
    num = k1 * moment * n_total
    den = c * _shot_strength(d, eta, 0.0) + k1 * k1 * moment * n_total
    return num / den


_EPS_GRID = np.geomspace(_EPS_LO, 2.0 * math.pi - _EPS_LO, 512)
_EPS_SINC = np.sinc(_EPS_GRID / 2.0 / math.pi)  # sinc(eps / 2) on the grid


@lru_cache(maxsize=None)
def _fd_terms(kind: str, d: int, eta: float):
    """``mse_fd(kind, d, eps, eta, 0.0, n)``'s constants ``(k, p, m, moment,
    strength, keep)`` and, on the scan grid, ``eps ** p`` and the bias."""
    k, p = _FD_VAR_COEFF[kind]
    m, keep = _FD_SINC_POWER[kind], 1.0 - eta
    moment = _moments(d).moment_for(kind)
    return ((k, p, m, moment, _shot_strength(d, eta, 0.0), keep),
            (_EPS_GRID ** p, (1.0 - keep * _EPS_SINC ** m) ** 2 * moment))


def _fd_total(kind: str, d: int, eta: float, n_total: float):
    """``eps -> mse_fd(kind, d, eps, eta, 0.0, n_total).total`` in the same
    operation order (``_sinc`` inlined), its constants from ``_fd_terms``."""
    (k, p, m, moment, strength, keep), _ = _fd_terms(kind, d, eta)
    pi, sin = math.pi, math.sin

    def total(epsilon):
        t = epsilon / 2.0 / pi
        y = pi * (t if t != 0.0 else 1e-20)
        return (k / (n_total * epsilon ** p) * strength
                + (1.0 - keep * (sin(y) / y) ** m) ** 2 * moment)

    return total


@lru_cache(maxsize=None)
def _epsilon_opt_cached(kind: str, d: int, n_total: float,
                        eta: float) -> float:
    objective = _fd_total(kind, d, eta, n_total)
    (k, _, _, _, strength, _), (eps_p, bias) = _fd_terms(kind, d, eta)
    values = k / (n_total * eps_p) * strength + bias
    minima = np.count_nonzero((values[1:-1] < values[:-2])
                              & (values[1:-1] <= values[2:]))
    if minima > 1:
        warnings.warn(
            f"finite-difference MSE scan found {minima} local minima "
            f"({kind}, d={d}, n_total={n_total}, eta={eta}); refining the "
            "global scan minimum", RuntimeWarning, stacklevel=3)
    best = int(values.argmin())
    # Python floats search faster than numpy scalars, with the same bits.
    lo = float(_EPS_GRID[max(best - 1, 0)])
    up = float(_EPS_GRID[min(best + 1, len(_EPS_GRID) - 1)])

    # Golden-section search on [lo, up] to absolute tolerance 1e-9.
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, up
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = objective(x1), objective(x2)
    while b - a > 1e-9:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = objective(x2)
    eps = 0.5 * (a + b)
    if objective(eps) > min(objective(lo), objective(up)):
        eps = lo if objective(lo) <= objective(up) else up
    return float(eps)


def epsilon_opt(target, d: int, n_total: float,
                eta: float | None = None) -> float:
    """Numerically optimal finite-difference step.

    With ``eta`` omitted (or 0) the step minimizes the noise-free MSE
    (naive); with a rate given, the known-noise upper bound (heuristic).
    Search domain [1e-6, 2*pi - 1e-6]: a 512-point log-spaced scan, its
    budget-free terms built once per (target, d, eta), then golden-section
    refinement to absolute tolerance 1e-9 on epsilon.
    """
    eta = float(eta or 0.0)  # None is the noise-free step
    _check_common(eta, 0.0, n_total)
    return _epsilon_opt_cached(_kind(target), d, float(n_total), eta)


def epsilon_opt_asymptotic(target, d: int, n_total: float) -> float:
    """Large-budget closed form of the naive optimal step.

    Balancing the shot variance k S0 / (N_T eps^p) against the leading bias
    (eps^2/24 per sinc factor) gives constants 1152, 2592, 2304 and powers
    1/6, 1/8, 1/8 for gradient, diagonal and off-diagonal targets.
    """
    _check_common(0.0, 0.0, n_total)
    kind = _kind(target)
    moments = _moments(d)
    s0 = d / (d + 1.0)
    moment = moments.moment_for(kind)
    const, power = {"gradient": (1152.0, 1.0 / 6.0),
                    "diag": (2592.0, 1.0 / 8.0),
                    "offdiag": (2304.0, 1.0 / 8.0)}[kind]
    return float((const * s0 / (n_total * moment)) ** power)


# ── named schemes ────────────────────────────────────────────────────────────

def scheme_param(scheme: str, target, d: int, nt: float,
                 eta: float) -> tuple[str, float]:
    """The (family, value) a named scheme runs at budget nt and total rate eta.

    Family "sps" carries lambda (``ps`` is lambda = 1), "fd" carries epsilon.
    At eta = 0 the heuristic schemes reduce to the naive ones.
    """
    if scheme == "ps":
        return "sps", 1.0
    if scheme == "nsps":
        return "sps", lambda_opt(target, d, nt)
    if scheme == "hsps":
        return "sps", lambda_opt_eta(target, d, nt, eta)
    if scheme == "nfd":
        return "fd", epsilon_opt(target, d, nt)
    if scheme == "hfd":
        return "fd", epsilon_opt(target, d, nt, eta)
    raise ValueError(f"unknown scheme {scheme!r}")


def scheme_mse(scheme: str, target, d: int, nt: float,
               eta: float) -> tuple[float, MseBreakdown]:
    """A named scheme's parameter and its closed-form MSE at g = 0."""
    family, value = scheme_param(scheme, target, d, nt, eta)
    mse = mse_sps if family == "sps" else mse_fd
    return value, mse(target, d, value, eta, 0.0, nt)


# ── crossover copy numbers ───────────────────────────────────────────────────

def _crossing_h(d: int, eta: float) -> float:
    """Scale factor h(d, eta) of the exact shift-rule crossing.

    h = A + sqrt(A^2 + B) with A = d + 4 eta + eta^2 (d - 2) and
    B = 8 d eta (1 - eta) (d + 2 eta - eta^2); h(d, 0) = 2d.
    """
    a = d + 4.0 * eta + eta * eta * (d - 2.0)
    b = 8.0 * d * eta * (1.0 - eta) * (d + 2.0 * eta - eta * eta)
    return a + math.sqrt(a * a + b)


def _check_sps_crossing_rate(eta: float) -> None:
    if eta == 0.0:
        raise NoCrossoverAtZeroNoise(
            "eta=0: the naively scaled shift rule never crosses PS")
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")


def _finite_crossing(n_star: float) -> float:
    """Pass a crossing through; one past the float range is not found."""
    if not math.isfinite(n_star):
        raise CrossoverNotFound("crossing lies beyond the float range")
    return n_star


_NSTAR_PREFACTOR = {
    "gradient": lambda d: (d * d - 1.0) / (2.0 * d * d),
    "diag": lambda d: 9.0 * (d * d - 1.0) / (16.0 * d * d),
    "offdiag": lambda d: (d * d - 1.0) ** 2 / d ** 4,
}


def n_star_sps_exact(target, d: int, eta: float) -> float:
    """Copy number where the naively scaled shift rule stops beating PS.

    Exact root of MSE_NSPS(N) = MSE_PS(N) at g = 0, where NSPS runs the
    noise-free optimal lambda under noise rate eta. Verified internally to
    1e-9 relative before returning.
    """
    _check_sps_crossing_rate(eta)
    kind = _kind(target)
    n_star = _finite_crossing(_NSTAR_PREFACTOR[kind](d) * _crossing_h(d, eta)
                              / (eta * (1.0 - eta)))
    lam = lambda_opt(kind, d, n_star)
    m_nsps = mse_sps(kind, d, lam, eta, 0.0, n_star).total
    m_ps = mse_sps(kind, d, 1.0, eta, 0.0, n_star).total
    if abs(m_nsps - m_ps) > 1e-9 * m_ps:
        raise CrossoverNotFound(
            f"crossing root check failed: relative residual "
            f"{abs(m_nsps - m_ps) / m_ps:.3e} at N={n_star}")
    return n_star


def n_star_sps_small_eta(target, d: int, eta: float) -> float:
    """First-order-in-eta crossing: (d^2-1)/(d eta) and its Hessian scalings."""
    _check_sps_crossing_rate(eta)
    kind = _kind(target)
    if kind == "gradient":
        return _finite_crossing((d * d - 1.0) / (d * eta))
    if kind == "diag":
        return _finite_crossing(9.0 * (d * d - 1.0) / (8.0 * d * eta))
    return _finite_crossing(2.0 * (d * d - 1.0) ** 2 / (d ** 3 * eta))


def n_star_fd(target, d: int, eta: float) -> float:
    """Copy number where naive finite differences stop beating PS.

    At each candidate N the finite-difference step is re-optimized noise-free
    (that is what makes the scheme naive), then both schemes are evaluated at
    rate eta with g = 0. The sign change of the difference is bisected over
    [12, 1e12] in log space until the residual is below 1e-6 relative.
    Unlike the scaled shift rule, finite differences beat PS at small N even
    without noise, so the crossing exists at eta = 0 too.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    kind = _kind(target)
    c = _SPS_VAR_COEFF[kind]
    (_, _, _, moment, strength, keep), _ = _fd_terms(kind, d, eta)

    def diff(n: float) -> tuple[float, float]:  # (NFD - PS, PS) MSEs at N
        # mse_sps(kind, d, 1.0, eta, 0.0, n).total: lambda = 1 is exact.
        ps = c / n * strength + (1.0 - keep) ** 2 * moment
        return _fd_total(kind, d, eta, n)(epsilon_opt(kind, d, n)) - ps, ps

    lo, hi = _N_BRACKET
    d_lo, d_hi = diff(lo)[0], diff(hi)[0]
    if d_lo >= 0.0:
        raise CrossoverBelowBracket(
            f"naive finite differences do not beat PS even at N={lo:g} "
            f"({kind}, d={d}, eta={eta})")
    if d_hi <= 0.0:
        raise CrossoverAboveBracket(
            f"naive finite differences still beat PS at N={hi:g} "
            f"({kind}, d={d}, eta={eta})")
    log_lo, log_hi = math.log(lo), math.log(hi)
    for _ in range(200):
        mid = math.exp(0.5 * (log_lo + log_hi))
        d_mid, ps = diff(mid)
        if abs(d_mid) / ps <= 1e-6:
            return mid
        if d_mid < 0.0:
            log_lo = math.log(mid)
        else:
            log_hi = math.log(mid)
    raise CrossoverNotFound(
        "bisection failed to reach 1e-6 relative residual")


def noise_bias(target, d: int, eta: float) -> float:
    """Asymptotic MSE floor eta^2 x (target moment) of the unscaled schemes.

    This is the large-budget limit of the plain shift rule and of both
    naively tuned schemes; the known-noise scaled scheme escapes it when the
    noise-mixed component is parameter independent.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    return eta * eta * _moments(d).moment_for(_kind(target))
