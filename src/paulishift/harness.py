"""Seeded Monte Carlo experiments over random circuit ensembles.

Responsibilities: draw Haar-random parameter sets, run finite-shot estimator
experiments for the five schemes (PS, NSPS, HSPS, NFD, HFD) over a copy-number
grid, locate empirical crossings between scheme MSE curves, study the clean
and noise-mixed function distributions, and Monte Carlo check the ensemble
moment identities.

Reproducibility contract: every random draw comes from a named substream of
``SeedSequence(master_seed, spawn_key=...)``. Spawn keys are

* ``(0, s)`` - circuit parameters of set ``s``;
* ``(1, s)`` - per-set Pauli channel weights when redrawing, ``(1,)`` for the
  shared fixed weights;
* ``(2, s, k, i, j, N, g)`` - the shot draws of set ``s`` for one draw
  group: target kind code ``k`` (gradient 0, diag 1, offdiag 2), flat
  indices ``i`` and ``j`` of the target's angles (``j = i`` for a single
  angle), budget ``N`` and group code ``g`` (0 for the draw PS, NSPS and
  HSPS share, 1 for NFD, 2 for HFD). One vectorized binomial over the
  experiments per evaluation point, in evaluation-point order.

Each parameter set is therefore fully independent of every other, and results
are reduced in set order, so outputs are bit-identical for any worker count.
No code comes from a position in the config's lists, so a row depends only on
its own (seed, set, target, budget, scheme): dropping or reordering other
schemes or targets leaves its bytes unchanged.

Variance note: the three scaled-shift schemes evaluate the same shifted
circuits, so one draw per evaluation point is shared between PS, NSPS and
HSPS (their estimates differ only by the scaling factor). This leaves each
scheme's MSE unbiased while making paired comparisons, crossings in
particular, much less noisy. Each finite-difference scheme draws its own
shots, even where NFD and HFD share a step (at zero noise).
"""
from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import analytics, noise as noise_mod
from .circuits import (AnsatzLayout, PauliObservable, build_ansatz,
                       cyclic_observable, evolve, expectation, shifted)
from .estimators import (DerivativeTarget, DiagHessian, EstimatorSpec,
                         Gradient, OffDiagHessian, evaluation_points,
                         point_count, target_kind)

NOISE_KINDS = ("none", "global_depolarizing", "cnot_depolarizing",
               "cnot_pauli")

_STREAM_PARAMS = 0
_STREAM_NOISE = 1
_STREAM_SHOTS = 2
_DRAW_GROUPS = {"sps": 0, "nfd": 1, "hfd": 2}


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for the named substream of the master seed."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(seq))


# ── configuration ────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class NoiseSpec:
    """Which channel to attach and at what strength.

    ``rate`` is the per-CNOT rate eta0 for the CNOT-attached channels and the
    total rate eta for the global one; ignored for "none".
    ``redraw_weights`` makes the Pauli channel draw fresh weights per
    parameter set instead of sharing one fixed draw.
    """

    kind: str = "none"
    rate: float = 0.0
    redraw_weights: bool = False

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"noise kind must be one of {NOISE_KINDS}")
        if self.kind != "none" and not 0.0 < self.rate < 1.0:
            raise ValueError("noise rate must lie in (0, 1)")
        if self.redraw_weights and self.kind != "cnot_pauli":
            raise ValueError("redraw_weights only applies to cnot_pauli")


_DEFAULT_TARGETS = (Gradient(), DiagHessian(), OffDiagHessian())
# One 2^n x 2^n complex state takes 16 * 4^n bytes: 256 MiB at n = 12, and a
# run holds a few of them at once, against a few GiB of memory.
MAX_QUBITS = 12


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a Monte Carlo run depends on, seed included."""

    n: int
    L: int
    noise: NoiseSpec
    nt_grid: tuple[int, ...]
    parameter_sets: int
    experiments_per_set: int
    master_seed: int
    schemes: tuple[str, ...] = analytics.SCHEMES
    targets: tuple[DerivativeTarget, ...] = _DEFAULT_TARGETS

    def __post_init__(self):
        if self.n > MAX_QUBITS:
            raise ValueError(f"n = {self.n} is above the cap of {MAX_QUBITS} "
                             f"qubits (16 * 4^n bytes per state)")
        if not self.nt_grid:
            raise ValueError("nt_grid must not be empty")
        for nt in self.nt_grid:
            if nt % 12 != 0 or not 48 <= nt <= 2 ** 63 - 1:  # int64 shots
                raise ValueError(
                    f"nt_grid entries must be multiples of 12 in "
                    f"[48, 2^63 - 1], got {nt}")
        if self.parameter_sets < 1 or self.experiments_per_set < 1:
            raise ValueError("parameter_sets and experiments_per_set "
                             "must be >= 1")
        if not self.schemes:
            raise ValueError("scheme list must not be empty")
        for s in self.schemes:
            if s not in analytics.SCHEMES:
                raise ValueError(f"unknown scheme {s!r}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ValueError("duplicate scheme")
        if not self.targets:
            raise ValueError("target list must not be empty")
        self.layout()  # validates n and L

    def layout(self) -> AnsatzLayout:
        return build_ansatz(self.n, self.L)

    def observable(self) -> PauliObservable:
        return cyclic_observable(self.n)

    def eta_total(self) -> float:
        if self.noise.kind == "none":
            return 0.0
        if self.noise.kind == "global_depolarizing":
            return self.noise.rate
        return noise_mod.total_error_rate(self.noise.rate, self.n, self.L)

    def noise_for_set(self, set_index: int):
        """The channel for this set's circuits; None when noiseless."""
        kind = self.noise.kind
        if kind == "none":
            return None
        if kind == "global_depolarizing":
            return noise_mod.GlobalDepolarizing(self.noise.rate)
        if kind == "cnot_depolarizing":
            return noise_mod.CnotDepolarizing(self.noise.rate)
        key = ((_STREAM_NOISE, set_index) if self.noise.redraw_weights
               else (_STREAM_NOISE,))
        rng = substream(self.master_seed, *key)
        weights = noise_mod.random_pauli_weights(self.noise.rate, rng)
        return noise_mod.CnotPauliChannel(tuple(weights))


# ── parameter sampling ───────────────────────────────────────────────────────

def sample_parameter_set(layout: AnsatzLayout,
                         rng: np.random.Generator) -> np.ndarray:
    """Draw angles making every ZYZ block Haar random up to global phase.

    Per block, three uniforms (u0, u1, u2) become alpha = 2 pi u0,
    beta = arccos(1 - 2 u1), gamma = 2 pi u2; the arccos map gives beta the
    sin(beta)/2 density the Haar measure requires. Blocks are drawn layer by
    layer, qubit by qubit, into the flat vector of 3nL angles.
    """
    theta = np.empty(layout.parameter_count)
    for block in theta.reshape(layout.L * layout.n, 3):
        u = rng.random(3)
        block[:] = (2.0 * math.pi * u[0], math.acos(1.0 - 2.0 * u[1]),
                    2.0 * math.pi * u[2])
    return theta


# ── exact values ─────────────────────────────────────────────────────────────

def _shift_rule(target: DerivativeTarget) -> EstimatorSpec:
    """The plain parameter-shift rule: the SPS family at lambda = 1."""
    return EstimatorSpec("sps", target, lam=1.0)


_GRID = (-0.5 * math.pi, 0.0, 0.5 * math.pi)


def _grid_weights(shift: float) -> tuple[tuple[float, float], ...]:
    """(grid shift, weight) pairs giving f at ``shift`` along one angle.

    Along one angle f is a + b cos s + c sin s, fixed by its values at
    -pi/2, 0 and +pi/2. A shift on the grid takes its own value: pushed
    through the weights, cos(pi/2) = 6e-17 would leak into the result.
    """
    if not math.isfinite(shift):
        raise ValueError(f"shift {shift} is not finite")
    if shift in _GRID:
        return ((shift, 1.0),)
    c, s = math.cos(shift), math.sin(shift)
    return ((_GRID[0], 0.5 * (1.0 - c - s)), (0.0, c),
            (_GRID[2], 0.5 * (1.0 - c + s)))


class _FunctionCache:
    """Exact expectations at shifted parameter points of one parameter set.

    Circuits run only on the grid {-pi/2, 0, +pi/2}^k over the shifted
    angles, k <= 2. Every gate is exp(-i theta P / 2) and no channel depends
    on theta, so f, clean or noisy, is a + b cos s + c sin s along each
    angle; ``value`` rebuilds f at any other shift from the grid (the tensor
    product of the one-angle weights for two angles).

    ``exact`` cuts each circuit at the lowest (a) and highest (b) layer its
    shifts touch, 1 and L unshifted: the state after layers 1..a-1 and the
    observable pulled back through layers b+1..L and the final hook are
    cached, so a point runs only layers a..b of its shifted angles. Values
    and cut ends are keyed by noiselessness: one cache serves the clean
    circuit and one channel.
    """

    def __init__(self, layout, theta, obs):
        self.layout = layout
        self.theta = theta
        self.obs = obs
        self._values: dict[tuple, float] = {}
        self._ends: dict[tuple, np.ndarray | None] = {}

    def exact(self, shifts, noise) -> float:
        """f at the shifted point: layers a..b between the cached cut ends."""
        key = (noise is None,
               tuple(sorted((loc, s) for loc, s in shifts.items() if s)))
        if key not in self._values:
            touched = [layer for (_, layer, _), _ in key[1]]
            a, b = min(touched or [1]), max(touched or [self.layout.L])
            point = shifted(self.layout, self.theta, dict(key[1]))
            state = evolve(self.layout, point, noise, (a, b),
                           self._end(noise, a - 1, False))
            self._values[key] = expectation(state,
                                            self._end(noise, b + 1, True))
        return self._values[key]

    def _end(self, noise, layer: int, adjoint: bool):
        """The state after layers 1..layer or the observable pulled back
        through layers layer..L; an empty range runs no circuit, and None
        is |0><0|."""
        key = (noise is None, layer, adjoint)
        if key not in self._ends:
            start = self.obs.matrix() if adjoint else None
            span = (layer, self.layout.L) if adjoint else (1, layer)
            self._ends[key] = start if span[0] > span[1] else evolve(
                self.layout, self.theta, noise, span, start, adjoint)
        return self._ends[key]

    def value(self, shifts, noise) -> float:
        """f at the shifted point, rebuilt from the grid circuits."""
        live = sorted((loc, s) for loc, s in shifts.items() if s)
        if len(live) > 2:
            raise ValueError("at most two angles can be shifted at once")
        total = 0.0
        for combo in itertools.product(*(_grid_weights(s) for _, s in live)):
            total += math.prod(w for _, w in combo) * self.exact(
                {loc: g for (loc, _), (g, _) in zip(live, combo)}, noise)
        return total

    def mean(self, spec: EstimatorSpec, noise) -> float:
        """Infinite-shot mean of the estimator: exact f at each point."""
        return sum(coeff * self.value(shifts, noise)
                   for shifts, coeff in evaluation_points(spec))


def estimator_mean(spec: EstimatorSpec, layout: AnsatzLayout,
                   theta: np.ndarray, noise, obs: PauliObservable) -> float:
    """Infinite-shot mean of the estimator: exact f at each evaluation point."""
    return _FunctionCache(layout, theta, obs).mean(spec, noise)


def exact_derivative(target: DerivativeTarget, layout: AnsatzLayout,
                     theta: np.ndarray, noise, obs: PauliObservable) -> float:
    """Exact derivative of the (possibly noisy) circuit function.

    Evaluates the parameter-shift rule on exact expectations; with noise=None
    this is the true component against which estimator errors are measured.
    """
    return estimator_mean(_shift_rule(target), layout, theta, noise, obs)


# ── Monte Carlo MSE curves ───────────────────────────────────────────────────

@dataclass(frozen=True)
class MseEstimate:
    """Mean squared error of one scheme at one copy budget."""

    scheme: str
    target: DerivativeTarget
    n_total: int
    mean: float
    stderr: float

    def __post_init__(self):
        if self.mean < 0 or self.stderr < 0:
            raise ValueError("mean and stderr must be nonnegative")


def _scheme_spec(scheme: str, target: DerivativeTarget, d: int, nt: int,
                 eta: float) -> EstimatorSpec:
    """The estimator a scheme name runs at this copy budget."""
    family, value = analytics.scheme_param(scheme, target_kind(target), d, nt,
                                           eta)
    return EstimatorSpec(family, target,
                         **{"lam" if family == "sps" else "epsilon": value})


def _binomial_estimates(f: float, shots: int, rng: np.random.Generator,
                        size: int) -> np.ndarray:
    """Vector of finite-shot estimates of a +/-1 observable with mean f.

    Heads come with probability (1 + f)/2; f may leave [-1, 1] by rounding.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    if abs(f) > 1.0 + 1e-10:
        raise ValueError(f"expectation {f} is outside [-1, 1]")
    f = min(1.0, max(-1.0, f))
    draws = rng.binomial(shots, (1.0 + f) / 2.0, size=size)
    return (2.0 * draws - shots) / shots


def _shots_key(layout: AnsatzLayout, target: DerivativeTarget
               ) -> tuple[int, int, int]:
    """Kind code and flat indices of the target's two angles (the one angle
    twice for a single-angle target); ValueError if one is off the circuit."""
    first = layout.flat_index(target.layer, target.qubit, target.slot)
    second = first
    if isinstance(target, OffDiagHessian):
        second = layout.flat_index(target.layer2, target.qubit2, target.slot2)
    return analytics.TARGET_KINDS.index(target_kind(target)), first, second


def _run_set(config: ExperimentConfig, set_index: int) -> np.ndarray:
    """Per-set mean squared errors, indexed (target, scheme, grid point)."""
    layout = config.layout()
    obs = config.observable()
    d = 2 ** config.n
    eta = config.eta_total()
    n_exp = config.experiments_per_set

    theta = sample_parameter_set(
        layout, substream(config.master_seed, _STREAM_PARAMS, set_index))
    channel = config.noise_for_set(set_index)
    cache = _FunctionCache(layout, theta, obs)

    out = np.empty((len(config.targets), len(config.schemes),
                    len(config.nt_grid)))
    for t_idx, target in enumerate(config.targets):
        rule = _shift_rule(target)
        true_value = cache.mean(rule, None)
        target_key = _shots_key(layout, target)
        for nt_idx, nt in enumerate(config.nt_grid):
            shots = nt // point_count(target)
            draws: dict[str, np.ndarray] = {}
            for s_idx, scheme in enumerate(config.schemes):
                spec = _scheme_spec(scheme, target, d, nt, eta)
                # Scaled-shift schemes share one draw at the lambda = 1
                # points; FD schemes draw by name (NFD = HFD at zero noise).
                if spec.scheme == "sps":
                    group, drawn, scale = "sps", rule, spec.lam
                else:
                    group, drawn, scale = scheme, spec, 1.0
                if group not in draws:
                    rng = substream(config.master_seed, _STREAM_SHOTS,
                                    set_index, *target_key, nt,
                                    _DRAW_GROUPS[group])
                    draws[group] = sum(coeff * _binomial_estimates(
                        cache.value(shifts, channel), shots, rng, n_exp)
                        for shifts, coeff in evaluation_points(drawn))
                err = scale * draws[group] - true_value
                out[t_idx, s_idx, nt_idx] = float(np.mean(err * err))
    return out


def _check_target_locations(config: ExperimentConfig) -> None:
    """Raise ValueError if a target's angle lies outside the circuit."""
    layout = config.layout()
    for target in config.targets:
        try:
            _shots_key(layout, target)
        except ValueError as exc:
            raise ValueError(
                f"{target_kind(target)} target outside the n = {config.n}, "
                f"L = {config.L} circuit: {exc}") from None


def monte_carlo_mse(config: ExperimentConfig,
                    workers: int | None = None) -> list[MseEstimate]:
    """Estimate the MSE of every configured scheme over the copy grid.

    Squared errors are measured against the exact noiseless derivative,
    averaged over experiments within each parameter set and then over sets;
    stderr is the standard error of the per-set means. Results are identical
    for any worker count. Raises ValueError before any simulation if a
    target's angle lies outside the circuit.
    """
    _check_target_locations(config)
    indices = range(config.parameter_sets)
    if workers is None or workers <= 1:
        per_set = [_run_set(config, s) for s in indices]
    else:
        chunk = max(1, config.parameter_sets // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_set = list(pool.map(partial(_run_set, config), indices,
                                    chunksize=chunk))
    stacked = np.stack(per_set)  # (set, target, scheme, nt)
    means = stacked.mean(axis=0)
    if config.parameter_sets > 1:
        errs = stacked.std(axis=0, ddof=1) / math.sqrt(config.parameter_sets)
    else:
        errs = np.zeros_like(means)
    results = []
    for t_idx, target in enumerate(config.targets):
        for s_idx, scheme in enumerate(config.schemes):
            for nt_idx, nt in enumerate(config.nt_grid):
                results.append(MseEstimate(
                    scheme=scheme, target=target, n_total=nt,
                    mean=float(means[t_idx, s_idx, nt_idx]),
                    stderr=float(errs[t_idx, s_idx, nt_idx])))
    return results


# ── empirical crossings ──────────────────────────────────────────────────────

@dataclass(frozen=True)
class CrossingEstimate:
    """Interpolated copy number where one MSE curve overtakes another."""

    n_star: float
    uncertainty: float  # half the bracketing grid interval


def empirical_n_star(candidate: list[MseEstimate],
                     baseline: list[MseEstimate]) -> CrossingEstimate:
    """Locate where the candidate curve's MSE rises above the baseline's.

    Finds the last grid point where candidate - baseline is negative beyond
    the combined standard error and the first where it is positive, then
    interpolates the difference linearly in log copy number between them.
    A difference of exactly zero at a grid point returns that point.
    """
    cand = sorted(candidate, key=lambda e: e.n_total)
    base = sorted(baseline, key=lambda e: e.n_total)
    grid = [e.n_total for e in cand]
    if grid != [e.n_total for e in base]:
        raise ValueError("curves are not on the same copy-number grid")
    diff = np.array([c.mean - b.mean for c, b in zip(cand, base)])
    err = np.array([math.hypot(c.stderr, b.stderr)
                    for c, b in zip(cand, base)])

    def half_step(i: int) -> float:
        if i + 1 < len(grid):
            return 0.5 * (grid[i + 1] - grid[i])
        return 0.5 * (grid[i] - grid[i - 1])

    exact = np.flatnonzero(diff == 0.0)
    if exact.size:
        i = int(exact[0])
        return CrossingEstimate(n_star=float(grid[i]),
                                uncertainty=half_step(i))
    below = np.flatnonzero(diff < -err)
    if not below.size:
        raise analytics.CrossoverNotFound(
            "candidate curve is never below the baseline beyond stderr")
    lo = int(below.max())
    after = np.flatnonzero(diff > 0)
    after = after[after > lo]
    if not after.size:
        raise analytics.CrossoverNotFound(
            "candidate curve never rises above the baseline after its "
            "confidently lower stretch")
    hi = int(after[0])
    x_lo, x_hi = math.log(grid[lo]), math.log(grid[hi])
    frac = diff[lo] / (diff[lo] - diff[hi])
    n_star = math.exp(x_lo + frac * (x_hi - x_lo))
    return CrossingEstimate(n_star=float(n_star),
                            uncertainty=0.5 * (grid[hi] - grid[lo]))


# ── distribution study ───────────────────────────────────────────────────────

@dataclass(frozen=True)
class DistributionSummary:
    """Clean and noise-mixed function samples over the parameter ensemble."""

    f_samples: np.ndarray
    g_samples: np.ndarray
    var_f: float
    var_g: float
    r_var: float | None  # None when var_g is numerically zero
    eta_total: float


def distribution_study(config: ExperimentConfig) -> DistributionSummary:
    """Sample the clean function f and the noise-mixed component g per set.

    f is the exact noiseless expectation; g is recovered from the noisy one
    by inverting the mixing at the config's total error rate. The variance
    ratio var_f/var_g is left undefined when g is constant to numerical
    precision (the global channel mixes in an exactly traceless state).
    """
    eta = config.eta_total()
    if eta <= 1e-12:
        raise ValueError(
            "distribution study needs noise with a nonzero total rate")
    layout = config.layout()
    obs = config.observable()
    f_vals = np.empty(config.parameter_sets)
    g_vals = np.empty(config.parameter_sets)
    for s in range(config.parameter_sets):
        theta = sample_parameter_set(
            layout, substream(config.master_seed, _STREAM_PARAMS, s))
        cache = _FunctionCache(layout, theta, obs)
        f = cache.value({}, None)
        f_noisy = cache.value({}, config.noise_for_set(s))
        f_vals[s] = f
        g_vals[s] = (f_noisy - (1.0 - eta) * f) / eta
    var_f = float(np.var(f_vals))
    var_g = float(np.var(g_vals))
    r_var = var_f / var_g if var_g > 1e-15 else None
    return DistributionSummary(f_samples=f_vals, g_samples=g_vals,
                               var_f=var_f, var_g=var_g, r_var=r_var,
                               eta_total=eta)


# ── two-design moment verification ───────────────────────────────────────────

@dataclass(frozen=True)
class MomentEstimate:
    value: float
    stderr: float


@dataclass(frozen=True)
class TwoDesignCheck:
    """Monte Carlo moment estimates next to their closed-form targets."""

    analytic: analytics.TwoDesignMoments
    mean_f: MomentEstimate
    mean_f2: MomentEstimate
    mean_grad2: MomentEstimate
    mean_hess_diag2: MomentEstimate
    mean_hess_off2: MomentEstimate
    samples: int


def _moment_est(values: np.ndarray) -> MomentEstimate:
    return MomentEstimate(
        value=float(values.mean()),
        stderr=float(values.std(ddof=1) / math.sqrt(len(values))))


def verify_two_design(n: int, L: int, samples: int,
                      rng: np.random.Generator | int) -> TwoDesignCheck:
    """Monte Carlo check of the moment identities on the Haar-block ansatz.

    Evaluates the exact noiseless function and its derivatives at a bulk
    parameter location over random parameter sets and compares the sample
    moments with the ideal two-design values. The identities assume the
    probed gate is surrounded by scrambling sub-circuits on both sides, so
    the probe sits in layer L // 2 + 1, where both sides are as deep as the
    circuit allows; at small n and L the moments still deviate from the
    two-design values by finite depth. For n = 1 the off-diagonal pair
    reaches one layer back. Needs L >= 2 so a sandwiched layer exists.
    """
    if L < 2:
        raise ValueError("need L >= 2 so the probed layer is sandwiched")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    layer = L // 2 + 1
    if isinstance(rng, (int, np.integer)):
        rng = substream(int(rng), _STREAM_PARAMS)
    layout = build_ansatz(n, L)
    obs = cyclic_observable(n)
    if n >= 2:
        off = OffDiagHessian(layer=layer, qubit2=2, layer2=layer)
    else:
        off = OffDiagHessian(layer=layer, qubit2=1, layer2=layer - 1)
    targets = {
        "grad": _shift_rule(Gradient(layer=layer)),
        "diag": _shift_rule(DiagHessian(layer=layer)),
        "off": _shift_rule(off),
    }
    f = np.empty(samples)
    derivs = {name: np.empty(samples) for name in targets}
    for i in range(samples):
        theta = sample_parameter_set(layout, rng)
        cache = _FunctionCache(layout, theta, obs)
        f[i] = cache.value({}, None)
        for name, spec in targets.items():
            derivs[name][i] = cache.mean(spec, None)
    return TwoDesignCheck(
        analytic=analytics.two_design_moments(n),
        mean_f=_moment_est(f),
        mean_f2=_moment_est(f * f),
        mean_grad2=_moment_est(derivs["grad"] ** 2),
        mean_hess_diag2=_moment_est(derivs["diag"] ** 2),
        mean_hess_off2=_moment_est(derivs["off"] ** 2),
        samples=samples)
