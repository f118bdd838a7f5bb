"""Seeded Monte Carlo experiments over random circuit ensembles.

Responsibilities: draw Haar-random parameter sets, run finite-shot estimator
experiments for the five schemes (PS, NSPS, HSPS, NFD, HFD) over a copy-number
grid, locate empirical crossings between scheme MSE curves, and study the
clean and noise-mixed function distributions. Every circuit, clean or
noisy, runs on the real Pauli vectors of ``circuits``.

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

import math
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

import numpy as np

from . import analytics, noise as noise_mod
from .circuits import (AnsatzLayout, PauliObservable, _layer_unitary,
                       apply_ring, build_ansatz, cyclic_observable, evolve,
                       expectation, rotate, shifted)
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
    total rate eta for the global one; ignored for "none", but finite.
    ``redraw_weights`` makes the Pauli channel draw fresh weights per
    parameter set instead of sharing one fixed draw.
    """

    kind: str = "none"
    rate: float = 0.0
    redraw_weights: bool = False

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"noise kind must be one of {NOISE_KINDS}")
        if not math.isfinite(self.rate):
            raise ValueError(f"noise rate {self.rate} is not finite")
        if self.kind != "none" and not 0.0 < self.rate < 1.0:
            raise ValueError("noise rate must lie in (0, 1)")
        if self.redraw_weights and self.kind != "cnot_pauli":
            raise ValueError("redraw_weights only applies to cnot_pauli")


_DEFAULT_TARGETS = (Gradient(), DiagHessian(), OffDiagHessian())
# A Pauli vector takes 8 * 4^n bytes, 128 MiB at n = 12, and a run holds a
# few, with its ring's gather and factors, in a few GiB.
MAX_QUBITS = 12
# Each worker is a forked process holding its own circuit caches, and the
# pool starts them all at once: 256 is past the cores of one host, and more
# is a slip of a digit.
MAX_WORKERS = 256


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
                             f"qubits (8 * 4^n bytes per state)")
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
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("duplicate target")
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
    sin(beta)/2 density the Haar measure requires. One draw fills the 3nL
    angles block by block; ``math.acos`` keeps beta's bits across CPUs.
    """
    u = rng.random((layout.L * layout.n, 3))
    theta = 2.0 * math.pi * u
    theta[:, 1] = [math.acos(x) for x in (1.0 - 2.0 * u[:, 1]).tolist()]
    return theta.ravel()


# ── exact values ─────────────────────────────────────────────────────────────

def _shift_rule(target: DerivativeTarget) -> EstimatorSpec:
    """The plain parameter-shift rule: the SPS family at lambda = 1."""
    return EstimatorSpec("sps", target, lam=1.0)


_GRID = (-0.5 * math.pi, 0.0, 0.5 * math.pi)


def _axis_weights(shift: float) -> np.ndarray:
    """Weights on the grid shifts that give f at ``shift`` along one angle.

    Along one angle f is a + b cos s + c sin s, fixed by its values at
    -pi/2, 0 and +pi/2. A shift on the grid takes its own value: pushed
    through the weights, cos(pi/2) = 6e-17 would leak into the result.
    """
    if not math.isfinite(shift):
        raise ValueError(f"shift {shift} is not finite")
    if shift in _GRID:
        return np.array([float(shift == g) for g in _GRID])
    c, s = math.cos(shift), math.sin(shift)
    return np.array([0.5 * (1.0 - c - s), c, 0.5 * (1.0 - c + s)])


def _angles(target: DerivativeTarget) -> tuple[tuple[int, int, int], ...]:
    """The (qubit, layer, slot) of the target's one or two angles."""
    first = (target.qubit, target.layer, target.slot)
    if isinstance(target, OffDiagHessian):
        return first, (target.qubit2, target.layer2, target.slot2)
    return (first,)


def _point_weights(spec: EstimatorSpec) -> tuple[np.ndarray, np.ndarray]:
    """Grid weights of the spec's evaluation points, (points, 3) or
    (points, 3, 3) over its target's angles, and their coefficients."""
    points = evaluation_points(spec)
    weights = [reduce(np.multiply.outer, [_axis_weights(shifts.get(a, 0.0))
                                          for a in _angles(spec.target)])
               for shifts, _ in points]
    return np.array(weights), np.array([coeff for _, coeff in points])


class _FunctionCache:
    """Exact expectations at shifted parameter points of one parameter set.

    Every gate is exp(-i theta P / 2) and no channel depends on theta, so f,
    clean or noisy, is a + b cos s + c sin s along each angle. Shifted
    values come only from the grid {-pi/2, 0, +pi/2}^k over a target's
    k <= 2 angles, one array that ``value`` contracts with the grid weights
    of any points; ``exact`` is f at theta from the full circuit. The grid
    is cut at the target's lowest (a) and highest (b) layer: between the
    state after layers 1..a-1 and the observable pulled back through the
    final hook, layers L..b+1 and layer b's CNOT ring, a point in one layer
    costs its transfer factors on a Pauli vector and one inner product.
    Values and cut ends are built once, keyed by noiselessness: one cache
    serves the clean circuit and one channel. Each distinct layer's
    transfer factors are built once and shared by both: the L unshifted
    layers in one ``_layer_unitary`` call, a grid's new shifted layers in
    one more. The global channel runs no circuit; it scales every traceless
    expectation by 1 - eta, exactly.
    """

    def __init__(self, layout, theta, obs):
        self.layout, self.theta, self.obs = layout, theta, obs
        self._values: dict[tuple, np.ndarray | float] = {}
        self._unitaries: dict[bytes, tuple] = {}
        self._build(theta.reshape(layout.L, layout.n, 3))

    def value(self, target: DerivativeTarget, weights: np.ndarray,
              noise) -> np.ndarray:
        """f at each point whose grid weights over the target's angles are
        a row of ``weights``, as from ``_point_weights``."""
        grid = self._memo(("grid", _angles(target)), noise, self._grid)
        return weights.reshape(len(weights), -1) @ grid.ravel()

    def mean(self, spec: EstimatorSpec, noise) -> float:
        """Infinite-shot mean of the estimator: exact f at each point."""
        weights, coeffs = _point_weights(spec)
        return float(coeffs @ self.value(spec.target, weights, noise))

    def exact(self, noise) -> float:
        """f at theta from the full circuit, no grid involved."""
        return self._memo(("full", self.layout.L + 1), noise, self._full)

    def _memo(self, key, noise, run):
        """``run(key[1], noise)`` once per key and noiselessness."""
        if isinstance(noise, noise_mod.GlobalDepolarizing):
            return (1.0 - noise.eta) * self._memo(key, None, run)
        stored = (noise is None,) + key
        if stored not in self._values:
            self._values[stored] = run(key[1], noise)
        return self._values[stored]

    def _full(self, end: int, noise) -> float:
        return expectation(self._forward(end, noise), self.obs)

    def _grid(self, angles, noise) -> np.ndarray:
        layout = self.layout
        layers = [layer for _, layer, _ in angles]
        a, b = min(layers), max(layers)
        start = self._memo(("forward", a), noise, self._forward)
        obs = self._memo(("back", b), noise, self._back)
        grid = np.empty((3,) * len(angles))
        points = {idx: shifted(layout, self.theta, {
            angle: _GRID[i] for angle, i in zip(angles, idx)}).reshape(
                layout.L, layout.n, 3) for idx in np.ndindex(grid.shape)}
        self._build([p[k - 1] for p in points.values() for k in (a, b)])
        segments = {None: start}  # layers a..b-1 see only the layer-a shift
        for idx, point in points.items():
            i = idx[layers.index(a)] if a < b else None
            if i not in segments:
                segments[i] = evolve(layout, point.ravel(), noise, (a, b - 1),
                                     start, unitary=self._unitary)
            u = self._unitary(point[b - 1])
            grid[idx] = expectation(rotate(u, segments[i]), obs)
        return grid

    def _forward(self, a: int, noise) -> np.ndarray:
        return evolve(self.layout, self.theta, noise, (1, a - 1),
                      unitary=self._unitary)

    def _back(self, b: int, noise) -> np.ndarray:
        obs = self.obs.pauli_vector()
        if b < self.layout.L:
            obs = evolve(self.layout, self.theta, noise, (b + 1, self.layout.L),
                         obs, adjoint=True, unitary=self._unitary)
        elif noise is not None:  # an empty range skips the final hook
            obs = noise.apply_final(obs, adjoint=True)
        return apply_ring(self.layout, obs, noise, adjoint=True)

    def _build(self, layers) -> None:
        """Each (n, 3) layer's transfer factors not yet built, in one call."""
        new = {angles.tobytes(): angles for angles in layers
               if angles.tobytes() not in self._unitaries}
        if new:
            factors = _layer_unitary(np.array(list(new.values())))
            for k, key in enumerate(new):
                self._unitaries[key] = tuple(f[k] for f in factors)

    def _unitary(self, angles: np.ndarray) -> tuple:
        return self._unitaries[angles.tobytes()]  # built with the set or grid


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
    kind = target_kind(target)
    try:
        flat = [layout.flat_index(layer, q, slot)
                for q, layer, slot in _angles(target)]
    except ValueError as exc:
        raise ValueError(f"{kind} target outside the n = {layout.n}, "
                         f"L = {layout.L} circuit: {exc}") from None
    return analytics.TARGET_KINDS.index(kind), flat[0], flat[-1]


@lru_cache(maxsize=16)
def _plan(config: ExperimentConfig) -> list[tuple]:
    """Per target of the config: the target, its shot key, its shift rule,
    the grid weights of every point drawn at any budget, and the draw
    groups (budget index, budget, group code, rows of those weights,
    coefficients, scheme indices, scales of shape (schemes, 1)). Scaled-shift
    schemes share one draw at the lambda = 1 points; FD schemes draw by
    name (NFD = HFD at zero noise)."""
    d, eta = 2 ** config.n, config.eta_total()
    plan = []
    for target in config.targets:
        key = _shots_key(config.layout(), target)
        rule, rows, groups = _shift_rule(target), [], []
        for nt_idx, nt in enumerate(config.nt_grid):
            specs = [_scheme_spec(s, target, d, nt, eta)
                     for s in config.schemes]
            sps = [i for i, spec in enumerate(specs) if spec.scheme == "sps"]
            draws = [(config.schemes[i], spec, [i], [[1.0]])
                     for i, spec in enumerate(specs) if spec.scheme == "fd"]
            if sps:
                draws.append(("sps", rule, sps, [[specs[i].lam] for i in sps]))
            for group, drawn, s_idx, scales in draws:
                weights, coeffs = _point_weights(drawn)
                groups.append((nt_idx, nt, _DRAW_GROUPS[group],
                               range(len(rows), len(rows) + len(weights)),
                               coeffs.tolist(), s_idx, np.array(scales)))
                rows.extend(weights)
        plan.append((target, key, rule, np.array(rows), groups))
    return plan


def _run_set(config: ExperimentConfig, set_index: int) -> np.ndarray:
    """Per-set mean squared errors, indexed (target, scheme, grid point)."""
    layout = config.layout()
    n_exp = config.experiments_per_set
    theta = sample_parameter_set(
        layout, substream(config.master_seed, _STREAM_PARAMS, set_index))
    channel = config.noise_for_set(set_index)
    cache = _FunctionCache(layout, theta, config.observable())

    out = np.empty((len(config.targets), len(config.schemes),
                    len(config.nt_grid)))
    for t_idx, (target, key, rule, weights, groups) in enumerate(
            _plan(config)):
        true_value = cache.mean(rule, None)
        f = cache.value(target, weights, channel).tolist()
        for nt_idx, nt, code, rows, coeffs, s_idx, scales in groups:
            shots = nt // point_count(target)
            rng = substream(config.master_seed, _STREAM_SHOTS, set_index,
                            *key, nt, code)
            draws = sum(coeff * _binomial_estimates(f[row], shots, rng, n_exp)
                        for row, coeff in zip(rows, coeffs))
            err = scales * draws - true_value
            out[t_idx, s_idx, nt_idx] = (err * err).sum(axis=1) / n_exp
    return out


def monte_carlo_mse(config: ExperimentConfig,
                    workers: int | None = None) -> list[MseEstimate]:
    """Estimate the MSE of every configured scheme over the copy grid.

    Squared errors are measured against the exact noiseless derivative,
    averaged over experiments within each parameter set and then over sets;
    stderr is the standard error of the per-set means. Results are identical
    for any worker count; no more processes start than there are sets.
    Raises ValueError before any simulation if ``workers`` is outside
    [1, MAX_WORKERS] or a target's angle lies outside the circuit.
    """
    if workers is not None and not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers = {workers} is outside [1, {MAX_WORKERS}]")
    _plan(config)  # checks every target's angles before any simulation
    indices = range(config.parameter_sets)
    workers = min(workers or 1, config.parameter_sets)
    if workers == 1:
        per_set = [_run_set(config, s) for s in indices]
    else:
        from concurrent.futures import ProcessPoolExecutor
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
    channels: tuple  # each set's noise model, as drawn for its circuit


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
    channels = tuple(map(config.noise_for_set, range(config.parameter_sets)))
    for s, channel in enumerate(channels):
        theta = sample_parameter_set(
            layout, substream(config.master_seed, _STREAM_PARAMS, s))
        cache = _FunctionCache(layout, theta, obs)
        f_vals[s] = f = cache.exact(None)
        g_vals[s] = (cache.exact(channel) - (1.0 - eta) * f) / eta
    var_f = float(np.var(f_vals))
    var_g = float(np.var(g_vals))
    r_var = var_f / var_g if var_g > 1e-15 else None
    return DistributionSummary(f_samples=f_vals, g_samples=g_vals,
                               var_f=var_f, var_g=var_g, r_var=r_var,
                               eta_total=eta, channels=channels)
