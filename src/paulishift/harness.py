"""Seeded Monte Carlo experiments over random circuit ensembles.

Responsibilities: draw Haar-random parameter sets, run finite-shot estimator
experiments for the five schemes (PS, NSPS, HSPS, NFD, HFD) over a copy-number
grid, locate empirical crossings between scheme MSE curves, and study the
clean and noise-mixed function distributions. Every circuit, clean or
noisy, runs on the real Pauli vectors of ``circuits``.

Reproducibility contract: every random draw comes from a named substream,
numpy's ``Generator(PCG64(SeedSequence(master_seed, spawn_key=key)))``.
``substreams`` derives a batch's streams bit for bit in one array pass over
all its keys; their ``bit_generator.seed_seq`` holds only the four seed
words and cannot spawn. Spawn keys are

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
are reduced in set order, so outputs are bit-identical for any worker count
and any batch size: sets run in batches on a leading array axis, and every
batched operation gives each set the bits of its own single-set call.
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
import operator
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import Iterator, NamedTuple

import numpy as np

from . import analytics, noise as noise_mod
from .circuits import (AnsatzLayout, PauliObservable, _apply_ring,
                       _layer_unitary, _ring, build_ansatz, cyclic_observable,
                       depolarize, evolve, rotate, shifted)
from .estimators import (DerivativeTarget, DiagHessian, EstimatorSpec,
                         Gradient, OffDiagHessian, evaluation_points,
                         point_count, target_kind)

NOISE_KINDS = ("none", "global_depolarizing", "cnot_depolarizing",
               "cnot_pauli")

_STREAM_PARAMS = 0
_STREAM_NOISE = 1
_STREAM_SHOTS = 2
_DRAW_GROUPS = {"sps": 0, "nfd": 1, "hfd": 2}


# numpy's SeedSequence constants: the pool of four uint32 words is filled
# by a hashmix with the A pair, mixed word into word by the MIX pair, and
# read out by a hashmix with the B pair.
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_POOL_SIZE = 4


def _hash_constants(init: int, mult: int, calls: int) -> list[int]:
    """The hash constant before and after each of ``calls`` hashmixes."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _hashmix(value, const, next_const):
    """numpy's hashmix of uint32 words, on Python ints or uint32 arrays."""
    value = (value ^ const) * next_const & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    x = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return x ^ x >> 16


def _key_words(keys) -> tuple[np.ndarray, np.ndarray]:
    """Each key's uint32 words as numpy coerces a spawn key, least
    significant word of each element first: (keys, longest) words, zero
    past each key's length, and the lengths."""
    flat = [x for key in keys for x in key]
    elems = np.array(flat)
    if elems.dtype.kind not in "iu":  # past 64 bits, or not integers
        elems = np.array([operator.index(x) for x in flat], dtype=object)
    if (elems < 0).any():
        raise ValueError(f"expected non-negative integer, got "
                         f"{elems[elems < 0][0]}")
    digits = [elems & _MASK32]
    counts = np.ones(len(flat), dtype=np.intp)
    while (elems := elems >> 32).any():
        digits.append(elems & _MASK32)
        counts += elems != 0
    elem = np.repeat(np.arange(len(flat)), counts)
    row = np.repeat(np.repeat(np.arange(len(keys)),
                              [len(key) for key in keys]), counts)
    lengths = np.bincount(row, minlength=len(keys))
    at = np.arange(len(elem))
    words = np.zeros((len(keys), lengths.max(initial=0)), dtype=np.uint32)
    words[row, at - (np.cumsum(lengths) - lengths)[row]] = np.array(
        digits, dtype=np.uint32)[at - (np.cumsum(counts) - counts)[elem], elem]
    return words, lengths


def _seed_words(master_seed: int, keys) -> np.ndarray:
    """The four uint64 words ``SeedSequence(master_seed, spawn_key=key)
    .generate_state(4, np.uint64)`` gives each key, (keys, 4).

    numpy's entropy is the master seed's words, padded to the pool size,
    then the key's words. The pool is filled and cross-mixed from the
    master seed's first four words alone, so that runs once on Python ints;
    every later word is mixed into all four pool words at once, the keys'
    words for every key in one array call per word. The hash constants
    depend only on how many words came before, so all keys share them.
    """
    words, lengths = _key_words([(master_seed,)] + list(keys))
    run = words[0, :lengths[0]].tolist()
    run += [0] * (_POOL_SIZE - len(run))
    spawn, lengths = words[1:, :lengths[1:].max(initial=0)], lengths[1:]
    consts = _hash_constants(_INIT_A, _MULT_A,
                             _POOL_SIZE * (len(run) + spawn.shape[1]))
    pool = [_hashmix(w, consts[i], consts[i + 1])
            for i, w in enumerate(run[:_POOL_SIZE])]
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if dst != src:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k],
                                                      consts[k + 1]))
                k += 1
    consts = np.array(consts[k:], dtype=np.uint32)
    pool = np.tile(np.array(pool, dtype=np.uint32), (len(spawn), 1))
    for c, word in enumerate(run[_POOL_SIZE:] + list(spawn.T[:, :, None])):
        at = consts[_POOL_SIZE * c:_POOL_SIZE * c + _POOL_SIZE + 1]
        mixed = _mix(pool, _hashmix(word, at[:-1], at[1:]))
        live = c < len(run) - _POOL_SIZE + lengths
        pool = np.where(live[:, None], mixed, pool)
    at = np.array(_hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE),
                  dtype=np.uint32)
    state = _hashmix(np.tile(pool, 2), at[:-1], at[1:])
    return state.astype("<u4").view("<u8").astype(np.uint64)  # as numpy does


@lru_cache(maxsize=1)
def _seed_words_type() -> type:
    """A seed sequence handing a PCG64 the four uint64 words derived for
    it. Defined on first use, so numpy.random loads with the first stream,
    as numpy's own SeedSequence would, and not with this module."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.words

    return SeedWords


def substreams(master_seed: int, keys) -> Iterator[np.random.Generator]:
    """Generators of the named substreams of the master seed, in key order,
    each built when it is reached: bit for bit ``Generator(PCG64(
    SeedSequence(master_seed, spawn_key=key)))``, with every key's seed
    words derived in one array pass. Their ``bit_generator.seed_seq`` holds
    only the seed words and cannot spawn. A negative seed or key element
    raises ValueError, as in numpy."""
    seed_words = _seed_words_type()
    return (np.random.Generator(np.random.PCG64(seed_words(words)))
            for words in _seed_words(master_seed, keys))


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for the named substream of the master seed."""
    return next(substreams(master_seed, [key]))


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
        if self.master_seed < 0:
            raise ValueError(f"master_seed = {self.master_seed} is below 0")
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
        if not self.targets:
            raise ValueError("target list must not be empty")
        for name, items in (("copy budget", self.nt_grid),
                            ("scheme", self.schemes), ("target", self.targets)):
            if len(set(items)) != len(items):
                raise ValueError(f"duplicate {name}")
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

    def noise_for_set(self, set_index: int,
                      rng: np.random.Generator | None = None):
        """The channel for this set's circuits; None when noiseless. Pauli
        weights come from ``rng`` when given: the set's (1, s) substream
        as the caller derived it for a batch."""
        kind = self.noise.kind
        if kind == "none":
            return None
        if kind == "global_depolarizing":
            return noise_mod.GlobalDepolarizing(self.noise.rate)
        if kind == "cnot_depolarizing":
            return noise_mod.CnotDepolarizing(self.noise.rate)
        if rng is None:
            rng = substream(self.master_seed, *(
                (_STREAM_NOISE, set_index) if self.noise.redraw_weights
                else (_STREAM_NOISE,)))
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
    """Exact expectations at shifted parameter points of a batch of sets.

    ``theta`` is one set's 3nL angles or a stack (B, 3nL), and every value
    carries its leading set axis. Every gate is exp(-i theta P / 2) and no
    channel depends on theta, so f, clean or noisy, is a + b cos s + c sin s
    along each angle. Shifted values come only from the grid {-pi/2, 0,
    +pi/2}^k over a target's k <= 2 angles, one array per set that
    ``value`` contracts with the grid weights of any points; ``exact`` is f
    at theta from the full circuit. The grid is cut at the target's lowest
    (a) and highest (b) layer: between the state after layers 1..a-1 and
    the observable pulled back through the final mix, layers L..b+1 and
    layer b's CNOT ring, a point in one layer costs its transfer factors
    on a Pauli vector and one inner product. Values and cut ends are built
    once per noise model (None for the clean circuit; one channel per set
    when its eigenvalues are (B, 16)). Each distinct layer's transfer
    factors are built once and shared by every model: the L unshifted
    layers of every set in one ``_layer_unitary`` call, a grid's new
    shifted layers in one more. The global channel runs no
    circuit; it scales every traceless expectation by 1 - eta, exactly.
    """

    def __init__(self, layout, theta, obs):
        self.layout, self.theta, self.obs = layout, theta, obs
        self._values: dict[tuple, np.ndarray] = {}
        self._unitaries: dict[bytes, tuple] = {}
        angles = theta.reshape(theta.shape[:-1] + (layout.L, layout.n, 3))
        self._build([angles[..., k, :, :] for k in range(layout.L)])

    def value(self, target: DerivativeTarget, weights: np.ndarray,
              noise) -> np.ndarray:
        """f at each point whose grid weights over the target's angles are
        a row of ``weights``, as from ``_point_weights``; (..., points)."""
        grid = self._memo(("grid", _angles(target)), noise, self._grid)
        flat = grid.reshape(self.theta.shape[:-1] + (-1, 1))
        return np.matmul(weights.reshape(len(weights), -1), flat)[..., 0]

    def mean(self, spec: EstimatorSpec, noise) -> np.ndarray:
        """Infinite-shot mean of the estimator: exact f at each point."""
        weights, coeffs = _point_weights(spec)
        return _inner(self.value(spec.target, weights, noise), coeffs)

    def exact(self, noise) -> np.ndarray:
        """f at theta from the full circuit, no grid involved."""
        return self._memo(("full", self.layout.L + 1), noise, self._full)

    def _memo(self, key, noise, run):
        """``run(key[1], noise)`` once per key and noise model."""
        if isinstance(noise, noise_mod.GlobalDepolarizing):
            return (1.0 - noise.eta) * self._memo(key, None, run)
        stored = (noise,) + key
        if stored not in self._values:
            self._values[stored] = run(key[1], noise)
        return self._values[stored]

    def _full(self, end: int, noise) -> np.ndarray:
        return self._forward(end, noise)[..., self.obs.index]

    def _grid(self, angles, noise) -> np.ndarray:
        layout, sets = self.layout, self.theta.shape[:-1]
        layers = [layer for _, layer, _ in angles]
        a, b = min(layers), max(layers)
        start = self._memo(("forward", a), noise, self._forward)
        obs = self._memo(("back", b), noise, self._back)
        grid = np.empty(sets + (3,) * len(angles))
        points = {idx: shifted(layout, self.theta, {
            angle: _GRID[i] for angle, i in zip(angles, idx)}).reshape(
                sets + (layout.L, layout.n, 3))
            for idx in np.ndindex(grid.shape[len(sets):])}
        self._build([p[..., k - 1, :, :] for p in points.values()
                     for k in (a, b)])
        segments = {None: start}  # layers a..b-1 see only the layer-a shift
        for idx, point in points.items():
            i = idx[layers.index(a)] if a < b else None
            if i not in segments:
                segments[i] = evolve(layout, point.reshape(sets + (-1,)),
                                     noise, (a, b - 1), start,
                                     unitary=self._unitary)
            u = self._unitary(point[..., b - 1, :, :])
            grid[(...,) + idx] = _inner(rotate(u, segments[i]), obs)
        return grid

    def _forward(self, a: int, noise) -> np.ndarray:
        return evolve(self.layout, self.theta, noise, (1, a - 1),
                      unitary=self._unitary)

    def _back(self, b: int, noise) -> np.ndarray:
        layout, obs = self.layout, self.obs.pauli_vector()
        if b < layout.L:
            obs = evolve(layout, self.theta, noise, (b + 1, layout.L), obs,
                         adjoint=True, unitary=self._unitary)
        elif noise is not None:  # an empty range skips the final mix
            obs = depolarize(obs, noise.final_scale)
        return _apply_ring(obs, _ring(layout, noise), True)

    def _build(self, layers) -> None:
        """Each layer's transfer factors not yet built, in one call: a
        layer is (n, 3) angles, or (B, n, 3) for a batch."""
        new = {angles.tobytes(): angles for angles in layers
               if angles.tobytes() not in self._unitaries}
        if new:
            factors = _layer_unitary(np.array(list(new.values())))
            for k, key in enumerate(new):
                self._unitaries[key] = tuple(f[k] for f in factors)

    def _unitary(self, angles: np.ndarray) -> tuple:
        return self._unitaries[angles.tobytes()]  # built with the set or grid


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y over the last axis, set by set: per set the bits of the 1-D
    product, whatever the number of sets."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def estimator_mean(spec: EstimatorSpec, layout: AnsatzLayout,
                   theta: np.ndarray, noise, obs: PauliObservable) -> float:
    """Infinite-shot mean of the estimator: exact f at each evaluation point."""
    return float(_FunctionCache(layout, theta, obs).mean(spec, noise))


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


def _binomial_estimates(f, shots: int, rng, size: int) -> np.ndarray:
    """Finite-shot estimates of +/-1 observables with means f, shape f's +
    (size,): f is one mean, a draw group's points, or (B, points) of them
    with ``rng`` one generator per set of a batch. Each point is drawn by
    its own ``rng.binomial`` call, in point order.

    Heads come with probability (1 + f)/2; f may leave [-1, 1] by rounding,
    and a mean further out, or not finite, is an error.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    f = np.asarray(f, dtype=float)
    outside = ~(np.abs(f) <= 1.0 + 1e-10)
    if outside.any():
        raise ValueError(f"expectation {f[outside][0]} is outside [-1, 1]")
    heads = (1.0 + np.clip(f, -1.0, 1.0)) / 2.0
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    draws = np.array([[g.binomial(shots, p, size=size) for p in row]
                      for g, row in zip(rngs, heads.reshape(len(rngs), -1)
                                        .tolist())])
    return ((2.0 * draws - shots) / shots).reshape(f.shape + (size,))


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


class _TargetPlan(NamedTuple):
    """One target's draws. Draw group g, ``groups[g]`` = (budget, group
    code, shots), draws rows g P .. g P + P - 1 of ``weights`` (grid weights
    of the points, P the target's point count) and sums them with
    ``coeffs[g]``; the MSE cell of scheme ``scheme[c]`` at budget index
    ``budget[c]`` scales group ``group[c]``'s sum by ``scale[c]``."""

    target: DerivativeTarget
    key: tuple[int, int, int]
    rule: EstimatorSpec  # the shift rule, whose clean mean is the truth
    weights: np.ndarray
    groups: list[tuple[int, int, int]]
    coeffs: np.ndarray
    group: np.ndarray
    scale: np.ndarray
    scheme: np.ndarray
    budget: np.ndarray


@lru_cache(maxsize=16)
def _plan(config: ExperimentConfig) -> list[_TargetPlan]:
    """Every target's draw groups and MSE cells. Scaled-shift schemes share
    one draw at the lambda = 1 points; FD schemes draw by name (NFD = HFD
    at zero noise)."""
    d, eta = 2 ** config.n, config.eta_total()
    plan = []
    for target in config.targets:
        key = _shots_key(config.layout(), target)
        rule, shots = _shift_rule(target), point_count(target)
        rows, groups, coeffs, cells = [], [], [], []
        for nt_idx, nt in enumerate(config.nt_grid):
            specs = [_scheme_spec(s, target, d, nt, eta)
                     for s in config.schemes]
            sps = [i for i, spec in enumerate(specs) if spec.scheme == "sps"]
            draws = [(config.schemes[i], spec, [(i, 1.0)])
                     for i, spec in enumerate(specs) if spec.scheme == "fd"]
            if sps:
                draws.append(("sps", rule, [(i, specs[i].lam) for i in sps]))
            for group, drawn, scaled in draws:
                weights, c = _point_weights(drawn)
                cells += [(len(groups), lam, i, nt_idx) for i, lam in scaled]
                groups.append((nt, _DRAW_GROUPS[group], nt // shots))
                rows.extend(weights)
                coeffs.append(c)
        plan.append(_TargetPlan(target, key, rule, np.array(rows), groups,
                                np.array(coeffs),
                                *map(np.array, zip(*cells))))
    return plan


# Sets per batch, from the in-process rows of BENCH_batched_sets.json. A
# batch's stack of Pauli vectors stays within 256 KiB (128 sets at n = 4,
# 8 at n = 6, one from n = 8): larger stacks ran a set no faster. At most
# 128 sets share a batch's layer factors: 2,048 n = 2 sets in one batch
# ran dist at 0.11-0.13 against 0.14 ms a set, in 70 against 42 MB peak.
# A target's shot estimates stay within 16 MiB: at n = 3 and 4,000
# experiments a set, 128 sets in one batch took 358 MB, the 8 this allows
# 58 MB, and ran no faster.
_MAX_BATCH = 128
_BATCH_STATE_BYTES = 2 ** 18
_BATCH_DRAW_BYTES = 2 ** 24


def _batch_size(n: int, draws: int = 0) -> int:
    """Parameter sets per batch at n qubits, ``draws`` shot estimates each."""
    return max(1, min(_MAX_BATCH, _BATCH_STATE_BYTES // (8 * 4 ** n),
                      _BATCH_DRAW_BYTES // (8 * max(draws, 1))))


def _batches(count: int, size: int):
    """Sets 0..count-1 in consecutive batches of ``size``, lazily."""
    return (range(i, min(i + size, count)) for i in range(0, count, size))


def _draw_batch(config: ExperimentConfig, sets: range):
    """The batch's angles (B, 3nL), each set's from its own (0, s)
    substream; each set's channel; and the model the batch's circuits run
    under, one channel per set when the weights are redrawn, each from its
    (1, s) substream. The batch's streams are derived in one call."""
    layout, redraw = config.layout(), config.noise.redraw_weights
    keys = [(_STREAM_PARAMS, s) for s in sets]
    if redraw:
        keys += [(_STREAM_NOISE, s) for s in sets]
    streams = iter(substreams(config.master_seed, keys))
    theta = np.array([sample_parameter_set(layout, next(streams))
                      for _ in sets])
    if redraw:
        channels = [config.noise_for_set(s, next(streams)) for s in sets]
        return theta, channels, noise_mod.CnotPauliChannel(
            tuple(c.weights for c in channels))
    channel = config.noise_for_set(sets[0])
    return theta, [channel] * len(sets), channel


def _run_set(config: ExperimentConfig, sets: range) -> np.ndarray:
    """Mean squared errors of a batch of parameter sets, indexed (set,
    target, scheme, grid point). Each set draws its shots per draw group,
    in set order, from its own keyed substreams; each group's points are
    summed for the whole batch at once, and its MSE cells take four array
    calls per target, so a set's values do not depend on its batch."""
    n_exp, plans = config.experiments_per_set, _plan(config)
    theta, _, channel = _draw_batch(config, sets)
    cache = _FunctionCache(config.layout(), theta, config.observable())
    streams = iter(substreams(config.master_seed, [
        (_STREAM_SHOTS, s, *plan.key, nt, code)
        for plan in plans for nt, code, _ in plan.groups for s in sets]))
    out = np.empty((len(sets), len(config.targets), len(config.schemes),
                    len(config.nt_grid)))
    for t_idx, plan in enumerate(plans):
        p = point_count(plan.target)
        true_value = cache.mean(plan.rule, None)[:, None, None]
        f = cache.value(plan.target, plan.weights, channel)
        draws = np.empty((len(sets), len(plan.groups), n_exp))
        for g, (nt, code, shots) in enumerate(plan.groups):
            est = _binomial_estimates(f[:, g * p:g * p + p], shots,
                                      [next(streams) for _ in sets], n_exp)
            draws[:, g] = plan.coeffs[g, 0] * est[:, 0]
            for k in range(1, p):  # in point order, as a sum over the points
                draws[:, g] += plan.coeffs[g, k] * est[:, k]
        err = draws[:, plan.group]  # in place: scale * draw - truth, squared
        err *= plan.scale[:, None]
        err -= true_value
        err *= err
        out[:, t_idx, plan.scheme, plan.budget] = err.sum(-1) / n_exp
    return out


def monte_carlo_mse(config: ExperimentConfig,
                    workers: int | None = None) -> list[MseEstimate]:
    """Estimate the MSE of every configured scheme over the copy grid.

    Squared errors are measured against the exact noiseless derivative,
    averaged over experiments within each parameter set and then over sets;
    stderr is the standard error of the per-set means. Sets run in batches
    (``_run_set``); results are identical for any worker count and batch
    size, and no more processes start than there are batches. Raises
    ValueError before any simulation if ``workers`` is outside
    [1, MAX_WORKERS] or a target's angle lies outside the circuit.
    """
    if workers is not None and not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers = {workers} is outside [1, {MAX_WORKERS}]")
    plan = _plan(config)  # checks every target's angles before any simulation
    workers = workers or 1
    draws = max(len(p.weights) for p in plan) * config.experiments_per_set
    size = min(_batch_size(config.n, draws),
               max(1, config.parameter_sets // workers))
    batches = _batches(config.parameter_sets, size)
    count = -(-config.parameter_sets // size)
    workers = min(workers, count)
    if workers == 1:
        per_batch = [_run_set(config, sets) for sets in batches]
    else:
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, count // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_batch = list(pool.map(partial(_run_set, config), batches,
                                      chunksize=chunk))
    stacked = np.concatenate(per_batch)  # (set, target, scheme, nt)
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
    layout, obs = config.layout(), config.observable()
    f_vals = np.empty(config.parameter_sets)
    g_vals = np.empty(config.parameter_sets)
    channels = []
    for sets in _batches(config.parameter_sets, _batch_size(config.n)):
        theta, drawn, channel = _draw_batch(config, sets)
        cache = _FunctionCache(layout, theta, obs)
        f_vals[sets] = f = cache.exact(None)
        g_vals[sets] = (cache.exact(channel) - (1.0 - eta) * f) / eta
        channels += drawn
    var_f = float(np.var(f_vals))
    var_g = float(np.var(g_vals))
    r_var = var_f / var_g if var_g > 1e-15 else None
    return DistributionSummary(f_samples=f_vals, g_samples=g_vals,
                               var_f=var_f, var_g=var_g, r_var=r_var,
                               eta_total=eta, channels=tuple(channels))
