"""Noise channels and error-rate bookkeeping for the layered circuit.

Three channel families are provided: a per-CNOT two-qubit depolarizing
channel, a per-CNOT general Pauli channel, and a global depolarizing channel
applied once after the whole circuit.  The global channel is a reference
model: it mixes toward the maximally mixed state, so every traceless
observable satisfies f_noisy = (1 - eta) * f_clean exactly and the error-term
expectation g vanishes identically.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product

import numpy as np

from .circuits import PAULI, DensityMatrix

# The 15 non-identity two-qubit Pauli labels, in fixed row-major order
# (first letter acts on the channel's first qubit).
TWO_QUBIT_PAULI_LABELS = tuple(
    a + b for a, b in product("IXYZ", repeat=2) if a + b != "II")


# ── channel primitives ───────────────────────────────────────────────────────

@lru_cache(maxsize=64)
def _mixed_replacement_subscripts(n: int, j: int, k: int) -> tuple[str, str]:
    """einsum subscripts for tracing out qubits j,k and re-inserting I/4."""
    letters = [chr(ord("a") + i) for i in range(2 * n)]
    row, col = letters[:n], letters[n:]
    traced_row = list(row)
    traced_col = list(col)
    traced_col[j - 1] = traced_row[j - 1]
    traced_col[k - 1] = traced_row[k - 1]
    keep = [c for i, c in enumerate(row) if i not in (j - 1, k - 1)]
    keep += [c for i, c in enumerate(col) if i not in (j - 1, k - 1)]
    trace_sub = "".join(traced_row + traced_col) + "->" + "".join(keep)
    # rebuild: reduced x delta(row_j, col_j) x delta(row_k, col_k)
    rebuild_sub = ("".join(keep) + "," + row[j - 1] + col[j - 1] + ","
                   + row[k - 1] + col[k - 1] + "->" + "".join(row + col))
    return trace_sub, rebuild_sub


def _replace_with_mixed(state: DensityMatrix, j: int, k: int) -> DensityMatrix:
    """Trace out qubits j and k and put the maximally mixed pair back."""
    n = state.n
    t = state.data.reshape((2,) * (2 * n))
    trace_sub, rebuild_sub = _mixed_replacement_subscripts(n, j, k)
    reduced = np.einsum(trace_sub, t)
    eye = np.eye(2, dtype=complex)
    full = np.einsum(rebuild_sub, reduced, eye / 2.0, eye / 2.0)
    return DensityMatrix(full.reshape(state.data.shape), n)


def _check_pair(state: DensityMatrix, j: int, k: int) -> None:
    if j == k:
        raise ValueError("channel qubits must be distinct")
    for q in (j, k):
        if not 1 <= q <= state.n:
            raise ValueError(f"qubit {q} out of range 1..{state.n}")


def apply_two_qubit_depolarizing(state: DensityMatrix, j: int, k: int,
                                 eta0: float) -> DensityMatrix:
    """Uniform two-qubit depolarizing channel on qubits j and k.

    Keeps the state with weight 1 - eta0 and conjugates by each of the 15
    non-identity two-qubit Paulis with weight eta0/15.  Summing the identity
    back in, this equals mixing a fraction 16*eta0/15 of the state toward the
    maximally mixed marginal on the pair, which is how it is evaluated here.
    """
    _check_pair(state, j, k)
    if not 0.0 <= eta0 < 1.0:
        raise ValueError(f"eta0 must be in [0, 1), got {eta0}")
    if eta0 == 0.0:
        return state.copy()
    p = 16.0 * eta0 / 15.0
    mixed = _replace_with_mixed(state, j, k)
    return DensityMatrix((1.0 - p) * state.data + p * mixed.data, state.n)


@lru_cache(maxsize=64)
def _embedded_pauli_pairs(n: int, j: int, k: int) -> tuple[np.ndarray, ...]:
    mats = []
    for label in TWO_QUBIT_PAULI_LABELS:
        factors = [PAULI["I"]] * n
        factors[j - 1] = PAULI[label[0]]
        factors[k - 1] = PAULI[label[1]]
        mats.append(reduce(np.kron, factors))
    return tuple(mats)


def apply_two_qubit_pauli(state: DensityMatrix, j: int, k: int,
                          weights) -> DensityMatrix:
    """General two-qubit Pauli channel on qubits j and k.

    ``weights`` holds 15 nonnegative rates, ordered as in
    TWO_QUBIT_PAULI_LABELS; the identity keeps weight 1 - sum(weights).
    """
    _check_pair(state, j, k)
    w = np.asarray(weights, dtype=float)
    if w.shape != (15,):
        raise ValueError(f"need exactly 15 weights, got shape {w.shape}")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    total = float(w.sum())
    if total >= 1.0:
        raise ValueError(f"weights sum to {total}, must be < 1")
    out = (1.0 - total) * state.data
    for wm, pm in zip(w, _embedded_pauli_pairs(state.n, j, k)):
        if wm != 0.0:
            out = out + wm * (pm @ state.data @ pm)
    return DensityMatrix(out, state.n)


# ── noise models ─────────────────────────────────────────────────────────────

class _NoFinal:
    def apply_final(self, state: DensityMatrix) -> DensityMatrix:
        return state


@dataclass(frozen=True)
class NoNoise(_NoFinal):
    """The noiseless model; both hooks are identities."""

    def apply_after_cnot(self, state, control, target):
        return state

    def total_rate(self, n: int, L: int) -> float:
        return 0.0


@dataclass(frozen=True)
class CnotDepolarizing(_NoFinal):
    """Uniform depolarizing channel with rate eta0 after every CNOT."""

    eta0: float

    def __post_init__(self):
        if not 0.0 <= self.eta0 < 1.0:
            raise ValueError(f"eta0 must be in [0, 1), got {self.eta0}")

    def apply_after_cnot(self, state, control, target):
        return apply_two_qubit_depolarizing(state, control, target, self.eta0)

    def total_rate(self, n: int, L: int) -> float:
        return 1.0 - (1.0 - self.eta0) ** (n * L)


@dataclass(frozen=True)
class CnotPauliChannel(_NoFinal):
    """General Pauli channel with fixed weights after every CNOT."""

    weights: tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if len(w) != 15:
            raise ValueError(f"need exactly 15 weights, got {len(w)}")
        if any(x < 0.0 for x in w):
            raise ValueError("weights must be nonnegative")
        if sum(w) >= 1.0:
            raise ValueError("weights must sum to less than 1")
        object.__setattr__(self, "weights", w)

    @property
    def eta0(self) -> float:
        return sum(self.weights)

    def apply_after_cnot(self, state, control, target):
        return apply_two_qubit_pauli(state, control, target, self.weights)

    def total_rate(self, n: int, L: int) -> float:
        return 1.0 - (1.0 - self.eta0) ** (n * L)


@dataclass(frozen=True)
class GlobalDepolarizing:
    """Mix toward the maximally mixed state once, after the full circuit."""

    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta < 1.0:
            raise ValueError(f"eta must be in [0, 1), got {self.eta}")

    def apply_after_cnot(self, state, control, target):
        return state

    def apply_final(self, state: DensityMatrix) -> DensityMatrix:
        d = state.dim
        mixed = np.eye(d, dtype=complex) / d
        return DensityMatrix((1.0 - self.eta) * state.data + self.eta * mixed,
                             state.n)

    def total_rate(self, n: int, L: int) -> float:
        return self.eta


def random_pauli_weights(eta0: float, rng: np.random.Generator) -> tuple[float, ...]:
    """Draw 15 random nonnegative weights summing to eta0."""
    if not 0.0 <= eta0 < 1.0:
        raise ValueError(f"eta0 must be in [0, 1), got {eta0}")
    raw = rng.random(15)
    return tuple(eta0 * raw / raw.sum())


# ── error-rate arithmetic ────────────────────────────────────────────────────

@dataclass(frozen=True)
class ErrorRateSummary:
    """Per-CNOT, per-layer and total error rates for an n-qubit, L-layer run."""

    eta0: float
    per_layer: float
    total: float

    def __post_init__(self):
        if not 0.0 <= self.per_layer <= self.total < 1.0:
            raise ValueError("rates must satisfy 0 <= per_layer <= total < 1")


def total_error_rate(eta0: float, n: int, L: int) -> ErrorRateSummary:
    """Compound a uniform per-CNOT rate through n CNOTs per layer, L layers."""
    if not 0.0 <= eta0 < 1.0:
        raise ValueError(f"eta0 must be in [0, 1), got {eta0}")
    per_layer = 1.0 - (1.0 - eta0) ** n
    total = 1.0 - (1.0 - eta0) ** (n * L)
    return ErrorRateSummary(eta0=eta0, per_layer=per_layer, total=total)


def per_layer_error_rate_to_eta0(eta_per_layer: float, n: int) -> float:
    """Invert per_layer = 1 - (1 - eta0)^n for the per-CNOT rate."""
    if not 0.0 <= eta_per_layer < 1.0:
        raise ValueError(f"eta_per_layer must be in [0, 1), got {eta_per_layer}")
    return 1.0 - (1.0 - eta_per_layer) ** (1.0 / n)
