"""Noise channels and error-rate bookkeeping for the layered circuit.

Three channel families are provided: a per-CNOT two-qubit depolarizing
channel, a per-CNOT general Pauli channel, and a global depolarizing channel
applied once after the whole circuit.  Both per-CNOT channels are two-qubit
Pauli channels (depolarizing has all 15 weights eta0/15) and run through one
kernel: a 16x16 superoperator on the pair's row and column bits.  The global
channel is a reference model: it mixes toward the maximally mixed state, so
every traceless observable satisfies f_noisy = (1 - eta) * f_clean exactly
and the error-term expectation g vanishes identically.  Each per-CNOT hook
applies its CNOT and channel as one pass: for a Pauli channel S, the map
S K (K the CNOT's pair permutation).  Every hook takes ``adjoint=True`` for
its Heisenberg-picture map: the per-CNOT channels apply the transpose K S^T,
the global one O -> (1 - eta) O + eta tr(O) I/d.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .circuits import PAULI, apply_cnot, check_pair, qubit_count

# The 15 non-identity two-qubit Pauli labels, in fixed row-major order
# (first letter acts on the channel's first qubit).
TWO_QUBIT_PAULI_LABELS = tuple(
    a + b for a, b in product("IXYZ", repeat=2) if a + b != "II")


# ── channel primitives ───────────────────────────────────────────────────────

def _pair_conjugation(label: str) -> np.ndarray:
    """P (x) conj(P) for the two-qubit Pauli P; real for every Pauli."""
    p = np.kron(PAULI[label[0]], PAULI[label[1]])
    return np.kron(p, p.conj()).real


# P rho P on the pair's 4x4 block, as 16x16 maps on its row-major vec.
_PAIR_CONJUGATIONS = np.stack([_pair_conjugation(label)
                               for label in TWO_QUBIT_PAULI_LABELS])
# CNOT from the pair's first qubit to its second: C (x) C on the same vec.
_CNOT_PAIR = np.kron(*[np.eye(4)[[0, 1, 3, 2]]] * 2)


def pauli_channel_superoperator(weights) -> np.ndarray:
    """The 16x16 superoperator of a two-qubit Pauli channel.

    ``weights`` holds 15 nonnegative rates, ordered as in
    TWO_QUBIT_PAULI_LABELS; the identity keeps weight 1 - sum(weights).
    The result acts on the row-major vec of the pair's 4x4 block, index
    4 * (2 r_j + r_k) + (2 c_j + c_k) for row bits r and column bits c.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (15,):
        raise ValueError(f"need exactly 15 weights, got shape {w.shape}")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    total = float(w.sum())
    if total >= 1.0:
        raise ValueError(f"weights sum to {total}, must be < 1")
    return ((1.0 - total) * np.eye(16)
            + np.tensordot(w, _PAIR_CONJUGATIONS, axes=1))


@lru_cache(maxsize=512)
def _pair_axes(n: int, j: int, k: int):
    """A split shape of rho, the axis order moving (r_j, r_k, c_j, c_k) to
    the front, and its inverse.

    Row and column indices each split as (before, bit, between, bit, after)
    around the lower and the higher qubit of the pair.
    """
    check_pair(n, j, k)
    lo, hi = min(j, k), max(j, k)
    split = (2 ** (lo - 1), 2, 2 ** (hi - lo - 1), 2, 2 ** (n - hi))
    rj, rk = (1, 3) if j < k else (3, 1)
    order = (rj, rk, rj + 5, rk + 5, 0, 2, 4, 5, 7, 9)
    return split + split, order, tuple(np.argsort(order))


def apply_pair_superoperator(state: np.ndarray, j: int, k: int,
                             superop: np.ndarray) -> np.ndarray:
    """Apply a real 16x16 superoperator to qubits j and k (1-based, any
    order), indexed as in pauli_channel_superoperator.

    The pair's row and column bits are gathered into a (16, d^2/16) array
    X, one column per setting of the other qubits, and replaced by
    superop @ X: O(16 d^2) work instead of d^3 matrix products.
    """
    if np.iscomplexobj(superop):
        raise ValueError("superoperator must be real, as Pauli channels are")
    split, order, inverse = _pair_axes(qubit_count(state), j, k)
    x = np.ascontiguousarray(state.reshape(split).transpose(order),
                             dtype=complex)
    # A real superoperator maps real and imaginary parts alike, so it acts
    # on the float view, half the work of a complex product.
    y = (superop @ x.reshape(16, -1).view(float)).view(complex)
    return y.reshape(x.shape).transpose(inverse).reshape(state.shape)


def _cnot_then_channel(weights) -> np.ndarray:
    """S K: the CNOT, then the Pauli channel S, on the pair's vec."""
    return pauli_channel_superoperator(weights) @ _CNOT_PAIR


# ── noise models ─────────────────────────────────────────────────────────────

class _NoFinal:
    def apply_final(self, state: np.ndarray, adjoint=False) -> np.ndarray:
        return state


@dataclass(frozen=True)
class NoNoise(_NoFinal):
    """The noiseless model: the bare CNOT."""

    def apply_after_cnot(self, state, control, target, adjoint=False):
        return apply_cnot(state, control, target)


@dataclass(frozen=True)
class CnotDepolarizing(_NoFinal):
    """Uniform depolarizing channel with rate eta0 after every CNOT."""

    eta0: float
    superop: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.eta0 < 1.0:
            raise ValueError(f"eta0 must be in [0, 1), got {self.eta0}")
        object.__setattr__(self, "superop",
                           _cnot_then_channel((self.eta0 / 15.0,) * 15))

    def apply_after_cnot(self, state, control, target, adjoint=False):
        return apply_pair_superoperator(
            state, control, target,
            self.superop.T if adjoint else self.superop)


@dataclass(frozen=True)
class CnotPauliChannel(_NoFinal):
    """General Pauli channel with fixed weights after every CNOT."""

    weights: tuple[float, ...]
    superop: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "superop", _cnot_then_channel(w))

    def apply_after_cnot(self, state, control, target, adjoint=False):
        return apply_pair_superoperator(
            state, control, target,
            self.superop.T if adjoint else self.superop)


@dataclass(frozen=True)
class GlobalDepolarizing:
    """Mix toward the maximally mixed state once, after the full circuit."""

    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta < 1.0:
            raise ValueError(f"eta must be in [0, 1), got {self.eta}")

    def apply_after_cnot(self, state, control, target, adjoint=False):
        return apply_cnot(state, control, target)

    def apply_final(self, state: np.ndarray, adjoint=False) -> np.ndarray:
        d = state.shape[0]
        mixed = np.eye(d, dtype=complex) / d
        if adjoint:
            mixed *= np.trace(state)
        return (1.0 - self.eta) * state + self.eta * mixed


def random_pauli_weights(eta0: float, rng: np.random.Generator) -> tuple[float, ...]:
    """Draw 15 random nonnegative weights summing to eta0."""
    if not 0.0 <= eta0 < 1.0:
        raise ValueError(f"eta0 must be in [0, 1), got {eta0}")
    raw = rng.random(15)
    return tuple(eta0 * raw / raw.sum())


# ── error-rate arithmetic ────────────────────────────────────────────────────

def total_error_rate(eta0: float, n: int, L: int) -> float:
    """Compound a uniform per-CNOT rate through n CNOTs per layer, L layers."""
    if not 0.0 <= eta0 < 1.0:
        raise ValueError(f"eta0 must be in [0, 1), got {eta0}")
    total = 1.0 - (1.0 - eta0) ** (n * L)
    if not total < 1.0:
        raise ValueError(f"total rate rounds to 1 for eta0 = {eta0}, "
                         f"{n * L} CNOTs")
    return total
