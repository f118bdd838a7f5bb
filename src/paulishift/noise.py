"""Noise channels and error-rate bookkeeping for the layered circuit.

Three channel families are provided: a per-CNOT two-qubit depolarizing
channel, a per-CNOT general Pauli channel, and a global depolarizing channel
applied once after the whole circuit.  Every state, clean or noisy, is a
real Pauli vector, on which a CNOT ring is one signed gather.  Both per-CNOT
channels are two-qubit Pauli channels (depolarizing has all 15 weights
eta0/15): diagonal there, so a hook given a whole ring is one gather and one
multiply (``circuits.apply_cnot``).  The global channel is a reference
model: it mixes toward I/d, so every traceless observable has f_noisy =
(1 - eta) f_clean exactly and g vanishes identically.  Every hook takes
``adjoint=True`` for its Heisenberg-picture map on Pauli coefficients, and
raises ValueError unless its state is a real Pauli vector of shape (4^n,).
``circuits.evolve`` reads each model's ``eigenvalues`` and
``final_scale`` instead, so it runs a whole stack of sets at once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .circuits import apply_cnot, check_vector, depolarize

# The 15 non-identity two-qubit Pauli labels, in fixed row-major order
# (first letter acts on the channel's first qubit).
TWO_QUBIT_PAULI_LABELS = tuple(
    a + b for a, b in product("IXYZ", repeat=2) if a + b != "II")


# ── channel primitives ───────────────────────────────────────────────────────

def _anticommuting() -> np.ndarray:
    """1.0 where two-qubit Pauli Q (row) anticommutes with the
    non-identity P (column P - 1): where x_P z_Q ^ z_P x_Q (x = b0 ^ b1,
    z = b1 of each digit) has odd parity."""
    p = np.arange(16)
    x, z = (p ^ p >> 1) & 5, p >> 1 & 5
    s = (x[:, None] & z) ^ (z[:, None] & x)
    return ((s ^ s >> 2) & 1)[:, 1:].astype(float)


_ANTICOMMUTING = _anticommuting()


def pauli_eigenvalues(weights) -> tuple:
    """The 16 eigenvalues lambda_Q = 1 - 2 sum_P w_P, over the P that
    anticommute with Q, of the two-qubit Pauli channel whose 15 nonnegative
    weights are ordered as in TWO_QUBIT_PAULI_LABELS (the identity keeps
    1 - sum(weights)), at Q = 4 q_1 + q_2 (digits I, X, Y, Z = 0..3).
    Weights (B, 15) give one such tuple per channel."""
    w = np.asarray(weights, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1] != 15:
        raise ValueError(f"need exactly 15 weights, got shape {w.shape}")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    total = float(w.sum(axis=-1).max())
    if total >= 1.0:
        raise ValueError(f"weights sum to {total}, must be < 1")
    lam = 1.0 - 2.0 * np.matmul(_ANTICOMMUTING, w[..., None])[..., 0]
    return tuple(lam) if w.ndim == 1 else tuple(map(tuple, lam))


# ── noise models ─────────────────────────────────────────────────────────────

class _NoFinal:
    final_scale = 1.0

    def apply_final(self, state: np.ndarray, adjoint=False) -> np.ndarray:
        check_vector(state)
        return state


@dataclass(frozen=True)
class NoNoise(_NoFinal):
    """The noiseless model: the bare CNOT."""

    eigenvalues = None

    def apply_after_cnot(self, state, control, target, adjoint=False):
        return apply_cnot(state, control, target, adjoint)


@dataclass(frozen=True)
class CnotDepolarizing(_NoFinal):
    """Uniform depolarizing channel with rate eta0 after every CNOT."""

    eta0: float
    eigenvalues: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.eta0 < 1.0:
            raise ValueError(f"eta0 must be in [0, 1), got {self.eta0}")
        object.__setattr__(self, "eigenvalues",
                           pauli_eigenvalues((self.eta0 / 15.0,) * 15))

    def apply_after_cnot(self, state, control, target, adjoint=False):
        return apply_cnot(state, control, target, adjoint, self.eigenvalues)


@dataclass(frozen=True)
class CnotPauliChannel(_NoFinal):
    """General Pauli channel with fixed weights after every CNOT; weights
    (B, 15) make one channel per set of a batch."""

    weights: tuple
    eigenvalues: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", tuple(
            w.tolist() if w.ndim == 1 else map(tuple, w.tolist())))
        object.__setattr__(self, "eigenvalues", pauli_eigenvalues(w))

    def apply_after_cnot(self, state, control, target, adjoint=False):
        return apply_cnot(state, control, target, adjoint, self.eigenvalues)


@dataclass(frozen=True)
class GlobalDepolarizing:
    """Mix toward the maximally mixed state once, after the full circuit."""

    eta: float
    eigenvalues = None

    def __post_init__(self):
        if not 0.0 <= self.eta < 1.0:
            raise ValueError(f"eta must be in [0, 1), got {self.eta}")

    @property
    def final_scale(self) -> float:
        return 1.0 - self.eta

    def apply_after_cnot(self, state, control, target, adjoint=False):
        return apply_cnot(state, control, target, adjoint)

    def apply_final(self, state: np.ndarray, adjoint=False) -> np.ndarray:
        """Scale every coefficient but the identity's by 1 - eta."""
        check_vector(state)
        return depolarize(state, self.final_scale)


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
