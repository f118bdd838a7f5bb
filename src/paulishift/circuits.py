"""Exact density-matrix simulation of layered Pauli-rotation circuits.

States live on n qubits as dense 2^n x 2^n complex matrices.  Qubit 1 is the
most significant bit of the computational-basis index, so tensor products read
left to right: kron(A_1, A_2, ..., A_n) acts with A_q on qubit q.  All public
qubit, layer and slot indices are 1-based.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Mapping, Sequence

import numpy as np

AXES = ("X", "Y", "Z")

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


# ── layout and parameters ────────────────────────────────────────────────────

@dataclass(frozen=True)
class AnsatzLayout:
    """Static structure of an n-qubit, L-layer circuit.

    Each layer applies, per qubit, three parametrized Pauli rotations (the
    "slots"), then one ring of CNOTs (1,2), (2,3), ..., (n-1,n), (n,1).
    ``axes[l-1][q-1]`` is the 3-tuple of rotation axes for qubit q in layer l.
    """

    n: int
    L: int
    axes: tuple[tuple[tuple[str, str, str], ...], ...]
    cnot_ring: tuple[tuple[int, int], ...]

    @property
    def parameter_count(self) -> int:
        return 3 * self.n * self.L

    def flat_index(self, layer: int, qubit: int, slot: int) -> int:
        """Map (layer, qubit, slot), all 1-based, to a flat parameter index."""
        if not 1 <= layer <= self.L:
            raise ValueError(f"layer {layer} out of range 1..{self.L}")
        if not 1 <= qubit <= self.n:
            raise ValueError(f"qubit {qubit} out of range 1..{self.n}")
        if not 1 <= slot <= 3:
            raise ValueError(f"slot {slot} out of range 1..3")
        return ((layer - 1) * self.n + (qubit - 1)) * 3 + (slot - 1)

    def axis_at(self, layer: int, qubit: int, slot: int) -> str:
        self.flat_index(layer, qubit, slot)  # bounds check
        return self.axes[layer - 1][qubit - 1][slot - 1]


@dataclass(frozen=True)
class ParameterPoint:
    """A full assignment of the 3nL rotation angles, in radians."""

    theta: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.theta, dtype=float)
        if arr.ndim != 1:
            raise ValueError("theta must be a flat vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("theta entries must be finite")
        object.__setattr__(self, "theta", arr)

    def shifted(self, layout: AnsatzLayout,
                shifts: Mapping[tuple[int, int, int], float]) -> "ParameterPoint":
        """Return a copy with ``shifts[(qubit, layer, slot)]`` added per entry."""
        out = self.theta.copy()
        for (qubit, layer, slot), delta in shifts.items():
            out[layout.flat_index(layer, qubit, slot)] += delta
        return ParameterPoint(out)


def build_ansatz(n: int, L: int, axis_pattern: str = "zyz") -> AnsatzLayout:
    """Construct the layered ansatz layout.

    The default pattern gives every qubit the block (Z, Y, Z), so slot 2 is
    the Y-encoded angle and Haar-random blocks can be drawn in Euler form.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    if L < 1:
        raise ValueError("need at least one layer")
    if axis_pattern.lower() != "zyz":
        raise ValueError(f"unknown axis pattern {axis_pattern!r}")
    block = ("Z", "Y", "Z")
    axes = tuple(tuple(block for _ in range(n)) for _ in range(L))
    if n == 1:
        ring: tuple[tuple[int, int], ...] = ()
    else:
        ring = tuple((q, q + 1) for q in range(1, n)) + ((n, 1),)
    return AnsatzLayout(n=n, L=L, axes=axes, cnot_ring=ring)


# ── observables ──────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class PauliObservable:
    """A tensor product of single-qubit Paulis, at least one non-identity."""

    letters: str

    def __post_init__(self):
        if not self.letters or any(c not in "IXYZ" for c in self.letters):
            raise ValueError("letters must be a nonempty string over I, X, Y, Z")
        if set(self.letters) == {"I"}:
            raise ValueError("observable must have at least one non-identity letter")

    @property
    def n(self) -> int:
        return len(self.letters)

    def matrix(self) -> np.ndarray:
        return _observable_matrix(self.letters)


@lru_cache(maxsize=128)
def _observable_matrix(letters: str) -> np.ndarray:
    return reduce(np.kron, (PAULI[c] for c in letters))


def cyclic_observable(n: int) -> PauliObservable:
    """The default observable: letters X, Y, Z repeating across qubits."""
    return PauliObservable("".join("XYZ"[(q - 1) % 3] for q in range(1, n + 1)))


# ── density matrices ─────────────────────────────────────────────────────────

@dataclass
class DensityMatrix:
    """Dense mixed-state representation; ``data`` is d x d with d = 2^n."""

    data: np.ndarray
    n: int

    @property
    def dim(self) -> int:
        return 2 ** self.n


def zero_state(n: int) -> DensityMatrix:
    d = 2 ** n
    data = np.zeros((d, d), dtype=complex)
    data[0, 0] = 1.0
    return DensityMatrix(data, n)


def check_state(state: DensityMatrix, atol: float = 1e-10) -> None:
    """Raise if the state is not Hermitian, unit-trace and PSD up to tolerance."""
    m = state.data
    if not np.allclose(m, m.conj().T, atol=1e-12):
        raise ValueError("state is not Hermitian")
    if abs(np.trace(m).real - 1.0) > 1e-12 or abs(np.trace(m).imag) > 1e-12:
        raise ValueError("state trace is not 1")
    eigs = np.linalg.eigvalsh(m)
    if eigs.min() < -atol:
        raise ValueError(f"state has negative eigenvalue {eigs.min():.3e}")


# ── gates ────────────────────────────────────────────────────────────────────

def rotation_matrix(axis: str, angle: float) -> np.ndarray:
    """The 2x2 rotation exp(-i * angle * P / 2) about Pauli axis P."""
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    half = 0.5 * angle
    return np.cos(half) * PAULI["I"] - 1.0j * np.sin(half) * PAULI[axis]


@lru_cache(maxsize=512)
def _cnot_permutation(n: int, control: int, target: int) -> np.ndarray:
    """Basis permutation sigma with CNOT|i> = |sigma(i)>."""
    d = 2 ** n
    idx = np.arange(d)
    cbit = (idx >> (n - control)) & 1
    flip = cbit << (n - target)
    return idx ^ flip


def apply_cnot(state: DensityMatrix, control: int, target: int) -> DensityMatrix:
    """Conjugate the state by CNOT = |0><0| (x) 1 + |1><1| (x) X."""
    n = state.n
    if control == target:
        raise ValueError("control and target must differ")
    for q in (control, target):
        if not 1 <= q <= n:
            raise ValueError(f"qubit {q} out of range 1..{n}")
    sigma = _cnot_permutation(n, control, target)
    # CNOT is a real permutation, so conjugation is a relabeling of both axes.
    return DensityMatrix(state.data[np.ix_(sigma, sigma)], n)


def expectation(state: DensityMatrix, obs: PauliObservable) -> float:
    """tr(rho O) for a Pauli observable; the value is real in [-1, 1]."""
    if obs.n != state.n:
        raise ValueError(f"observable on {obs.n} qubits, state on {state.n}")
    val = complex(np.einsum("ij,ji->", state.data, obs.matrix()))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return val.real


# ── circuit evolution ────────────────────────────────────────────────────────

def _layer_unitary(layout: AnsatzLayout, theta: np.ndarray, layer: int) -> np.ndarray:
    """Dense unitary for all single-qubit blocks of one layer."""
    blocks = []
    for q in range(1, layout.n + 1):
        u = np.eye(2, dtype=complex)
        for s in (1, 2, 3):
            angle = theta[layout.flat_index(layer, q, s)]
            u = rotation_matrix(layout.axis_at(layer, q, s), angle) @ u
        blocks.append(u)
    return reduce(np.kron, blocks)


def evolve(layout: AnsatzLayout, theta: ParameterPoint, noise=None) -> DensityMatrix:
    """Evolve |0...0><0...0| through the full layered circuit.

    Per layer: all single-qubit rotations first (kept noiseless), then the
    CNOT ring in order, with the noise model's two-qubit channel applied
    immediately after each CNOT.  A noise model is any object with
    ``apply_after_cnot(state, control, target)`` and ``apply_final(state)``
    hooks; pass None for the noiseless circuit.
    """
    if len(theta.theta) != layout.parameter_count:
        raise ValueError(
            f"theta has {len(theta.theta)} entries, layout needs "
            f"{layout.parameter_count}")
    state = zero_state(layout.n)
    for layer in range(1, layout.L + 1):
        u = _layer_unitary(layout, theta.theta, layer)
        state = DensityMatrix(u @ state.data @ u.conj().T, layout.n)
        for control, target in layout.cnot_ring:
            state = apply_cnot(state, control, target)
            if noise is not None:
                state = noise.apply_after_cnot(state, control, target)
    if noise is not None:
        state = noise.apply_final(state)
    return state
