"""Exact simulation of layered Pauli-rotation circuits.

A state on n qubits is a plain dense complex ndarray: a 2^n x 2^n density
matrix, or a 2^n statevector for noiseless circuits; n is read from its
shape.  The angles are one flat float vector of length 3nL, laid out
layer-major, then qubit, then slot, so ``theta.reshape(L, n, 3)`` holds each
qubit's (Z, Y, Z) block angles.  Qubit 1 is the most significant bit of the
computational-basis index, so tensor products read left to right:
kron(A_1, A_2, ..., A_n) acts with A_q on qubit q.  All public qubit, layer
and slot indices are 1-based.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Mapping

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

    Each layer applies, per qubit, the rotations Z, Y, Z (the "slots"),
    then one ring of CNOTs (1,2), (2,3), ..., (n-1,n), (n,1).
    """

    n: int
    L: int
    cnot_ring: tuple[tuple[int, int], ...]

    @property
    def parameter_count(self) -> int:
        return 3 * self.n * self.L

    def flat_index(self, layer: int, qubit: int, slot: int) -> int:
        """Map (layer, qubit, slot), all 1-based, to a flat parameter index."""
        for name, value, top in (("layer", layer, self.L),
                                 ("qubit", qubit, self.n), ("slot", slot, 3)):
            if not 1 <= value <= top:
                raise ValueError(f"{name} {value} out of range 1..{top}")
        return ((layer - 1) * self.n + (qubit - 1)) * 3 + (slot - 1)


def shifted(layout: AnsatzLayout, theta: np.ndarray,
            shifts: Mapping[tuple[int, int, int], float]) -> np.ndarray:
    """Return a copy of theta with ``shifts[(qubit, layer, slot)]`` added."""
    out = np.array(theta, dtype=float)
    for (qubit, layer, slot), delta in shifts.items():
        out[layout.flat_index(layer, qubit, slot)] += delta
    return out


def build_ansatz(n: int, L: int) -> AnsatzLayout:
    """Construct the layered ansatz layout.

    Every qubit gets the block (Z, Y, Z), so slot 2 is the Y-encoded angle
    and Haar-random blocks can be drawn in Euler form.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    if L < 1:
        raise ValueError("need at least one layer")
    if n == 1:
        ring: tuple[tuple[int, int], ...] = ()
    else:
        ring = tuple((q, q + 1) for q in range(1, n)) + ((n, 1),)
    return AnsatzLayout(n=n, L=L, cnot_ring=ring)


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


# ── states ───────────────────────────────────────────────────────────────────

def qubit_count(state: np.ndarray) -> int:
    """n for a 2^n x 2^n density matrix or a 2^n statevector."""
    return state.shape[0].bit_length() - 1


def zero_state(n: int) -> np.ndarray:
    d = 2 ** n
    state = np.zeros((d, d), dtype=complex)
    state[0, 0] = 1.0
    return state


# ── gates ────────────────────────────────────────────────────────────────────

def rotation_matrix(axis: str, angle) -> np.ndarray:
    """The 2x2 rotation exp(-i * angle * P / 2) about Pauli axis P.

    An array of angles gives a stack of rotations, shape angle.shape + (2, 2).
    """
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    half = 0.5 * np.asarray(angle)[..., None, None]
    return np.cos(half) * PAULI["I"] - 1.0j * np.sin(half) * PAULI[axis]


@lru_cache(maxsize=512)
def _cnot_permutation(n: int, pairs: tuple) -> np.ndarray:
    """Gather index g with (C psi)[i] = psi[g[i]], for C the CNOTs in
    ``pairs`` applied first to last."""
    g = np.arange(2 ** n)
    for control, target in reversed(pairs):
        check_pair(n, control, target)
        g ^= ((g >> (n - control)) & 1) << (n - target)
    return g


def check_pair(n: int, j: int, k: int) -> None:
    """ValueError unless j and k are two distinct qubits of n."""
    if j == k:
        raise ValueError("the two qubits must differ")
    for q in (j, k):
        if not 1 <= q <= n:
            raise ValueError(f"qubit {q} out of range 1..{n}")


def apply_cnot(state: np.ndarray, control, target) -> np.ndarray:
    """CNOT = |0><0| (x) 1 + |1><1| (x) X on a statevector, or by conjugation
    on a density matrix; tuples of controls and targets apply those CNOTs,
    first to last, as one basis permutation."""
    if np.ndim(control) == 0:
        control, target = (control,), (target,)
    g = _cnot_permutation(qubit_count(state),
                          tuple(zip(control, target, strict=True)))
    return state[g] if state.ndim == 1 else state[np.ix_(g, g)]


def expectation(state: np.ndarray, obs) -> float:
    """tr(rho O), or <psi|O|psi> for a statevector, for a Pauli observable or
    a Hermitian matrix O, such as one pulled back by ``evolve(...,
    adjoint=True)``; the value is real."""
    matrix = obs.matrix() if isinstance(obs, PauliObservable) else obs
    if matrix.shape != (len(state),) * 2:
        raise ValueError(f"observable {matrix.shape}, state {state.shape}")
    val = complex(np.vdot(state, matrix @ state) if state.ndim == 1
                  else np.einsum("ij,ji->", state, matrix))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return val.real


# ── circuit evolution ────────────────────────────────────────────────────────

def _layer_unitary(angles: np.ndarray) -> np.ndarray:
    """Dense unitary for all single-qubit blocks of one layer.

    ``angles`` is the layer's (n, 3) slice of theta. Every block is built at
    once as Rz(gamma) @ (Ry(beta) @ (Rz(alpha) @ I)), the product order of
    one rotation at a time, which keeps every seeded value to the bit.
    """
    blocks = PAULI["I"]
    for s, axis in enumerate("ZYZ"):
        blocks = rotation_matrix(axis, angles[:, s]) @ blocks
    # kron(A_1, ..., A_n) folded left to right as broadcast outer products:
    # each entry is np.kron's one product, without its per-call set-up.
    u = blocks[0]
    for block in blocks[1:]:
        d = 2 * u.shape[0]
        u = (u[:, None, :, None] * block[None, :, None, :]).reshape(d, d)
    return u


def rotate(u: np.ndarray, state: np.ndarray) -> np.ndarray:
    """U psi for a statevector, U rho U^dagger for a density matrix."""
    return u @ state if state.ndim == 1 else u @ state @ u.conj().T


def apply_ring(layout: AnsatzLayout, state: np.ndarray, noise=None,
               adjoint: bool = False) -> np.ndarray:
    """One layer's CNOT ring: one basis permutation noiseless, else one
    ``apply_after_cnot`` per CNOT; with ``adjoint=True`` its adjoint, pairs
    reversed (CNOT is its own adjoint)."""
    ring = layout.cnot_ring[::-1] if adjoint else layout.cnot_ring
    if noise is None:
        return apply_cnot(state, *zip(*ring)) if ring else state
    for control, target in ring:
        state = noise.apply_after_cnot(state, control, target,
                                       adjoint=adjoint)
    return state


def evolve(layout: AnsatzLayout, theta: np.ndarray, noise=None,
           layers: tuple[int, int] | None = None, state=None,
           adjoint: bool = False, unitary=None) -> np.ndarray:
    """Advance ``state`` (default |0...0><0...0|) through the 1-based,
    inclusive ``layers = (first, last)`` (default all L) of ``theta``, the
    flat vector of 3nL finite angles. Per layer: all single-qubit rotations
    (noiseless), then ``apply_ring``; the final hook follows layer L, so
    it joins any nonempty range ending there. An empty range (first =
    last + 1) returns ``state``. With ``adjoint=True`` the range's map E
    runs backwards as its adjoint, taking an observable O to E^dagger(O):
    tr(O E(rho)) = tr(E^dagger(O) rho). A noiseless forward run also takes
    a statevector. A noise model is any object with hooks
    ``apply_after_cnot(state, control, target, adjoint=False)``, which
    applies CNOT(control, target) and the channel after it, and
    ``apply_final(state, adjoint=False)``; None is noiseless.
    ``unitary`` builds a layer's unitary from its angles (``_layer_unitary``).
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (layout.parameter_count,):
        raise ValueError(
            f"theta has shape {theta.shape}, layout needs a flat vector of "
            f"{layout.parameter_count}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta entries must be finite")
    first, last = (1, layout.L) if layers is None else layers
    if not (1 <= first <= last + 1 and last <= layout.L):
        raise ValueError(f"layers {first}..{last} outside 1..{layout.L}")
    if state is None:
        state = zero_state(layout.n)
    elif state.ndim == 1 and (noise is not None or adjoint):
        raise ValueError("a statevector runs noiseless and forward only")
    build = _layer_unitary if unitary is None else unitary
    final = noise is not None and first <= last == layout.L
    angles = theta.reshape(layout.L, layout.n, 3)
    if adjoint:
        state = noise.apply_final(state, adjoint=True) if final else state
        for layer in range(last, first - 1, -1):
            state = apply_ring(layout, state, noise, adjoint=True)
            u = build(angles[layer - 1])
            state = u.conj().T @ state @ u
        return state
    for layer in range(first, last + 1):
        u = build(angles[layer - 1])
        state = apply_ring(layout, rotate(u, state), noise)
    if final:
        state = noise.apply_final(state)
    return state
