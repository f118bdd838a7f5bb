"""Exact simulation of layered Pauli-rotation circuits.

A state on n qubits, clean or noisy, is a real Pauli vector: the 4^n values
r_P = tr(P rho), indexed by the string P as base-4 digits (I, X, Y, Z =
0..3), qubit 1 first; an observable O = sum_P o_P P is the Pauli vector o,
and tr(O rho) = o . r.  A layer is a Kronecker product of real 4x4 transfer
blocks written from the cosines and sines of its angles, a CNOT a signed
permutation and a Pauli channel diagonal, so every array is real and a
clean circuit is the noisy one with the identity channel.  The angles are
one flat vector of 3nL floats, layer-major, then qubit, then slot, so
``theta.reshape(L, n, 3)`` holds each qubit's (Z, Y, Z) angles.  Qubit 1 is
the most significant bit of a basis index: kron(A_1, ..., A_n) acts with
A_q on qubit q.  Qubit, layer and slot indices are 1-based.  Many
parameter sets run at once on a leading set axis: angles (B, 3nL) and
states (B, 4^n), each row's bits those of its own single-set call.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np


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
    """Return a copy of theta, (..., 3nL), with ``shifts[(qubit, layer,
    slot)]`` added to that angle of every set."""
    out = np.array(theta, dtype=float)
    for (qubit, layer, slot), delta in shifts.items():
        out[..., layout.flat_index(layer, qubit, slot)] += delta
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

    @property
    def index(self) -> int:
        """The position of the string in a Pauli vector: its base-4 digits."""
        return int(self.letters.translate(str.maketrans("IXYZ", "0123")), 4)

    def pauli_vector(self) -> np.ndarray:
        """The coefficients o of O = sum_P o_P P: a single 1."""
        return np.eye(1, 4 ** self.n, self.index)[0]


def cyclic_observable(n: int) -> PauliObservable:
    """The default observable: letters X, Y, Z repeating across qubits."""
    return PauliObservable("".join("XYZ"[(q - 1) % 3] for q in range(1, n + 1)))


# ── states ───────────────────────────────────────────────────────────────────

@lru_cache(maxsize=4)
def zero_state(n: int) -> np.ndarray:
    """|0...0><0...0| as a Pauli vector: 1 on the strings of I and Z.
    Built once per n and read-only."""
    q = np.arange(4 ** n)  # I = 00 and Z = 11: digits whose bits agree
    state = (((q ^ (q >> 1)) & ((4 ** n - 1) // 3)) == 0).astype(float)
    state.flags.writeable = False
    return state


def check_vector(state, n: int | None = None, sets: tuple = ()) -> int:
    """The qubit count of ``state``, a real Pauli vector of shape (4^n,) or
    a stack of shape ``sets`` + (4^n,) (for this n, if given), else
    ValueError. A real density matrix has the shape of a stack, so a stack
    must name its leading set axes, as ``evolve`` takes them from theta."""
    shape = np.shape(state)
    if n is None and len(shape) in (1, len(sets) + 1):
        n = (shape[-1].bit_length() - 1) // 2
    if (n is None or shape[-1:] != (4 ** n,) or shape[:-1] not in ((), sets)
            or not np.isrealobj(state)):
        raise ValueError(f"state must be a real Pauli vector of shape (4^n,)"
                         f", got {shape} {np.asarray(state).dtype}")
    return n


# ── gates ────────────────────────────────────────────────────────────────────

@lru_cache(maxsize=64)
def _pauli_cnots(n: int, pairs: tuple):
    """(gather, inverse, sign, steps): (C r)[Q] = sign[Q] r[gather[Q]] for
    C the CNOTs in ``pairs`` in turn, ``inverse`` the inverse permutation,
    and CNOT k's channel sees pair digit steps[k, Q] = 4 p_c + p_t. On a
    digit's bits x = b0 ^ b1, z = b1, CNOT(c, t) sets x_t ^= x_c,
    z_c ^= z_t and flips the sign where x_c z_t (x_t ^ z_c ^ 1) = 1
    (Aaronson and Gottesman, 2004)."""
    q, sign = np.arange(4 ** n), np.ones(4 ** n)
    steps = np.empty((len(pairs), 4 ** n), dtype=np.uint8)
    for k in range(len(pairs) - 1, -1, -1):
        control, target = pairs[k]
        check_pair(n, control, target)
        sc, st = 2 * (n - control), 2 * (n - target)
        pc, pt = (q >> sc) & 3, (q >> st) & 3
        steps[k] = 4 * pc + pt
        xc, zc, xt, zt = (pc ^ pc >> 1) & 1, pc >> 1, (pt ^ pt >> 1) & 1, pt >> 1
        sign *= 1 - 2 * (xc & zt & (xt ^ zc ^ 1))
        zc ^= zt
        xt ^= xc
        q ^= (pc ^ (2 * zc + (xc ^ zc))) << sc | (pt ^ (2 * zt + (xt ^ zt))) << st
    return q, np.argsort(q), sign, steps


@lru_cache(maxsize=2)
def _pauli_ring(n: int, pairs: tuple, eigenvalues: tuple | None):
    """(gather, inverse, factor) of ``_pauli_cnots``, each CNOT followed by
    the channel with these 16 eigenvalues, if any: (B, 16) of them, one
    channel per set, give factors (B, 4^n). Two are kept, a run's clean
    ring and its channel's, so a batch's factors go with the batch."""
    gather, inverse, factor, steps = _pauli_cnots(n, pairs)
    if eigenvalues is not None:
        lam = np.array(eigenvalues)
        factor = np.broadcast_to(factor, lam.shape[:-1] + factor.shape).copy()
        for step in steps:
            factor *= lam.take(step, axis=-1)
    return gather, inverse, factor


def _ring(layout: AnsatzLayout, noise):
    """The layout's CNOT ring as a ``_pauli_ring``, each CNOT followed by
    the noise model's channel (None and ``eigenvalues = None`` are the bare
    CNOT); None for a ringless layout."""
    if not layout.cnot_ring:
        return None
    return _pauli_ring(layout.n, layout.cnot_ring,
                       None if noise is None else noise.eigenvalues)


def _apply_ring(state: np.ndarray, ring, adjoint: bool) -> np.ndarray:
    """A ``_pauli_ring`` on the last axis of ``state``: a signed gather,
    whose adjoint gathers the scaled state with the inverse permutation.
    A None ring leaves ``state`` as it is."""
    if ring is None:
        return state
    gather, inverse, factor = ring
    if adjoint:
        return (factor * state).take(inverse, axis=-1)
    return factor * state.take(gather, axis=-1)


def check_pair(n: int, j: int, k: int) -> None:
    """ValueError unless j and k are two distinct qubits of n."""
    if j == k:
        raise ValueError("the two qubits must differ")
    for q in (j, k):
        if not 1 <= q <= n:
            raise ValueError(f"qubit {q} out of range 1..{n}")


def apply_cnot(state: np.ndarray, control, target, adjoint: bool = False,
               eigenvalues: tuple | None = None) -> np.ndarray:
    """CNOT = |0><0| (x) 1 + |1><1| (x) X on a Pauli vector as one signed
    gather (C P C = +-P'); tuples of controls and targets apply those CNOTs
    in turn, each followed by the Pauli channel with these 16
    ``eigenvalues``, if given. ``adjoint=True`` applies the adjoint.
    ``state`` is a real Pauli vector, else ValueError."""
    if np.ndim(control) == 0:
        control, target = (control,), (target,)
    pairs = tuple(zip(control, target, strict=True))
    return _apply_ring(state, _pauli_ring(check_vector(state), pairs,
                                          eigenvalues), adjoint)


def expectation(state: np.ndarray, obs) -> float:
    """tr(rho O) = o . r for the Pauli vector r: r at the string of a Pauli
    observable O (ValueError unless r has its n), or o . r for the
    coefficients o of O, as ``evolve(..., adjoint=True)`` pulls it back."""
    if isinstance(obs, PauliObservable):
        check_vector(state, obs.n)
        return float(state[obs.index])
    if obs.shape != state.shape:
        raise ValueError(f"observable {obs.shape}, state {state.shape}")
    return float(obs @ state)


# ── circuit evolution ────────────────────────────────────────────────────────

def _layer_unitary(angles: np.ndarray) -> tuple[np.ndarray, ...]:
    """A layer's Pauli transfer map from its (n, 3) ZYZ angles in real
    Kronecker factors: a 16x16 per qubit pair (1, 2), (3, 4), ..., and a 4x4
    for an odd last qubit. Qubit q's block is 1 (+) R, R_ab = tr(s_a u s_b
    u^dagger) / 2 of u = Rz(gamma) Ry(beta) Rz(alpha), the SO(3) rotation
    Rz Ry Rz written from the angles' cosines and sines. Angles (..., n, 3)
    give factors (..., 16, 16), each layer's bits those of its own call."""
    angles = np.ascontiguousarray(angles, dtype=float)
    n, m = angles.shape[-2], angles.shape[-2] // 2
    trig = np.concatenate((np.cos(angles), np.sin(angles)), axis=-1)
    cb, sb = trig[..., 1:2], trig[..., 4:5]
    a, g = trig[..., 0::3], trig[..., 2::3]  # (cos, sin) of alpha, gamma
    a_row = a * (1.0, -1.0)  # Rz(alpha)'s first row; its second is a[::-1]
    r = np.zeros(angles.shape[:-1] + (4, 4))
    r[..., 0, 0] = 1.0
    # On X, Y: Rz(gamma) diag(cos beta, 1) Rz(alpha), column times row.
    r[..., 1:3, 1:3] = ((cb * g)[..., :, None] * a_row[..., None, :]
                        + (g[..., ::-1] * (-1.0, 1.0))[..., :, None]
                        * a[..., None, ::-1])
    r[..., 1:3, 3], r[..., 3, 1:3] = sb * g, -sb * a_row  # Z's column, row
    r[..., 3, 3] = cb[..., 0]
    pairs = (r[..., 0:2 * m:2, :, None, :, None] * r[..., 1:2 * m:2, None, :,
             None, :]).reshape(angles.shape[:-2] + (m, 16, 16))
    return (*(pairs[..., k, :, :] for k in range(m)),
            *(r[..., q, :, :] for q in range(2 * m, n)))


def rotate(op, state: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """Each transfer factor of ``op`` on its digit of a Pauli vector, or
    with ``adjoint=True`` each factor transposed. Factors (..., k, k) and
    states (..., 4^n) broadcast over their leading set axes."""
    x, pre = state, 1
    for f in op[:-1]:
        k = f.shape[-1]
        f = f.swapaxes(-1, -2) if adjoint else f
        x = np.matmul(f[..., None, :, :],
                      x.reshape(x.shape[:-1] + (pre, k, -1)))
        x, pre = x.reshape(x.shape[:-3] + (-1,)), pre * k
    x = x.reshape(x.shape[:-1] + (pre, -1)) @ (
        op[-1] if adjoint else op[-1].swapaxes(-1, -2))
    return x.reshape(x.shape[:-2] + (-1,))


def depolarize(state: np.ndarray, scale: float) -> np.ndarray:
    """Every coefficient but the identity's, on the last axis, times
    ``scale``: the global depolarizing mix, which is its own adjoint."""
    out = scale * state
    out[..., 0] = state[..., 0]
    return out


def evolve(layout: AnsatzLayout, theta: np.ndarray, noise=None,
           layers: tuple[int, int] | None = None, state=None,
           adjoint: bool = False, unitary=None) -> np.ndarray:
    """Advance ``state`` (default ``zero_state``) through the 1-based,
    inclusive ``layers = (first, last)`` (default all L) of ``theta``, the
    flat vector of 3nL finite angles or a stack (B, 3nL) of sets. Per layer:
    all single-qubit rotations (noiseless), then the CNOT ring; the final
    mix follows layer L, so it joins any nonempty range ending there. An
    empty range (first = last + 1) returns ``state``. ``state`` is a real
    Pauli vector of shape (4^n,), shared by every set, or one per set of
    shape (B, 4^n), else ValueError. ``adjoint=True`` runs the range's map E
    backwards on observable coefficients: tr(O E(rho)) = tr(E^dagger(O)
    rho). A noise model has ``eigenvalues``, the 16 of the two-qubit Pauli
    channel after every CNOT ((B, 16), one channel per set; None for the
    bare CNOT), and ``final_scale``, the ``depolarize`` factor after layer
    L; None is noiseless. ``unitary(angles)`` builds a layer's
    ``_layer_unitary``.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2) or theta.shape[-1] != layout.parameter_count:
        raise ValueError(
            f"theta has shape {theta.shape}, layout needs a flat vector of "
            f"{layout.parameter_count} or a stack of them")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta entries must be finite")
    first, last = (1, layout.L) if layers is None else layers
    if not (1 <= first <= last + 1 and last <= layout.L):
        raise ValueError(f"layers {first}..{last} outside 1..{layout.L}")
    state = zero_state(layout.n) if state is None else state
    check_vector(state, layout.n, theta.shape[:-1])
    build = unitary or _layer_unitary
    ring = _ring(layout, noise) if first <= last else None
    final = noise is not None and first <= last == layout.L
    scale = noise.final_scale if final else 1.0
    angles = theta.reshape(theta.shape[:-1] + (layout.L, layout.n, 3))
    if adjoint:
        state = depolarize(state, scale) if scale != 1.0 else state
        for layer in range(last, first - 1, -1):
            state = _apply_ring(state, ring, True)
            state = rotate(build(angles[..., layer - 1, :, :]), state, True)
        return state
    for layer in range(first, last + 1):
        state = rotate(build(angles[..., layer - 1, :, :]), state)
        state = _apply_ring(state, ring, False)
    return depolarize(state, scale) if scale != 1.0 else state
