"""Independent recomputations the benchmark checks the CLI's outputs against.

Nothing here imports paulishift. The circuit is rebuilt from the documented
model (README, docs/formats.md, the harness reproducibility contract) with a
different simulation method: single- and two-qubit gates are contracted into
a rank-2n density tensor instead of multiplying dense Kronecker products.
The closed forms are retyped from the paper's MSE formulas.
"""
from __future__ import annotations

import math
from itertools import product

import numpy as np

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# Row-major over "IXYZ" x "IXYZ" without II; the first letter acts on the
# CNOT's control qubit.
_PAIR_LABELS = [a + b for a, b in product("IXYZ", repeat=2) if a + b != "II"]
_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                 dtype=complex).reshape(2, 2, 2, 2)


def _substream(master_seed: int, *key: int) -> np.random.Generator:
    seq = np.random.SeedSequence(master_seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(seq))


def haar_angles(master_seed: int, set_index: int, n: int,
                L: int) -> np.ndarray:
    """ZYZ Euler angles of one parameter set, shape (L, n, 3)."""
    rng = _substream(master_seed, 0, set_index)
    angles = np.empty((L, n, 3))
    for layer in range(L):
        for qubit in range(n):
            u = rng.random(3)
            angles[layer, qubit] = (2 * math.pi * u[0],
                                    math.acos(1 - 2 * u[1]),
                                    2 * math.pi * u[2])
    return angles


def redrawn_pauli_weights(master_seed: int, set_index: int,
                          rate: float) -> np.ndarray:
    raw = _substream(master_seed, 1, set_index).random(15)
    return rate * raw / raw.sum()


def _rot(axis: str, angle: float) -> np.ndarray:
    return (math.cos(angle / 2) * _PAULI["I"]
            - 1j * math.sin(angle / 2) * _PAULI[axis])


def _apply(rho: np.ndarray, gate: np.ndarray, qubits: tuple[int, ...],
           n: int) -> np.ndarray:
    """rho -> G rho G^dagger for a gate of shape (2,)*2k on the given axes."""
    k = len(qubits)
    rows = list(qubits)
    cols = [n + q for q in qubits]
    gate_in = list(range(k, 2 * k))
    rho = np.moveaxis(np.tensordot(gate, rho, axes=(gate_in, rows)),
                      list(range(k)), rows)
    return np.moveaxis(np.tensordot(gate.conj(), rho, axes=(gate_in, cols)),
                       list(range(k)), cols)


def _pauli_channel(rho: np.ndarray, weights: np.ndarray, pair: tuple[int, int],
                   n: int) -> np.ndarray:
    out = (1.0 - weights.sum()) * rho
    for w, label in zip(weights, _PAIR_LABELS):
        gate = np.kron(_PAULI[label[0]], _PAULI[label[1]]).reshape(2, 2, 2, 2)
        out = out + w * _apply(rho, gate, pair, n)
    return out


def expectation(angles: np.ndarray, weights: np.ndarray | None) -> float:
    """<XYZ...> after the layered ZYZ + CNOT-ring circuit from |0..0>.

    ``weights`` are the 15 Pauli-channel rates applied after every CNOT, or
    None for the noiseless circuit.
    """
    L, n, _ = angles.shape
    rho = np.zeros((2,) * (2 * n), dtype=complex)
    rho[(0,) * (2 * n)] = 1.0
    ring = [(q, q + 1) for q in range(n - 1)] + [(n - 1, 0)]
    for layer in range(L):
        for q in range(n):
            a, b, c = angles[layer, q]
            block = _rot("Z", c) @ _rot("Y", b) @ _rot("Z", a)
            rho = _apply(rho, block, (q,), n)
        for pair in ring:
            rho = _apply(rho, _CNOT, pair, n)
            if weights is not None:
                rho = _pauli_channel(rho, weights, pair, n)
    obs = np.array([[1.0]], dtype=complex)
    for q in range(n):
        obs = np.kron(obs, _PAULI["XYZ"[q % 3]])
    d = 2 ** n
    return float(np.trace(rho.reshape(d, d) @ obs).real)


def pauli_redraw_f_g(master_seed: int, set_index: int, n: int, L: int,
                     rate: float) -> tuple[float, float]:
    """Clean value f and noise term g of one set under redrawn Pauli noise."""
    angles = haar_angles(master_seed, set_index, n, L)
    weights = redrawn_pauli_weights(master_seed, set_index, rate)
    eta = 1.0 - (1.0 - rate) ** (n * L)
    f = expectation(angles, None)
    f_noisy = expectation(angles, weights)
    return f, (f_noisy - (1.0 - eta) * f) / eta


# ── closed forms ─────────────────────────────────────────────────────────────

def _moment(kind: str, d: int) -> float:
    if kind == "offdiag":
        return d ** 4 / (4.0 * (d + 1.0) * (d * d - 1.0) ** 2)
    return d * d / (2.0 * (d + 1.0) * (d * d - 1.0))


def _lambda_naive(kind: str, d: int, nt: float) -> float:
    if kind == "gradient":
        return d * nt / (2.0 * d * d + d * nt - 2.0)
    if kind == "diag":
        return 4.0 * d * nt / (9.0 * d * d + 4.0 * d * nt - 9.0)
    return d ** 3 * nt / (4.0 * (d * d - 1.0) ** 2 + d ** 3 * nt)


def mse_scaled_shift(kind: str, d: int, lam: float, eta: float,
                     nt: float) -> float:
    """Total MSE of the lambda-scaled shift rule with the noise term g = 0."""
    c = 9.0 / 8.0 if kind == "diag" else 1.0
    shot = 1.0 - (1.0 - eta) ** 2 / (d + 1.0)
    return (c * lam * lam / nt * shot
            + (1.0 - (1.0 - eta) * lam) ** 2 * _moment(kind, d))


def crossing_residual(kind: str, d: int, eta: float, nt: float) -> float:
    """Relative gap between naive scaled-shift and plain PS MSE at nt."""
    tuned = mse_scaled_shift(kind, d, _lambda_naive(kind, d, nt), eta, nt)
    plain = mse_scaled_shift(kind, d, 1.0, eta, nt)
    return abs(tuned - plain) / plain
