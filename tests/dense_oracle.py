"""Dense reference simulator: the oracle the fast kernels are tested against.

Every state here is an explicit 2^n x 2^n density matrix and every operator
an explicit matrix: embedded single-qubit factors, CNOT as a sum of
projectors, and Pauli channels as their Kraus sums. The rotation blocks are
built one angle at a time as the Z, Y, Z product of complex 2x2
``rotation_matrix`` calls, independent of the package's real transfer
blocks, which it writes from the angles' cosines and sines.
``pauli_vector`` and ``density_matrix`` convert to and from the package's
Pauli vectors string by string, each string an explicit Kronecker product.
``seed_sequence_streams`` is the reference for the package's keyed random
streams: numpy's own ``SeedSequence``, one key at a time.
"""
from functools import reduce

import numpy as np

from paulishift.noise import TWO_QUBIT_PAULI_LABELS

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def rotation_matrix(axis, angle):
    """The 2x2 rotation exp(-i * angle * P / 2) about Pauli axis P.

    An array of angles gives a stack of rotations, shape angle.shape + (2, 2).
    """
    if axis not in "XYZ":
        raise ValueError(f"axis must be one of X, Y, Z, got {axis!r}")
    half = 0.5 * np.asarray(angle)[..., None, None]
    return np.cos(half) * PAULI["I"] - 1.0j * np.sin(half) * PAULI[axis]


def qubit_count(matrix):
    return len(matrix).bit_length() - 1


def zero_state(n):
    """|0...0><0...0| as a density matrix."""
    rho = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho[0, 0] = 1.0
    return rho


# Row a is sigma_a^T flattened: row a times the row-major vec of a 2x2
# matrix M is tr(sigma_a M). Its inverse is its conjugate transpose / 2.
_ROWS = np.array([PAULI[c].T.ravel() for c in "IXYZ"])


def _per_qubit(tensor, matrix):
    """Apply ``matrix`` to every axis of an (m,) * n tensor."""
    for axis in range(tensor.ndim):
        tensor = np.moveaxis(np.tensordot(matrix, tensor, (1, axis)), 0, axis)
    return tensor


def pauli_vector(rho):
    """r_P = tr(P rho) over every string P, real for Hermitian rho: rho's
    row and column bits paired per qubit, then the rows above on each."""
    n = qubit_count(rho)
    pairs = rho.reshape((2,) * 2 * n).transpose(
        [a for q in range(n) for a in (q, n + q)]).reshape((4,) * n)
    vals = _per_qubit(pairs, _ROWS).ravel()
    assert np.abs(vals.imag).max() < 1e-12
    return vals.real


def density_matrix(r):
    """sum_P r_P P / 2^n, the inverse of ``pauli_vector``."""
    n = (len(r).bit_length() - 1) // 2
    pairs = _per_qubit(r.reshape((4,) * n), _ROWS.conj().T / 2)
    return pairs.reshape((2,) * 2 * n).transpose(
        list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))).reshape(
            2 ** n, 2 ** n)


def coefficients(obs):
    """o_P = tr(P O) / 2^n, so O = sum_P o_P P and tr(O rho) = o . r."""
    return pauli_vector(obs) / len(obs)


def check_state(state, atol=1e-10):
    """Raise if the state is not Hermitian, unit-trace and PSD up to tolerance."""
    if not np.allclose(state, state.conj().T, atol=1e-12):
        raise ValueError("state is not Hermitian")
    trace = np.trace(state)
    if abs(trace.real - 1.0) > 1e-12 or abs(trace.imag) > 1e-12:
        raise ValueError("state trace is not 1")
    eigs = np.linalg.eigvalsh(state)
    if eigs.min() < -atol:
        raise ValueError(f"state has negative eigenvalue {eigs.min():.3e}")


def random_mixed_state(n, seed):
    """A full-rank state with generic complex entries: G G^dag / tr."""
    rng = np.random.default_rng(seed)
    shape = (2 ** n, 2 ** n)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(n, rng):
    """A generic Hermitian 2^n x 2^n matrix, such as an observable."""
    shape = (2 ** n, 2 ** n)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return g + g.conj().T


def embedded(n, factors):
    """kron of the given single-qubit matrices, identity elsewhere."""
    mats = [factors.get(q, PAULI["I"]) for q in range(1, n + 1)]
    return reduce(np.kron, mats)


def pauli_sum_reference(state, j, k, weights):
    """Direct Kraus evaluation: sum_i w_i P_i rho P_i plus the kept term."""
    n = qubit_count(state)
    out = (1.0 - sum(weights)) * state
    for w, label in zip(weights, TWO_QUBIT_PAULI_LABELS):
        p = embedded(n, {j: PAULI[label[0]], k: PAULI[label[1]]})
        out = out + w * (p @ state @ p)
    return out


def observable_matrix(obs):
    """A Pauli observable as its explicit 2^n x 2^n Kronecker product."""
    return reduce(np.kron, [PAULI[c] for c in obs.letters])


def cnot_matrix(n, control, target):
    """CNOT as the sum of projectors on the control, |0><0| + |1><1| X."""
    p0, p1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    return (embedded(n, {control: p0})
            + embedded(n, {control: p1, target: PAULI["X"]}))


def zyz_block(alpha, beta, gamma):
    """Rz(gamma) Ry(beta) Rz(alpha), one scalar rotation at a time."""
    u = np.eye(2)
    for axis, angle in zip("ZYZ", (alpha, beta, gamma)):
        u = rotation_matrix(axis, angle) @ u
    return u


def transfer_block(u):
    """R_ab = tr(s_a u s_b u^dagger) / 2 over s = I, X, Y, Z, entry by entry."""
    s = [PAULI[c] for c in "IXYZ"]
    return np.array([[np.trace(a @ u @ b @ u.conj().T).real / 2 for b in s]
                     for a in s])


def dense_layer(layout, theta, layer):
    """The layer's rotation blocks as one embedded dense unitary."""
    blocks = {q: zyz_block(*(theta[layout.flat_index(layer, q, s)]
                             for s in (1, 2, 3)))
              for q in range(1, layout.n + 1)}
    return embedded(layout.n, blocks)


def dense_evolve(layout, theta, weights):
    """Reference circuit: dense layer unitaries and CNOT matrices, with the
    Kraus-sum Pauli channel after every CNOT."""
    rho = zero_state(layout.n)
    for layer in range(1, layout.L + 1):
        u = dense_layer(layout, theta, layer)
        rho = u @ rho @ u.conj().T
        for c, t in layout.cnot_ring:
            cx = cnot_matrix(layout.n, c, t)
            rho = cx @ rho @ cx
            rho = pauli_sum_reference(rho, c, t, weights)
    return rho


def dense_statevector(layout, theta):
    """Reference noiseless circuit on |0...0> as a statevector."""
    psi = np.zeros(2 ** layout.n, dtype=complex)
    psi[0] = 1.0
    for layer in range(1, layout.L + 1):
        psi = dense_layer(layout, theta, layer) @ psi
        for c, t in layout.cnot_ring:
            psi = cnot_matrix(layout.n, c, t) @ psi
    return psi


def seed_sequence_streams(master_seed, keys):
    """One generator per key, each seeded by numpy's ``SeedSequence``."""
    return [np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(master_seed, spawn_key=key))) for key in keys]
