"""Tests for the circuit simulator on Pauli vectors, clean and noisy."""
import itertools
import math
import re
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
import dense_oracle
from dense_oracle import (PAULI, check_state, cnot_matrix, coefficients,
                          dense_evolve, dense_layer, dense_statevector,
                          density_matrix,
                          observable_matrix, pauli_vector, random_hermitian,
                          random_mixed_state, rotation_matrix, transfer_block,
                          zyz_block)

from paulishift import circuits
from paulishift.circuits import (PauliObservable, _apply_ring,
                                 _layer_unitary, _ring, apply_cnot,
                                 build_ansatz, cyclic_observable, evolve,
                                 expectation, rotate, shifted, zero_state)
from paulishift.harness import sample_parameter_set
from paulishift.noise import (CnotDepolarizing, CnotPauliChannel,
                              GlobalDepolarizing, random_pauli_weights)


class TestLayout:

    def test_flat_index_orders_layer_qubit_slot(self):
        """Parameters are laid out layer-major, then qubit, then slot."""
        layout = build_ansatz(3, 2)
        assert layout.parameter_count == 18
        assert layout.flat_index(1, 1, 1) == 0
        assert layout.flat_index(1, 1, 3) == 2
        assert layout.flat_index(1, 2, 1) == 3
        assert layout.flat_index(2, 1, 1) == 9
        assert layout.flat_index(2, 3, 3) == 17

    def test_flat_index_covers_every_parameter_once(self):
        layout = build_ansatz(2, 3)
        seen = {layout.flat_index(l, q, s)
                for l in (1, 2, 3) for q in (1, 2) for s in (1, 2, 3)}
        assert seen == set(range(layout.parameter_count))

    def test_bounds_are_checked(self):
        layout = build_ansatz(2, 2)
        with pytest.raises(ValueError):
            layout.flat_index(3, 1, 1)
        with pytest.raises(ValueError):
            layout.flat_index(1, 3, 1)
        with pytest.raises(ValueError):
            layout.flat_index(1, 1, 4)
        with pytest.raises(ValueError):
            layout.flat_index(0, 1, 1)

    def test_default_blocks_are_zyz(self):
        """Each qubit's real transfer block is that of Rz(slot 3) Ry(slot 2)
        Rz(slot 1), so slot 2 carries the Y-encoded Euler angle on every
        qubit: against R_ab = tr(s_a u s_b u^dagger) / 2 of the oracle's
        complex rotations, at n = 1..8 with angles outside [0, 2 pi). A
        pair's 16x16 factor holds its first qubit's block at rows and
        columns 0, 4, 8, 12 and its second's at 0..3, exactly, as the other
        block's 1 (+) R keeps a 1 in its corner."""
        rng = np.random.default_rng(3)
        for n in range(1, 9):
            for _ in range(5):
                angles = rng.uniform(-7.0, 7.0, size=(n, 3))
                op = _layer_unitary(angles)
                blocks = [b for f in op
                          for b in ((f[::4, ::4], f[:4, :4]) if len(f) == 16
                                    else (f,))]
                assert len(blocks) == n
                for block, (a, b, c) in zip(blocks, angles):
                    np.testing.assert_allclose(
                        block, transfer_block(zyz_block(a, b, c)), rtol=0,
                        atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stacked_layers_match_single_calls(self, n):
        """(L, n, 3) angles give every layer's factors, stacked, bit for
        bit those of L calls on (n, 3)."""
        rng = np.random.default_rng(60 + n)
        for layers in (1, 2, 5, 13):
            angles = rng.uniform(-7.0, 7.0, size=(layers, n, 3))
            stacked = _layer_unitary(angles)
            for layer in range(layers):
                single = _layer_unitary(angles[layer])
                assert len(stacked) == len(single)
                for factor, want in zip(stacked, single):
                    assert np.array_equal(factor[layer], want)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_kron_fold_is_bit_identical(self, n):
        """A qubit pair's 16x16 transfer factor, a broadcast outer product,
        equals np.kron of the two qubits' own 4x4 blocks to the bit; an odd
        last qubit keeps its block."""
        rng = np.random.default_rng(70 + n)
        for _ in range(5):
            angles = rng.uniform(-4.0, 4.0, size=(n, 3))
            single = [_layer_unitary(angles[q:q + 1])[0] for q in range(n)]
            pairs = [np.kron(*single[q:q + 2]) for q in range(0, n - 1, 2)]
            op = _layer_unitary(angles)
            assert len(op) == len(pairs) + n % 2
            for factor, want in zip(op, pairs + single[n - n % 2:]):
                assert np.array_equal(factor, want)

    def test_cnot_ring_closes(self):
        assert build_ansatz(4, 1).cnot_ring == ((1, 2), (2, 3), (3, 4), (4, 1))
        assert build_ansatz(2, 1).cnot_ring == ((1, 2), (2, 1))
        assert build_ansatz(1, 1).cnot_ring == ()

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            build_ansatz(0, 1)
        with pytest.raises(ValueError):
            build_ansatz(1, 0)


class TestAngleVector:

    def test_shifted_adds_only_named_angles(self):
        layout = build_ansatz(2, 2)
        theta = np.zeros(layout.parameter_count)
        moved = shifted(layout, theta, {(1, 2, 2): 0.5, (2, 1, 3): -0.25})
        expect = np.zeros(layout.parameter_count)
        expect[layout.flat_index(2, 1, 2)] = 0.5
        expect[layout.flat_index(1, 2, 3)] = -0.25
        np.testing.assert_allclose(moved, expect)
        np.testing.assert_allclose(theta, 0.0)  # original untouched

    def test_rejects_non_finite(self):
        layout = build_ansatz(1, 1)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                evolve(layout, np.array([0.0, bad, 0.0]))


class TestGates:
    """The oracle's complex rotations, which the real transfer blocks are
    checked against, then the CNOT gathers."""

    def test_rotations_are_unitary(self):
        for axis in "XYZ":
            u = rotation_matrix(axis, 0.7321)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)

    def test_rotation_generator(self):
        """exp(-i a P / 2) = cos(a/2) I - i sin(a/2) P."""
        a = 1.234
        u = rotation_matrix("Y", a)
        y = np.array([[0, -1j], [1j, 0]])
        np.testing.assert_allclose(
            u, math.cos(a / 2) * np.eye(2) - 1j * math.sin(a / 2) * y,
            atol=1e-15)

    def test_rotation_stacks_match_scalar_calls(self):
        """An array of angles gives, slice by slice, the scalar rotation
        bit for bit."""
        rng = np.random.default_rng(5)
        angles = rng.uniform(-7.0, 7.0, size=(4, 3))
        for axis in "XYZ":
            stack = rotation_matrix(axis, angles)
            assert stack.shape == (4, 3, 2, 2)
            for idx in np.ndindex(angles.shape):
                assert np.array_equal(stack[idx],
                                      rotation_matrix(axis, angles[idx]))

    def test_rotation_full_period(self):
        """A 4 pi rotation is the identity; 2 pi is minus it (spinor sign)."""
        u2 = rotation_matrix("Z", 2 * math.pi)
        u4 = rotation_matrix("Z", 4 * math.pi)
        np.testing.assert_allclose(u2, -np.eye(2), atol=1e-12)
        np.testing.assert_allclose(u4, np.eye(2), atol=1e-12)

    def test_cnot_flips_target_on_set_control(self):
        """CNOT(1->2) maps |10> to |11> and leaves |01> alone."""

        def basis_state(index):
            rho = np.zeros((4, 4))
            rho[index, index] = 1.0
            return pauli_vector(rho)

        flipped = density_matrix(apply_cnot(basis_state(0b10), 1, 2))
        np.testing.assert_allclose(abs(flipped[3, 3]), 1.0, atol=1e-12)

        same = density_matrix(apply_cnot(basis_state(0b01), 1, 2))
        np.testing.assert_allclose(abs(same[1, 1]), 1.0, atol=1e-12)

    def test_cnot_is_an_involution(self):
        rng = np.random.default_rng(7)
        layout = build_ansatz(3, 1)
        state = evolve(layout, sample_parameter_set(layout, rng))
        twice = apply_cnot(apply_cnot(state, 2, 3), 2, 3)
        np.testing.assert_allclose(twice, state, atol=1e-14)

    def test_cnot_rejects_equal_qubits(self):
        with pytest.raises(ValueError):
            apply_cnot(zero_state(2), 1, 1)

    def test_cnot_takes_only_real_pauli_vectors(self):
        """A density matrix, complex or real, a complex vector and a length
        that is no power of 4 each raise, forward and adjoint, rather than
        run as a Pauli vector."""
        rho = dense_oracle.zero_state(4)
        for state in (rho, rho.real, zero_state(2).astype(complex),
                      np.ones(8)):
            for adjoint in (False, True):
                with pytest.raises(ValueError, match="real Pauli vector"):
                    apply_cnot(state, 1, 2, adjoint)


class TestStatesAndObservables:

    def test_zero_state_is_valid(self):
        """The Pauli vector of |0...0><0...0|: 1 on every string of I and
        Z, which is the oracle's density matrix."""
        state = zero_state(3)
        assert state.shape == (64,) and state.dtype == float
        rho = density_matrix(state)
        check_state(rho)
        np.testing.assert_allclose(rho, dense_oracle.zero_state(3), rtol=0,
                                   atol=1e-15)
        assert state[0] == 1.0  # tr(rho)
        for n in range(1, 5):
            np.testing.assert_array_equal(
                zero_state(n), pauli_vector(dense_oracle.zero_state(n)))

    def test_check_state_rejects_garbage(self):
        bad = dense_oracle.zero_state(1)
        bad[0, 1] = 0.5  # not Hermitian
        with pytest.raises(ValueError):
            check_state(bad)

    def test_observable_letters_validated(self):
        with pytest.raises(ValueError):
            PauliObservable("IAI")
        with pytest.raises(ValueError):
            PauliObservable("III")
        with pytest.raises(ValueError):
            PauliObservable("")

    def test_cyclic_observable_pattern(self):
        assert cyclic_observable(1).letters == "X"
        assert cyclic_observable(4).letters == "XYZX"

    def test_observable_matrix_squares_to_identity(self):
        obs = cyclic_observable(3)
        m = observable_matrix(obs)
        np.testing.assert_allclose(m @ m, np.eye(8), atol=1e-14)
        np.testing.assert_allclose(np.trace(m), 0.0, atol=1e-14)

    def test_expectation_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(zero_state(2), cyclic_observable(3))

    def test_expectation_reads_the_observable_entry(self):
        """A Pauli observable's expectation is the state's entry at its
        base-4 index, bit for bit the inner product with its one-hot
        coefficients; a complex state or a matrix raises."""
        layout = build_ansatz(3, 2)
        r = evolve(layout, sample_parameter_set(layout,
                                                np.random.default_rng(23)))
        assert PauliObservable("XYZ").index == 16 + 2 * 4 + 3
        for letters in ("XYZ", "IIZ", "YII", "ZXI"):
            obs = PauliObservable(letters)
            assert expectation(r, obs) == float(obs.pauli_vector() @ r)
            assert expectation(r, obs) == r[obs.index]
        for state in (r.astype(complex), r.reshape(8, 8)):
            with pytest.raises(ValueError, match="real Pauli vector"):
                expectation(state, cyclic_observable(3))


class TestEvolve:

    def test_single_qubit_closed_form(self):
        """For the ZYZ block on |0>, <X> = sin(theta_2) cos(theta_3)."""
        layout = build_ansatz(1, 1)
        for t1, t2, t3 in ((0.3, 1.1, -0.4), (2.0, 0.5, 1.9), (0.0, 2.8, 0.0)):
            theta = np.array([t1, t2, t3])
            f = expectation(evolve(layout, theta), cyclic_observable(1))
            np.testing.assert_allclose(f, math.sin(t2) * math.cos(t3),
                                       atol=1e-12)

    def test_noiseless_states_stay_pure(self):
        rng = np.random.default_rng(11)
        layout = build_ansatz(3, 2)
        state = evolve(layout, sample_parameter_set(layout, rng))
        rho = density_matrix(state)
        check_state(rho)
        purity = np.trace(rho @ rho).real
        np.testing.assert_allclose(purity, 1.0, atol=1e-10)
        # tr(rho^2) = |r|^2 / 2^n in the Pauli basis
        np.testing.assert_allclose(state @ state / 8, 1.0, atol=1e-12)

    def test_expectations_stay_in_range(self):
        rng = np.random.default_rng(13)
        layout = build_ansatz(4, 3)
        obs = cyclic_observable(4)
        for _ in range(5):
            f = expectation(evolve(layout, sample_parameter_set(layout, rng)),
                            obs)
            assert -1.0 <= f <= 1.0

    def test_function_is_2pi_periodic(self):
        """Shifting any angle by 2 pi leaves the expectation unchanged."""
        rng = np.random.default_rng(17)
        layout = build_ansatz(2, 2)
        obs = cyclic_observable(2)
        theta = sample_parameter_set(layout, rng)
        f0 = expectation(evolve(layout, theta), obs)
        f1 = expectation(
            evolve(layout, shifted(layout, theta, {(1, 2, 2): 2 * math.pi})),
            obs)
        np.testing.assert_allclose(f1, f0, atol=1e-12)

    def test_layer_ranges_compose(self):
        """Layers 1..k then k+1..L from that state give the full circuit;
        an empty range returns its state; the final hook runs with the
        range that ends at layer L."""
        rng = np.random.default_rng(19)
        layout = build_ansatz(3, 4)
        theta = sample_parameter_set(layout, rng)
        for channel in (None, GlobalDepolarizing(0.2), CnotDepolarizing(0.1)):
            full = evolve(layout, theta, channel)
            for k in range(0, 5):
                head = evolve(layout, theta, channel, (1, k))
                tail = evolve(layout, theta, channel, (k + 1, 4), head)
                np.testing.assert_allclose(tail, full, rtol=0, atol=1e-14)
        state = zero_state(3)
        assert evolve(layout, theta, GlobalDepolarizing(0.2), (5, 4),
                      state) is state

    def test_adjoint_range_pulls_the_observable_back(self):
        """tr(O E(rho)) = tr(E^dagger(O) rho) over any layer range under
        every model."""
        rng = np.random.default_rng(29)
        layout = build_ansatz(3, 3)
        theta = sample_parameter_set(layout, rng)
        rho = evolve(layout, sample_parameter_set(layout, rng))
        obs = cyclic_observable(3)
        weights = random_pauli_weights(0.1, rng)
        for channel in (None, GlobalDepolarizing(0.2), CnotDepolarizing(0.1),
                        CnotPauliChannel(weights)):
            for first, last in ((1, 3), (2, 3), (1, 2), (2, 2), (4, 3)):
                forward = evolve(layout, theta, channel, (first, last), rho)
                back = evolve(layout, theta, channel, (first, last),
                              obs.pauli_vector(), adjoint=True)
                assert abs(expectation(forward, obs)
                           - expectation(rho, back)) < 1e-12

    def test_layer_range_and_state_checked(self):
        layout = build_ansatz(2, 2)
        theta = np.zeros(layout.parameter_count)
        for layers in ((0, 1), (1, 3), (3, 1)):
            with pytest.raises(ValueError):
                evolve(layout, theta, None, layers)
        with pytest.raises(ValueError):
            evolve(layout, theta, None, (1, 2), zero_state(3))

    def test_theta_length_checked(self):
        """theta must be a flat vector of exactly 3 n L angles."""
        layout = build_ansatz(2, 2)
        with pytest.raises(ValueError):
            evolve(layout, np.zeros(5))
        with pytest.raises(ValueError):
            evolve(layout, np.zeros((4, 3)))


class TestStatevectors:
    """Noiseless circuits on Pauli vectors against the dense statevector
    oracle; no other kind of state runs."""

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_evolve_and_expectation_match_dense_oracle(self, n, L):
        layout = build_ansatz(n, L)
        rng = np.random.default_rng(80 + 10 * n + L)
        theta = sample_parameter_set(layout, rng)
        r = evolve(layout, theta)
        psi = dense_statevector(layout, theta)
        np.testing.assert_allclose(r, pauli_vector(np.outer(psi, psi.conj())),
                                   rtol=0, atol=1e-12)
        matrix = random_hermitian(n, rng)
        obs = cyclic_observable(n)
        for o, m in ((obs, observable_matrix(obs)),
                     (coefficients(matrix), matrix)):
            assert abs(expectation(r, o) - np.vdot(psi, m @ psi).real) < 1e-12
        head = evolve(layout, theta, None, (1, 1))
        np.testing.assert_allclose(evolve(layout, theta, None, (2, L), head),
                                   r, rtol=0, atol=1e-14)

    def test_evolve_takes_only_real_pauli_vectors(self):
        """A complex statevector, a complex vector of length 4^n and a
        density matrix each raise, forward and adjoint, rather than run as
        a Pauli vector of fewer qubits."""
        layout = build_ansatz(4, 1)
        theta = np.zeros(layout.parameter_count)
        psi = np.eye(1, 2 ** 4, dtype=complex)[0]
        for state in (psi, zero_state(4).astype(complex),
                      dense_oracle.zero_state(4)):
            for adjoint in (False, True):
                with pytest.raises(ValueError, match="real Pauli vector"):
                    evolve(layout, theta, state=state, adjoint=adjoint)


class TestNoiselessRing:
    """A layer's noiseless CNOT ring is one signed gather."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_ring_matches_dense_cnots(self, n):
        layout = build_ansatz(n, 1)
        ring = np.eye(2 ** n)
        for c, t in layout.cnot_ring:
            ring = cnot_matrix(n, c, t) @ ring
        rng = np.random.default_rng(90 + n)
        rho, obs = random_mixed_state(n, 91 + n), random_hermitian(n, rng)
        np.testing.assert_allclose(
            _apply_ring(pauli_vector(rho), _ring(layout, None), False),
            pauli_vector(ring @ rho @ ring.T), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            _apply_ring(coefficients(obs), _ring(layout, None), True),
            coefficients(ring.T @ obs @ ring), rtol=0, atol=1e-12)

    def test_one_gather_per_ring(self):
        """The whole ring is one signed gather, bit for bit the CNOTs
        applied one at a time and the ring's pairs in one apply_cnot call;
        a one-qubit layout has no ring and leaves the state as it is."""
        layout = build_ansatz(4, 1)
        state = pauli_vector(random_mixed_state(4, 97))
        one_by_one = state
        for c, t in layout.cnot_ring:
            one_by_one = apply_cnot(one_by_one, c, t)
        gather, _, sign = _ring(layout, None)
        assert np.array_equal(sign * state[gather], one_by_one)
        assert np.array_equal(_apply_ring(state, _ring(layout, None), False),
                              one_by_one)
        assert np.array_equal(apply_cnot(state, (1, 2, 3, 4), (2, 3, 4, 1)),
                              one_by_one)
        for model in (None, CnotDepolarizing(0.1)):
            assert _ring(build_ansatz(1, 3), model) is None
        assert _apply_ring(state, None, True) is state


class TestPauliVectors:
    """The Pauli-vector kernels against the dense oracle: the layer's
    transfer factors and the signed CNOT gathers, forward and adjoint."""

    def test_oracle_conversions_are_explicit_traces(self):
        """pauli_vector is tr(P rho) string by string, density_matrix its
        inverse, and a Pauli observable's coefficients are one 1."""
        rho = random_mixed_state(3, 5)
        r = pauli_vector(rho)
        for index, letters in enumerate(itertools.product("IXYZ", repeat=3)):
            p = reduce(np.kron, [PAULI[c] for c in letters])
            assert abs(r[index] - np.trace(p @ rho).real) < 1e-15
        np.testing.assert_allclose(density_matrix(r), rho, rtol=0,
                                   atol=1e-15)
        obs = PauliObservable("XIZY")
        np.testing.assert_array_equal(coefficients(observable_matrix(obs)),
                                      obs.pauli_vector())

    @pytest.mark.parametrize("n", range(1, 7))
    def test_layer_transfer_matches_dense_conjugation(self, n):
        """n = 1..6, even and odd (a last 4x4 factor): U rho U^dagger
        forward, U^dagger O U adjoint, and the trace identity."""
        layout = build_ansatz(n, 1)
        rng = np.random.default_rng(110 + n)
        theta = rng.uniform(-7.0, 7.0, size=layout.parameter_count)
        u = dense_layer(layout, theta, 1)
        op = _layer_unitary(theta.reshape(n, 3))
        assert [len(f) for f in op] == [16] * (n // 2) + [4] * (n % 2)
        rho, obs = random_mixed_state(n, 111 + n), random_hermitian(n, rng)
        r, o = pauli_vector(rho), coefficients(obs)
        forward, back = rotate(op, r), rotate(op, o, adjoint=True)
        np.testing.assert_allclose(forward, pauli_vector(u @ rho @ u.conj().T),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(back, coefficients(u.conj().T @ obs @ u),
                                   rtol=0, atol=1e-12)
        assert abs(o @ forward - back @ r) < 1e-12

    def test_transfer_blocks_are_one_plus_rotations(self):
        """Each qubit's 4x4 block keeps the identity and rotates X, Y, Z:
        1 (+) SO(3), so a factor is orthogonal."""
        rng = np.random.default_rng(120)
        op = _layer_unitary(rng.uniform(-7, 7, size=(3, 3)))
        for f in op:
            np.testing.assert_allclose(f @ f.T, np.eye(len(f)), atol=1e-14)
        r3 = op[-1]
        assert r3[0, 0] == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(r3[0, 1:], 0.0, atol=1e-15)
        np.testing.assert_allclose(r3[1:, 0], 0.0, atol=1e-15)
        assert np.linalg.det(r3[1:, 1:]) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_cnot_gather_matches_cnot_matrix(self, n):
        """Every ordered pair up to n = 4, the ring's pairs beyond: the
        signed gather is C rho C, its adjoint C O C, and a tuple of pairs
        equals the CNOTs one by one."""
        rng = np.random.default_rng(130 + n)
        rho, obs = random_mixed_state(n, 131 + n), random_hermitian(n, rng)
        r, o = pauli_vector(rho), coefficients(obs)
        pairs = (list(itertools.permutations(range(1, n + 1), 2)) if n <= 4
                 else list(build_ansatz(n, 1).cnot_ring))
        for c, t in pairs:
            cx = cnot_matrix(n, c, t)
            np.testing.assert_allclose(apply_cnot(r, c, t),
                                       pauli_vector(cx @ rho @ cx),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(apply_cnot(o, c, t, adjoint=True),
                                       coefficients(cx @ obs @ cx),
                                       rtol=0, atol=1e-12)
        one_by_one = r
        for c, t in pairs:
            one_by_one = apply_cnot(one_by_one, c, t)
        np.testing.assert_array_equal(apply_cnot(r, *zip(*pairs)), one_by_one)
        ring = apply_cnot(r, *zip(*pairs))
        back = apply_cnot(o, *zip(*pairs), adjoint=True)
        assert abs(o @ ring - back @ r) < 1e-12


class TestSetAxis:
    """Kernels on a leading set axis: each row's bits are those of its own
    single-set call, and each row is that set's circuit."""

    @staticmethod
    def _models(rng, sets):
        """(batch model, per-set models, per-set dense Kraus weights and
        global rate) for each noise kind, redrawn Pauli channels included."""
        pauli = [random_pauli_weights(0.1, rng) for _ in range(sets)]
        depol = CnotDepolarizing(0.05)
        return [(None, [None] * sets, [((0.0,) * 15, 0.0)] * sets),
                (GlobalDepolarizing(0.3), [GlobalDepolarizing(0.3)] * sets,
                 [((0.0,) * 15, 0.3)] * sets),
                (depol, [depol] * sets, [((0.05 / 15,) * 15, 0.0)] * sets),
                (CnotPauliChannel(pauli), [CnotPauliChannel(w) for w in pauli],
                 [(w, 0.0) for w in pauli])]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_stacks_match_single_calls_and_the_oracle(self, n):
        """rotate, the CNOT ring (one channel per set) and evolve, forward
        and adjoint, on three sets at once: bit for bit each set's own
        call, and each set's dense circuit to 1e-12."""
        rng = np.random.default_rng(140 + n)
        sets, layout = 3, build_ansatz(n, 2)
        theta = rng.uniform(-7.0, 7.0, size=(sets, layout.parameter_count))
        states = np.array([pauli_vector(random_mixed_state(n, 141 + n + b))
                           for b in range(sets)])
        op = _layer_unitary(theta[:, :3 * n].reshape(sets, n, 3))
        for adjoint in (False, True):
            stacked = rotate(op, states, adjoint)
            for b in range(sets):
                single = rotate(tuple(f[b] for f in op), states[b], adjoint)
                assert np.array_equal(stacked[b], single)
        obs = cyclic_observable(n)
        for model, singles, dense in self._models(rng, sets):
            lam = None if model is None else model.eigenvalues
            if n > 1 and lam is not None:
                ring = list(zip(*layout.cnot_ring))
                factors = circuits._pauli_ring(n, layout.cnot_ring, lam)
                for adjoint in (False, True):
                    shared = np.broadcast_to(  # one row per set if redrawn
                        circuits._apply_ring(states[0], factors, adjoint),
                        states.shape)
                    stack = circuits._apply_ring(states, factors, adjoint)
                    for b, one in enumerate(singles):
                        assert np.array_equal(shared[b], apply_cnot(
                            states[0], *ring, adjoint, one.eigenvalues))
                        assert np.array_equal(stack[b], apply_cnot(
                            states[b], *ring, adjoint, one.eigenvalues))
            forward = evolve(layout, theta, model)
            back = evolve(layout, theta, model, state=obs.pauli_vector(),
                          adjoint=True)
            middle = evolve(layout, theta, model, (2, 2), states)
            for b, (one, (weights, eta)) in enumerate(zip(singles, dense)):
                assert np.array_equal(forward[b], evolve(layout, theta[b],
                                                         one))
                assert np.array_equal(back[b], evolve(
                    layout, theta[b], one, state=obs.pauli_vector(),
                    adjoint=True))
                assert np.array_equal(middle[b], evolve(
                    layout, theta[b], one, (2, 2), states[b]))
                rho = dense_evolve(layout, theta[b], weights)
                rho = (1 - eta) * rho + eta * np.eye(len(rho)) / len(rho)
                np.testing.assert_allclose(forward[b], pauli_vector(rho),
                                           rtol=0, atol=1e-12)
                assert abs(back[b] @ zero_state(n)
                           - expectation(forward[b], obs)) < 1e-12

    def test_a_stack_names_its_sets(self):
        """A stack must match theta's sets, and apply_cnot takes one vector
        only, since a real density matrix (here of four qubits) has the
        shape of sixteen two-qubit vectors."""
        layout = build_ansatz(2, 1)
        theta = np.zeros((3, layout.parameter_count))
        for state in (np.ones((2, 16)), np.ones((3, 4)), np.ones((1, 3, 16))):
            with pytest.raises(ValueError, match="real Pauli vector"):
                evolve(layout, theta, state=state)
        with pytest.raises(ValueError, match="real Pauli vector"):
            evolve(layout, theta[0], state=np.ones((3, 16)))
        rho = dense_oracle.zero_state(4).real
        for eigenvalues in (None, CnotDepolarizing(0.1).eigenvalues):
            with pytest.raises(ValueError, match="real Pauli vector"):
                apply_cnot(rho, (1, 2), (2, 1), eigenvalues=eigenvalues)


class TestSource:

    def test_src_holds_no_complex_arithmetic(self):
        """Every state, operator and transfer block of the package is real:
        no source file mentions a complex dtype or the imaginary unit."""
        files = sorted(Path(circuits.__file__).parent.glob("*.py"))
        assert len(files) >= 8
        hits = [f"{path.name}:{number}: {line.strip()}" for path in files
                for number, line in enumerate(
                    path.read_text().splitlines(), 1)
                if re.search("complex|1j", line, re.IGNORECASE)]
        assert hits == []
