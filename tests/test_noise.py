"""Tests for the noise channels and error-rate arithmetic."""
import itertools

import numpy as np
import pytest
from dense_oracle import (check_state, cnot_matrix, dense_evolve,
                          pauli_sum_reference, random_hermitian,
                          random_mixed_state)

from paulishift.circuits import (apply_cnot, apply_ring, build_ansatz,
                                 cyclic_observable, evolve, expectation,
                                 zero_state)
from paulishift.harness import (ExperimentConfig, NoiseSpec,
                                distribution_study, sample_parameter_set,
                                substream)
from paulishift.noise import (CnotDepolarizing, CnotPauliChannel,
                              GlobalDepolarizing, NoNoise,
                              apply_pair_superoperator,
                              pauli_channel_superoperator,
                              random_pauli_weights, total_error_rate)


def _random_state(n, seed):
    layout = build_ansatz(n, 2)
    rng = np.random.default_rng(seed)
    return evolve(layout, sample_parameter_set(layout, rng))


class TestTwoQubitChannels:

    def test_depolarizing_equals_explicit_pauli_sum(self):
        """The depolarizing channel must equal the 15-term Kraus sum."""
        state = _random_state(3, 23)
        eta0 = 0.07
        fast = apply_pair_superoperator(
            state, 1, 3, pauli_channel_superoperator([eta0 / 15.0] * 15))
        ref = pauli_sum_reference(state, 1, 3, [eta0 / 15.0] * 15)
        np.testing.assert_allclose(fast, ref, atol=1e-13)

    def test_pauli_channel_matches_reference(self):
        """n = 2..5, every ordered pair (the ring's (n, 1) included), random
        and uniform weights, on generic mixed states."""
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 5):
            state = random_mixed_state(n, 29 + n)
            for weights in (random_pauli_weights(0.12, rng),
                            (0.3 / 15.0,) * 15):
                superop = pauli_channel_superoperator(weights)
                for j, k in itertools.permutations(range(1, n + 1), 2):
                    out = apply_pair_superoperator(state, j, k, superop)
                    ref = pauli_sum_reference(state, j, k, weights)
                    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-13)

    def test_channels_preserve_valid_states(self):
        state = _random_state(3, 31)
        for out in (CnotDepolarizing(0.3).apply_after_cnot(state, 2, 3),
                    apply_pair_superoperator(
                        state, 1, 2, pauli_channel_superoperator([0.02] * 15))):
            check_state(out)

    def test_zero_rate_is_identity(self):
        """A zero-rate channel is the identity, so its hook is the CNOT."""
        state = _random_state(2, 37)
        out = CnotDepolarizing(0.0).apply_after_cnot(state, 1, 2)
        np.testing.assert_allclose(out, apply_cnot(state, 1, 2))

    def test_channel_argument_validation(self):
        state = zero_state(2)
        with pytest.raises(ValueError):
            apply_pair_superoperator(state, 1, 1, np.eye(16))
        with pytest.raises(ValueError):
            apply_pair_superoperator(state, 1, 2, 1j * np.eye(16))
        with pytest.raises(ValueError):
            CnotDepolarizing(1.0)
        with pytest.raises(ValueError):
            pauli_channel_superoperator([0.1] * 14)
        with pytest.raises(ValueError):
            pauli_channel_superoperator([-0.1] + [0.0] * 14)
        with pytest.raises(ValueError):
            pauli_channel_superoperator([0.1] * 15)  # sums to 1.5


class TestNoiseModels:

    def test_global_depolarizing_scales_traceless_expectations(self):
        """Mixing toward I/d gives f_noisy = (1 - eta) f_clean exactly."""
        layout = build_ansatz(3, 2)
        obs = cyclic_observable(3)
        rng = np.random.default_rng(41)
        theta = sample_parameter_set(layout, rng)
        f_clean = expectation(evolve(layout, theta), obs)
        eta = 0.226
        f_noisy = expectation(evolve(layout, theta, GlobalDepolarizing(eta)),
                              obs)
        np.testing.assert_allclose(f_noisy, (1.0 - eta) * f_clean, atol=1e-12)

    def test_cnot_channels_compound_per_gate(self):
        """A config's total rate compounds the per-CNOT rate over its n L
        CNOTs; the global channel's rate is already the total."""
        compound = 1.0 - 0.95 ** 20
        assert total_error_rate(0.05, 4, 5) == pytest.approx(compound)
        for kind, rate, total in (("cnot_depolarizing", 0.05, compound),
                                  ("cnot_pauli", 0.05, compound),
                                  ("none", 0.0, 0.0),
                                  ("global_depolarizing", 0.3, 0.3)):
            config = ExperimentConfig(n=4, L=5, noise=NoiseSpec(kind, rate),
                                      nt_grid=(48,), parameter_sets=1,
                                      experiments_per_set=1, master_seed=1)
            assert config.eta_total() == pytest.approx(total)
            if kind == "cnot_pauli":
                assert sum(config.noise_for_set(0).weights) == pytest.approx(
                    rate)

    def test_uniform_pauli_channel_equals_depolarizing(self):
        """Equal weights eta0/15 and the depolarizing channel both give the
        dense oracle's value."""
        layout = build_ansatz(2, 3)
        obs = cyclic_observable(2)
        rng = np.random.default_rng(43)
        theta = sample_parameter_set(layout, rng)
        eta0 = 0.08
        f_ref = expectation(
            dense_evolve(layout, theta, (eta0 / 15.0,) * 15), obs)
        f_dep = expectation(
            evolve(layout, theta, CnotDepolarizing(eta0)), obs)
        f_pauli = expectation(
            evolve(layout, theta, CnotPauliChannel((eta0 / 15.0,) * 15)), obs)
        np.testing.assert_allclose(f_dep, f_ref, atol=1e-12)
        np.testing.assert_allclose(f_pauli, f_ref, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_evolve_matches_dense_oracle(self, n, L):
        """Both CNOT channels through evolve equal the dense Kraus circuit."""
        layout = build_ansatz(n, L)
        rng = np.random.default_rng(59 + 10 * n + L)
        theta = sample_parameter_set(layout, rng)
        weights = random_pauli_weights(0.1, rng)
        for channel, w in ((CnotDepolarizing(0.06), (0.06 / 15.0,) * 15),
                           (CnotPauliChannel(weights), weights)):
            out = evolve(layout, theta, channel)
            ref = dense_evolve(layout, theta, w)
            np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)

    def test_model_rate_validation(self):
        with pytest.raises(ValueError):
            CnotDepolarizing(-0.1)
        with pytest.raises(ValueError):
            GlobalDepolarizing(1.0)
        with pytest.raises(ValueError):
            CnotPauliChannel((0.5,) * 15)


class TestAdjoints:
    """tr(O E(rho)) = tr(E^dagger(O) rho) for every hook, with O generic."""

    @staticmethod
    def _pair(rho, obs, forward, backward):
        lhs = np.trace(obs @ forward(rho))
        rhs = np.trace(backward(obs) @ rho)
        assert abs(lhs - rhs) < 1e-12

    def test_every_model_hook(self):
        rng = np.random.default_rng(43)
        rho = random_mixed_state(3, 44)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        obs = g + g.conj().T
        weights = random_pauli_weights(0.2, rng)
        for model in (NoNoise(), GlobalDepolarizing(0.3),
                      CnotDepolarizing(0.1), CnotPauliChannel(weights)):
            for j, k in ((1, 2), (3, 1)):
                self._pair(
                    rho, obs,
                    lambda x: model.apply_after_cnot(x, j, k),
                    lambda x: model.apply_after_cnot(x, j, k, adjoint=True))
            self._pair(rho, obs, model.apply_final,
                       lambda x: model.apply_final(x, adjoint=True))

    def test_pair_superoperator_transpose_is_its_adjoint(self):
        """A random real 16x16 map that is not symmetric, as a non-unital
        channel's is not. Like every channel it preserves Hermiticity: it
        commutes with the swap of row and column bits, without which S^T
        would not be its adjoint."""
        rng = np.random.default_rng(47)
        swap = np.arange(16).reshape(4, 4).T.ravel()
        raw = rng.normal(size=(16, 16))
        superop = 0.5 * (raw + raw[np.ix_(swap, swap)])
        assert not np.allclose(superop, superop.T)
        rho = random_mixed_state(3, 48)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        obs = g + g.conj().T
        for j, k in ((1, 2), (2, 3), (3, 1)):
            self._pair(
                rho, obs,
                lambda x: apply_pair_superoperator(x, j, k, superop),
                lambda x: apply_pair_superoperator(x, j, k, superop.T))


class TestFusedCnotChannels:
    """A per-CNOT hook is the CNOT and its channel in one superoperator
    pass, S K, and its adjoint hook K S^T."""

    @staticmethod
    def _models(rng):
        weights = random_pauli_weights(0.12, rng)
        return ((CnotDepolarizing(0.06), (0.004,) * 15),
                (CnotPauliChannel(weights), weights),
                (NoNoise(), (0.0,) * 15),
                (GlobalDepolarizing(0.3), (0.0,) * 15))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hook_matches_dense_cnot_then_kraus_sum(self, n):
        rng = np.random.default_rng(61 + n)
        rho, obs = random_mixed_state(n, 62 + n), random_hermitian(n, rng)
        for model, weights in self._models(rng):
            for c, t in itertools.permutations(range(1, n + 1), 2):
                cx = cnot_matrix(n, c, t)
                out = model.apply_after_cnot(rho, c, t)
                ref = pauli_sum_reference(cx @ rho @ cx, c, t, weights)
                np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
                TestAdjoints._pair(
                    rho, obs, lambda x: model.apply_after_cnot(x, c, t),
                    lambda x: model.apply_after_cnot(x, c, t, adjoint=True))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_noisy_ring_and_its_adjoint(self, n):
        """A whole noisy ring against the dense CNOTs and Kraus sums; its
        adjoint passes the trace identity."""
        rng = np.random.default_rng(71 + n)
        layout = build_ansatz(n, 1)
        rho, obs = random_mixed_state(n, 72 + n), random_hermitian(n, rng)
        for model, weights in self._models(rng)[:2]:
            ref = rho
            for c, t in layout.cnot_ring:
                cx = cnot_matrix(n, c, t)
                ref = pauli_sum_reference(cx @ ref @ cx, c, t, weights)
            np.testing.assert_allclose(apply_ring(layout, rho, model), ref,
                                       rtol=0, atol=1e-12)
            TestAdjoints._pair(
                rho, obs, lambda x: apply_ring(layout, x, model),
                lambda x: apply_ring(layout, x, model, adjoint=True))


class TestErrorRates:

    def test_total_rate_composition(self):
        """One layer compounds n CNOTs; L layers compound n L of them."""
        np.testing.assert_allclose(total_error_rate(0.05, 4, 1),
                                   1.0 - 0.95 ** 4)
        np.testing.assert_allclose(total_error_rate(0.05, 4, 5),
                                   1.0 - 0.95 ** 20)
        assert total_error_rate(0.0, 4, 5) == 0.0
        with pytest.raises(ValueError):
            total_error_rate(1.0, 4, 5)
        with pytest.raises(ValueError):
            total_error_rate(0.5, 8, 10)  # 0.5^80 rounds the total to 1

    def test_random_weights_sum_to_rate(self):
        rng = np.random.default_rng(47)
        weights = random_pauli_weights(0.2, rng)
        assert len(weights) == 15
        assert min(weights) >= 0.0
        np.testing.assert_allclose(sum(weights), 0.2, rtol=1e-12)


def _g_study(n, L, noise):
    config = ExperimentConfig(n=n, L=L, noise=noise, nt_grid=(48,),
                              parameter_sets=3, experiments_per_set=1,
                              master_seed=53)
    return config, distribution_study(config)


class TestExtractG:
    """The error term g, recovered per set by the distribution study."""

    def test_global_channel_has_vanishing_g(self):
        """I/d is traceless against any Pauli word, so g is identically 0."""
        _, summary = _g_study(2, 2, NoiseSpec("global_depolarizing", 0.3))
        np.testing.assert_allclose(summary.g_samples, 0.0, atol=1e-12)

    def test_cnot_channel_g_is_bounded(self):
        _, summary = _g_study(3, 2, NoiseSpec("cnot_depolarizing", 0.05))
        assert np.all(np.abs(summary.g_samples) <= 1.0)

    def test_decomposition_reconstructs_noisy_value(self):
        """f_noisy = (1 - eta) f + eta g by the definition of g."""
        config, summary = _g_study(2, 3, NoiseSpec("cnot_depolarizing", 0.04))
        layout, obs = config.layout(), config.observable()
        eta = config.eta_total()
        assert eta == pytest.approx(total_error_rate(0.04, 2, 3))
        for s in range(config.parameter_sets):
            theta = sample_parameter_set(layout, substream(53, 0, s))
            f_noisy = expectation(
                evolve(layout, theta, config.noise_for_set(s)), obs)
            np.testing.assert_allclose(
                (1.0 - eta) * summary.f_samples[s]
                + eta * summary.g_samples[s], f_noisy, atol=1e-12)

    def test_noiseless_g_is_undefined(self):
        with pytest.raises(ValueError):
            _g_study(2, 2, NoiseSpec())
