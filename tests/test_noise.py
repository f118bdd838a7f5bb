"""Tests for the noise channels and error-rate arithmetic."""
import numpy as np
import pytest

from paulishift.circuits import (PAULI, build_ansatz, check_state,
                                 cyclic_observable, evolve, expectation,
                                 zero_state)
from paulishift.harness import (ExperimentConfig, NoiseSpec,
                                distribution_study, sample_parameter_set,
                                substream)
from paulishift.noise import (TWO_QUBIT_PAULI_LABELS, CnotDepolarizing,
                              CnotPauliChannel, GlobalDepolarizing, NoNoise,
                              apply_two_qubit_depolarizing,
                              apply_two_qubit_pauli,
                              per_layer_error_rate_to_eta0,
                              random_pauli_weights, total_error_rate)


def _random_state(n, seed):
    layout = build_ansatz(n, 2)
    rng = np.random.default_rng(seed)
    return evolve(layout, sample_parameter_set(layout, rng))


def _pauli_sum_reference(state, j, k, weights):
    """Direct Kraus evaluation: sum_i w_i P_i rho P_i plus the kept term."""
    out = (1.0 - sum(weights)) * state.data
    for w, label in zip(weights, TWO_QUBIT_PAULI_LABELS):
        factors = [PAULI["I"]] * state.n
        factors[j - 1] = PAULI[label[0]]
        factors[k - 1] = PAULI[label[1]]
        p = factors[0]
        for f in factors[1:]:
            p = np.kron(p, f)
        out = out + w * (p @ state.data @ p)
    return out


class TestTwoQubitChannels:

    def test_depolarizing_equals_explicit_pauli_sum(self):
        """The mixed-replacement shortcut must equal the 15-term Kraus sum."""
        state = _random_state(3, 23)
        eta0 = 0.07
        fast = apply_two_qubit_depolarizing(state, 1, 3, eta0)
        ref = _pauli_sum_reference(state, 1, 3, [eta0 / 15.0] * 15)
        np.testing.assert_allclose(fast.data, ref, atol=1e-13)

    def test_pauli_channel_matches_reference(self):
        state = _random_state(2, 29)
        rng = np.random.default_rng(5)
        weights = random_pauli_weights(0.12, rng)
        out = apply_two_qubit_pauli(state, 1, 2, weights)
        ref = _pauli_sum_reference(state, 1, 2, weights)
        np.testing.assert_allclose(out.data, ref, atol=1e-13)

    def test_channels_preserve_valid_states(self):
        state = _random_state(3, 31)
        for out in (apply_two_qubit_depolarizing(state, 2, 3, 0.3),
                    apply_two_qubit_pauli(state, 1, 2, [0.02] * 15)):
            check_state(out)

    def test_zero_rate_is_identity(self):
        state = _random_state(2, 37)
        out = apply_two_qubit_depolarizing(state, 1, 2, 0.0)
        np.testing.assert_allclose(out.data, state.data)

    def test_channel_argument_validation(self):
        state = zero_state(2)
        with pytest.raises(ValueError):
            apply_two_qubit_depolarizing(state, 1, 1, 0.1)
        with pytest.raises(ValueError):
            apply_two_qubit_depolarizing(state, 1, 2, 1.0)
        with pytest.raises(ValueError):
            apply_two_qubit_pauli(state, 1, 2, [0.1] * 14)
        with pytest.raises(ValueError):
            apply_two_qubit_pauli(state, 1, 2, [-0.1] + [0.0] * 14)
        with pytest.raises(ValueError):
            apply_two_qubit_pauli(state, 1, 2, [0.1] * 15)  # sums to 1.5


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
        assert CnotDepolarizing(0.05).total_rate(4, 5) == pytest.approx(
            1.0 - 0.95 ** 20)
        weights = tuple([0.05 / 15.0] * 15)
        assert CnotPauliChannel(weights).total_rate(4, 5) == pytest.approx(
            1.0 - 0.95 ** 20)
        assert NoNoise().total_rate(4, 5) == 0.0
        assert GlobalDepolarizing(0.3).total_rate(4, 5) == 0.3

    def test_uniform_pauli_channel_equals_depolarizing(self):
        """Equal weights eta0/15 reproduce the depolarizing channel."""
        layout = build_ansatz(2, 3)
        obs = cyclic_observable(2)
        rng = np.random.default_rng(43)
        theta = sample_parameter_set(layout, rng)
        eta0 = 0.08
        f_dep = expectation(
            evolve(layout, theta, CnotDepolarizing(eta0)), obs)
        f_pauli = expectation(
            evolve(layout, theta, CnotPauliChannel((eta0 / 15.0,) * 15)), obs)
        np.testing.assert_allclose(f_pauli, f_dep, atol=1e-12)

    def test_model_rate_validation(self):
        with pytest.raises(ValueError):
            CnotDepolarizing(-0.1)
        with pytest.raises(ValueError):
            GlobalDepolarizing(1.0)
        with pytest.raises(ValueError):
            CnotPauliChannel((0.5,) * 15)


class TestErrorRates:

    def test_total_rate_composition(self):
        summary = total_error_rate(0.05, 4, 5)
        np.testing.assert_allclose(summary.per_layer, 1.0 - 0.95 ** 4)
        np.testing.assert_allclose(summary.total, 1.0 - 0.95 ** 20)
        assert summary.per_layer <= summary.total

    def test_per_layer_inversion(self):
        """eta0 -> per-layer -> eta0 round-trips."""
        eta0 = 0.0125
        per_layer = total_error_rate(eta0, 4, 1).per_layer
        np.testing.assert_allclose(per_layer_error_rate_to_eta0(per_layer, 4),
                                   eta0, rtol=1e-12)

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
        layout, obs = config.layout(), config.resolved_observable()
        eta = config.noise_for_set(0).total_rate(2, 3)
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
