"""Tests for the noise channels and error-rate arithmetic."""
import itertools

import dense_oracle
import numpy as np
import pytest
from dense_oracle import (PAULI, check_state, cnot_matrix, coefficients,
                          dense_evolve, density_matrix, observable_matrix,
                          pauli_sum_reference, pauli_vector, random_hermitian,
                          random_mixed_state)

from paulishift.circuits import (_apply_ring, _ring, apply_cnot,
                                 build_ansatz, cyclic_observable, evolve,
                                 expectation, zero_state)
from paulishift.harness import (ExperimentConfig, NoiseSpec,
                                distribution_study, sample_parameter_set,
                                substream)
from paulishift.noise import (TWO_QUBIT_PAULI_LABELS, CnotDepolarizing,
                              CnotPauliChannel, GlobalDepolarizing, NoNoise,
                              pauli_eigenvalues,
                              random_pauli_weights, total_error_rate)


def _random_state(n, seed):
    layout = build_ansatz(n, 2)
    rng = np.random.default_rng(seed)
    return evolve(layout, sample_parameter_set(layout, rng))


def _kraus_after_cnots(rho, pairs, weights):
    """The dense CNOTs in turn, each followed by the channel's Kraus sum."""
    n = len(rho).bit_length() - 1
    for c, t in pairs:
        cx = cnot_matrix(n, c, t)
        rho = pauli_sum_reference(cx @ rho @ cx, c, t, weights)
    return rho


class TestTwoQubitChannels:

    def test_depolarizing_equals_explicit_pauli_sum(self):
        """The depolarizing channel must equal the 15-term Kraus sum: each
        eigenvalue scales its pair string as the sum does, 1 - 16 eta0/15
        off the identity."""
        eta0 = 0.07
        lam = pauli_eigenvalues([eta0 / 15.0] * 15)
        assert CnotDepolarizing(eta0).eigenvalues == lam
        for q, label in enumerate(("II",) + TWO_QUBIT_PAULI_LABELS):
            p = np.kron(PAULI[label[0]], PAULI[label[1]])
            ref = pauli_sum_reference(p, 1, 2, [eta0 / 15.0] * 15)
            np.testing.assert_allclose(ref, lam[q] * p, rtol=0, atol=1e-15)
            want = 1.0 if q == 0 else 1.0 - 16.0 * eta0 / 15.0
            assert lam[q] == pytest.approx(want, rel=0, abs=1e-15)

    def test_pauli_channel_matches_reference(self):
        """n = 2..5, every ordered pair (the ring's (n, 1) included), random
        and uniform weights, on generic mixed states."""
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 5):
            rho = random_mixed_state(n, 29 + n)
            state = pauli_vector(rho)
            for weights in (random_pauli_weights(0.12, rng),
                            (0.3 / 15.0,) * 15):
                channel = CnotPauliChannel(weights)
                for j, k in itertools.permutations(range(1, n + 1), 2):
                    out = channel.apply_after_cnot(state, j, k)
                    ref = _kraus_after_cnots(rho, [(j, k)], weights)
                    np.testing.assert_allclose(out, pauli_vector(ref),
                                               rtol=0, atol=1e-13)

    def test_channels_preserve_valid_states(self):
        state = _random_state(3, 31)
        for out in (CnotDepolarizing(0.3).apply_after_cnot(state, 2, 3),
                    CnotPauliChannel([0.02] * 15).apply_after_cnot(
                        state, (1, 2, 3), (2, 3, 1))):
            check_state(density_matrix(out))

    def test_zero_rate_is_identity(self):
        """A zero-rate channel is the identity, so its hook is the CNOT."""
        state = _random_state(2, 37)
        out = CnotDepolarizing(0.0).apply_after_cnot(state, 1, 2)
        np.testing.assert_allclose(out, apply_cnot(state, 1, 2))

    def test_channel_argument_validation(self):
        """Bad pairs and bad weights, each with its message."""
        state = zero_state(2)
        with pytest.raises(ValueError, match="must differ"):
            CnotDepolarizing(0.1).apply_after_cnot(state, 1, 1)
        with pytest.raises(ValueError):
            CnotDepolarizing(1.0)
        with pytest.raises(ValueError, match="need exactly 15 weights"):
            CnotPauliChannel([0.1] * 14)
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            CnotPauliChannel([-0.1] + [0.0] * 14)
        with pytest.raises(ValueError, match="weights sum to 1.5.*< 1"):
            CnotPauliChannel([0.1] * 15)


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
        rho = dense_evolve(layout, theta, (eta0 / 15.0,) * 15)
        f_ref = np.trace(rho @ observable_matrix(obs)).real
        f_dep = expectation(
            evolve(layout, theta, CnotDepolarizing(eta0)), obs)
        f_pauli = expectation(
            evolve(layout, theta, CnotPauliChannel((eta0 / 15.0,) * 15)), obs)
        np.testing.assert_allclose(f_dep, f_ref, atol=1e-12)
        np.testing.assert_allclose(f_pauli, f_ref, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_evolve_matches_dense_oracle(self, n, L):
        """Both CNOT channels through evolve equal the dense Kraus circuit,
        and the pulled-back observable passes the trace identity."""
        layout = build_ansatz(n, L)
        rng = np.random.default_rng(59 + 10 * n + L)
        theta = sample_parameter_set(layout, rng)
        weights = random_pauli_weights(0.1, rng)
        for channel, w in ((CnotDepolarizing(0.06), (0.06 / 15.0,) * 15),
                           (CnotPauliChannel(weights), weights)):
            out = evolve(layout, theta, channel)
            ref = dense_evolve(layout, theta, w)
            np.testing.assert_allclose(out, pauli_vector(ref), rtol=0,
                                       atol=1e-12)
            obs = cyclic_observable(n)
            back = evolve(layout, theta, channel, state=obs.pauli_vector(),
                          adjoint=True)
            assert abs(back @ zero_state(n) - expectation(out, obs)) < 1e-12

    def test_model_rate_validation(self):
        with pytest.raises(ValueError):
            CnotDepolarizing(-0.1)
        with pytest.raises(ValueError):
            GlobalDepolarizing(1.0)
        with pytest.raises(ValueError):
            CnotPauliChannel((0.5,) * 15)


class TestAdjoints:
    """tr(O E(rho)) = tr(E^dagger(O) rho) for every hook, with O generic:
    o . E(r) = E^dagger(o) . r on Pauli vectors."""

    @staticmethod
    def _pair(rho, obs, forward, backward):
        r, o = pauli_vector(rho), coefficients(obs)
        assert abs(o @ forward(r) - backward(o) @ r) < 1e-12

    def test_every_model_hook(self):
        rng = np.random.default_rng(43)
        rho = random_mixed_state(3, 44)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        obs = g + g.conj().T
        weights = random_pauli_weights(0.2, rng)
        for model in (NoNoise(), GlobalDepolarizing(0.3),
                      CnotDepolarizing(0.1), CnotPauliChannel(weights)):
            for j, k in ((1, 2), (3, 1), ((1, 2, 3), (2, 3, 1))):
                self._pair(
                    rho, obs,
                    lambda x: model.apply_after_cnot(x, j, k),
                    lambda x: model.apply_after_cnot(x, j, k, adjoint=True))
            self._pair(rho, obs, model.apply_final,
                       lambda x: model.apply_final(x, adjoint=True))

    def test_global_final_hook_matches_dense_mixing(self):
        """The global channel on a Pauli vector is the dense mix toward
        I/d, and its adjoint the dense O -> (1 - eta) O + eta tr(O) I/d."""
        rng = np.random.default_rng(45)
        rho, obs = random_mixed_state(3, 46), random_hermitian(3, rng)
        model, eye = GlobalDepolarizing(0.3), np.eye(8) / 8
        np.testing.assert_allclose(
            model.apply_final(pauli_vector(rho)),
            pauli_vector(0.7 * rho + 0.3 * eye), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            model.apply_final(coefficients(obs), adjoint=True),
            coefficients(0.7 * obs + 0.3 * np.trace(obs) * eye), rtol=0,
            atol=1e-12)

    def test_ring_scatter_is_its_adjoint(self):
        """With 16 arbitrary scale factors in place of a channel's
        eigenvalues, the adjoint hook's scatter is still the transpose of
        the forward gather and factor."""
        rng = np.random.default_rng(47)
        factors = tuple(rng.normal(size=16))
        rho = random_mixed_state(3, 48)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        obs = g + g.conj().T
        for j, k in ((1, 2), (2, 3), (3, 1), ((1, 2, 3), (2, 3, 1))):
            self._pair(
                rho, obs,
                lambda x: apply_cnot(x, j, k, False, factors),
                lambda x: apply_cnot(x, j, k, True, factors))


class TestHooksCheckTheirState:
    """Every hook raises ValueError, forward and adjoint, on a state that is
    not a real Pauli vector of shape (4^n,): a density matrix, complex or
    real, which would otherwise run as garbage, a complex vector, and
    lengths that are no power of 4."""

    MODELS = {"none": NoNoise(), "cnot_depolarizing": CnotDepolarizing(0.1),
              "cnot_pauli": CnotPauliChannel((0.01,) * 15),
              "global": GlobalDepolarizing(0.3)}

    @staticmethod
    def _bad_states():
        rho = dense_oracle.zero_state(4)
        return (rho, rho.real, zero_state(2).astype(complex), np.ones(8),
                np.ones(2), np.ones(0))

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_after_cnot_hook(self, model):
        hook = self.MODELS[model].apply_after_cnot
        for state in self._bad_states():
            for adjoint in (False, True):
                with pytest.raises(ValueError, match="real Pauli vector"):
                    hook(state, 1, 2, adjoint=adjoint)

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_final_hook(self, model):
        hook = self.MODELS[model].apply_final
        for state in self._bad_states():
            for adjoint in (False, True):
                with pytest.raises(ValueError, match="real Pauli vector"):
                    hook(state, adjoint=adjoint)


class TestFusedCnotChannels:
    """A per-CNOT hook applies the CNOT and then its channel, on one CNOT
    or a whole ring in one gather and one multiply; its adjoint hook is the
    transpose."""

    @staticmethod
    def _models(rng):
        weights = random_pauli_weights(0.12, rng)
        return ((CnotDepolarizing(0.06), (0.004,) * 15),
                (CnotPauliChannel(weights), weights),
                (CnotDepolarizing(0.0), (0.0,) * 15),
                (NoNoise(), (0.0,) * 15),
                (GlobalDepolarizing(0.3), (0.0,) * 15))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hook_matches_dense_cnot_then_kraus_sum(self, n):
        rng = np.random.default_rng(61 + n)
        rho, obs = random_mixed_state(n, 62 + n), random_hermitian(n, rng)
        r = pauli_vector(rho)
        for model, weights in self._models(rng):
            for c, t in itertools.permutations(range(1, n + 1), 2):
                out = model.apply_after_cnot(r, c, t)
                ref = _kraus_after_cnots(rho, [(c, t)], weights)
                np.testing.assert_allclose(out, pauli_vector(ref), rtol=0,
                                           atol=1e-12)
                TestAdjoints._pair(
                    rho, obs, lambda x: model.apply_after_cnot(x, c, t),
                    lambda x: model.apply_after_cnot(x, c, t, adjoint=True))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_noisy_ring_and_its_adjoint(self, n):
        """A whole noisy ring against the dense CNOTs and Kraus sums, at
        n = 2 (whose ring runs (1, 2) then (2, 1)) up to n = 6; its adjoint
        against the dense adjoint and the trace identity. Weights are
        redrawn per model, and eta0 = 0 is the bare ring."""
        rng = np.random.default_rng(71 + n)
        layout = build_ansatz(n, 1)
        rho, obs = random_mixed_state(n, 72 + n), random_hermitian(n, rng)
        pairs = layout.cnot_ring
        for model, weights in self._models(rng):
            ring = _ring(layout, model)
            ref = _kraus_after_cnots(rho, pairs, weights)
            np.testing.assert_allclose(
                _apply_ring(pauli_vector(rho), ring, False),
                pauli_vector(ref), rtol=0, atol=1e-12)
            back = obs
            for c, t in pairs[::-1]:
                cx = cnot_matrix(n, c, t)
                back = cx @ pauli_sum_reference(back, c, t, weights) @ cx
            np.testing.assert_allclose(
                _apply_ring(coefficients(obs), ring, True),
                coefficients(back), rtol=0, atol=1e-12)
            TestAdjoints._pair(
                rho, obs, lambda x: _apply_ring(x, ring, False),
                lambda x: _apply_ring(x, ring, True))


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
