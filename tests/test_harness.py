"""Tests for the Monte Carlo experiment harness."""
import dataclasses
import inspect
import math
import random
from functools import reduce

import numpy as np
import pytest

from paulishift import analytics, circuits, harness, noise
from paulishift.analytics import (CrossoverNotFound, mse_sps,
                                  n_star_sps_exact)
from paulishift.circuits import (_layer_unitary, build_ansatz,
                                 cyclic_observable, evolve, expectation,
                                 shifted)
from paulishift.estimators import (DiagHessian, EstimatorSpec, Gradient,
                                   OffDiagHessian, evaluation_points)
from paulishift.harness import (CrossingEstimate, ExperimentConfig,
                                MseEstimate, NoiseSpec, distribution_study,
                                empirical_n_star, exact_derivative,
                                monte_carlo_mse, sample_parameter_set,
                                substream, substreams)
from paulishift.invariants import Moments, moment_deviations
from dense_oracle import (dense_evolve, observable_matrix,
                          seed_sequence_streams)


def tiny_config(**overrides):
    base = dict(n=2, L=2, noise=NoiseSpec("global_depolarizing", 0.3),
                nt_grid=(48, 96), parameter_sets=6, experiments_per_set=10,
                master_seed=4242)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSubstreams:

    def test_same_key_same_draws(self):
        a = substream(123, 2, 7).random(5)
        b = substream(123, 2, 7).random(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_keys_decorrelate(self):
        a = substream(123, 2, 7).random(5)
        b = substream(123, 2, 8).random(5)
        c = substream(124, 2, 7).random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    # numpy coerces a seed or key element to one uint32 word per 32 bits:
    # these take one, one, two and three words.
    ELEMENTS = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5)

    @pytest.mark.parametrize("master_seed", [0, 2 ** 32 - 1, 2 ** 32,
                                             2 ** 64 + 3, 3 * 2 ** 200 + 7])
    def test_streams_match_numpy_seed_sequences(self, master_seed):
        """One call over keys of 1 to 8 elements of one to three words,
        shuffled so rows of every word count mix, gives each key numpy's
        seed words, generator state and first draws."""
        rng = random.Random(master_seed)
        keys = [tuple(element if i == at else rng.getrandbits(32)
                      for i in range(length))
                for length in range(1, 9) for at in range(length)
                for element in self.ELEMENTS]
        keys += [tuple(rng.choice(self.ELEMENTS) for _ in range(length))
                 for length in range(1, 9) for _ in range(4)]
        rng.shuffle(keys)
        words = harness._seed_words(master_seed, keys)
        streams = list(substreams(master_seed, keys))
        oracle = seed_sequence_streams(master_seed, keys)
        assert len(streams) == len(keys)
        for i, key in enumerate(keys):
            np.testing.assert_array_equal(
                words[i], np.random.SeedSequence(
                    master_seed, spawn_key=key).generate_state(4, np.uint64))
            assert streams[i].bit_generator.state == (
                oracle[i].bit_generator.state)
            np.testing.assert_array_equal(streams[i].random(3),
                                          oracle[i].random(3))
        np.testing.assert_array_equal(
            substream(master_seed, *keys[0]).random(3),
            seed_sequence_streams(master_seed, keys[:1])[0].random(3))

    @pytest.mark.parametrize("master_seed, key", [
        (5, (1, -1)), (5, (-1, 2 ** 70)), (5, (2 ** 63, -2)), (-1, (0, 1))])
    def test_negative_elements_raise_as_in_numpy(self, master_seed, key):
        with pytest.raises(ValueError):
            np.random.SeedSequence(master_seed, spawn_key=key)
        with pytest.raises(ValueError, match="non-negative"):
            substreams(master_seed, [(0, 1), key])

    def test_no_keys_no_streams(self):
        assert list(substreams(5, [])) == []


class TestParameterSampling:

    def test_shapes_and_ranges(self):
        layout = build_ansatz(3, 4)
        theta = sample_parameter_set(layout, np.random.default_rng(1))
        assert theta.shape == (36,)
        for layer in range(1, 5):
            for qubit in range(1, 4):
                base = layout.flat_index(layer, qubit, 1)
                assert 0.0 <= theta[base] < 2 * math.pi
                assert 0.0 <= theta[base + 1] <= math.pi
                assert 0.0 <= theta[base + 2] < 2 * math.pi

    def test_middle_angle_has_haar_density(self):
        """cos(beta) must be uniform on [-1, 1] for Haar blocks."""
        layout = build_ansatz(1, 1)
        rng = np.random.default_rng(2)
        cos_beta = np.array([
            math.cos(sample_parameter_set(layout, rng)[1])
            for _ in range(4000)])
        np.testing.assert_allclose(cos_beta.mean(), 0.0, atol=0.05)
        np.testing.assert_allclose(cos_beta.var(), 1.0 / 3.0, atol=0.03)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_draw_matches_the_per_block_loop(self, n):
        """One draw of all 3nL uniforms gives, bit for bit, the angles of
        three uniforms per block drawn block by block, each block's beta
        from ``math.acos``."""
        layout = build_ansatz(n, 3)
        for seed in (0, 1, 20260822, 2 ** 31 - 1):
            rng = substream(seed, 0, n)
            want = []
            for _ in range(layout.L * n):
                u = rng.random(3)
                want += [2.0 * math.pi * u[0], math.acos(1.0 - 2.0 * u[1]),
                         2.0 * math.pi * u[2]]
            got = sample_parameter_set(layout, substream(seed, 0, n))
            assert got.tobytes() == np.array(want).tobytes()


class TestConfigValidation:

    def test_good_config_builds(self):
        config = tiny_config()
        assert config.eta_total() == 0.3
        assert config.layout().parameter_count == 12

    def test_grid_must_be_multiples_of_twelve(self):
        with pytest.raises(ValueError):
            tiny_config(nt_grid=(50,))
        with pytest.raises(ValueError):
            tiny_config(nt_grid=(24,))  # multiple of 12 but below 48
        with pytest.raises(ValueError):
            tiny_config(nt_grid=(12 * 10 ** 19,))  # shots past int64
        with pytest.raises(ValueError):
            tiny_config(nt_grid=())

    def test_scheme_names_checked(self):
        with pytest.raises(ValueError):
            tiny_config(schemes=("ps", "sps"))
        with pytest.raises(ValueError):
            tiny_config(schemes=("ps", "ps"))
        with pytest.raises(ValueError):
            tiny_config(schemes=())

    def test_duplicate_target_rejected(self):
        """A repeated target would write each of its rows twice."""
        with pytest.raises(ValueError, match="duplicate target"):
            tiny_config(targets=(Gradient(), DiagHessian(), Gradient()))

    def test_negative_master_seed_rejected(self):
        """A negative seed is named at construction, before any draw."""
        with pytest.raises(ValueError, match="master_seed = -5 is below 0"):
            tiny_config(master_seed=-5)
        assert tiny_config(master_seed=0).master_seed == 0

    def test_counts_checked(self):
        with pytest.raises(ValueError):
            tiny_config(parameter_sets=0)
        with pytest.raises(ValueError):
            tiny_config(experiments_per_set=0)

    def test_observable_is_the_cyclic_pattern(self):
        assert tiny_config().observable().letters == "XY"
        assert tiny_config(n=4).observable().letters == "XYZX"

    def test_noise_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec("thermal", 0.1)
        with pytest.raises(ValueError):
            NoiseSpec("cnot_depolarizing", 0.0)
        with pytest.raises(ValueError):
            NoiseSpec("cnot_depolarizing", 0.1, redraw_weights=True)
        NoiseSpec("cnot_pauli", 0.1, redraw_weights=True)  # fine

    def test_eta_total_compounds_cnot_rates(self):
        config = tiny_config(noise=NoiseSpec("cnot_depolarizing", 0.05))
        np.testing.assert_allclose(config.eta_total(), 1.0 - 0.95 ** 4)

    def test_pauli_weights_fixed_or_redrawn(self):
        fixed = tiny_config(noise=NoiseSpec("cnot_pauli", 0.1))
        assert (fixed.noise_for_set(0).weights
                == fixed.noise_for_set(3).weights)
        redraw = tiny_config(
            noise=NoiseSpec("cnot_pauli", 0.1, redraw_weights=True))
        assert (redraw.noise_for_set(0).weights
                != redraw.noise_for_set(3).weights)


def _random_angle(rng, n, L):
    return (int(rng.integers(1, n + 1)), int(rng.integers(1, L + 1)),
            int(rng.integers(1, 4)))


def _weights(target, shifts):
    """One point's grid weights over the target's angles, shape (1, 3[, 3])."""
    return reduce(np.multiply.outer, [harness._axis_weights(shifts.get(a, 0.0))
                                      for a in harness._angles(target)])[None]


class TestShiftReconstruction:
    """``value`` rebuilds f from grid circuits; ``exact`` runs the circuit
    at theta, so a shifted reference is a cache built at the shifted angles."""

    # eps/2 and eps at eps = 1e-6, the grid, +/- pi and two generic shifts
    SHIFTS = (5e-7, -5e-7, 1e-6, -1e-6, math.pi / 2, -math.pi / 2, math.pi,
              -math.pi, 0.8, -2.9)

    @pytest.mark.parametrize("seed", range(8))
    def test_value_matches_direct_evolve(self, seed):
        """Every target kind at random locations, cross-layer pairs
        included, under all four noise kinds: ``value``, and ``exact`` of a
        cache built at the shifted angles, both within 1e-12 of direct full
        circuits."""
        rng = np.random.default_rng(seed)
        n, L = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        layout, obs = build_ansatz(n, L), cyclic_observable(n)
        theta = sample_parameter_set(layout, rng)
        p = _random_angle(rng, n, L)
        q = p
        while q == p:
            q = _random_angle(rng, n, L)
        single, pair = Gradient(*p), OffDiagHessian(*p, *q)
        points = [{p: s} for s in self.SHIFTS]
        points += [{p: a, q: b} for a in self.SHIFTS[::3]
                   for b in self.SHIFTS[1::3]]
        weights = noise.random_pauli_weights(0.1, rng)
        for channel in (None, noise.GlobalDepolarizing(0.3),
                        noise.CnotDepolarizing(0.05),
                        noise.CnotPauliChannel(weights)):
            cache = harness._FunctionCache(layout, theta, obs)
            for shifts in points:
                point = shifted(layout, theta, shifts)
                direct = expectation(evolve(layout, point, channel), obs)
                target = single if len(shifts) == 1 else pair
                value = cache.value(target, _weights(target, shifts), channel)
                assert abs(value[0] - direct) < 1e-12
                full = harness._FunctionCache(layout, point, obs)
                assert abs(full.exact(channel) - direct) < 1e-12
            # values ran circuits only on the grids and their cut ends
            assert {key[1] for key in cache._values} <= {"grid", "forward",
                                                         "back"}

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_matches_direct_evolve(self, seed):
        """``exact`` is f at theta from the full circuit under every noise
        kind. It memoizes one value per noiselessness (shape () for one
        set), never a state, and the global channel scales the clean
        value."""
        rng = np.random.default_rng(100 + seed)
        n, L = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        layout, obs = build_ansatz(n, L), cyclic_observable(n)
        theta = sample_parameter_set(layout, rng)
        global_ = noise.GlobalDepolarizing(0.3)
        for channel in (None, global_, noise.CnotDepolarizing(0.05),
                        noise.CnotPauliChannel(
                            noise.random_pauli_weights(0.1, rng))):
            cache = harness._FunctionCache(layout, theta, obs)
            direct = expectation(evolve(layout, theta, channel), obs)
            assert abs(cache.exact(channel) - direct) < 1e-12
            assert [np.shape(v) for v in cache._values.values()] == [()]
        assert cache.exact(global_) == (1.0 - 0.3) * cache.exact(None)

    def test_each_noise_model_gets_its_own_values(self):
        """One cache asked for several models, two of them per-CNOT
        depolarizing at different rates, gives each the values of a fresh
        cache, bit for bit."""
        layout, obs = build_ansatz(3, 3), cyclic_observable(3)
        rng = np.random.default_rng(12)
        theta = np.array([sample_parameter_set(layout, rng)
                          for _ in range(2)])
        rule = harness._shift_rule(Gradient(2, 2, 2))
        weights = [noise.random_pauli_weights(0.1, rng) for _ in range(2)]
        models = (noise.CnotDepolarizing(0.05), noise.CnotDepolarizing(0.3),
                  None, noise.CnotPauliChannel(weights[0]),
                  noise.CnotPauliChannel(tuple(weights)),
                  noise.GlobalDepolarizing(0.3))
        cache = harness._FunctionCache(layout, theta, obs)
        for model in models:
            fresh = harness._FunctionCache(layout, theta, obs)
            assert np.array_equal(cache.mean(rule, model),
                                  fresh.mean(rule, model))
            assert np.array_equal(cache.exact(model), fresh.exact(model))
        assert not np.array_equal(cache.mean(rule, models[0]),
                                  cache.mean(rule, models[1]))

    def test_grid_and_zero_shifts_run_one_circuit(self):
        """A grid shift takes the grid value itself; targets on the same
        angle share one grid; a shift must be finite."""
        layout, obs = build_ansatz(2, 2), cyclic_observable(2)
        theta = sample_parameter_set(layout, np.random.default_rng(3))
        cache = harness._FunctionCache(layout, theta, obs)
        p, q = (1, 2, 2), (2, 1, 3)
        pair = OffDiagHessian(*p, *q)
        value = cache.value(pair, _weights(pair, {p: math.pi / 2, q: 0.0}),
                            None)
        assert value[0] == cache._values[(None, "grid", (p, q))][2, 1]
        assert abs(value[0] - expectation(
            evolve(layout, shifted(layout, theta, {p: math.pi / 2})),
            obs)) < 1e-12
        for target in (Gradient(*p), DiagHessian(*p)):
            cache.mean(harness._shift_rule(target), None)
        assert sum(key[1] == "grid" for key in cache._values) == 2
        with pytest.raises(ValueError):
            cache.value(Gradient(*p), _weights(Gradient(*p), {p: math.nan}),
                        None)

    def test_fig5_set_runs_sixteen_circuits(self, monkeypatch):
        """The fig5 set's grids (three points on the shared gradient and
        diagonal angle, nine on the off-diagonal pair, clean and noisy) all
        sit in layer 2: each point is one layer-2 operator between the state
        after layer 1 and the observable pulled back through layers 5..3 and
        the layer-2 ring. 13 distinct layers, each one's transfer factors
        built once and shared by the clean and noisy values, in 3
        ``_layer_unitary`` calls: the 5 unshifted layers when the cache is
        made, then the gradient grid's 2 shifted layers (the diagonal
        shares them) and the off-diagonal grid's 6 new ones. 10 ring
        passes, each one gather (32 before the grid plan). A batch of three
        sets makes these same 4 ``evolve`` calls, 3 builds and 10 ring
        passes, each on all three sets at once: before sets ran in batches,
        three sets made 12 calls, 9 builds and 30 ring passes."""
        built, rings, calls = [], [], []
        ring = circuits._apply_ring

        def counting_unitary(angles):
            built.append(np.shape(angles)[:-2])
            return _layer_unitary(angles)

        def counting_ring(state, *args):
            rings.append(np.shape(state)[:-1])
            return ring(state, *args)

        def counting_evolve(*args, **kwargs):
            bound = inspect.signature(evolve).bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(bound.arguments)
            return evolve(*args, **kwargs)

        monkeypatch.setattr(harness, "evolve", counting_evolve)
        for module in (circuits, harness):
            monkeypatch.setattr(module, "_apply_ring", counting_ring)
            monkeypatch.setattr(module, "_layer_unitary", counting_unitary)
        config = ExperimentConfig(
            n=4, L=5, noise=NoiseSpec("cnot_depolarizing", 0.05),
            nt_grid=(96, 960, 9600, 96000, 960000), parameter_sets=3,
            experiments_per_set=2, master_seed=31)
        for sets in (range(1), range(3)):
            built.clear(), rings.clear(), calls.clear()
            harness._run_set(config, sets)
            # Per noise: layer 1 forward and layers 5..3 pulled back; no
            # point runs a circuit of its own.
            assert len(calls) == 2 + 2
            assert sum(call["adjoint"] for call in calls) == 2
            assert all(np.shape(call["theta"])[:-1] == (len(sets),)
                       for call in calls)
            assert built == [(5, len(sets)), (2, len(sets)), (6, len(sets))]
            assert len(rings) == 2 * (1 + 3 + 1) == 10
            # the layer-5 ring acts on the observable all sets share
            assert rings.count(()) == 2
            assert rings.count((len(sets),)) == 8

    def test_cross_layer_grid_runs_one_segment_per_first_angle_shift(
            self, monkeypatch):
        """A pair across layers a < b runs layers a..b-1 once per shift of
        its layer-a angle (3 runs, 9 before), whichever of its two angles
        sits in layer a, with the values of one run per point to the bit."""
        layout, obs = build_ansatz(3, 4), cyclic_observable(3)
        theta = sample_parameter_set(layout, np.random.default_rng(8))
        segments = []

        def counting_evolve(*args, **kwargs):
            segments.append(args[3] == (2, 2))
            return evolve(*args, **kwargs)

        monkeypatch.setattr(harness, "evolve", counting_evolve)
        for target in (OffDiagHessian(1, 2, 2, 3, 3, 1),
                       OffDiagHessian(3, 3, 1, 1, 2, 3)):
            angles = harness._angles(target)
            for channel in (None, noise.CnotDepolarizing(0.05)):
                cache = harness._FunctionCache(layout, theta, obs)
                segments.clear()
                grid = cache._memo(("grid", angles), channel, cache._grid)
                assert sum(segments) == 3
                start = cache._values[(channel, "forward", 2)]
                back = cache._values[(channel, "back", 3)]
                for idx in np.ndindex(3, 3):
                    point = shifted(layout, theta, {
                        a: harness._GRID[i] for a, i in zip(angles, idx)})
                    state = evolve(layout, point, channel, (2, 2), start,
                                   unitary=cache._unitary)
                    u = cache._unitary(point.reshape(4, 3, 3)[2])
                    assert grid[idx] == expectation(
                        circuits.rotate(u, state), back)


class TestPlanAgainstOracle:
    """Grid values and spec means against full circuits and the dense
    reference, with the targets in layer 1, in layer L and across layers."""

    @pytest.mark.parametrize("place, n, L", [
        ("first", 5, 3), ("first", 1, 2), ("last", 4, 4), ("last", 2, 1),
        ("across", 5, 2), ("across", 3, 4)])
    def test_grid_and_means_match_full_circuits(self, place, n, L):
        rng = np.random.default_rng([n, L, len(place)])
        layers = {"first": (1, 1), "last": (L, L), "across": (1, L)}[place]
        p = (int(rng.integers(1, n + 1)), layers[0], int(rng.integers(1, 4)))
        q = p
        while q == p:
            q = (int(rng.integers(1, n + 1)), layers[1],
                 int(rng.integers(1, 4)))
        layout, obs = build_ansatz(n, L), cyclic_observable(n)
        theta = sample_parameter_set(layout, rng)
        pauli = noise.random_pauli_weights(0.1, rng)
        models = ((None, (0.0,) * 15, 0.0),
                  (noise.GlobalDepolarizing(0.3), (0.0,) * 15, 0.3),
                  (noise.CnotDepolarizing(0.05), (0.05 / 15,) * 15, 0.0),
                  (noise.CnotPauliChannel(pauli), pauli, 0.0))
        targets = (Gradient(*p), DiagHessian(*p), OffDiagHessian(*p, *q))
        for channel, kraus, eta in models:
            cache = harness._FunctionCache(layout, theta, obs)

            def circuit(shifts):
                return expectation(evolve(
                    layout, shifted(layout, theta, shifts), channel), obs)

            seen = {}

            def oracle(shifts):
                key = tuple((a, s) for a, s in shifts.items() if s)
                if key not in seen:
                    rho = dense_evolve(layout, shifted(layout, theta, shifts),
                                       kraus)
                    rho = (1 - eta) * rho + eta * np.eye(len(rho)) / len(rho)
                    seen[key] = np.trace(rho @ observable_matrix(obs)).real
                return seen[key]

            for target in targets:
                angles = harness._angles(target)
                for idx in np.ndindex((3,) * len(angles)):
                    shifts = {a: harness._GRID[i] for a, i in zip(angles, idx)}
                    value = cache.value(target, _weights(target, shifts),
                                        channel)[0]
                    assert abs(value - circuit(shifts)) < 1e-12
                    assert abs(value - oracle(shifts)) < 1e-12
                for spec in (harness._shift_rule(target),
                             EstimatorSpec("fd", target, epsilon=0.4)):
                    points = evaluation_points(spec)
                    mean = cache.mean(spec, channel)
                    for reference in (circuit, oracle):
                        assert abs(mean - sum(c * reference(shifts)
                                              for shifts, c in points)) < 1e-12


class TestMonteCarloMse:

    def test_result_grid_is_complete(self):
        config = tiny_config(targets=(Gradient(), DiagHessian()))
        results = monte_carlo_mse(config)
        assert len(results) == 2 * len(config.schemes) * 2
        keys = {(r.scheme, r.target, r.n_total) for r in results}
        assert len(keys) == len(results)
        assert all(r.mean >= 0 and r.stderr >= 0 for r in results)

    def test_bit_identical_across_worker_counts(self):
        config = tiny_config()
        serial = monte_carlo_mse(config, workers=1)
        parallel = monte_carlo_mse(config, workers=2)
        for a, b in zip(serial, parallel):
            assert a == b

    def test_rows_independent_of_other_schemes_and_targets(self):
        """Dropping or reordering schemes or targets keeps every other row."""
        base = tiny_config(noise=NoiseSpec("cnot_depolarizing", 0.05),
                           parameter_sets=3, experiments_per_set=20,
                           targets=(Gradient(), DiagHessian(),
                                    OffDiagHessian(layer2=1)))

        def rows(config):
            return {(r.target, r.scheme, r.n_total): r
                    for r in monte_carlo_mse(config)}

        full = rows(base)
        variants = [
            dict(schemes=("ps",)),
            dict(schemes=("hfd", "nsps")),
            dict(schemes=tuple(reversed(base.schemes))),
            dict(targets=(base.targets[2],)),
            dict(targets=(base.targets[1], base.targets[0])),
            dict(nt_grid=(96,)),
        ]
        for change in variants:
            subset = rows(dataclasses.replace(base, **change))
            assert subset and all(full[k] == r for k, r in subset.items())

    def test_rerun_is_deterministic(self):
        config = tiny_config()
        a = monte_carlo_mse(config)
        b = monte_carlo_mse(config)
        assert a == b

    def test_matches_closed_form_for_plain_shift_rule(self):
        """PS Monte Carlo MSE tracks the closed form under global noise."""
        eta = 0.226
        config = ExperimentConfig(
            n=3, L=4, noise=NoiseSpec("global_depolarizing", eta),
            nt_grid=(96,), parameter_sets=40, experiments_per_set=60,
            master_seed=777, schemes=("ps",), targets=(Gradient(),))
        r = monte_carlo_mse(config)[0]
        pred = mse_sps("gradient", 8, 1.0, eta, 0.0, 96).total
        assert abs(r.mean - pred) < max(3 * r.stderr, 0.15 * pred)

    def test_shot_noise_shrinks_with_budget(self):
        config = tiny_config(noise=NoiseSpec(), nt_grid=(48, 4800),
                             schemes=("ps",), targets=(Gradient(),),
                             parameter_sets=10, experiments_per_set=30)
        results = monte_carlo_mse(config)
        by_nt = {r.n_total: r.mean for r in results}
        assert by_nt[4800] < by_nt[48]


def synthetic_curve(scheme, d, eta, grid, lam_fn):
    """Noise-free MseEstimate series straight from the closed forms."""
    out = []
    for nt in grid:
        lam = lam_fn(nt)
        total = mse_sps("gradient", d, lam, eta, 0.0, nt).total
        out.append(MseEstimate(scheme=scheme, target=Gradient(), n_total=nt,
                               mean=total, stderr=0.0))
    return out


class TestEmpiricalCrossing:

    def test_recovers_closed_form_crossing(self):
        """Synthetic exact curves cross within one grid step of the root."""
        d, eta = 16, 0.226
        exact = n_star_sps_exact("gradient", d, eta)
        grid = list(range(48, 481, 48))
        ps = synthetic_curve("ps", d, eta, grid, lambda nt: 1.0)
        nsps = synthetic_curve(
            "nsps", d, eta, grid,
            lambda nt: analytics.lambda_opt("gradient", d, nt))
        crossing = empirical_n_star(nsps, ps)
        assert isinstance(crossing, CrossingEstimate)
        assert abs(crossing.n_star - exact) <= 48.0

    def test_exact_zero_difference_returns_grid_point(self):
        grid = (48, 96, 144)
        base = [MseEstimate("ps", Gradient(), nt, 1.0, 0.1) for nt in grid]
        cand = [MseEstimate("nsps", Gradient(), 48, 0.5, 0.1),
                MseEstimate("nsps", Gradient(), 96, 1.0, 0.1),
                MseEstimate("nsps", Gradient(), 144, 1.5, 0.1)]
        crossing = empirical_n_star(cand, base)
        assert crossing.n_star == 96.0
        assert crossing.uncertainty == 24.0

    def test_curves_that_never_cross_signal(self):
        grid = (48, 96, 144)
        base = [MseEstimate("ps", Gradient(), nt, 1.0, 0.01) for nt in grid]
        lower = [MseEstimate("nsps", Gradient(), nt, 0.5, 0.01)
                 for nt in grid]
        with pytest.raises(CrossoverNotFound):
            empirical_n_star(lower, base)
        higher = [MseEstimate("nsps", Gradient(), nt, 2.0, 0.01)
                  for nt in grid]
        with pytest.raises(CrossoverNotFound):
            empirical_n_star(higher, base)

    def test_grids_must_match(self):
        base = [MseEstimate("ps", Gradient(), 48, 1.0, 0.1)]
        cand = [MseEstimate("nsps", Gradient(), 96, 1.0, 0.1)]
        with pytest.raises(ValueError):
            empirical_n_star(cand, base)


class TestDistributionStudy:

    def test_global_noise_gives_degenerate_g(self):
        """The global channel's error term is exactly 0 for every set."""
        config = tiny_config(parameter_sets=12)
        summary = distribution_study(config)
        assert np.all(summary.g_samples == 0.0)
        assert summary.r_var is None
        assert summary.var_f > 0.0

    def test_cnot_noise_gives_flat_g(self):
        config = tiny_config(noise=NoiseSpec("cnot_depolarizing", 0.05),
                             n=3, L=3, parameter_sets=40)
        summary = distribution_study(config)
        assert summary.r_var is not None
        assert summary.r_var > 1.0
        assert len(summary.f_samples) == 40

    def test_noiseless_config_is_rejected(self):
        config = tiny_config(noise=NoiseSpec())
        with pytest.raises(ValueError):
            distribution_study(config)

    def test_redrawn_channels_in_one_batch_stay_per_set(self, monkeypatch):
        """A batch of redrawn Pauli channels runs each set under its own
        channel: f and g of every set equal, bit for bit, those of a cache
        of that set alone under the channel drawn for it, whatever the
        batch size."""
        config = tiny_config(n=3, L=3, parameter_sets=7, noise=NoiseSpec(
            "cnot_pauli", 0.1, redraw_weights=True))
        layout, obs, eta = config.layout(), config.observable(), \
            config.eta_total()
        want_f, want_g = [], []
        for s in range(config.parameter_sets):
            theta = sample_parameter_set(layout, substream(
                config.master_seed, 0, s))
            cache = harness._FunctionCache(layout, theta, obs)
            f = float(cache.exact(None))
            want_f.append(f)
            want_g.append(float((cache.exact(config.noise_for_set(s))
                                 - (1.0 - eta) * f) / eta))
        assert len(set(want_g)) == config.parameter_sets
        for size in (1, 3, 7):
            monkeypatch.setattr(harness, "_batch_size", lambda *a: size)
            summary = distribution_study(config)
            assert summary.f_samples.tolist() == want_f
            assert summary.g_samples.tolist() == want_g
            assert [c.weights for c in summary.channels] == [
                config.noise_for_set(s).weights
                for s in range(config.parameter_sets)]


class TestTwoDesignCheck:
    """Criterion 9's sampler, ``invariants.moment_deviations``."""

    @staticmethod
    def _squared_deviation(target, n, samples, seed, expect):
        """(rel, sigmas) of <target^2> over the sampler's own draws."""
        layout, obs = build_ansatz(n, 6), cyclic_observable(n)
        rng = np.random.default_rng(seed)
        x = np.array([exact_derivative(
            target, layout, sample_parameter_set(layout, rng), None, obs)
            for _ in range(samples)]) ** 2
        mean = float(x.mean())
        stderr = float(x.std(ddof=1) / math.sqrt(samples))
        return abs(mean / expect - 1.0), abs(mean - expect) / stderr

    def test_moments_at_small_samples(self):
        (f, f2), _ = moment_deviations(np.random.default_rng(31415),
                                       Moments((2,), 400, 3.0))
        assert (f.label, f2.label) == ("<f>", "<f^2>")
        assert f.sigmas < 4
        assert f2.sigmas < 4 or f2.rel < 0.1

    def test_probe_layer_defaults_to_middle(self):
        """Identical draws give the gradient moment at layer 4 of L = 6."""
        _, derivative = moment_deviations(np.random.default_rng(999),
                                          Moments((2,), 40, 3.0))
        expect = analytics.two_design_moments(2).mean_grad2
        assert derivative[0] == ("<grad^2>", *self._squared_deviation(
            Gradient(layer=4), 2, 40, 999, expect))

    def test_single_qubit_fallback_runs(self):
        """At n = 1 the off-diagonal pair reaches back to layer 3."""
        _, derivative = moment_deviations(np.random.default_rng(7),
                                          Moments((1,), 50, 3.0))
        expect = analytics.two_design_moments(1).mean_hess_off2
        off = OffDiagHessian(layer=4, qubit2=1, layer2=3)
        assert derivative[2] == ("<off^2>", *self._squared_deviation(
            off, 1, 50, 7, expect))
        assert all(math.isfinite(x.sigmas) for x in derivative)

    def test_each_count_draws_from_the_entry_state(self):
        """Adding n = 3 leaves the n = 2 deviations as they were, and n = 3
        draws what it draws alone."""
        def at(ns):
            return moment_deviations(np.random.default_rng(11),
                                     Moments(ns, 30, 3.0))
        (f_2, d_2), (f_3, d_3), (f_23, d_23) = at((2,)), at((3,)), at((2, 3))
        assert (f_23, d_23) == (f_2 + f_3, d_2 + d_3)
