"""Tests for the derivative estimators and shot sampling."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paulishift
from paulishift.circuits import (build_ansatz, cyclic_observable, evolve,
                                 expectation, shifted)
from paulishift.estimators import (DiagHessian, EstimatorSpec, Gradient,
                                   OffDiagHessian, evaluation_points,
                                   point_count, target_kind)
from paulishift.harness import (_binomial_estimates, _FunctionCache,
                                _point_weights, estimator_mean,
                                exact_derivative, sample_parameter_set)


def _setup(n=2, L=3, seed=101):
    layout = build_ansatz(n, L)
    obs = cyclic_observable(n)
    theta = sample_parameter_set(layout, np.random.default_rng(seed))
    return layout, obs, theta


class TestTargets:

    def test_kinds_and_point_counts(self):
        assert target_kind(Gradient()) == "gradient"
        assert target_kind(DiagHessian()) == "diag"
        assert target_kind(OffDiagHessian()) == "offdiag"
        assert point_count(Gradient()) == 2
        assert point_count(DiagHessian()) == 3
        assert point_count(OffDiagHessian()) == 4

    def test_offdiag_needs_distinct_angles(self):
        with pytest.raises(ValueError):
            OffDiagHessian(qubit=1, layer=2, slot=2,
                           qubit2=1, layer2=2, slot2=2)


class TestSpecValidation:

    def test_sps_needs_lambda(self):
        with pytest.raises(ValueError):
            EstimatorSpec("sps", Gradient())
        with pytest.raises(ValueError):
            EstimatorSpec("sps", Gradient(), lam=-0.5)
        EstimatorSpec("sps", Gradient(), lam=0.8)  # fine

    def test_fd_needs_epsilon_in_range(self):
        with pytest.raises(ValueError):
            EstimatorSpec("fd", Gradient())
        with pytest.raises(ValueError):
            EstimatorSpec("fd", Gradient(), epsilon=7.0)
        EstimatorSpec("fd", Gradient(), epsilon=0.5)  # fine

    def test_unknown_scheme(self):
        """Two families; PS is a scheme name, run as SPS at lambda = 1."""
        for family in ("psd", "ps"):
            with pytest.raises(ValueError):
                EstimatorSpec(family, Gradient())


class TestEvaluationPoints:

    def test_gradient_shift_rule_points(self):
        """Gradients come from [f(+pi/2) - f(-pi/2)] / 2."""
        pts = evaluation_points(EstimatorSpec("sps", Gradient(1, 2, 2),
                                              lam=1.0))
        assert pts == [({(1, 2, 2): math.pi / 2}, 0.5),
                       ({(1, 2, 2): -math.pi / 2}, -0.5)]

    def test_diag_collapsed_three_point_rule(self):
        """Second derivatives from [f(+pi) - 2 f(0) + f(-pi)] / 4."""
        pts = evaluation_points(EstimatorSpec("sps", DiagHessian(1, 2, 2),
                                              lam=1.0))
        shifts = [p[0] for p in pts]
        coeffs = [p[1] for p in pts]
        assert shifts == [{(1, 2, 2): math.pi}, {}, {(1, 2, 2): -math.pi}]
        np.testing.assert_allclose(coeffs, [0.25, -0.5, 0.25])

    def test_offdiag_four_point_signs(self):
        """Mixed derivatives use the (+,-,-,+) four-point pattern."""
        pts = evaluation_points(EstimatorSpec("sps", OffDiagHessian(),
                                              lam=1.0))
        assert len(pts) == 4
        np.testing.assert_allclose([c for _, c in pts],
                                   [0.25, -0.25, -0.25, 0.25])
        for shifts, _ in pts:
            assert set(abs(v) for v in shifts.values()) == {math.pi / 2}

    def test_sps_rescales_every_coefficient(self):
        lam = 0.37
        ps = evaluation_points(EstimatorSpec("sps", DiagHessian(), lam=1.0))
        sps = evaluation_points(EstimatorSpec("sps", DiagHessian(), lam=lam))
        for (s1, c1), (s2, c2) in zip(ps, sps):
            assert s1 == s2
            np.testing.assert_allclose(c2, lam * c1)

    def test_fd_step_scaling(self):
        eps = 0.3
        grad = evaluation_points(EstimatorSpec("fd", Gradient(1, 2, 2),
                                               epsilon=eps))
        assert grad == [({(1, 2, 2): eps / 2}, 1.0 / eps),
                        ({(1, 2, 2): -eps / 2}, -1.0 / eps)]
        diag = evaluation_points(EstimatorSpec("fd", DiagHessian(1, 2, 2),
                                               epsilon=eps))
        np.testing.assert_allclose([c for _, c in diag],
                                   [1 / eps ** 2, -2 / eps ** 2, 1 / eps ** 2])


class TestExactDerivatives:

    def test_every_exact_mean_is_one_cache_mean(self):
        """estimator_mean is the cache's mean, under its package name too;
        the mean sums the cache's values and matches direct circuits."""
        layout, obs, theta = _setup(seed=131)
        assert paulishift.estimator_mean is estimator_mean
        assert paulishift.exact_derivative is exact_derivative
        cache = _FunctionCache(layout, theta, obs)
        for spec in (EstimatorSpec("sps", OffDiagHessian(), lam=0.7),
                     EstimatorSpec("fd", DiagHessian(), epsilon=0.4)):
            weights, coeffs = _point_weights(spec)
            from_values = float(
                coeffs @ cache.value(spec.target, weights, None))
            direct = sum(coeff * expectation(
                evolve(layout, shifted(layout, theta, shifts)), obs)
                for shifts, coeff in evaluation_points(spec))
            assert cache.mean(spec, None) == from_values
            assert estimator_mean(spec, layout, theta, None, obs) == from_values
            np.testing.assert_allclose(from_values, direct, rtol=0,
                                       atol=1e-12)

    def test_gradient_matches_tiny_central_difference(self):
        layout, obs, theta = _setup()
        target = Gradient(2, 2, 1)
        exact = exact_derivative(target, layout, theta, None, obs)
        h = 1e-6
        loc = (target.qubit, target.layer, target.slot)
        fp, fm = (expectation(evolve(layout, shifted(layout, theta, {loc: s})),
                              obs) for s in (h, -h))
        np.testing.assert_allclose(exact, (fp - fm) / (2 * h), atol=1e-6)

    def test_diag_matches_tiny_central_difference(self):
        layout, obs, theta = _setup(seed=103)
        target = DiagHessian(1, 3, 2)
        exact = exact_derivative(target, layout, theta, None, obs)
        tiny = estimator_mean(EstimatorSpec("fd", target, epsilon=1e-4),
                              layout, theta, None, obs)
        np.testing.assert_allclose(exact, tiny, atol=1e-6)

    def test_offdiag_symmetry(self):
        """Mixed partial derivatives commute: target (p, q) equals (q, p)."""
        layout, obs, theta = _setup(seed=107)
        a = exact_derivative(OffDiagHessian(1, 2, 2, 2, 3, 1), layout, theta,
                             None, obs)
        b = exact_derivative(OffDiagHessian(2, 3, 1, 1, 2, 2), layout, theta,
                             None, obs)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_fd_mean_is_sinc_damped(self):
        """Finite differences of a pure tone: factor sinc(eps/2) per order.

        The FD means come from direct circuits: the cache rebuilds off-grid
        points from a + b cos s + c sin s, which obeys the law by itself.
        """
        layout, obs, theta = _setup(seed=109)
        eps = 1.3
        sinc = math.sin(eps / 2) / (eps / 2)

        def direct_mean(target):
            return sum(coeff * expectation(
                evolve(layout, shifted(layout, theta, shifts)), obs)
                for shifts, coeff in evaluation_points(
                    EstimatorSpec("fd", target, epsilon=eps)))

        g = exact_derivative(Gradient(), layout, theta, None, obs)
        np.testing.assert_allclose(direct_mean(Gradient()), sinc * g,
                                   atol=1e-9)
        h = exact_derivative(DiagHessian(), layout, theta, None, obs)
        np.testing.assert_allclose(direct_mean(DiagHessian()), sinc ** 2 * h,
                                   atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(shift=st.floats(-3.0, 3.0, allow_nan=False))
    def test_single_angle_dependence(self, shift):
        """f(theta + s) = f + sin(s) f' + (1 - cos(s)) f'' in any one angle."""
        layout, obs, theta = _setup(seed=113)
        loc = (1, 2, 2)
        f0 = expectation(evolve(layout, theta), obs)
        g = exact_derivative(Gradient(*loc), layout, theta, None, obs)
        h = exact_derivative(DiagHessian(*loc), layout, theta, None, obs)
        fs = expectation(evolve(layout, shifted(layout, theta, {loc: shift})),
                         obs)
        np.testing.assert_allclose(
            fs, f0 + math.sin(shift) * g + (1 - math.cos(shift)) * h,
            atol=1e-9)


class TestSampling:
    """The harness's binomial shot sampler, the only one in the package."""

    def test_sample_function_moments(self):
        """Binomial estimates have mean f and variance (1 - f^2) / shots."""
        layout, obs, theta = _setup(seed=127)
        f = expectation(evolve(layout, theta), obs)
        shots = 400
        draws = _binomial_estimates(f, shots, np.random.default_rng(3), 3000)
        np.testing.assert_allclose(draws.mean(), f,
                                   atol=4 * math.sqrt((1 - f * f) / shots
                                                      / 3000))
        np.testing.assert_allclose(draws.var(), (1 - f * f) / shots, rtol=0.1)

    def test_sample_function_needs_shots(self):
        with pytest.raises(ValueError):
            _binomial_estimates(0.5, 0, np.random.default_rng(0), 4)

    def test_expectation_must_lie_in_unit_interval(self):
        """Rounding overshoot is clipped; a real overshoot is an error."""
        rng = np.random.default_rng(0)
        assert np.all(_binomial_estimates(1.0 + 1e-12, 8, rng, 4) == 1.0)
        with pytest.raises(ValueError):
            _binomial_estimates(1.0 + 1e-9, 8, rng, 4)

    def test_non_finite_expectation_is_rejected(self):
        """NaN and infinities raise rather than clip to a probability: NaN
        once drew every shot as tails."""
        rng = np.random.default_rng(0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="outside"):
                _binomial_estimates(bad, 100, rng, 5)
            with pytest.raises(ValueError, match="outside"):
                _binomial_estimates([0.5, bad, 0.1], 100, rng, 5)

    def test_batch_draws_each_set_from_its_own_generator(self):
        """(sets, points) means with one generator per set give, bit for
        bit, one call per point in point order on each set's generator."""
        f = np.array([[0.3, -0.2, 1.0 + 1e-12], [-1.0, 0.0, 0.7]])
        got = _binomial_estimates(f, 50, [np.random.default_rng(s)
                                          for s in (1, 2)], 6)
        assert got.shape == (2, 3, 6)
        for s, row in zip((1, 2), f):
            rng = np.random.default_rng(s)
            for k, mean in enumerate(row):
                want = _binomial_estimates(float(mean), 50, rng, 6)
                assert np.array_equal(got[s - 1, k], want)

    def test_estimate_is_unbiased(self):
        """Sampled shift-rule combinations average to the infinite-shot mean."""
        layout, obs, theta = _setup(seed=137)
        spec = EstimatorSpec("sps", Gradient(), lam=0.9)
        truth = estimator_mean(spec, layout, theta, None, obs)
        rng = np.random.default_rng(7)
        draws = sum(coeff * _binomial_estimates(
            expectation(evolve(layout, shifted(layout, theta, shifts)), obs),
            96 // point_count(Gradient()), rng, 800)
            for shifts, coeff in evaluation_points(spec))
        stderr = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - truth) < 4 * stderr
