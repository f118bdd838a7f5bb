"""Tests for the closed-form error theory."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulishift import analytics
from paulishift.analytics import (CrossoverAboveBracket, CrossoverBelowBracket,
                                  CrossoverNotFound, NoCrossoverAtZeroNoise,
                                  epsilon_opt, epsilon_opt_asymptotic,
                                  lambda_opt, lambda_opt_eta, mse_fd, mse_sps,
                                  n_star_fd, n_star_sps_exact,
                                  n_star_sps_small_eta, noise_bias,
                                  two_design_moments)
from paulishift.estimators import DiagHessian, Gradient, OffDiagHessian

KINDS = ("gradient", "diag", "offdiag")


class TestMoments:

    def test_single_qubit_values(self):
        """d=2: <f^2> = 1/3, <grad^2> = 2/9, <off^2> = 4/27."""
        m = two_design_moments(1)
        np.testing.assert_allclose(m.mean_f, 0.0)
        np.testing.assert_allclose(m.mean_f2, 1.0 / 3.0)
        np.testing.assert_allclose(m.mean_grad2, 2.0 / 9.0)
        np.testing.assert_allclose(m.mean_hess_diag2, 2.0 / 9.0)
        np.testing.assert_allclose(m.mean_hess_off2, 4.0 / 27.0)

    def test_two_qubit_values(self):
        """d=4: <f^2> = 1/5, <grad^2> = 8/75."""
        m = two_design_moments(2)
        np.testing.assert_allclose(m.mean_f2, 0.2)
        np.testing.assert_allclose(m.mean_grad2, 8.0 / 75.0)

    def test_moment_for_accepts_targets_and_strings(self):
        m = two_design_moments(2)
        assert m.moment_for(Gradient()) == m.moment_for("gradient")
        assert m.moment_for(DiagHessian()) == m.mean_hess_diag2
        assert m.moment_for(OffDiagHessian()) == m.mean_hess_off2
        with pytest.raises(ValueError):
            m.moment_for("hessian")

    def test_moments_decay_with_dimension(self):
        """Concentration: every second moment shrinks as d grows."""
        small, large = two_design_moments(2), two_design_moments(6)
        assert large.mean_f2 < small.mean_f2
        assert large.mean_grad2 < small.mean_grad2
        assert large.mean_hess_off2 < small.mean_hess_off2


class TestMseClosedForms:

    def test_plain_shift_rule_noiseless(self):
        """At lambda=1, eta=0 the MSE is pure shot variance (1 - <f^2>)/N."""
        d, nt = 16, 960
        mse = mse_sps("gradient", d, 1.0, 0.0, 0.0, nt)
        np.testing.assert_allclose(mse.finite_copy,
                                   (1.0 - 1.0 / (d + 1.0)) / nt)
        assert mse.approximation == 0.0
        np.testing.assert_allclose(mse.total, mse.finite_copy)

    def test_diag_variance_prefactor(self):
        """The 3-point rule carries the extra 9/8 shot-variance factor."""
        d, nt = 4, 1200
        grad = mse_sps("gradient", d, 1.0, 0.0, 0.0, nt).finite_copy
        diag = mse_sps("diag", d, 1.0, 0.0, 0.0, nt).finite_copy
        np.testing.assert_allclose(diag / grad, 9.0 / 8.0)

    def test_bias_term_scales_with_eta(self):
        """PS under rate eta keeps bias eta^2 <grad^2> at every budget."""
        d, eta = 16, 0.226
        moment = two_design_moments(4).mean_grad2
        for nt in (96, 9600):
            mse = mse_sps("gradient", d, 1.0, eta, 0.0, nt)
            np.testing.assert_allclose(mse.approximation, eta ** 2 * moment)

    def test_fd_finite_part_diverges_at_small_step(self):
        tiny = mse_fd("gradient", 4, 1e-4, 0.0, 0.0, 96)
        mid = mse_fd("gradient", 4, 1.0, 0.0, 0.0, 96)
        assert tiny.finite_copy > 1e6 * mid.finite_copy
        np.testing.assert_allclose(tiny.approximation, 0.0, atol=1e-12)

    def test_fd_bias_uses_sinc_powers(self):
        d, eps, eta = 4, 0.8, 0.1
        sinc = math.sin(eps / 2) / (eps / 2)
        m = two_design_moments(2)
        grad = mse_fd("gradient", d, eps, eta, 0.0, 96)
        np.testing.assert_allclose(
            grad.approximation,
            (1 - (1 - eta) * sinc) ** 2 * m.mean_grad2, rtol=1e-12)
        diag = mse_fd("diag", d, eps, eta, 0.0, 96)
        np.testing.assert_allclose(
            diag.approximation,
            (1 - (1 - eta) * sinc ** 2) ** 2 * m.mean_hess_diag2, rtol=1e-12)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            mse_sps("gradient", 4, -1.0, 0.0, 0.0, 96)
        with pytest.raises(ValueError):
            mse_sps("gradient", 4, 1.0, 1.0, 0.0, 96)
        with pytest.raises(ValueError):
            mse_sps("gradient", 4, 1.0, 0.0, 2.0, 96)
        with pytest.raises(ValueError):
            mse_fd("gradient", 4, 7.0, 0.0, 0.0, 96)
        with pytest.raises(ValueError):
            mse_fd("gradient", 4, 0.5, 0.0, 0.0, 0)


class TestOptimalLambda:

    def test_literal_forms(self):
        """The three closed forms, written out, for spot values."""
        d, nt = 4.0, 960.0
        np.testing.assert_allclose(
            lambda_opt("gradient", 4, 960),
            d * nt / (2 * d * d + d * nt - 2))
        np.testing.assert_allclose(
            lambda_opt("diag", 4, 960),
            4 * d * nt / (9 * d * d + 4 * d * nt - 9))
        np.testing.assert_allclose(
            lambda_opt("offdiag", 4, 960),
            d ** 3 * nt / (4 * (d * d - 1) ** 2 + d ** 3 * nt))

    def test_lies_in_unit_interval_and_grows_with_budget(self):
        for kind in KINDS:
            prev = 0.0
            for nt in (48, 480, 4800, 48000):
                lam = lambda_opt(kind, 16, nt)
                assert 0.0 < lam < 1.0
                assert lam > prev
                prev = lam

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(KINDS),
           q=st.integers(1, 8),
           log_nt=st.floats(1.1, 6.0),
           eta=st.floats(0.0, 0.89),
           rel=st.floats(-0.5, 0.5))
    def test_beats_any_other_lambda(self, kind, q, log_nt, eta, rel):
        """No nearby lambda gives a lower closed-form MSE than lambda*."""
        d = 2 ** q
        nt = 10.0 ** log_nt
        if eta == 0.0:
            lam = lambda_opt(kind, d, nt)
        else:
            lam = lambda_opt_eta(kind, d, nt, eta)
        best = mse_sps(kind, d, lam, eta, 0.0, nt).total
        other = lam * (1.0 + rel)
        if other > 0:
            alt = mse_sps(kind, d, other, eta, 0.0, nt).total
            assert best <= alt * (1.0 + 1e-12)

    def test_known_noise_limit_is_inverse_survival(self):
        """lambda*(N -> inf) -> 1/(1 - eta): undo the signal shrinkage."""
        eta = 0.3
        for kind in KINDS:
            lam = lambda_opt_eta(kind, 16, 1e14, eta)
            np.testing.assert_allclose(lam, 1.0 / (1.0 - eta), rtol=1e-9)

    def test_zero_noise_reduces_to_naive(self):
        for kind in KINDS:
            a = lambda_opt_eta(kind, 8, 777, 0.0)
            b = lambda_opt(kind, 8, 777)
            assert a == b  # bit-identical delegation


class TestOptimalEpsilon:

    def test_beats_neighbouring_steps(self):
        for kind in KINDS:
            eps = epsilon_opt(kind, 16, 9600)
            best = mse_fd(kind, 16, eps, 0.0, 0.0, 9600).total
            for factor in (0.9, 0.99, 1.01, 1.1):
                alt = mse_fd(kind, 16, eps * factor, 0.0, 0.0, 9600).total
                assert best <= alt + 1e-15

    def test_shrinks_with_budget(self):
        values = [epsilon_opt("gradient", 16, nt)
                  for nt in (96, 9600, 960000)]
        assert values[0] > values[1] > values[2]

    def test_asymptotic_constants(self):
        """eps* ~ (const <f^2>-strength / (N moment))^power at huge N."""
        for kind, power in (("gradient", 1 / 6), ("diag", 1 / 8),
                            ("offdiag", 1 / 8)):
            num = epsilon_opt(kind, 4, 1e12)
            asy = epsilon_opt_asymptotic(kind, 4, 1e12)
            np.testing.assert_allclose(num, asy, rtol=0.01)
            # the scaling power shows up between two huge budgets
            ratio = (epsilon_opt_asymptotic(kind, 4, 1e12)
                     / epsilon_opt_asymptotic(kind, 4, 1e10))
            np.testing.assert_allclose(ratio, (1e-2) ** power, rtol=1e-9)

    def test_heuristic_regime_records_eta(self):
        """A given rate tunes the step for it; none or 0 tunes it clean."""
        heuristic = epsilon_opt("gradient", 16, 960, eta=0.226)
        naive = epsilon_opt("gradient", 16, 960)
        assert epsilon_opt("gradient", 16, 960, eta=0.0) == naive
        assert naive != heuristic
        eps_grid = heuristic * np.array([0.99, 1.01])
        best = mse_fd("gradient", 16, heuristic, 0.226, 0.0, 960).total
        assert all(best <= mse_fd("gradient", 16, e, 0.226, 0.0, 960).total
                   for e in eps_grid)


def _scalar_epsilon_opt(kind, d, n_total, eta):
    """Reference: the 512-point scan as scalar ``mse_fd`` calls, then the
    golden-section refinement ``epsilon_opt`` runs. Returns (eps, scan)."""
    def objective(eps):
        return mse_fd(kind, d, eps, eta, 0.0, n_total).total

    grid = np.geomspace(1e-6, 2.0 * math.pi - 1e-6, 512)
    values = np.array([objective(e) for e in grid])
    best = int(np.argmin(values))
    lo = grid[max(best - 1, 0)]
    up = grid[min(best + 1, len(grid) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, up
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = objective(x1), objective(x2)
    while b - a > 1e-9:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = objective(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = objective(x2)
    eps = 0.5 * (a + b)
    if objective(eps) > min(objective(lo), objective(up)):
        eps = lo if objective(lo) <= objective(up) else up
    return float(eps), values


class TestStepScan:
    """The array scan in ``epsilon_opt`` against scalar ``mse_fd`` calls."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_array_scan_matches_scalar_scan(self, kind):
        grid = np.geomspace(1e-6, 2.0 * math.pi - 1e-6, 512)
        for d in (2, 16, 2 ** 7, 2 ** 14):
            for nt in (12.0, 1e3, 1e6, 1e10, 1e14):
                for eta in (0.0, 0.05, 0.5, 0.9):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        ref, scalar = _scalar_epsilon_opt(kind, d, nt, eta)
                        eps = analytics._epsilon_opt_cached.__wrapped__(
                            kind, d, nt, eta)
                    scan = analytics._fd_total(kind, d, eta, nt)(
                        grid, np.sinc(grid / 2.0 / math.pi))
                    case = (kind, d, nt, eta)
                    assert eps == ref, case
                    assert np.argmin(scan) == np.argmin(scalar), case
                    np.testing.assert_allclose(scan, scalar, rtol=1e-14,
                                               err_msg=str(case))

    def test_bisection_steps_match_scalar_search(self, monkeypatch):
        """Every (kind, d, N) that ``n_star_fd``'s bisection solves gets
        the scalar reference's step to the bit."""
        solve, seen = analytics.epsilon_opt, []

        def record(target, d, n_total, eta=None):
            eps = solve(target, d, n_total, eta)
            seen.append((target, d, n_total, eta, eps))
            return eps

        monkeypatch.setattr(analytics, "epsilon_opt", record)
        for kind in KINDS:
            for d, eta in ((3, 0.013), (64, 0.37), (4096, 0.0)):
                analytics.n_star_fd(kind, d, eta)
        assert len(seen) > 9 * 20
        assert {(s[0], s[1]) for s in seen} == {
            (kind, d) for kind in KINDS for d in (3, 64, 4096)}
        for kind, d, nt, eta, eps in seen:
            assert eta is None  # the naive step: solved noise-free
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                assert eps == _scalar_epsilon_opt(kind, d, nt, 0.0)[0], (
                    kind, d, nt)

    @pytest.mark.parametrize("kind", KINDS)
    def test_search_objective_is_mse_fd_to_the_bit(self, kind):
        """The golden-section objective, its constants computed once per
        scan, equals ``mse_fd(...).total`` bit for bit."""
        steps = np.geomspace(1e-6, 2.0 * math.pi - 1e-6, 41)
        for d in (2, 16, 2 ** 7, 2 ** 14):
            for nt in (12.0, 1e3, 1e6, 1e10, 1e14):
                for eta in (0.0, 0.05, 0.5, 0.9):
                    total = analytics._fd_total(kind, d, eta, nt)
                    for eps in list(steps) + steps.tolist():
                        want = mse_fd(kind, d, eps, eta, 0.0, nt).total
                        assert total(eps) == want, (kind, d, nt, eta, eps)

    def test_scalar_sinc_is_numpy_sinc(self):
        """``_sinc`` equals np.sinc to the bit on the scan grid's half
        steps (its argument in ``mse_fd``), at zero and at random inputs."""
        grid = np.geomspace(1e-6, 2.0 * math.pi - 1e-6, 512)
        rng = np.random.default_rng(83)
        xs = np.concatenate([grid / 2.0, rng.uniform(-40.0, 40.0, 20000),
                             rng.normal(scale=1e-6, size=200),
                             [0.0, -0.0, math.pi, -2.0 * math.pi]])
        for x in xs:
            want = float(np.sinc(float(x) / math.pi))
            assert analytics._sinc(float(x)) == want, x
        np.testing.assert_array_equal(
            [analytics._sinc(e / 2.0) for e in grid],
            np.sinc(grid / 2.0 / math.pi))
        np.testing.assert_array_equal(analytics._EPS_SINC,
                                      np.sinc(grid / 2.0 / math.pi))


class TestSchemeParam:

    def test_names_map_to_their_optimizers(self):
        d, nt, eta = 16, 960, 0.226
        for kind in KINDS:
            assert analytics.scheme_param("ps", kind, d, nt, eta) == ("sps",
                                                                      1.0)
            assert analytics.scheme_param("nsps", kind, d, nt, eta) == (
                "sps", lambda_opt(kind, d, nt))
            assert analytics.scheme_param("hsps", kind, d, nt, eta) == (
                "sps", lambda_opt_eta(kind, d, nt, eta))
            assert analytics.scheme_param("nfd", kind, d, nt, eta) == (
                "fd", epsilon_opt(kind, d, nt))
            assert analytics.scheme_param("hfd", kind, d, nt, eta) == (
                "fd", epsilon_opt(kind, d, nt, eta))

    def test_heuristic_schemes_are_naive_without_noise(self):
        for naive, heuristic in (("nsps", "hsps"), ("nfd", "hfd")):
            assert (analytics.scheme_param(heuristic, "diag", 4, 96, 0.0)
                    == analytics.scheme_param(naive, "diag", 4, 96, 0.0))

    def test_scheme_mse_uses_the_family_closed_form(self):
        value, mse = analytics.scheme_mse("nfd", Gradient(), 16, 960, 0.1)
        assert mse == mse_fd("gradient", 16, value, 0.1, 0.0, 960)
        value, mse = analytics.scheme_mse("hsps", "offdiag", 16, 960, 0.1)
        assert mse == mse_sps("offdiag", 16, value, 0.1, 0.0, 960)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            analytics.scheme_param("sps", "gradient", 4, 96, 0.1)


class TestCrossovers:

    def test_exact_crossing_equalizes_the_schemes(self):
        for kind in KINDS:
            for d, eta in ((4, 0.1), (16, 0.226), (64, 0.6)):
                ns = n_star_sps_exact(kind, d, eta)
                lam = lambda_opt(kind, d, ns)
                a = mse_sps(kind, d, lam, eta, 0.0, ns).total
                b = mse_sps(kind, d, 1.0, eta, 0.0, ns).total
                np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_small_eta_form_is_the_limit(self):
        for kind in KINDS:
            ratio = (n_star_sps_small_eta(kind, 16, 1e-5)
                     / n_star_sps_exact(kind, 16, 1e-5))
            np.testing.assert_allclose(ratio, 1.0, rtol=1e-3)

    def test_gradient_spot_value(self):
        """Spot check: d=16, eta=0.226 crosses near N = 124."""
        np.testing.assert_allclose(
            n_star_sps_exact("gradient", 16, 0.226), 124.283, rtol=1e-3)

    def test_zero_noise_raises_distinct_signal(self):
        with pytest.raises(NoCrossoverAtZeroNoise):
            n_star_sps_exact("gradient", 16, 0.0)
        with pytest.raises(NoCrossoverAtZeroNoise):
            n_star_sps_small_eta("diag", 4, 0.0)
        # the specific signal is still a CrossoverNotFound and a RuntimeError
        assert issubclass(NoCrossoverAtZeroNoise, CrossoverNotFound)
        assert issubclass(CrossoverNotFound, RuntimeError)

    def test_fd_crossing_residual_is_tiny(self):
        ns = n_star_fd("gradient", 16, 0.25)
        eps = epsilon_opt("gradient", 16, ns)
        a = mse_fd("gradient", 16, eps, 0.25, 0.0, ns).total
        b = mse_sps("gradient", 16, 1.0, 0.25, 0.0, ns).total
        np.testing.assert_allclose(a, b, rtol=1e-5)

    def test_fd_crossing_decreases_with_noise(self):
        """More noise moves the finite-difference handover earlier."""
        values = [n_star_fd("gradient", 16, eta)
                  for eta in (0.05, 0.15, 0.25)]
        assert values[0] > values[1] > values[2]

    def test_fd_bracket_signals(self, monkeypatch):
        """Brackets that exclude the root raise side-specific errors."""
        true_ns = n_star_fd("gradient", 16, 0.25)  # about 100
        monkeypatch.setattr(analytics, "_N_BRACKET", (4 * true_ns, 1e12))
        with pytest.raises(CrossoverBelowBracket):
            n_star_fd("gradient", 16, 0.25)
        monkeypatch.setattr(analytics, "_N_BRACKET", (12.0, true_ns / 4))
        with pytest.raises(CrossoverAboveBracket):
            n_star_fd("gradient", 16, 0.25)

    def test_eta_bounds_checked(self):
        with pytest.raises(ValueError):
            n_star_sps_exact("gradient", 16, 1.0)
        for eta in (-0.1, 1.0):
            with pytest.raises(ValueError):
                n_star_fd("gradient", 16, eta)

    def test_fd_crossing_exists_without_noise(self):
        """Finite differences beat PS at small N even on clean circuits."""
        values = [n_star_fd("gradient", d, 0.0) for d in (4, 16, 256)]
        np.testing.assert_allclose(values, [46.58, 197.96, 3179.8],
                                   rtol=1e-4)
        eps = epsilon_opt("gradient", 16, values[1])
        np.testing.assert_allclose(
            mse_fd("gradient", 16, eps, 0.0, 0.0, values[1]).total,
            mse_sps("gradient", 16, 1.0, 0.0, 0.0, values[1]).total,
            rtol=1e-5)

    def test_crossing_beyond_float_range_is_not_found(self):
        """A subnormal rate pushes the SPS crossings past the largest float."""
        with pytest.raises(CrossoverNotFound):
            n_star_sps_exact("gradient", 4, 1e-310)
        with pytest.raises(CrossoverNotFound):
            n_star_sps_small_eta("gradient", 4, 1e-310)

    def test_crossing_near_float_range_keeps_lambda_valid(self):
        """d^k N past the largest float leaves lambda at 1, not inf/inf."""
        for kind in KINDS:
            assert lambda_opt(kind, 2 ** 200, 1e300) == 1.0
        assert math.isfinite(n_star_sps_exact("offdiag", 2 ** 7, 1e-300))


class TestNoiseBias:

    def test_floor_is_eta_square_times_moment(self):
        eta = 0.226
        m = two_design_moments(4)
        np.testing.assert_allclose(noise_bias("gradient", 16, eta),
                                   eta ** 2 * m.mean_grad2)
        np.testing.assert_allclose(noise_bias(OffDiagHessian(), 16, eta),
                                   eta ** 2 * m.mean_hess_off2)

    def test_plain_shift_rule_reaches_the_floor(self):
        """PS total MSE converges to the floor from above as N grows."""
        eta, d = 0.226, 16
        floor = noise_bias("gradient", d, eta)
        prev = math.inf
        for nt in (1e2, 1e4, 1e6, 1e8, 1e10):
            total = mse_sps("gradient", d, 1.0, eta, 0.0, nt).total
            assert floor < total < prev
            prev = total
        np.testing.assert_allclose(prev, floor, rtol=1e-6)

    def test_known_noise_scaling_escapes_the_floor(self):
        """HSPS approximation error vanishes; FD stays pinned at the floor."""
        eta, d = 0.3, 16
        floor = noise_bias("diag", d, eta)
        lam = lambda_opt_eta("diag", d, 1e9, eta)
        hsps = mse_sps("diag", d, lam, eta, 0.0, 1e9)
        assert hsps.approximation < 1e-8 * floor
        eps = epsilon_opt("diag", d, 1e6, eta)
        assert mse_fd("diag", d, eps, eta, 0.0,
                      1e6).approximation >= floor * (1 - 1e-9)
