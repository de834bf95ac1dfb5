"""Analytic Gaussian machinery: posteriors, exact denoisers, scores."""

import tracemalloc

import numpy as np
import pytest

from sysbridge import forward, linop, oracle, schedule, tasks
from sysbridge.errors import DegeneratePosteriorError


def toy_prior(d, seed=0, jitter=0.5):
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((d, d)) / np.sqrt(d)
    return oracle.GaussianBelief(rng.standard_normal(d), half @ half.T + jitter * np.eye(d))


class TestGaussianBelief:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError):
            oracle.GaussianBelief(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_negative_covariance_rejected(self):
        with pytest.raises(ValueError):
            oracle.GaussianBelief(np.zeros(2), np.diag([1.0, -0.5]))


class TestGaussianPosterior:
    def test_near_exact_observation(self):
        sys = linop.build_dense_system(np.eye(2), sigma_half=1e-6)
        prior = oracle.GaussianBelief(np.zeros(2), np.eye(2))
        y = np.array([0.3, -0.8])
        post = oracle.gaussian_posterior(prior, sys, y)
        np.testing.assert_allclose(post.mean, y, atol=1e-9)
        assert np.max(np.abs(post.cov)) < 1e-9

    def test_uninformative_measurement(self):
        sys = linop.build_dense_system(np.zeros((2, 3)), sigma_half=1.0)
        prior = toy_prior(3, seed=1)
        post = oracle.gaussian_posterior(prior, sys, np.zeros(2))
        np.testing.assert_allclose(post.mean, prior.mean, atol=1e-12)
        np.testing.assert_allclose(post.cov, prior.cov, atol=1e-12)

    def test_hand_computed_mask_case(self):
        # prior N(0, I), observe first coordinate with variance 0.5
        sys = linop.build_dense_system(
            np.array([[1.0, 0.0]]), sigma_half=np.sqrt(0.5)
        )
        prior = oracle.GaussianBelief(np.zeros(2), np.eye(2))
        y = np.array([1.2])
        post = oracle.gaussian_posterior(prior, sys, y)
        np.testing.assert_allclose(post.mean, [1.2 / 1.5, 0.0], atol=1e-12)
        np.testing.assert_allclose(post.cov, np.diag([1.0 / 3.0, 1.0]), atol=1e-12)

    def test_incompatible_singular_observation(self):
        # zero operator, zero noise: any nonzero measurement is impossible
        sys = linop.build_dense_system(np.zeros((2, 2)))
        prior = toy_prior(2, seed=2)
        with pytest.raises(DegeneratePosteriorError):
            oracle.gaussian_posterior(prior, sys, np.array([1.0, 0.0]))

    def test_importance_sampling_agreement(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            d = int(rng.integers(2, 5))
            m = int(rng.integers(1, 4))
            a = rng.standard_normal((m, d))
            sigma = float(rng.uniform(0.3, 1.0))
            sys = linop.build_dense_system(a, sigma_half=sigma)
            prior = toy_prior(d, seed=100 + trial)
            x = rng.multivariate_normal(prior.mean, prior.cov)
            y = a @ x + sigma * rng.standard_normal(m)
            post = oracle.gaussian_posterior(prior, sys, y)

            n = 1_000_000
            draws = rng.multivariate_normal(prior.mean, prior.cov, size=n)
            resid = draws @ a.T - y
            logw = -0.5 * np.sum(resid ** 2, axis=1) / sigma ** 2
            w = np.exp(logw - logw.max())
            w /= w.sum()
            est_mean = w @ draws
            ess = 1.0 / np.sum(w ** 2)
            se = np.sqrt(np.diag(post.cov) / ess)
            assert np.all(np.abs(est_mean - post.mean) < 3.5 * se + 1e-3)
            centered = draws - est_mean
            est_var = w @ (centered ** 2)
            var_se = np.sqrt(2.0 / ess) * np.diag(post.cov) + 1e-3
            assert np.all(np.abs(est_var - np.diag(post.cov)) < 3.5 * var_se)


class TestOracleDenoiser:
    def test_point_mass_prior_returns_its_mean(self):
        sys = linop.build_dense_system(np.array([[1.0, 0.0]]), sigma_half=0.3)
        prior = oracle.GaussianBelief(np.array([0.7, -1.1]), 1e-12 * np.eye(2))
        den = oracle.oracle_denoiser(prior, sys, schedule.ScheduleSpec("vp"))
        out = den(np.array([5.0, 5.0]), 0.5)
        np.testing.assert_allclose(out, prior.mean, atol=1e-4)

    def test_near_clean_limit(self):
        sys = linop.build_dense_system(np.eye(3))
        prior = toy_prior(3, seed=4)
        spec = schedule.ScheduleSpec("sb", eps2=1e-6)
        den = oracle.oracle_denoiser(prior, sys, spec)
        x_t = np.array([0.3, -0.2, 1.0])
        np.testing.assert_allclose(den(x_t, spec.t_min), x_t, atol=1e-3)

    def test_mask_null_coordinate_hand_formula(self):
        # null coordinate shrinkage alpha/(alpha^2 + beta) under a unit prior
        sys = linop.build_dense_system(np.array([[1.0, 0.0]]))
        prior = oracle.GaussianBelief(np.zeros(2), np.eye(2))
        spec = schedule.ScheduleSpec("vp")
        coeffs = schedule.evaluate(spec, 0.5)
        den = oracle.oracle_denoiser(prior, sys, spec)
        x_t = np.array([0.0, 1.0])
        expected = coeffs.alpha / (coeffs.alpha ** 2 + coeffs.beta)
        np.testing.assert_allclose(den(x_t, 0.5)[1], expected, rtol=1e-12)

    def test_regression_against_monte_carlo(self):
        sys = linop.build_dense_system(np.array([[1.0, 0.0]]))
        prior = oracle.GaussianBelief(np.zeros(2), np.eye(2))
        spec = schedule.ScheduleSpec("vp")
        coeffs = schedule.evaluate(spec, 0.5)
        den = oracle.oracle_denoiser(prior, sys, spec)
        rng = np.random.default_rng(5)
        x0 = rng.multivariate_normal(prior.mean, prior.cov, size=100_000)
        xt = forward.forward_sample(sys, coeffs, x0, linop.draw_noise(sys, rng, x0.shape))
        # bin on the null coordinate and compare conditional means
        z = xt[:, 1]
        for lo, hi in ((0.4, 0.6), (-1.1, -0.9)):
            sel = (z > lo) & (z < hi)
            emp = x0[sel, 1].mean()
            mid = np.array([0.0, 0.5 * (lo + hi)])
            assert den(mid, 0.5)[1] == pytest.approx(emp, abs=0.02)

    def test_affine_with_constant_jacobian(self):
        sys = linop.build_dense_system(np.random.default_rng(6).standard_normal((2, 4)), sigma_half=0.4)
        prior = toy_prior(4, seed=7)
        den = oracle.oracle_denoiser(prior, sys, schedule.ScheduleSpec("sb"))
        rng = np.random.default_rng(8)
        h = 1e-5
        jacs = []
        for _ in range(3):
            x = rng.standard_normal(4)
            cols = []
            for e in np.eye(4):
                cols.append((den(x + h * e, 0.6) - den(x - h * e, 0.6)) / (2 * h))
            jacs.append(np.stack(cols, axis=1))
        assert np.max(np.abs(jacs[0] - jacs[1])) < 1e-8
        assert np.max(np.abs(jacs[0] - jacs[2])) < 1e-8

    def test_tower_property(self):
        sys = linop.build_dense_system(np.array([[1.0, 0.0]]), sigma_half=0.2)
        prior = toy_prior(2, seed=9)
        spec = schedule.ScheduleSpec("vp")
        coeffs = schedule.evaluate(spec, 0.4)
        den = oracle.oracle_denoiser(prior, sys, spec)
        rng = np.random.default_rng(10)
        x0 = rng.multivariate_normal(prior.mean, prior.cov, size=200_000)
        xt = forward.forward_sample(sys, coeffs, x0, linop.draw_noise(sys, rng, x0.shape))
        avg = den(xt, 0.4).mean(axis=0)
        se = np.sqrt(np.diag(prior.cov) / len(x0))
        assert np.all(np.abs(avg - prior.mean) < 4 * se + 1e-3)

    def test_keeps_nothing_between_calls(self):
        rng = np.random.default_rng(12)
        sys = linop.build_dense_system(rng.standard_normal((32, 64)), sigma_half=0.3)
        spec = schedule.ScheduleSpec("vp")
        den = oracle.oracle_denoiser(toy_prior(64, seed=13), sys, spec)
        x = rng.standard_normal(64)
        den(x, spec.t_max)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for t in np.linspace(spec.t_min, spec.t_max, 201)[:-1]:
                den(x, t)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # one 64 x 64 gain per time would hold 6.5 MB
        assert held < 1_000_000, held

    def test_operator_calls_at_construction_only(self, counting):
        # P and N cost one A and two A+ applications, once per oracle
        sys, calls = counting(linop.build_dense_system(
            np.random.default_rng(14).standard_normal((2, 4)), sigma_half=0.3
        ))
        spec = schedule.ScheduleSpec("sb")
        den = oracle.oracle_denoiser(toy_prior(4, seed=15), sys, spec)
        assert calls == {"apply": 1, "apply_pinv": 2}
        for t in (spec.t_max, 0.5, spec.t_min):
            den(np.ones((3, 4)), t)
        assert calls == {"apply": 1, "apply_pinv": 2}


def _rank_two(seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((3, 2)) @ rng.standard_normal((2, 5))


class TestForwardLaw:
    @pytest.mark.parametrize("sys", [
        linop.build_dense_system(_rank_two(16)),
        linop.build_dense_system(_rank_two(17), sigma_half=0.4),
        linop.build_dense_system(_rank_two(18), sigma_half=np.random.default_rng(19).standard_normal((3, 3))),
        tasks.build_system(tasks.TaskSpec("superres", image_side=4, factor=2)),
    ], ids=["noiseless", "scalar_noise", "matrix_noise", "superres"])
    def test_analytic_marginal_matches_dense_transcription(self, sys):
        # H_t = A+ A + alpha (I - A+ A), Sigma_t = gamma A+ S S^T A+^T + beta (I - A+ A)
        a, a_pinv, s_half = linop.materialize(sys), linop.materialize_pinv(sys), linop.materialize_noise_half(sys)
        range_proj = a_pinv @ a
        null_proj = np.eye(sys.d) - range_proj
        x0 = np.random.default_rng(20).standard_normal((2, sys.d))
        for variant in schedule.VARIANTS:
            c = schedule.evaluate(schedule.ScheduleSpec(variant), 0.35)
            law = oracle.analytic_marginal(sys, c, x0)
            h = range_proj + c.alpha * null_proj
            sigma_t = c.gamma * a_pinv @ s_half @ s_half.T @ a_pinv.T + c.beta * null_proj
            np.testing.assert_allclose(law.mean, x0 @ h.T, rtol=0, atol=1e-12)
            np.testing.assert_allclose(law.cov, sigma_t, rtol=0, atol=1e-12)


class TestDenseScore:
    def test_zero_at_marginal_mean(self):
        sys = linop.build_dense_system(np.array([[1.0, 0.0]]), sigma_half=0.3)
        prior = toy_prior(2, seed=11)
        coeffs = schedule.evaluate(schedule.ScheduleSpec("vp"), 0.5)
        marg_mean = oracle.analytic_marginal(sys, coeffs, prior.mean).mean
        score = oracle.dense_score(prior, sys, coeffs, marg_mean)
        np.testing.assert_allclose(score, np.zeros(2), atol=1e-10)

    def test_isotropic_marginal(self):
        sys = linop.build_dense_system(np.zeros((1, 2)))
        prior = oracle.GaussianBelief(np.zeros(2), np.eye(2))
        # alpha 1, beta 1: marginal is N(0, 2 I) on the (full) null space
        coeffs = schedule.ScheduleCoeffs(
            t=0.5, alpha=1.0, beta=1.0, gamma=0.5,
            dalpha_dt=0.0, dbeta_dt=1.0, dgamma_dt=1.0,
            dlog_alpha_dt=0.0, gnull_sq=1.0, f_range=2.0, f_null=1.0,
        )
        x = np.array([0.6, -0.4])
        score = oracle.dense_score(prior, sys, coeffs, x)
        np.testing.assert_allclose(score, -x / 2.0, atol=1e-12)

    def test_one_dimensional_density_normalizes(self):
        sys = linop.build_dense_system(np.eye(1), sigma_half=0.8)
        prior = oracle.GaussianBelief(np.array([0.4]), np.array([[0.9]]))
        coeffs = schedule.evaluate(schedule.ScheduleSpec("vp"), 0.3)
        law = oracle.analytic_marginal(sys, coeffs, np.ones(1))  # mean H_t, cov Sigma_t
        h = float(law.mean[0])
        var = h ** 2 * 0.9 + float(law.cov[0, 0])
        mean = h * 0.4
        xs = np.linspace(mean - 10 * np.sqrt(var), mean + 10 * np.sqrt(var), 20_001)
        scores = np.array([oracle.dense_score(prior, sys, coeffs, np.array([x]))[0] for x in xs])
        log_density = np.concatenate([[0.0], np.cumsum(0.5 * (scores[1:] + scores[:-1]) * np.diff(xs))])
        density = np.exp(log_density - log_density.max())
        integral = np.trapezoid(density, xs)
        peak = np.sqrt(2 * np.pi * var)
        assert integral == pytest.approx(peak, rel=1e-6)

    def test_singular_marginal_restricts_score_to_its_range(self):
        # noiseless range and no prior mass along e0: the marginal is
        # singular there, and the pseudo-inverse gives no score along it
        sys = linop.build_dense_system(np.array([[1.0, 0.0]]))
        prior = oracle.GaussianBelief(np.zeros(2), np.diag([0.0, 1.0]))
        coeffs = schedule.evaluate(schedule.ScheduleSpec("vp"), 0.5)
        score = oracle.dense_score(prior, sys, coeffs, np.array([0.7, -0.4]))
        assert np.all(np.isfinite(score))
        assert score[0] == 0.0 and score[1] != 0.0
