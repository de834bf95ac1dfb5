"""Partial isometries: kappa, and the single Gaussian draw per update.

On a system whose nonzero singular values are all equal, A+ A+^T = kappa A+ A.
With scalar noise s I the range noise A+ S e then has the law of
s sqrt(kappa) A+ A z, so a reverse step and a forward draw take it from the
range part of their one signal-space draw z.  These tests check kappa on
materialized operators and the noise law of each update exactly, by passing
the identity as the draw z and reading off the noise map.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sysbridge import forward, linop, oracle, sampler, schedule, tasks


def orthonormal_rows(rng, m, d, scale=1.0):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return scale * q[:m]


def kappa_residual(sys):
    a = linop.materialize(sys)
    a_pinv = linop.materialize_pinv(sys)
    return float(np.max(np.abs(a_pinv @ a_pinv.T - sys.kappa * (a_pinv @ a))))


PARTIAL_ISOMETRIES = {
    "mask_half": lambda: tasks.build_system(tasks.TaskSpec("inpainting", image_side=8, mask_fraction=0.5, seed=1)),
    "mask_none_removed": lambda: tasks.build_system(tasks.TaskSpec("inpainting", image_side=4, mask_fraction=0.0)),
    "mask_all_removed": lambda: tasks.build_system(tasks.TaskSpec("inpainting", image_side=4, mask_fraction=1.0)),
    "avgpool_8_2": lambda: tasks.build_system(tasks.TaskSpec("superres", image_side=8, factor=2)),
    "avgpool_12_3": lambda: tasks.build_system(tasks.TaskSpec("superres", image_side=12, factor=3)),
    "avgpool_16_4": lambda: tasks.build_system(tasks.TaskSpec("superres", image_side=16, factor=4)),
    "fourier_mask_4": lambda: tasks.build_system(tasks.TaskSpec("mri", image_side=4, seed=2)),
    "fourier_mask_8": lambda: tasks.build_system(tasks.TaskSpec("mri", image_side=8, seed=3)),
    "dense_one_row": lambda: linop.build_dense_system(np.array([[1.0, 0.0, 0.5]]), sigma_half=0.2),
    "dense_orthonormal_scaled": lambda: linop.build_dense_system(
        orthonormal_rows(np.random.default_rng(4), 3, 7, 0.37), sigma_half=0.3
    ),
    "dense_row_subset": lambda: linop.build_dense_system(np.eye(6)[[0, 2, 3, 5]]),
}

EXPECTED_KAPPA = {
    "mask_half": 1.0, "mask_none_removed": 1.0, "mask_all_removed": 1.0,
    "avgpool_8_2": 4.0, "avgpool_12_3": 9.0, "avgpool_16_4": 16.0,
    "fourier_mask_4": 1.0, "fourier_mask_8": 1.0,
    "dense_one_row": 1.0 / 1.25, "dense_orthonormal_scaled": 1.0 / 0.37 ** 2,
    "dense_row_subset": 1.0,
}


class TestKappa:
    @pytest.mark.parametrize("name", sorted(PARTIAL_ISOMETRIES))
    def test_pinv_gram_is_kappa_times_range_projector(self, name):
        sys = PARTIAL_ISOMETRIES[name]()
        assert sys.kappa == pytest.approx(EXPECTED_KAPPA[name], rel=1e-12)
        assert kappa_residual(sys) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_truncated_svd_has_none(self, seed):
        spec = tasks.TaskSpec("ct", image_side=4, tau=0.05 * seed, latent_dim=6, seed=seed)
        assert tasks.build_system(spec).kappa is None

    @pytest.mark.parametrize("m, d", [(2, 2), (2, 5), (3, 4), (5, 8)])
    def test_random_dense_has_none(self, m, d):
        a = np.random.default_rng(m * 10 + d).standard_normal((m, d))
        assert linop.build_dense_system(a, sigma_half=0.3).kappa is None

    def test_matrix_noise_has_none(self):
        a = orthonormal_rows(np.random.default_rng(5), 2, 4)
        sys = linop.build_dense_system(a, sigma_half=np.diag([0.3, 0.3]))
        assert sys.kappa is None and sys.range_noise_gain is None

    def test_zero_matrix_has_none(self):
        assert linop.build_dense_system(np.zeros((2, 3)), sigma_half=0.5).kappa is None

    def test_one_threshold_for_kappa_and_pinv(self):
        # 1e-14 is below CUTOFF: one mask drops it from A+ and from kappa alike
        sys = linop.build_dense_system(np.diag([0.5, 0.5, 1e-14]), sigma_half=0.3)
        assert sys.kappa == 4.0 and sys.range_noise_gain == pytest.approx(0.6, rel=1e-12)
        np.testing.assert_array_equal(linop.materialize_pinv(sys), np.diag([2.0, 2.0, 0.0]))

    def test_gain(self):
        sys = linop.build_dense_system(orthonormal_rows(np.random.default_rng(6), 2, 4, 0.5), sigma_half=0.5)
        assert sys.range_noise_gain == pytest.approx(0.5 * 2.0, rel=1e-12)
        noiseless = linop.build_dense_system(np.eye(3)[:2])
        assert noiseless.kappa == 1.0 and noiseless.range_noise_gain is None


def assert_gram(n, expected):
    """For the noise map N of an update, its output on zero input with z = I
    transposed: N N^T equals the expected covariance to 1e-12 of its scale."""
    scale = max(1.0, float(np.max(np.abs(expected))))
    np.testing.assert_allclose(n @ n.T, expected, rtol=0, atol=1e-12 * scale)


def diffusion_gram(sys, coeffs):
    """G G^T = dgamma/dt A+ Sigma A+^T + gnull_sq (I - A+ A), materialized."""
    a = linop.materialize(sys)
    a_pinv = linop.materialize_pinv(sys)
    s = linop.materialize_noise_half(sys)
    pinv_noise = a_pinv @ s
    null_proj = np.eye(sys.d) - a_pinv @ a
    return coeffs.dgamma_dt * pinv_noise @ pinv_noise.T + coeffs.gnull_sq * null_proj


@st.composite
def partial_isometries(draw):
    """Scaled orthonormal rows or a random coordinate mask, scalar noise."""
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    d = draw(st.integers(1, 7))
    m = draw(st.integers(1, d))
    if draw(st.booleans()):
        a = orthonormal_rows(rng, m, d, draw(st.floats(0.1, 3.0)))
    else:
        a = np.eye(d)[np.sort(rng.choice(d, size=m, replace=False))]
    sys = linop.build_dense_system(a, sigma_half=draw(st.floats(0.05, 2.0)))
    variant = draw(st.sampled_from(schedule.VARIANTS))
    spec = schedule.ScheduleSpec(variant)
    t = draw(st.floats(spec.t_min + 0.01, spec.t_max - 0.01))
    return sys, schedule.evaluate(spec, t), draw(st.floats(1e-4, 0.05))


class TestSingleDrawLaw:
    @settings(max_examples=60, deadline=None)
    @given(partial_isometries())
    def test_reverse_step_noise_covariance(self, case):
        sys, coeffs, dt = case
        assert sys.range_noise_gain is not None
        d = sys.d
        zeros = np.zeros((d, d))
        step = sampler.plan_step(coeffs, dt)
        n = sampler.reverse_step(sys, step, zeros, zeros, linop.Noise(np.eye(d))).T
        assert_gram(n, dt * diffusion_gram(sys, coeffs))

    @settings(max_examples=60, deadline=None)
    @given(partial_isometries())
    def test_forward_sample_noise_covariance(self, case):
        sys, coeffs, _ = case
        d = sys.d
        n = forward.forward_sample(sys, coeffs, np.zeros((d, d)), linop.Noise(np.eye(d))).T
        assert_gram(n, oracle.analytic_marginal(sys, coeffs, np.zeros(d)).cov)

    @settings(max_examples=30, deadline=None)
    @given(partial_isometries())
    def test_forward_sde_step_noise_covariance(self, case):
        sys, _, _ = case
        d = sys.d
        spec = schedule.ScheduleSpec("vp")
        dt = spec.t_max - spec.t_min
        coeffs = schedule.evaluate(spec, spec.t_min)
        n = forward.sde_step(sys, coeffs, dt, np.zeros((d, d)), linop.Noise(np.eye(d))).T
        gram = dt * diffusion_gram(sys, coeffs)
        assert_gram(n, gram)

    def test_noiseless_forward_draws_once(self):
        sys = tasks.build_system(tasks.TaskSpec("inpainting", image_side=3, mask_fraction=0.5))
        coeffs = schedule.evaluate(schedule.ScheduleSpec("sb"), 0.4)
        n = forward.forward_sample(sys, coeffs, np.zeros((9, 9)), linop.Noise(np.eye(9))).T
        assert_gram(n, oracle.analytic_marginal(sys, coeffs, np.zeros(9)).cov)

    def test_locked_range_left_unchanged(self):
        # a locked range on a noisy partial isometry is read, never written
        sys = linop.build_dense_system(np.eye(4)[:2], sigma_half=0.5)
        coeffs = schedule.evaluate(schedule.ScheduleSpec("sb"), 0.5)
        locked = np.array([1.0, 2.0, 0.0, 0.0])
        before = locked.copy()
        sampler.reverse_step(
            sys, sampler.plan_step(coeffs, 0.01), np.ones((3, 4)), np.zeros((3, 4)),
            linop.draw_noise(sys, np.random.default_rng(0), (3, 4)), locked,
        )
        assert locked.tobytes() == before.tobytes()


def partial_isometry_posterior_problem(seed=42):
    """Conjugate-Gaussian toy on a noisy partial isometry: d=4, m=2,
    orthonormal rows scaled by 0.5, noise 0.25 I."""
    rng = np.random.default_rng(seed)
    d, m = 4, 2
    a = orthonormal_rows(rng, m, d, 0.5)
    sys = linop.build_dense_system(a, sigma_half=0.5)
    mu0 = rng.standard_normal(d)
    c_half = rng.standard_normal((d, d)) / np.sqrt(d)
    prior = oracle.GaussianBelief(mu0, c_half @ c_half.T + 0.5 * np.eye(d))
    x_true = rng.multivariate_normal(mu0, prior.cov)
    y = a @ x_true + 0.5 * rng.standard_normal(m)
    return sys, prior, y


@pytest.mark.slow
def test_posterior_gate_single_draw_within_two_draw_spread():
    # The oracle denoiser on criterion 5's grid, chains and steps, five
    # sampler seeds, once with the single draw and once with the system's
    # kappa dropped, which restores the measurement-space draw of earlier
    # versions.  Pass: for each variant and moment, the single draw's mean
    # error over seeds is at most the two-draw mean error plus two of its
    # standard deviations.  Criterion 5's tolerances (0.02 mean, 0.05 cov)
    # are printed for reference: on this problem ve's mean error sits near
    # 0.02 on both sides, a discretization bias the draw does not touch.
    sys, prior, y = partial_isometry_posterior_problem()
    assert sys.range_noise_gain is not None
    two_draw = dataclasses.replace(sys, kappa=None)
    post = oracle.gaussian_posterior(prior, sys, y)
    rows, failures = [], []
    for variant, kw in (
        ("sb", {"eps2": 1e-6}),
        ("vp", {"eps2": 1e-6}),
        ("ve", {"sigma_max": 50.0, "eps2": 1e-8}),
    ):
        spec = schedule.ScheduleSpec(variant, **kw)
        den = oracle.oracle_denoiser(prior, sys, spec)
        errs = {"single": [], "two": []}
        for seed in range(5):
            cfg = sampler.SamplerConfig(n_steps=1000, spec=spec, seed=300 + seed, time_grid="stiffness")
            for side, s in (("single", sys), ("two", two_draw)):
                xs = sampler.sample(s, cfg, np.tile(y, (20_000, 1)), den).final
                mean_err = np.linalg.norm(xs.mean(axis=0) - post.mean) / np.linalg.norm(post.mean)
                cov_err = np.linalg.norm(np.cov(xs.T) - post.cov) / np.linalg.norm(post.cov)
                errs[side].append((mean_err, cov_err))
        for k, (what, tol) in enumerate((("mean", 0.02), ("cov", 0.05))):
            single = np.array([e[k] for e in errs["single"]])
            two = np.array([e[k] for e in errs["two"]])
            bound = two.mean() + 2.0 * two.std(ddof=1)
            row = (f"{variant} {what} (tol {tol}): single {np.round(single, 4).tolist()} "
                   f"mean {single.mean():.4f}; two {np.round(two, 4).tolist()} "
                   f"mean {two.mean():.4f} bound {bound:.4f}")
            rows.append(row)
            if single.mean() > bound:
                failures.append(row)
    print("\n".join(rows))
    assert not failures, failures
