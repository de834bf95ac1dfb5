"""Measurement-system algebra: pseudoinverse, projections, update draws."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sysbridge import linop, tasks
from sysbridge.errors import DimensionError, NumericalError


def random_system(seed, m=3, d=5, sigma=0.0):
    rng = np.random.default_rng(seed)
    return linop.build_dense_system(rng.standard_normal((m, d)), sigma_half=sigma)


def dense_pinv(a):
    return linop.materialize_pinv(linop.build_dense_system(a))


class TestPseudoinverse:
    def test_identity(self):
        np.testing.assert_allclose(dense_pinv(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal_mask_is_own_pseudoinverse(self):
        m = np.diag([1.0, 0.0, 1.0, 0.0])
        np.testing.assert_allclose(dense_pinv(m), m, atol=1e-12)

    def test_random_rect_penrose(self):
        a = np.random.default_rng(0).standard_normal((3, 5))
        res = linop.penrose_residuals(a, dense_pinv(a))
        assert max(res.values()) < 1e-9

    def test_zero_matrix(self):
        assert np.all(dense_pinv(np.zeros((2, 4))) == 0.0)

    def test_cutoff_drops_small_singular_values(self):
        # 1e-14 lies below CUTOFF = 1e-12 relative to the largest value
        p = dense_pinv(np.diag([1.0, 1e-14]))
        np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(DimensionError):
            linop.build_dense_system(np.array([[np.nan, 1.0]]))


class TestProjections:
    def test_identity_system_range_is_identity(self):
        sys = linop.build_dense_system(np.eye(4))
        x = np.arange(4.0)
        np.testing.assert_allclose(linop.project_range(sys, x), x)
        np.testing.assert_allclose(linop.project_null(sys, x), np.zeros(4))

    def test_mask_coordinate_split(self):
        sys = linop.build_dense_system(np.array([[1.0, 0.0]]))
        x = np.array([3.0, 7.0])
        np.testing.assert_allclose(linop.project_range(sys, x), [3.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(linop.project_null(sys, x), [0.0, 7.0], atol=1e-12)

    def test_decomposition_identity(self):
        sys = random_system(1)
        x = np.random.default_rng(2).standard_normal(sys.d)
        total = linop.project_range(sys, x) + linop.project_null(sys, x)
        np.testing.assert_allclose(total, x, atol=1e-12)

    def test_idempotence_and_annihilation(self):
        sys = random_system(3)
        x = np.random.default_rng(4).standard_normal(sys.d)
        pr = linop.project_range(sys, x)
        np.testing.assert_allclose(linop.project_range(sys, pr), pr, atol=1e-10)
        nl = linop.project_null(sys, x)
        np.testing.assert_allclose(linop.project_range(sys, nl), 0.0, atol=1e-10)
        # the null component is annihilated by the operator itself
        assert np.linalg.norm(sys.apply(nl)) <= 1e-9 * max(np.linalg.norm(x), 1.0)

    def test_dimension_mismatch(self):
        sys = random_system(5)
        with pytest.raises(DimensionError):
            linop.project_range(sys, np.zeros(sys.d + 1))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_projectors_linear_and_complementary(self, seed):
        sys = random_system(7)
        rng = np.random.default_rng(seed)
        x, z = rng.standard_normal((2, sys.d))
        lhs = linop.project_range(sys, 2.0 * x + z)
        rhs = 2.0 * linop.project_range(sys, x) + linop.project_range(sys, z)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)
        np.testing.assert_allclose(
            linop.project_range(sys, x) + linop.project_null(sys, x), x, atol=1e-9
        )


class TestReconstruction:
    def test_identity(self):
        sys = linop.build_dense_system(np.eye(3))
        y = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(sys.apply_pinv(y), y)

    def test_null_component_zero(self):
        sys = random_system(8, m=2, d=6)
        y = np.random.default_rng(9).standard_normal(2)
        recon = sys.apply_pinv(y)
        np.testing.assert_allclose(linop.project_null(sys, recon), 0.0, atol=1e-10)

    def test_least_squares_optimality(self):
        # the reconstruction residual is never beaten by null-space detours
        sys = random_system(10, m=3, d=6)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(6)
        y = sys.apply(x)
        recon = sys.apply_pinv(y)
        base = np.linalg.norm(sys.apply(recon) - y)
        for _ in range(20):
            cand = recon + linop.project_null(sys, rng.standard_normal(6))
            assert np.linalg.norm(sys.apply(cand) - y) >= base - 1e-9


class TestDegenerate:
    def test_zero_operator(self):
        sys = linop.build_dense_system(np.zeros((2, 3)))
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(linop.project_range(sys, x), 0.0)
        np.testing.assert_allclose(linop.project_null(sys, x), x)
        np.testing.assert_allclose(
            sys.apply_pinv(np.ones(2)), np.zeros(3)
        )


def test_svd_failure_reports_dimensions():
    bad = np.array([[1.0, np.inf]])
    with pytest.raises((DimensionError, NumericalError)):
        linop.build_dense_system(bad)


class TestNoiseFactor:
    def test_matrix_sigma_half_is_materialized(self):
        s = np.array([[0.5, 0.0], [0.2, 0.3]])
        sys = linop.build_dense_system(np.ones((2, 3)), sigma_half=s)
        np.testing.assert_array_equal(linop.materialize_noise_half(sys), s)

    def test_scalar_sigma_half_is_materialized(self):
        sys = linop.build_dense_system(np.eye(3), sigma_half=0.7)
        np.testing.assert_array_equal(linop.materialize_noise_half(sys), 0.7 * np.eye(3))

    def test_matrix_of_the_wrong_shape_refused(self):
        with pytest.raises(DimensionError):
            linop.build_dense_system(np.ones((2, 3)), sigma_half=np.eye(3))

    def test_replaced_noise_scale_is_kept(self):
        sys = random_system(0, sigma=0.4)

        def noise_scale(eps):
            return eps

        assert dataclasses.replace(sys, noise_scale=noise_scale).noise_scale is noise_scale
        assert dataclasses.replace(sys, kappa=None).noise_scale is sys.noise_scale

    def test_replaced_sigma_half_rebuilds_noise_scale(self):
        for old, new in ((0.1, 0.5), (np.diag([0.1, 0.2]), np.diag([0.5, 0.5]))):
            sys = linop.build_dense_system(np.eye(2), sigma_half=old)
            moved = dataclasses.replace(sys, sigma_half=new)
            expected = new * np.eye(2) if np.isscalar(new) else new
            np.testing.assert_array_equal(linop.materialize_noise_half(moved), expected)
            assert moved.range_noise_gain == (0.5 if np.isscalar(new) else None)

    def test_wrapped_noise_scale_is_kept(self):
        # a wrapper that copies the closure's record (functools.wraps) is kept
        sys = linop.build_dense_system(np.eye(2), sigma_half=0.3)

        @functools.wraps(sys.noise_scale)
        def wrapped(eps):
            return sys.noise_scale(eps)

        assert dataclasses.replace(sys, noise_scale=wrapped).noise_scale is wrapped


# system kind -> (system, whether its updates draw eps in measurement space)
DRAW_KINDS = {
    "mask_noiseless": (lambda: tasks.build_system(tasks.TaskSpec("inpainting", image_side=4, seed=1)), False),
    "superres_noiseless": (lambda: tasks.build_system(tasks.TaskSpec("superres", image_side=4, factor=2)), False),
    "mri_partial_isometry": (lambda: tasks.build_system(tasks.TaskSpec("mri", image_side=4, sigma2_sq=0.5, seed=2)), False),
    "dense_one_row": (lambda: linop.build_dense_system(np.array([[1.0, 0.0, 0.5]]), sigma_half=0.2), False),
    "ct_truncated_svd": (lambda: tasks.build_system(tasks.TaskSpec("ct", image_side=4, latent_dim=6, seed=3)), True),
    "dense_scalar_noise": (lambda: random_system(4, sigma=0.3), True),
    "dense_matrix_noise": (lambda: random_system(5, sigma=np.diag([0.1, 0.2, 0.3])), True),
}


class TestDrawNoise:
    @pytest.mark.parametrize("batch", [(3,), ()])
    @pytest.mark.parametrize("kind", sorted(DRAW_KINDS))
    def test_draw_order(self, kind, batch):
        # eps first, and only on noisy systems without a range-noise gain;
        # then z; nothing else is taken from the generator
        build, takes_eps = DRAW_KINDS[kind]
        sys = build()
        rng = np.random.default_rng(17)
        noise = linop.draw_noise(sys, rng, batch + (sys.d,))
        replay = np.random.default_rng(17)
        if takes_eps:
            assert noise.eps.tobytes() == replay.standard_normal(batch + (sys.m,)).tobytes()
        else:
            assert noise.eps is None
        assert noise.z.tobytes() == replay.standard_normal(batch + (sys.d,)).tobytes()
        assert rng.standard_normal() == replay.standard_normal()
