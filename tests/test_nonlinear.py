"""Local linearization of nonlinear operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sysbridge import linop, nonlinear


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class TestSigmoidContrast:
    def test_apply_matches_formula(self):
        nsys = nonlinear.sigmoid_contrast_system(4, k=4.0, a=0.5)
        x = np.array([0.0, 0.25, 0.5, 1.0])
        np.testing.assert_allclose(nsys.apply(x), sigmoid(4.0 * (x - 0.5)))

    def test_jvp_vjp_adjoint(self):
        nsys = nonlinear.sigmoid_contrast_system(6)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, v = rng.standard_normal((2, 6))
            u = rng.standard_normal(6)
            lhs = float(u @ nsys.jvp(x, v))
            rhs = float(nsys.vjp(x, u) @ v)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_first_order_accuracy(self, seed):
        nsys = nonlinear.sigmoid_contrast_system(5, k=3.0, a=0.4)
        rng = np.random.default_rng(seed)
        x, v = rng.standard_normal((2, 5))
        def remainder(eps):
            return np.linalg.norm(
                nsys.apply(x + eps * v) - nsys.apply(x) - eps * nsys.jvp(x, v)
            )
        r1, r2 = remainder(1e-3), remainder(5e-4)
        if r1 > 1e-12:
            assert r1 / max(r2, 1e-300) >= 3.5


class TestMleInit:
    def test_monotone_descent_on_linear_operator(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 6)) / 3.0
        nsys = nonlinear.affine_system(a)
        x_true = rng.standard_normal(6)
        y = nsys.apply(x_true)
        resids = []
        x = np.zeros(6)
        for _ in range(100):
            r = nsys.apply(x) - y
            resids.append(float(r @ r))
            x = x - 0.1 * 2.0 * nsys.vjp(x, r)
        assert all(b <= a_ + 1e-12 for a_, b in zip(resids, resids[1:]))

    def test_fixed_point_at_solution(self):
        nsys = nonlinear.sigmoid_contrast_system(4)
        # the measurement of the zero start: descent stays where it begins
        y = nsys.apply(np.zeros(4))
        out = nonlinear.mle_init(nsys, y)
        np.testing.assert_allclose(out, np.zeros(4), atol=1e-12)

    def test_contrast_residual_halves_from_zero_init(self):
        nsys = nonlinear.sigmoid_contrast_system(8, k=4.0, a=0.5)
        rng = np.random.default_rng(2)
        x_true = rng.uniform(0.2, 0.8, size=8)
        y = nsys.apply(x_true)
        x_hat = nonlinear.mle_init(nsys, y)
        r0 = float(np.sum((nsys.apply(np.zeros(8)) - y) ** 2))
        r1 = float(np.sum((nsys.apply(x_hat) - y) ** 2))
        assert r1 <= 0.5 * r0

    def test_never_worse_than_start(self):
        # step 0.5 on A = 3 I scales the residual by 1 - 2 * 0.5 * 9 = -8:
        # the iterates bounce away, the returned point must not
        nsys = nonlinear.affine_system(3 * np.eye(4))
        rng = np.random.default_rng(3)
        y = rng.uniform(0.1, 0.9, size=4)
        x_hat = nonlinear.mle_init(nsys, y)
        r0 = float(np.sum((nsys.apply(np.zeros(4)) - y) ** 2))
        r1 = float(np.sum((nsys.apply(x_hat) - y) ** 2))
        assert r1 <= r0 + 1e-12
        np.testing.assert_array_equal(x_hat, np.zeros(4))


class TestLinearize:
    def test_affine_exact(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        # A x + b: the offset leaves the Jacobian A
        nsys = nonlinear.NonlinearSystem(
            m=3, d=5, apply=lambda x: x @ a.T + b,
            jvp=lambda x, v: np.asarray(v) @ a.T, vjp=lambda x, u: np.asarray(u) @ a,
        )
        for x_hat in (np.zeros(5), rng.standard_normal(5)):
            sys = nonlinear.linearize(nsys, x_hat)
            np.testing.assert_array_equal(linop.materialize(sys), a)

    def test_sigmoid_jacobian_matches_finite_differences(self):
        nsys = nonlinear.sigmoid_contrast_system(8, k=4.0, a=0.5)
        rng = np.random.default_rng(5)
        x_hat = rng.uniform(0.2, 0.8, size=8)
        jac = nonlinear.jacobian_matrix(nsys, x_hat)
        h = 1e-6
        fd = np.zeros((8, 8))
        for j, e in enumerate(np.eye(8)):
            fd[:, j] = (nsys.apply(x_hat + h * e) - nsys.apply(x_hat - h * e)) / (2 * h)
        np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-10)

    def test_saturated_rows_truncated(self):
        nsys = nonlinear.sigmoid_contrast_system(4, k=12.0, a=0.5)
        x_hat = np.array([0.5, 0.5, 8.0, -8.0])  # last two deep in saturation
        sys = nonlinear.linearize(nsys, x_hat)
        recon = sys.apply_pinv(np.ones(4))
        assert abs(recon[2]) < 1e-9 and abs(recon[3]) < 1e-9
        assert abs(recon[0]) > 1e-3

    def test_measurement_passthrough_for_linear(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((2, 4))
        nsys = nonlinear.affine_system(a)
        y = rng.standard_normal(2)
        sys, y_lin, _ = nonlinear.localize(nsys, y)
        assert y_lin.tobytes() == y.tobytes()


def test_three_step_reduction_matches_direct_pipeline():
    # on an already-linear operator the reduced pipeline is bit-identical
    from sysbridge import sampler, schedule

    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 4))
    x_true = rng.standard_normal(4)
    y = a @ x_true

    direct_sys = linop.build_dense_system(a)
    nsys = nonlinear.affine_system(a)
    lin_sys, y_lin, _ = nonlinear.localize(nsys, y)

    spec = schedule.ScheduleSpec("sb")
    cfg = sampler.SamplerConfig(n_steps=40, spec=spec, seed=5)
    out_direct = sampler.sample(direct_sys, cfg, y, lambda x, t: x).final
    out_reduced = sampler.sample(lin_sys, cfg, y_lin, lambda x, t: x).final
    assert out_direct.tobytes() == out_reduced.tobytes()
