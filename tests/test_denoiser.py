"""Network forwards, hand-rolled gradients, Adam, training loop."""

import numpy as np
import pytest

from sysbridge import denoiser as dn
from sysbridge import linop, schedule
from sysbridge.errors import DimensionError


class TestForward:
    def test_zero_net_outputs_zero(self):
        net = dn.init_net(4, hidden=(8,), seed=0)
        for w in net.weights:
            w[:] = 0.0
        out = dn.forward_denoise(net, np.ones(4), 0.5)
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_identity_linear_layer(self):
        # single linear layer wired as identity on the signal block
        net = dn.init_net(3, hidden=(), time_embed="append_scalar", seed=0)
        net.weights[0][:] = 0.0
        net.weights[0][:3, :3] = np.eye(3)
        x = np.array([0.2, -1.0, 2.5])
        np.testing.assert_allclose(dn.forward_denoise(net, x, 0.7), x)

    def test_deterministic_across_calls(self):
        net = dn.init_net(5, hidden=(16, 16), seed=3)
        x = np.random.default_rng(4).standard_normal(5)
        outs = {dn.forward_denoise(net, x, 0.3).tobytes() for _ in range(5)}
        assert len(outs) == 1

    def test_batched_matches_single(self):
        net = dn.init_net(3, hidden=(8,), seed=5)
        xs = np.random.default_rng(6).standard_normal((7, 3))
        batch = dn.forward_denoise(net, xs, 0.4)
        for i in range(7):
            np.testing.assert_allclose(batch[i], dn.forward_denoise(net, xs[i], 0.4))

    def test_shape_mismatch(self):
        net = dn.init_net(3, hidden=(8,), seed=0)
        with pytest.raises(DimensionError):
            dn.forward_denoise(net, np.zeros(4), 0.1)

    def test_silu_bytes_match_formula(self):
        # the in-place activation is the textbook formula, bit for bit
        z = np.random.default_rng(3).standard_normal((64, 48)) * 20.0
        z[0, :6] = [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300]
        with np.errstate(over="ignore"):
            expected = z * (1.0 / (1.0 + np.exp(-z)))
            assert dn._act("silu", z).tobytes() == expected.tobytes()


class TestLossAndGrad:
    def setup_method(self):
        self.sys = linop.identity_system(3)
        self.spec = schedule.ScheduleSpec("vp")
        self.coeffs = schedule.evaluate(self.spec, 0.5)

    def test_exact_prediction_zero_loss_zero_grad(self):
        net = dn.init_net(3, hidden=(), time_embed="append_scalar", seed=0)
        x0 = np.array([0.3, -0.4, 0.9])
        net.weights[0][:] = 0.0
        net.biases[0][:] = x0
        loss, grads = dn.loss_and_grad(net, self.sys, self.coeffs, x0, np.random.default_rng(0))
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads)

    def test_batch_loss_is_mean_of_singles(self):
        net = dn.init_net(3, hidden=(8,), seed=1)
        rng_batch = np.random.default_rng(2)
        xs = rng_batch.standard_normal((4, 3))
        # identity system, no noise: the drawn state is deterministic
        loss_batch, _ = dn.loss_and_grad(net, self.sys, self.coeffs, xs, np.random.default_rng(0))
        singles = [
            dn.loss_and_grad(net, self.sys, self.coeffs, x, np.random.default_rng(0))[0]
            for x in xs
        ]
        assert loss_batch == pytest.approx(np.mean(singles), abs=1e-12)

    @pytest.mark.parametrize("activation", ["relu", "tanh", "silu"])
    def test_gradient_vs_finite_differences(self, activation):
        d = 3
        sys = linop.build_dense_system(
            np.random.default_rng(7).standard_normal((2, d)), sigma_half=0.3
        )
        net = dn.init_net(d, hidden=(8, 6), activation=activation, seed=8)
        rng_pt = np.random.default_rng(9)
        h = 1e-5
        checked = 0
        attempts = 0
        while checked < 5 and attempts < 50:
            attempts += 1
            x0 = rng_pt.standard_normal(d)
            t = rng_pt.uniform(0.1, 0.9)
            coeffs = schedule.evaluate(schedule.ScheduleSpec("vp"), t)
            seed = int(rng_pt.integers(0, 2 ** 31))

            def loss_fn():
                return dn.loss_and_grad(net, sys, coeffs, x0, np.random.default_rng(seed))

            loss, grads = loss_fn()
            from sysbridge import forward as fwd

            state = fwd.forward_sample(sys, coeffs, np.atleast_2d(x0), np.random.default_rng(seed))
            resid = dn.forward_denoise(net, state.x, coeffs.t) - x0
            if np.min(np.abs(resid)) < 1e-3:
                continue
            if activation == "relu":
                # keep away from activation kinks as well
                _, _, pres = dn._forward_tape(net, dn._input_features(net, state.x, coeffs.t))
                if min(float(np.min(np.abs(p))) for p in pres[:-1]) < 1e-3:
                    continue
            checked += 1
            params = net.parameters()
            for p, g in zip(params, grads):
                it = np.nditer(p, flags=["multi_index"])
                while not it.finished:
                    idx = it.multi_index
                    orig = p[idx]
                    p[idx] = orig + h
                    lp, _ = loss_fn()
                    p[idx] = orig - h
                    lm, _ = loss_fn()
                    p[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    assert abs(g[idx] - fd) <= 1e-4 * max(abs(fd), 1e-2), (activation, idx)
                    it.iternext()
        assert checked == 5


class TestAdam:
    def test_zero_gradient_no_motion(self):
        params = [np.ones((2, 2)), np.zeros(3)]
        state = dn.adam_init(params)
        before = [p.copy() for p in params]
        dn.adam_step(params, [np.zeros((2, 2)), np.zeros(3)], state, 0.1, 0.9, 0.99)
        for p, b in zip(params, before):
            np.testing.assert_array_equal(p, b)

    def test_step_magnitude_bounded_by_lr(self):
        params = [np.zeros(4)]
        state = dn.adam_init(params)
        dn.adam_step(params, [np.array([1.0, -1.0, 5.0, -0.1])], state, 0.01, 0.9, 0.99)
        assert np.max(np.abs(params[0])) <= 0.01 * 1.001


class TestTrain:
    def test_memorization_smoke(self):
        sys = linop.identity_system(16)
        spec = schedule.ScheduleSpec("sb")
        data = np.tile(np.full(16, 0.6), (16, 1))
        net = dn.init_net(16, hidden=(), time_embed="append_scalar", seed=0)
        tcfg = dn.TrainConfig(
            lr=0.01, batch_size=1, n_epochs=200, seed=0,
            lr_milestones=tuple(range(40, 200, 12)),
        )
        net, losses = dn.train(net, sys, spec, data, tcfg)
        assert losses[-1] < 1e-3

    def test_loss_trend_non_increasing(self):
        sys = linop.identity_system(8)
        spec = schedule.ScheduleSpec("vp")
        data = np.tile(np.linspace(0, 1, 8), (8, 1))
        net = dn.init_net(8, hidden=(16,), seed=1)
        tcfg = dn.TrainConfig(lr=0.005, batch_size=4, n_epochs=60, seed=1, lr_milestones=())
        net, losses = dn.train(net, sys, spec, data, tcfg)
        windows = [np.mean(losses[i : i + 10]) for i in range(0, 60, 10)]
        assert all(b <= a * 1.05 for a, b in zip(windows, windows[1:]))
        assert windows[-1] < windows[0]

    def test_zero_lr_keeps_parameters(self):
        sys = linop.identity_system(4)
        spec = schedule.ScheduleSpec("vp")
        data = np.ones((4, 4))
        net = dn.init_net(4, hidden=(8,), seed=2)
        before = [p.copy() for p in net.parameters()]
        net, _ = dn.train(net, sys, spec, data, dn.TrainConfig(lr=0.0, batch_size=2, n_epochs=3, seed=0))
        for p, b in zip(net.parameters(), before):
            np.testing.assert_array_equal(p, b)

    def test_bitwise_deterministic(self):
        sys = linop.build_dense_system(np.array([[1.0, 0.0, 0.5]]))
        spec = schedule.ScheduleSpec("sb")
        data = np.random.default_rng(3).standard_normal((32, 3))
        curves = []
        for _ in range(2):
            net = dn.init_net(3, hidden=(8,), seed=4)
            _, losses = dn.train(
                net, sys, spec, data, dn.TrainConfig(lr=1e-3, batch_size=8, n_epochs=5, seed=7)
            )
            curves.append(np.asarray(losses).tobytes())
        assert curves[0] == curves[1]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            dn.train(
                dn.init_net(2, hidden=(), seed=0),
                linop.identity_system(2),
                schedule.ScheduleSpec("vp"),
                np.zeros((0, 2)),
                dn.TrainConfig(),
            )


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        net = dn.init_net(5, hidden=(12, 7), activation="tanh", time_freqs=4, seed=9)
        spec = schedule.ScheduleSpec("sb", b0=0.2, b1=0.4, eps2=1e-5)
        path = tmp_path / "net.ckpt"
        dn.save_checkpoint(path, net, spec, extra={"note": "roundtrip"})
        loaded, spec2, header = dn.load_checkpoint(path)
        assert spec2 == spec
        assert header["note"] == "roundtrip"
        assert loaded.layer_dims == net.layer_dims
        assert loaded.activation == "tanh"
        for a, b in zip(loaded.parameters(), net.parameters()):
            np.testing.assert_array_equal(a, b)
        x = np.random.default_rng(10).standard_normal(5)
        np.testing.assert_array_equal(
            dn.forward_denoise(loaded, x, 0.3), dn.forward_denoise(net, x, 0.3)
        )

    def test_schedule_hash_sensitivity(self):
        s1 = schedule.ScheduleSpec("sb", b0=0.1)
        s2 = schedule.ScheduleSpec("sb", b0=0.1000001)
        assert dn.schedule_hash(s1) != dn.schedule_hash(s2)
        assert dn.schedule_hash(s1) == dn.schedule_hash(schedule.ScheduleSpec("sb", b0=0.1))
