"""Network forwards, hand-rolled gradients, Adam, training loop."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sysbridge import denoiser as dn
from sysbridge import forward, linop, sampler, schedule
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
        net = dn.init_net(3, hidden=(), seed=0)
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

    @pytest.mark.parametrize("name", dn.ACTIVATIONS)
    def test_bytes_match_textbook_forward(self, name):
        # inference writes each activation over its layer's z; the input stays
        net = dn.init_net(5, hidden=(16, 12), activation=name, seed=2)
        x = np.random.default_rng(3).standard_normal((6, 5))
        kept = x.copy()
        a = dn._input_features(x, dn.time_features(0.3))
        for l, (w, b) in enumerate(zip(net.weights, net.biases)):
            a = a @ w + b if l == len(net.weights) - 1 else _ref_act(name, a @ w + b)
        assert dn.forward_denoise(net, x, 0.3).tobytes() == a.tobytes()
        assert x.tobytes() == kept.tobytes()

    def test_shape_mismatch(self):
        net = dn.init_net(3, hidden=(8,), seed=0)
        with pytest.raises(DimensionError):
            dn.forward_denoise(net, np.zeros(4), 0.1)

    @pytest.mark.parametrize("name", dn.ACTIVATIONS)
    def test_activation_and_derivative_bytes_match_formula(self, name):
        # the in-place activation, for inference and for training, and the
        # derivative from what training saved are the textbook formulas
        z = np.random.default_rng(3).standard_normal((64, 48)) * 20.0
        z[0, :6] = [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300]
        with np.errstate(over="ignore"):
            act, grad = _ref_act(name, z), _ref_act_grad(name, z)
            inferred, nothing = dn._act(name, z.copy())
            trained, saved = dn._act(name, z.copy(), keep=True)
            assert inferred.tobytes() == act.tobytes() and nothing is None
            assert trained.tobytes() == act.tobytes()
            assert dn._act_grad(name, trained, saved).tobytes() == grad.tobytes()


def _textbook_time_features(t):
    j = np.arange(dn.TIME_FREQS, dtype=np.float64)
    return np.concatenate([np.sin(2.0 * np.pi * (2.0 ** j) * t), np.cos(2.0 * np.pi * (2.0 ** j) * t)])


class TestTimeFeatures:
    @settings(max_examples=300, deadline=None)
    @given(t=st.floats(0.0, 1.0))
    def test_bytes_match_formula(self, t):
        assert dn.time_features(t).tobytes() == _textbook_time_features(t).tobytes()

    @pytest.mark.parametrize("mode", ["uniform", "stiffness"])
    @pytest.mark.parametrize("variant", schedule.VARIANTS)
    def test_grid_points_match_formula(self, variant, mode):
        for t in sampler.time_grid(schedule.ScheduleSpec(variant), 100, mode):
            assert dn.time_features(t).tobytes() == _textbook_time_features(t).tobytes(), t


class TestLossAndGrad:
    def setup_method(self):
        self.sys = linop.build_dense_system(np.eye(3))
        self.spec = schedule.ScheduleSpec("vp")
        self.coeffs = schedule.evaluate(self.spec, 0.5)

    def test_exact_prediction_zero_loss_zero_grad(self):
        net = dn.init_net(3, hidden=(), seed=0)
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
            x0_2d = np.atleast_2d(x0)
            noise = linop.draw_noise(sys, np.random.default_rng(seed), x0_2d.shape)
            x_t = forward.forward_sample(sys, coeffs, x0_2d, noise)
            resid = dn.forward_denoise(net, x_t, coeffs.t) - x0
            if np.min(np.abs(resid)) < 1e-3:
                continue
            if activation == "relu":
                # keep away from activation kinks as well
                if min(float(np.min(np.abs(z))) for z in _hidden_pre_activations(net, x_t, coeffs.t)) < 1e-3:
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


def _hidden_pre_activations(net, x, t):
    """Each hidden layer's z, by the textbook forward pass."""
    a = dn._input_features(x, dn.time_features(t))
    pres = []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        pres.append(a @ w + b)
        a = _ref_act(net.activation, pres[-1])
    return pres


_aligned_zeros = dn._aligned_zeros


def _offset_zeros(shift):
    """`dn._aligned_zeros`, but each array starts ``shift`` * 8 bytes past a
    64-byte boundary."""
    def zeros(shape):
        size = int(np.prod(shape))
        return _aligned_zeros(size + 8)[shift : shift + size].reshape(shape)
    return zeros


class TestFlatLayout:
    def test_parameters_are_consecutive_views_of_one_vector(self):
        net = dn.init_net(5, hidden=(12, 7), seed=9)
        offset = 0
        for p in net.parameters():
            assert np.shares_memory(p, net.flat)
            assert p.ctypes.data == net.flat.ctypes.data + 8 * offset
            offset += p.size
        assert offset == net.flat.size
        assert [p.shape for p in net.parameters()] == [
            (21, 12), (12,), (12, 7), (7,), (7, 5), (5,)
        ]

    def test_parameter_vector_starts_on_64_bytes(self, tmp_path):
        net = dn.init_net(5, hidden=(12, 7), seed=9)
        path = tmp_path / "net.ckpt"
        dn.save_checkpoint(path, net, schedule.ScheduleSpec())
        for n in (net, dn.load_checkpoint(path)[0], dn.DenoiserNet([19, 3, 3])):
            assert n.flat.ctypes.data % 64 == 0

    def test_forward_bytes_independent_of_weight_alignment(self, monkeypatch):
        x = np.random.default_rng(4).standard_normal((5, 16))
        outputs = []
        for shift in (0, 1, 2, 3):
            monkeypatch.setattr(dn, "_aligned_zeros", _offset_zeros(shift))
            net = dn.init_net(16, hidden=(32,), seed=3)
            assert net.flat.ctypes.data % 64 == 8 * shift
            outputs.append(dn.forward_denoise(net, x, 0.3).tobytes())
        assert all(out == outputs[0] for out in outputs)

    def test_train_buffers_start_on_64_bytes(self, monkeypatch):
        seen = []
        real = dn.adam_step

        def spy(p, g, state, *args):
            seen.extend([p, g, state.m, state.v, state.scratch])
            return real(p, g, state, *args)

        monkeypatch.setattr(dn, "adam_step", spy)
        net = dn.init_net(3, hidden=(5,), seed=0)
        tcfg = dn.TrainConfig(lr=1e-3, batch_size=4, n_epochs=1, seed=0)
        dn.train(net, linop.build_dense_system(np.eye(3)), schedule.ScheduleSpec("sb"), np.ones((4, 3)), tcfg)
        assert len(seen) == 5 and seen[0] is net.flat
        for buf in seen:
            assert buf.ctypes.data % 64 == 0 and buf.shape == net.flat.shape
        state = dn.adam_init(np.ones((3, 2)))
        for buf in (state.m, state.v, state.scratch):
            assert buf.ctypes.data % 64 == 0 and buf.shape == (3, 2)

    def test_train_bytes_independent_of_buffer_offset(self, monkeypatch):
        sys = linop.build_dense_system(np.array([[1.0, 0.0, 0.5]]), sigma_half=0.2)
        spec = schedule.ScheduleSpec("sb", b0=0.25, b1=0.25)
        data = np.random.default_rng(5).standard_normal((21, 3))
        tcfg = dn.TrainConfig(lr=3e-3, batch_size=8, n_epochs=3, seed=6)
        results = []
        for shift in (0, 1, 2, 3):
            # shifts the weights, gradient, moments and scratch alike
            monkeypatch.setattr(dn, "_aligned_zeros", _offset_zeros(shift))
            net = dn.init_net(3, hidden=(16, 12), seed=7)
            assert net.flat.ctypes.data % 64 == 8 * shift
            _, losses = dn.train(net, sys, spec, data, tcfg)
            results.append((np.asarray(losses).tobytes(), net.flat.tobytes()))
        assert all(r == results[0] for r in results)

    def test_writes_through_views_reach_the_vector(self):
        net = dn.init_net(3, hidden=(4,), seed=0)
        net.weights[1][:] = 7.0
        assert np.count_nonzero(net.flat == 7.0) == 4 * 3

    def test_input_width_must_fit_signal_and_time_features(self):
        # 4 = 3 + 1 and 11 = 3 + 2 * 4: the widths of other time embeddings
        for dims in ([4, 3], [11, 8, 3]):
            with pytest.raises(DimensionError, match="16 time features"):
                dn.DenoiserNet(dims)
        assert dn.DenoiserNet([19, 3]).signal_dim == 3

    def test_loss_and_grad_results_survive_a_second_call(self):
        sys = linop.build_dense_system(np.array([[1.0, 0.0, 0.5]]), sigma_half=0.2)
        coeffs = schedule.evaluate(schedule.ScheduleSpec("vp"), 0.4)
        net = dn.init_net(3, hidden=(8,), seed=1)
        x0 = np.random.default_rng(2).standard_normal((4, 3))
        _, first = dn.loss_and_grad(net, sys, coeffs, x0, np.random.default_rng(3))
        kept = [g.copy() for g in first]
        _, second = dn.loss_and_grad(net, sys, coeffs, -x0, np.random.default_rng(4))
        for g, k, g2 in zip(first, kept, second):
            assert g.tobytes() == k.tobytes()
            assert not np.shares_memory(g, g2)


# -- the list form of the training step, kept as the reference that the flat
# layout must reproduce bit for bit: one temporary per op, one gradient array
# and one Adam update per parameter array

def _ref_act(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    return z * (1.0 / (1.0 + np.exp(-z)))


def _ref_act_grad(name, z):
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    if name == "tanh":
        th = np.tanh(z)
        return 1.0 - th * th
    s = 1.0 / (1.0 + np.exp(-z))
    return s * (1.0 + z * (1.0 - s))


def _ref_l1_loss_and_grad(net, weights, biases, x, t, target):
    feats = dn.time_features(float(t))
    a = np.concatenate([x, np.broadcast_to(feats, x.shape[:-1] + feats.shape)], axis=-1)
    acts, pres = [a], []
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w + b
        pres.append(z)
        a = z if l == last else _ref_act(net.activation, z)
        acts.append(a)
    resid = a - target
    loss = float(np.mean(np.sum(np.abs(resid), axis=-1)))
    delta = np.sign(resid) / x.shape[0]
    grads_w, grads_b = [None] * len(weights), [None] * len(weights)
    for l in range(last, -1, -1):
        if l != last:
            delta = delta * _ref_act_grad(net.activation, pres[l])
        grads_w[l] = acts[l].T @ delta
        grads_b[l] = delta.sum(axis=0)
        if l:
            delta = delta @ weights[l].T
    return loss, [g for pair in zip(grads_w, grads_b) for g in pair]


def _ref_train(net, sys, spec, data, tcfg, eps=1e-8):
    params = [p.copy() for p in net.parameters()]
    weights, biases = params[0::2], params[1::2]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    rng = np.random.default_rng(tcfg.seed)
    beta1, beta2, lr, step = tcfg.adam_beta1, tcfg.adam_beta2, tcfg.lr, 0
    losses = []
    for epoch in range(tcfg.n_epochs):
        if epoch in set(tcfg.lr_milestones):
            lr *= 0.5
        order = rng.permutation(data.shape[0])
        total, n = 0.0, 0
        for start in range(0, data.shape[0], tcfg.batch_size):
            batch = data[order[start : start + tcfg.batch_size]]
            coeffs = schedule.evaluate(spec, rng.uniform(spec.t_min, spec.t_max))
            x_t = forward.forward_sample(sys, coeffs, batch, linop.draw_noise(sys, rng, batch.shape))
            loss, grads = _ref_l1_loss_and_grad(net, weights, biases, x_t, coeffs.t, batch)
            step += 1
            c1 = 1.0 - beta1 ** step
            c2 = 1.0 - beta2 ** step
            for p, g, mi, vi in zip(params, grads, m, v):
                mi *= beta1
                mi += (1.0 - beta1) * g
                vi *= beta2
                vi += (1.0 - beta2) * g * g
                p -= lr * (mi / c1) / (np.sqrt(vi / c2) + eps)
            total += loss
            n += 1
        losses.append(total / n)
    return losses, params


class TestTrainBytes:
    @pytest.mark.parametrize("activation", ["relu", "tanh", "silu"])
    @pytest.mark.parametrize("hidden", [(16, 12), ()])
    def test_flat_training_matches_list_reference(self, activation, hidden):
        sys = linop.build_dense_system(np.array([[1.0, 0.0, 0.5]]), sigma_half=0.2)
        spec = schedule.ScheduleSpec("sb", b0=0.25, b1=0.25)
        # 37 rows: the last batch of each epoch is short
        data = np.random.default_rng(5).standard_normal((37, 3))
        tcfg = dn.TrainConfig(lr=3e-3, batch_size=8, n_epochs=6, seed=6, lr_milestones=(2, 4))
        net = dn.init_net(3, hidden=hidden, activation=activation, seed=7)
        before = net.flat.copy()
        ref_losses, ref_params = _ref_train(net, sys, spec, data, tcfg)
        _, losses = dn.train(net, sys, spec, data, tcfg)
        assert np.asarray(losses).tobytes() == np.asarray(ref_losses).tobytes()
        for p, ref in zip(net.parameters(), ref_params):
            assert p.tobytes() == ref.tobytes()
        assert not np.array_equal(net.flat, before)


class TestAdam:
    def test_zero_gradient_no_motion(self):
        p = np.r_[np.ones(4), np.zeros(3)]
        state = dn.adam_init(p)
        before = p.copy()
        dn.adam_step(p, np.zeros(7), state, 0.1, 0.9, 0.99)
        np.testing.assert_array_equal(p, before)
        assert state.step == 1

    def test_step_magnitude_bounded_by_lr(self):
        p = np.zeros(4)
        state = dn.adam_init(p)
        dn.adam_step(p, np.array([1.0, -1.0, 5.0, -0.1]), state, 0.01, 0.9, 0.99)
        assert np.max(np.abs(p)) <= 0.01 * 1.001

    def test_textbook_update_bytes(self):
        # two steps against the textbook formulas with one temporary per op
        rng = np.random.default_rng(12)
        p = rng.standard_normal(6)
        ref_p, ref_m, ref_v = p.copy(), np.zeros(6), np.zeros(6)
        state = dn.adam_init(p)
        for k in (1, 2):
            g = rng.standard_normal(6)
            ref_m = 0.9 * ref_m + (1 - 0.9) * g
            ref_v = 0.99 * ref_v + ((1 - 0.99) * g) * g
            ref_p = ref_p - 0.01 * (ref_m / (1 - 0.9 ** k)) / (np.sqrt(ref_v / (1 - 0.99 ** k)) + 1e-8)
            dn.adam_step(p, g, state, 0.01, 0.9, 0.99)
        assert p.tobytes() == ref_p.tobytes()
        assert state.m.tobytes() == ref_m.tobytes() and state.v.tobytes() == ref_v.tobytes()


class TestTrain:
    def test_memorization_smoke(self):
        sys = linop.build_dense_system(np.eye(16))
        spec = schedule.ScheduleSpec("sb")
        data = np.tile(np.full(16, 0.6), (16, 1))
        net = dn.init_net(16, hidden=(), seed=0)
        tcfg = dn.TrainConfig(
            lr=0.01, batch_size=1, n_epochs=200, seed=0,
            lr_milestones=tuple(range(40, 200, 12)),
        )
        net, losses = dn.train(net, sys, spec, data, tcfg)
        assert losses[-1] < 1e-3

    def test_loss_trend_non_increasing(self):
        sys = linop.build_dense_system(np.eye(8))
        spec = schedule.ScheduleSpec("vp")
        data = np.tile(np.linspace(0, 1, 8), (8, 1))
        net = dn.init_net(8, hidden=(16,), seed=1)
        tcfg = dn.TrainConfig(lr=0.005, batch_size=4, n_epochs=60, seed=1, lr_milestones=())
        net, losses = dn.train(net, sys, spec, data, tcfg)
        windows = [np.mean(losses[i : i + 10]) for i in range(0, 60, 10)]
        assert all(b <= a * 1.05 for a, b in zip(windows, windows[1:]))
        assert windows[-1] < windows[0]

    def test_zero_lr_keeps_parameters(self):
        sys = linop.build_dense_system(np.eye(4))
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
                linop.build_dense_system(np.eye(2)),
                schedule.ScheduleSpec("vp"),
                np.zeros((0, 2)),
                dn.TrainConfig(),
            )


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        net = dn.init_net(5, hidden=(12, 7), activation="tanh", seed=9)
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
            assert np.shares_memory(a, loaded.flat)
        x = np.random.default_rng(10).standard_normal(5)
        np.testing.assert_array_equal(
            dn.forward_denoise(loaded, x, 0.3), dn.forward_denoise(net, x, 0.3)
        )

    def test_layer_dims_disagreeing_with_tensors_rejected(self, tmp_path):
        net = dn.init_net(3, hidden=(8,), seed=0)
        path = tmp_path / "net.ckpt"
        dn.save_checkpoint(path, net, schedule.ScheduleSpec("sb"))
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"layer_dims=19,8,3", b"layer_dims=19,9,3"))
        with pytest.raises(DimensionError, match="shape"):
            dn.load_checkpoint(path)

    @pytest.mark.parametrize("spec, digest", [
        (schedule.ScheduleSpec("sb"),
         "c6d8b1a5646eeced31fe9dd82f4335dcc8e963c70e3ac3ac6ab9fe6b1cbafec9"),
        (schedule.ScheduleSpec("vp", eps2=1e-6),
         "1a5644fa75f90f83a461f293c06c84c51e17c1c44c2ef2afaa0ad8f646cd5539"),
        (schedule.ScheduleSpec("ve", sigma_max=50),
         "46a9da953f644f47e53908bd5b826bcda3dff4bc29f64ee67ee1892c386d7f07"),
        (schedule.ScheduleSpec("sb", b0=1),
         "99d564f7fe1c5d88d8b1e3187517572bedb00ebbfa57208b794f4a3153a30347"),
    ])
    def test_schedule_hash_pinned(self, spec, digest):
        # existing checkpoints carry these digests; sample refuses any other
        assert dn.schedule_hash(spec) == digest

    def test_preamble_reproduces_schedule_hash(self, tmp_path):
        net = dn.init_net(3, hidden=(4,), seed=0)
        for spec in (schedule.ScheduleSpec("vp", eps2=1e-6), schedule.ScheduleSpec("ve", sigma_max=50.0)):
            path = tmp_path / "net.ckpt"
            dn.save_checkpoint(path, net, spec)
            _, loaded, header = dn.load_checkpoint(path)
            assert loaded == spec
            assert header["schedule_hash"] == dn.schedule_hash(loaded)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_arbitrary_preamble_gives_a_net_or_a_refusal(self, tmp_path, data):
        # a preamble of lines that are valid, valid keys with arbitrary
        # values, or arbitrary text, ahead of a valid net's tensor records:
        # load_checkpoint returns a net or raises what the command line
        # turns into exit 2
        net = dn.init_net(2, hidden=(3,), seed=0)
        path = tmp_path / "net.ckpt"
        dn.save_checkpoint(path, net, schedule.ScheduleSpec("sb"))
        preamble, _, records = path.read_bytes().partition(b"---\n")
        valid = preamble.decode("utf-8").splitlines()
        keys = [line.partition("=")[0] for line in valid]
        line = st.one_of(
            st.sampled_from(valid),
            st.builds("{}={}".format, st.sampled_from(keys), st.text(max_size=30)),
            st.text(max_size=40),
        )
        lines = data.draw(st.lists(line, max_size=len(valid) + 3))
        text = "\n".join(lines) + ("\n" if lines else "")
        path.write_bytes(text.encode("utf-8") + b"---\n" + records)
        try:
            loaded, _, _ = dn.load_checkpoint(path)
        except (ValueError, OSError):
            return
        assert isinstance(loaded, dn.DenoiserNet)

    def test_schedule_hash_sensitivity(self):
        s1 = schedule.ScheduleSpec("sb", b0=0.1)
        s2 = schedule.ScheduleSpec("sb", b0=0.1000001)
        assert dn.schedule_hash(s1) != dn.schedule_hash(s2)
        assert dn.schedule_hash(s1) == dn.schedule_hash(schedule.ScheduleSpec("sb", b0=0.1))
