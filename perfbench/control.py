"""Fixed control jobs: the yardstick the workload jobs are timed against.

The benchmark runs on a few cores of a shared host.  Other tenants slow
every core by up to a factor of two, for seconds to minutes at a time, so
the wall time of one job swings more from run to run than any bound a
benchmark may set.  run.py therefore times one control job right after
every workload job and reports their ratio: a swing of the host's speed
slows both alike and cancels, a change of the package moves the job alone.

Each control is plain numpy, written once here to do the kind of work its
workload's hot loop does at the same array shapes: the same network widths,
batch, step count, operator kind and random draws.  It calls nothing from
the package, so no change to the package moves it.  Only the ratio is
meaningful, not how close a control's time is to its workload's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIDE = 16
D = SIDE * SIDE
TIME_FEATURES = 16


def _silu(z):
    return z / (1.0 + np.exp(-z))


def _features(x, t):
    feats = np.sin(t * np.arange(1, TIME_FEATURES + 1))
    return np.concatenate([x, np.broadcast_to(feats, x.shape[:-1] + feats.shape)], axis=-1)


@dataclass(frozen=True)
class _Coeffs:
    alpha: float
    beta: float
    dlog_alpha: float
    log_snr: float


def _coeffs(t):
    """Scalar schedule arithmetic of about the cost of one schedule lookup."""
    beta = 0.25 * t * (1.0 - t) + 1e-4
    alpha = math.exp(-0.5 * t)
    return _Coeffs(alpha, beta, -0.5, math.log(alpha * alpha / beta))


@dataclass
class _State:
    x: np.ndarray
    t: float


def _checked(x, n):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != n:
        raise ValueError(f"expected last axis {n}, got shape {x.shape}")
    return x


class SamplingControl:
    """A reverse-sampling loop: rows chains over SIDE x SIDE images and a
    hidden-256 network.  With dense_rows, the operator is that many dense
    orthonormal rows with measurement noise, like the realified Fourier rows
    of the mri task; without, a noiseless 0/1 pixel mask, like inpainting,
    with the range re-pinned after every step.

    The loop is shaped like the package's: a state object per step, checked
    operator calls and a step function.  At batch 1 that per-call overhead
    is most of the time, and a control without it sped up and slowed down
    with the host by a few per cent less than the job did."""

    def __init__(self, rows: int, dense_rows: int = 0, steps: int = 100, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.w1 = rng.standard_normal((D + TIME_FEATURES, 256)) * 0.05
        self.b1 = np.zeros(256)
        self.w2 = rng.standard_normal((256, D)) * 0.05
        self.b2 = np.zeros(D)
        self.noisy = bool(dense_rows)
        if self.noisy:
            self.op = np.linalg.qr(rng.standard_normal((D, dense_rows)))[0].T
        else:
            self.op = (rng.random(D) < 0.5).astype(np.float64)
        self.m = self.op.shape[0] if self.noisy else D
        self.x0 = rng.standard_normal((rows, D))
        self.steps = steps
        self.seed = seed

    def _apply(self, x):
        x = _checked(x, D)
        return x @ self.op.T if self.noisy else x * self.op

    def _pinv(self, y):
        y = _checked(y, self.m)
        return y @ self.op if self.noisy else y * self.op

    def _range(self, x):
        return self._pinv(self._apply(x))

    def _step(self, state, den, c, dt, rng):
        x = np.asarray(state.x, dtype=np.float64)
        den = np.asarray(den, dtype=np.float64)
        x_range = self._range(x)
        d_range = self._range(den)
        drift = (1.0 - 2.0 * c.dlog_alpha) * (c.alpha * (den - d_range) - (x - x_range))
        if self.noisy:
            drift = drift + (d_range - x_range)
        drift = drift - c.dlog_alpha * (x - self._range(x))
        noise = np.zeros_like(x)
        if self.noisy:
            eps = rng.standard_normal(x.shape[:-1] + (self.m,))
            noise = noise + 0.03 * self._pinv(eps)
        eps_null = rng.standard_normal(x.shape)
        noise = noise + np.sqrt(max(c.beta, 0.0)) * (eps_null - self._range(eps_null))
        x_new = x + dt * drift + np.sqrt(dt) * noise
        if not np.all(np.isfinite(x_new)):
            raise FloatingPointError(f"control diverged at t={state.t:.6f}")
        return _State(x_new, state.t - dt)

    def __call__(self):
        rng = np.random.default_rng(self.seed)
        state = _State(self._range(self.x0), 1.0)
        locked = state.x.copy()
        dt = 1.0 / self.steps
        for k in range(self.steps):
            t = 1.0 - k * dt
            c = _coeffs(t)
            den = _silu(_features(_checked(state.x, D), t) @ self.w1 + self.b1) @ self.w2 + self.b2
            try:
                state = self._step(state, den, c, dt, rng)
            except FloatingPointError as exc:
                raise FloatingPointError(f"control failed at step {k}: {exc}") from exc
            if not self.noisy:
                state.x = locked + (state.x - self._range(state.x))
        return state.x


class TrainingControl:
    """A training loop: epochs over 160 two-dimensional points in batches of
    8, a corrupted batch drawn through a 1 x 2 dense operator, an
    18-128-128-2 SiLU network with L1 loss, backpropagation and an in-place
    Adam update per step."""

    SIZES = ((2 + TIME_FEATURES, 128), (128, 128), (128, 2))
    N, BATCH = 160, 8

    def __init__(self, steps: int = 200, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.weights = [rng.standard_normal(s) * 0.1 for s in self.SIZES]
        self.data = rng.standard_normal((self.N, 2))
        a = np.array([[1.0, 0.0]])
        self.proj = np.linalg.pinv(a) @ a
        self.steps = steps
        self.seed = seed

    def _loss_and_grads(self, params, x, t, target):
        acts, pres = [_features(x, t)], []
        for i in range(3):
            z = acts[-1] @ params[2 * i] + params[2 * i + 1]
            pres.append(z)
            acts.append(_silu(z) if i < 2 else z)
        resid = acts[-1] - target
        loss = float(np.mean(np.sum(np.abs(resid), axis=-1)))
        g = np.sign(resid) / x.shape[0]
        grads = [None] * 6
        for i in (2, 1, 0):
            if i < 2:
                s = 1.0 / (1.0 + np.exp(-pres[i]))
                g = g * (s * (1.0 + pres[i] * (1.0 - s)))
            grads[2 * i] = acts[i].T @ g
            grads[2 * i + 1] = g.sum(axis=0)
            if i:
                g = g @ params[2 * i].T
        return loss, grads

    def __call__(self):
        rng = np.random.default_rng(self.seed)
        params = []
        for w, (_, width) in zip(self.weights, self.SIZES):
            params += [w.copy(), np.zeros(width)]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        step = 0
        while step < self.steps:
            order = rng.permutation(self.N)
            for start in range(0, self.N, self.BATCH):
                if step == self.steps:
                    break
                x0 = self.data[order[start : start + self.BATCH]]
                t = rng.uniform(1e-3, 1.0 - 1e-3)
                c = _coeffs(t)
                in_range = x0 @ self.proj
                eps = rng.standard_normal((x0.shape[0], 1))
                eps_null = rng.standard_normal(x0.shape)
                x = (
                    in_range + c.alpha * (x0 - in_range) + 0.1 * eps @ self.proj[:1]
                    + math.sqrt(c.beta) * (eps_null - eps_null @ self.proj)
                )
                loss, grads = self._loss_and_grads(params, x, t, x0)
                if not math.isfinite(loss):
                    raise FloatingPointError("control diverged")
                step += 1
                c1, c2 = 1.0 - 0.9**step, 1.0 - 0.99**step
                for p, g, mi, vi in zip(params, grads, m, v):
                    mi *= 0.9
                    mi += 0.1 * g
                    vi *= 0.99
                    vi += 0.01 * g * g
                    p -= 1e-4 * (mi / c1) / (np.sqrt(vi / c2) + 1e-8)
        return params
