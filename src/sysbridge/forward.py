"""Forward corruption process.

Given a clean signal x0, the corrupted state at time t is Gaussian with
mean H_t x0 and covariance Sigma_t, where

    H_t     = A+ A + alpha_t (I - A+ A)
    Sigma_t = gamma_t A+ Sigma A+^T + beta_t (I - A+ A)

Production corruption always uses the one-shot `forward_sample` (exact and
O(1) in time).  The Euler-Maruyama simulator here exists to verify the
consistency between those closed-form marginals and the underlying SDE

    dx = dlog(alpha)/dt (I - A+ A) x dt + G_t dw,
    G_t G_t^T = dgamma/dt A+ Sigma A+^T + gnull_sq (I - A+ A),

and is never part of a production path.  Both rates of G_t are positive
(`ScheduleCoeffs`).  Both take and return arrays.  Only `oracle`
materializes H_t and Sigma_t, at test scale; no core routine inverts Sigma_t.

Both the one-shot draw and each simulator step are one range/null split,
`linop.with_range_noise`, costing one `apply` and one `apply_pinv`, and
both are plain maps of their state and their `linop.Noise` draws:

    forward_sample:  null part of alpha x0 + sqrt(beta) z, range part of x0,
                     range noise at sqrt(gamma)
    sde_step:        null part of x + dt L x + sqrt(dt) gnull z, range part
                     of x, range noise at sqrt(dt dgamma/dt),
                     L = dlog(alpha)/dt

`linop` states which draws a system takes and how they become range noise.
The tests keep the same SDE spelled out as separate operator actions and
check the fused step against it.
"""

from __future__ import annotations

import numpy as np

from . import linop
from .errors import DivergenceError
from .linop import LinearSystem
from .schedule import ScheduleCoeffs, ScheduleSpec, evaluate


def forward_sample(sys: LinearSystem, coeffs: ScheduleCoeffs, x0, noise: linop.Noise) -> np.ndarray:
    """One-shot draw of the corrupted state at coeffs.t from the draws
    ``noise`` (`linop.draw_noise` for x0's shape).  Leading axes of x0 are
    treated as a batch.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    v = noise.z * np.sqrt(coeffs.beta)
    v += coeffs.alpha * x0
    # the range part of x0, alpha times its null part, null noise, range noise
    return linop.with_range_noise(sys, v, x0, noise, np.sqrt(coeffs.gamma))


def sde_step(sys: LinearSystem, coeffs: ScheduleCoeffs, dt: float, x, noise: linop.Noise) -> np.ndarray:
    """One Euler-Maruyama step of the forward SDE from coeffs.t by dt, with
    the draws ``noise`` (`linop.draw_noise` for x's shape)."""
    root_dt = np.sqrt(dt)
    # x + dt L x + sqrt(dt) gnull z, then its range part reset to x's
    v = noise.z * (root_dt * np.sqrt(coeffs.gnull_sq))
    v += (1.0 + dt * coeffs.dlog_alpha_dt) * x
    return linop.with_range_noise(sys, v, x, noise, root_dt * np.sqrt(coeffs.dgamma_dt))


def simulate_forward_sde(
    sys: LinearSystem,
    spec: ScheduleSpec,
    x0,
    n_steps: int,
    rng,
    checkpoint_times=(),
):
    """Euler-Maruyama integration of the forward SDE over the clipped interval.

    The state is seeded at t = eps2 with the exact closed-form marginal
    (the SDE's marginal claims only hold on the clipped interval, so the
    start must carry the eps2 marginal).  Each update takes its draws from
    ``rng`` through `linop.draw_noise`.  Returns (final, {time: state}): the
    state at t = 1 - eps1, and the state at each of ``checkpoint_times``,
    recorded at the first grid point at or past the requested time.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    x0 = np.asarray(x0, dtype=np.float64)
    t0, t1 = spec.t_min, spec.t_max
    dt = (t1 - t0) / n_steps

    x = forward_sample(sys, evaluate(spec, t0), x0, linop.draw_noise(sys, rng, x0.shape))

    remaining = sorted(checkpoint_times)
    recorded = {}
    for k in range(n_steps):
        t = t0 + k * dt
        coeffs = evaluate(spec, t)
        x = sde_step(sys, coeffs, dt, x, linop.draw_noise(sys, rng, x.shape))
        if not np.all(np.isfinite(x)):
            raise DivergenceError(
                f"forward SDE diverged at step {k} (t={t:.6f})", step=k, t=t
            )
        t_next = t0 + (k + 1) * dt
        while remaining and t_next >= remaining[0] - 1e-12:
            recorded[remaining.pop(0)] = x.copy()
    return x, recorded
