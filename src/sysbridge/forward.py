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

and is never part of a production path.  Both take and return arrays.  H_t
and Sigma_t are materialized only by `oracle.analytic_marginal` and its
helpers, for test-scale oracles; no core routine inverts Sigma_t.

Both the one-shot draw and each simulator step are one range/null split,
`linop.with_range`, costing one `apply` and one `apply_pinv`:

    forward_sample:  with_range(alpha x0 + sqrt(beta) eps', x0, sqrt(gamma) S eps)
    SDE step:        with_range(x + dt L x + sqrt(dt) gnull eps', x,
                                sqrt(dt dgamma/dt) S eps),   L = dlog(alpha)/dt

On a partial isometry with scalar noise s I (`LinearSystem.range_noise_gain`
is set) the measurement-space draw eps is not taken: the range noise is the
range part of the same eps', which is independent of its null part and has
the same law (see `linop`).  The range argument then carries it:

    forward_sample:  with_range(alpha x0 + sqrt(beta) eps',
                                x0 + sqrt(gamma) s sqrt(kappa) eps')
    SDE step:        with_range(x + dt L x + sqrt(dt) gnull eps',
                                x + sqrt(dt dgamma/dt) s sqrt(kappa) eps')

A noiseless system draws eps' only.

The tests keep the same SDE spelled out as separate operator actions and
check the fused step against it.
"""

from __future__ import annotations

import numpy as np

from . import linop
from .errors import DivergenceError, NumericalError
from .linop import LinearSystem
from .schedule import ScheduleCoeffs, ScheduleSpec, evaluate


def forward_sample(sys: LinearSystem, coeffs: ScheduleCoeffs, x0, rng) -> np.ndarray:
    """One-shot draw of the corrupted state at coeffs.t.

    Noise order is fixed for reproducibility: the measurement-space draw
    eps (range noise) comes first, then the signal-space draw eps' (null
    noise).  Noiseless systems and partial isometries with scalar noise
    take eps' only; the latter draw their range noise from it (module
    docstring).  `linop.update_noise` makes the draws.  Leading axes of x0
    are treated as a batch.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    v, range_add, range_noise = linop.update_noise(sys, rng, x0.shape, np.sqrt(coeffs.gamma))
    r = x0 if range_add is None else np.add(range_add, x0, out=range_add)
    v *= np.sqrt(coeffs.beta)
    v += coeffs.alpha * x0
    # the range part of x0, alpha times its null part, null noise, range noise
    return linop.with_range(sys, v, r, range_noise)


def _diffusion_roots(coeffs: ScheduleCoeffs):
    """(sqrt(gnull_sq), sqrt(dgamma/dt)), refusing negative rates."""
    if coeffs.gnull_sq < -1e-12:
        raise NumericalError(
            f"negative null diffusion rate {coeffs.gnull_sq:.3e} at t={coeffs.t}"
        )
    dgamma = coeffs.dgamma_dt
    if dgamma < 0:
        raise NumericalError(f"negative range diffusion rate {dgamma:.3e} at t={coeffs.t}")
    return np.sqrt(max(coeffs.gnull_sq, 0.0)), np.sqrt(dgamma)


def simulate_forward_sde(
    sys: LinearSystem,
    spec: ScheduleSpec,
    x0,
    n_steps: int,
    rng,
    exact_start: bool = True,
    checkpoint_times=None,
):
    """Euler-Maruyama integration of the forward SDE over the clipped interval.

    The state is seeded at t = eps2 with the exact closed-form marginal
    (the SDE's marginal claims only hold on the clipped interval, so the
    start must carry the eps2 marginal); pass ``exact_start=False`` to
    start from x0 itself.  Returns the state at t = 1 - eps1, or with
    ``checkpoint_times`` given (final, {time: state}) where each recorded
    time is the first grid point at or past the requested one.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    x0 = np.asarray(x0, dtype=np.float64)
    t0, t1 = spec.t_min, spec.t_max
    dt = (t1 - t0) / n_steps

    x = forward_sample(sys, evaluate(spec, t0), x0, rng) if exact_start else x0.copy()

    remaining = sorted(checkpoint_times) if checkpoint_times else []
    recorded = {}
    root_dt = np.sqrt(dt)
    for k in range(n_steps):
        t = t0 + k * dt
        coeffs = evaluate(spec, t)
        gnull, root_dgamma = _diffusion_roots(coeffs)
        # x + dt L x + sqrt(dt) gnull eps_null, then its range part reset to
        # x's (plus the range noise when it comes from eps_null)
        v, range_add, range_noise = linop.update_noise(sys, rng, x.shape, root_dt * root_dgamma)
        r = x if range_add is None else np.add(range_add, x, out=range_add)
        v *= root_dt * gnull
        v += (1.0 + dt * coeffs.dlog_alpha_dt) * x
        x = linop.with_range(sys, v, r, range_noise)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(
                f"forward SDE diverged at step {k} (t={t:.6f})", step=k, t=t
            )
        t_next = t0 + (k + 1) * dt
        while remaining and t_next >= remaining[0] - 1e-12:
            recorded[remaining.pop(0)] = x.copy()
    if checkpoint_times:
        return x, recorded
    return x
