"""Reverse-time Euler-Maruyama sampling.

A chain starts at t = 1 - eps1 from the pseudoinverse reconstruction plus
null-space noise at scale sqrt(beta), then walks a time grid down to
t = eps2 (uniform in t by default, optionally uniform in the stiffness
clock ln(alpha^2 / beta)).  Each step moves along the denoiser-based drift

    range:  f_range * rangepart(denoised - x)
    null:   (f_null - 2 L) * (alpha * nullpart(denoised) - nullpart(x))
            - L * nullpart(x),        L = dlog(alpha)/dt

which equals G G^T times the marginal score when the denoiser is the exact
conditional expectation (see oracle.dense_score and `score_drift`), and
injects noise through the same G as the forward process.

Every term acts on one subspace only, so a whole step is a single range/null
split, `linop.with_range`, at the cost of one `apply` and one `apply_pinv`:

    x_new = with_range(x + w, x + u, sqrt(dt dgamma/dt) S eps)
    w     = dt [(f_null - 2 L)(alpha d - x) - L x] + sqrt(dt) gnull eps_null
    u     = dt f_range (d - x),          d = denoised estimate

keeps the null part of x + w, takes the range part of x + u and adds the
range noise A+ S eps.  The chain start is with_range(sqrt(beta) eps_null,
0, y) at the same cost.

When the system is noiseless the range component carries the signal exactly,
so range noise and range drift are skipped and, with the range lock on, the
range part x + u is replaced by the chain's initial range component A+ y,
which pins the range inside the same split.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional

import numpy as np

from . import linop
from .errors import DimensionError, DivergenceError
from .forward import ProcessState
from .linop import LinearSystem
from .schedule import ScheduleCoeffs, ScheduleSpec, evaluate


TIME_GRIDS = ("uniform", "stiffness")


@dataclass(frozen=True)
class SamplerConfig:
    n_steps: int
    spec: ScheduleSpec
    noiseless_range_lock: bool = True
    seed: int = 0
    keep_every: int = 0  # 0 disables checkpoint retention
    time_grid: str = "uniform"

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.time_grid not in TIME_GRIDS:
            raise ValueError(f"unknown time grid {self.time_grid!r}, expected {TIME_GRIDS}")


@dataclass
class SampleTrace:
    final: np.ndarray
    states: Optional[List[ProcessState]] = None


def _log_snr(spec: ScheduleSpec, t: float) -> float:
    c = evaluate(spec, t)
    return 2.0 * np.log(c.alpha) - np.log(c.beta)


@lru_cache(maxsize=32)
def _stiffness_grid(spec: ScheduleSpec, n_steps: int):
    """Grid uniform in the clock ln(alpha^2 / beta), highest time first.

    The clock is strictly decreasing in t (its rate is -gnull_sq / beta),
    so equal clock increments equalize the per-step null stiffness
    (f_null - 2 dlog(alpha)/dt) * dt across the trajectory.  A uniform-in-t
    grid cannot resolve schedules whose noise scale keeps moving below
    t ~ 1/N (e.g. the ve variant); this one can.
    """
    lo, hi = spec.t_min, spec.t_max
    lam_hi, lam_lo = _log_snr(spec, hi), _log_snr(spec, lo)
    targets = np.linspace(lam_hi, lam_lo, n_steps + 1)
    ts = [hi]
    for lam in targets[1:-1]:
        a, b = lo, ts[-1]
        for _ in range(80):
            mid = 0.5 * (a + b)
            if _log_snr(spec, mid) > lam:
                a = mid
            else:
                b = mid
        ts.append(0.5 * (a + b))
    ts.append(lo)
    return tuple(ts)


def time_grid(spec: ScheduleSpec, n_steps: int, mode: str = "uniform"):
    """Reverse-time grid from 1 - eps1 down to eps2, inclusive ends."""
    if mode == "uniform":
        return tuple(np.linspace(spec.t_max, spec.t_min, n_steps + 1))
    return _stiffness_grid(spec, n_steps)


def initialize(sys: LinearSystem, spec: ScheduleSpec, y, rng) -> ProcessState:
    """Reconstruction-plus-null-noise chain start at t = 1 - eps1.

    y may carry leading batch axes; each row seeds one chain.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape[-1] != sys.m:
        raise DimensionError(
            f"initialize: expected measurements with last axis {sys.m}, got {y.shape}"
        )
    beta = evaluate(spec, spec.t_max).beta
    noise = rng.standard_normal(y.shape[:-1] + (sys.d,))
    noise *= np.sqrt(beta)
    # A+ y plus the null part of the noise
    x = linop.with_range(sys, noise, 0.0, y)
    return ProcessState(x=x, t=spec.t_max)


def score_drift(
    sys: LinearSystem,
    coeffs: ScheduleCoeffs,
    x: np.ndarray,
    denoised: np.ndarray,
    include_range: bool = True,
) -> np.ndarray:
    """Denoiser-based drift term G G^T score, decomposed by subspace."""
    x = np.asarray(x, dtype=np.float64)
    denoised = np.asarray(denoised, dtype=np.float64)
    x_range = linop.project_range(sys, x)
    x_null = x - x_range
    d_range = linop.project_range(sys, denoised)
    d_null = denoised - d_range
    out = (coeffs.f_null - 2.0 * coeffs.dlog_alpha_dt) * (coeffs.alpha * d_null - x_null)
    if include_range:
        out = out + coeffs.f_range * (d_range - x_range)
    return out


def reverse_step(
    sys: LinearSystem,
    coeffs: ScheduleCoeffs,
    state: ProcessState,
    denoised: np.ndarray,
    dt: float,
    rng,
    locked_range: Optional[np.ndarray] = None,
) -> ProcessState:
    """One Euler-Maruyama update from state.t down to state.t - dt.

    The update is one range/null split, so it costs one `apply` and one
    `apply_pinv` (see the module docstring).  With ``locked_range`` given
    (noiseless systems), the new range part is that vector instead of the
    current one.

    Noise order per step is fixed: the measurement-space draw first (only
    taken when the system is noisy), then the signal-space draw.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    x = np.asarray(state.x, dtype=np.float64)
    denoised = np.asarray(denoised, dtype=np.float64)
    noisy = not sys.noise_is_zero
    lam = coeffs.dlog_alpha_dt
    stiff = coeffs.f_null - 2.0 * lam

    range_noise = None
    if noisy and coeffs.dgamma_dt > 0:
        eps = rng.standard_normal(x.shape[:-1] + (sys.m,))
        eps *= np.sqrt(dt * coeffs.dgamma_dt)
        range_noise = sys.noise_scale(eps)
    # x + w, accumulated in the draw's buffer:
    # (dt stiff alpha) d + (1 - dt (stiff + L)) x + sqrt(dt gnull_sq) eps_null
    v = rng.standard_normal(x.shape)
    v *= np.sqrt(dt * max(coeffs.gnull_sq, 0.0))
    tmp = np.multiply(denoised, dt * stiff * coeffs.alpha)
    v += tmp
    np.multiply(x, 1.0 - dt * (stiff + lam), out=tmp)
    v += tmp

    if locked_range is not None:
        r = locked_range
    elif noisy:
        # x + u = x + dt f_range (d - x)
        r = np.subtract(denoised, x, out=tmp)
        r *= dt * coeffs.f_range
        r += x
    else:
        r = x
    x_new = linop.with_range(sys, v, r, range_noise)

    if not np.all(np.isfinite(x_new)):
        drift = score_drift(sys, coeffs, x, denoised, include_range=noisy)
        drift = drift - lam * linop.project_null(sys, x)
        raise DivergenceError(
            f"reverse step diverged at t={state.t:.6f} "
            f"(|drift|={float(np.max(np.abs(drift))):.3e})",
            t=state.t,
        )
    return ProcessState(x=x_new, t=state.t - dt)


def sample(
    sys: LinearSystem,
    config: SamplerConfig,
    y,
    denoiser: Callable[[np.ndarray, float], np.ndarray],
    n_chains: int = 1,
    rng=None,
) -> SampleTrace:
    """Run the full reverse pass for one measurement (or a batch of them).

    With 1-D y and n_chains > 1, the measurement is shared across chains;
    a 2-D y runs one chain per row.  The denoiser receives the whole chain
    batch at once.  Checkpoints are retained every config.keep_every steps
    when that is nonzero.
    """
    spec = config.spec
    if rng is None:
        rng = np.random.default_rng(config.seed)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1 and n_chains > 1:
        y = np.broadcast_to(y, (n_chains, y.shape[0])).copy()

    state = initialize(sys, spec, y, rng)
    locked_range = None
    if config.noiseless_range_lock and sys.noise_is_zero:
        # the range part of the chain start
        locked_range = sys.apply_pinv(y)

    grid = time_grid(spec, config.n_steps, config.time_grid)
    states = [] if config.keep_every else None
    for k in range(config.n_steps):
        t = grid[k]
        dt = t - grid[k + 1]
        coeffs = evaluate(spec, t)
        denoised = denoiser(state.x, t)
        try:
            state = reverse_step(sys, coeffs, state, denoised, dt, rng, locked_range)
        except DivergenceError as exc:
            raise DivergenceError(f"chain failed at step {k}: {exc}", step=k, t=t) from exc
        if states is not None and (k + 1) % config.keep_every == 0:
            states.append(ProcessState(x=state.x.copy(), t=state.t))

    return SampleTrace(final=state.x, states=states)
