"""Reverse-time Euler-Maruyama sampling.

A chain starts at t = 1 - eps1 from the pseudoinverse reconstruction plus
null-space noise at scale sqrt(beta), then walks a time grid down to
t = eps2 (uniform in t by default, optionally uniform in the stiffness
clock ln(alpha^2 / beta)).  Each step moves along the denoiser-based drift

    range:  f_range * rangepart(denoised - x)
    null:   (f_null - 2 L) * (alpha * nullpart(denoised) - nullpart(x))
            - L * nullpart(x),        L = dlog(alpha)/dt

which is G G^T times the marginal score less the forward drift L nullpart(x)
when the denoiser is the exact conditional expectation (acceptance criterion
6 checks `reverse_step` against oracle.dense_score), and injects noise
through the same G as the forward process.

Every term acts on one subspace only, so a whole step is a single range/null
split, `linop.with_range_noise`, at the cost of one `apply` and one
`apply_pinv`: it keeps the null part of x + w, takes the range part of
x + u and adds the range noise at sqrt(dt dgamma/dt), where

    w = dt [(f_null - 2 L)(alpha d - x) - L x] + sqrt(dt) gnull z
    u = dt f_range (d - x),          d = denoised estimate

and z is the step's signal-space draw.  `linop` states which draws a system
takes and how they become range noise; a step and the chain start are
plain maps of their arrays and draws, and only `sample` holds a generator.
The chain start is with_range(sqrt(beta) z, 0, y) at the same cost.

When the system is noiseless the range component carries the signal exactly:
range noise and range drift are skipped, and the range part x + u is
replaced by the chain's initial range component A+ y, which pins the range
inside the same split.  `sample` checks after every step that the chain
stayed finite.

Every scalar of a step depends on its grid point alone, so a pass walks a
step plan: one `Step` of Python floats per step, derived by `plan_step`.
Plans are kept per (spec, n_steps, time grid) in a 16-entry LRU cache (a
1000-step plan holds about 0.28 MB), so repeated passes on one grid
evaluate the schedule only for the chain start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from . import linop
from .errors import DimensionError, DivergenceError
from .linop import LinearSystem
from .schedule import ScheduleCoeffs, ScheduleSpec, evaluate


TIME_GRIDS = ("uniform", "stiffness")


@dataclass(frozen=True)
class SamplerConfig:
    """One sampling run: the ``[sample]`` config section.

    `spec`, the schedule the reverse pass walks, is required and has no key
    (its ``ini`` metadata is None): a config gives its ``[schedule]``
    section.  Only the command line reads `n_samples`, the number of draws
    of ``sample --simulate``; `sample` takes its batch from its arguments.
    """

    n_steps: int = 100
    n_samples: int = 16
    seed: int = 0
    keep_every: int = 0  # 0 disables checkpoint retention; at most n_steps
    time_grid: str = "uniform"
    spec: ScheduleSpec = field(kw_only=True, metadata={"ini": None})

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0 <= self.keep_every <= self.n_steps:
            raise ValueError("keep_every must be in [0, n_steps]")
        if self.time_grid not in TIME_GRIDS:
            raise ValueError(f"unknown time grid {self.time_grid!r}, expected {TIME_GRIDS}")


@dataclass
class ProcessState:
    """A kept state of a reverse pass: the chain batch and its time."""

    x: np.ndarray
    t: float


@dataclass
class SampleTrace:
    final: np.ndarray
    states: Optional[List[ProcessState]] = None


def _log_snr(spec: ScheduleSpec, t: float) -> float:
    c = evaluate(spec, t)
    return 2.0 * np.log(c.alpha) - np.log(c.beta)


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
    """Reverse-time grid of Python floats from 1 - eps1 down to eps2, inclusive ends."""
    if mode == "uniform":
        return tuple(np.linspace(spec.t_max, spec.t_min, n_steps + 1).tolist())
    return _stiffness_grid(spec, n_steps)


class Step(NamedTuple):
    """One reverse step from t down to t - dt: the scalars of its update."""

    t: float
    dt: float
    null_scale: float  # sqrt(dt gnull_sq)
    denoised_gain: float  # dt stiff alpha,  stiff = f_null - 2 L
    state_gain: float  # 1 - dt (stiff + L)
    range_gain: float  # dt f_range
    range_scale: float  # sqrt(dt dgamma/dt)


def plan_step(c: ScheduleCoeffs, dt: float) -> Step:
    """The `Step` from c.t down to c.t - dt."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    lam = c.dlog_alpha_dt
    stiff = c.f_null - 2.0 * lam
    return Step(
        t=c.t,
        dt=dt,
        null_scale=math.sqrt(dt * c.gnull_sq),
        denoised_gain=dt * stiff * c.alpha,
        state_gain=1.0 - dt * (stiff + lam),
        range_gain=dt * c.f_range,
        range_scale=math.sqrt(dt * c.dgamma_dt),
    )


@lru_cache(maxsize=16)
def _step_plan(spec: ScheduleSpec, n_steps: int, mode: str):
    """Every reverse `Step` of the grid, highest time first."""
    grid = time_grid(spec, n_steps, mode)
    return tuple(plan_step(evaluate(spec, t), t - t_next) for t, t_next in zip(grid, grid[1:]))


def initialize(sys: LinearSystem, spec: ScheduleSpec, y, z) -> np.ndarray:
    """Reconstruction-plus-null-noise chain start at t = 1 - eps1 from the
    signal-space standard normal draw z.

    y may carry leading batch axes; each row seeds one chain.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape[-1] != sys.m:
        raise DimensionError(
            f"initialize: expected measurements with last axis {sys.m}, got {y.shape}"
        )
    beta = evaluate(spec, spec.t_max).beta
    # A+ y plus the null part of the noise
    return linop.with_range(sys, z * np.sqrt(beta), 0.0, y)


def reverse_step(
    sys: LinearSystem,
    step: Step,
    x: np.ndarray,
    denoised: np.ndarray,
    noise: linop.Noise,
    locked_range: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One Euler-Maruyama update of x by ``step`` with the draws ``noise``
    (`linop.draw_noise` for x's shape): one `apply` and one `apply_pinv`
    (module docstring).

    A noiseless system needs ``locked_range``, the chain's range part A+ y,
    which becomes the new range part; a noisy one takes None.
    """
    if sys.noise_is_zero and locked_range is None:
        raise ValueError("a noiseless system's step needs locked_range, A+ y")
    x = np.asarray(x, dtype=np.float64)
    denoised = np.asarray(denoised, dtype=np.float64)
    # x + w
    v = np.multiply(noise.z, step.null_scale)
    tmp = np.multiply(denoised, step.denoised_gain)
    v += tmp
    np.multiply(x, step.state_gain, out=tmp)
    v += tmp

    if locked_range is not None:
        r = locked_range
    else:
        # x + u = x + dt f_range (d - x)
        r = np.subtract(denoised, x, out=tmp)
        r *= step.range_gain
        r += x
    return linop.with_range_noise(sys, v, r, noise, step.range_scale)


def sample(
    sys: LinearSystem,
    config: SamplerConfig,
    y,
    denoiser: Callable[[np.ndarray, float], np.ndarray],
    rng=None,
) -> SampleTrace:
    """Run the full reverse pass for one measurement (or a batch of them).

    A batch of chains is the rows of y: a 1-D y runs one chain, an (n, m) y
    one chain per row, so ``np.tile(y, (n, 1))`` runs n chains on one
    measurement.  The denoiser receives the whole chain batch at once.
    ``rng`` (by default seeded with config.seed) draws the chain start's z,
    then each step's `linop.draw_noise` after its denoiser call.
    Checkpoints are retained every config.keep_every steps when that is
    nonzero, each at the grid time its step ended on.  A step that leaves a
    non-finite state raises `DivergenceError` with its index and time.
    """
    spec = config.spec
    if rng is None:
        rng = np.random.default_rng(config.seed)
    y = np.asarray(y, dtype=np.float64)
    x = initialize(sys, spec, y, rng.standard_normal(y.shape[:-1] + (sys.d,)))
    # the range part of the chain start
    locked_range = sys.apply_pinv(y) if sys.noise_is_zero else None

    states = [] if config.keep_every else None
    plan = _step_plan(spec, config.n_steps, config.time_grid)
    for k, step in enumerate(plan):
        denoised = denoiser(x, step.t)
        x = reverse_step(sys, step, x, denoised, linop.draw_noise(sys, rng, x.shape), locked_range)
        if not np.isfinite(x).all():
            raise DivergenceError(
                f"chain diverged at step {k} (t={step.t:.6f}, "
                f"max|denoised|={float(np.max(np.abs(denoised))):.3e})",
                step=k,
                t=step.t,
            )
        if states is not None and (k + 1) % config.keep_every == 0:
            t_end = plan[k + 1].t if k + 1 < len(plan) else spec.t_min
            states.append(ProcessState(x=x.copy(), t=t_end))

    return SampleTrace(final=x, states=states)
