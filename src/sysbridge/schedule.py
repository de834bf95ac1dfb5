"""Scalar coefficient schedules for the bridge process.

Each variant supplies the triple (alpha_t, beta_t, gamma_t): null-space
drift, null-space diffusion and range-space diffusion coefficients.
Variants:

  sb  - alpha = sbar^2 / C, beta = s^2 sbar^2 / C, gamma = s^2 / C with
        s^2(t) the integral of a piecewise-quadratic rate g^2 from 0 to t,
        sbar^2(t) its integral from t to 1 and C = s^2 + sbar^2 its total
        mass.  The rate is ghat(t) below 0.5 and its mirror above,
        ghat(t) = (sqrt(b0) + t (sqrt(b1) - sqrt(b0)))^2, so by the mirror
        sbar^2(t) = s^2(1 - t).  Whichever of the two integrals runs from
        the nearer endpoint is the cubic antiderivative of ghat at
        min(t, 1 - t), and the other is C minus it: neither is a
        difference of nearly equal numbers, so sbar^2 keeps its digits
        near t_max.  No quadrature.
  vp  - alpha = 1 - t, beta = sqrt(t), gamma = sqrt(t).
  ve  - alpha = 1, beta = sigma_max sqrt(t), gamma = sqrt(t).

The process is undefined at the endpoints, so evaluation is restricted to
the clipped interval [eps2, 1 - eps1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ScheduleDomainError, UnsupportedVariantError, check_finite

VARIANTS = ("sb", "vp", "ve")


@dataclass(frozen=True)
class ScheduleSpec:
    variant: str = "sb"
    b0: float = 0.1
    b1: float = 0.3
    sigma_max: float = 10.0
    eps1: float = 1e-3
    eps2: float = 1e-3

    def __post_init__(self):
        check_finite(self)
        if self.variant not in VARIANTS:
            raise UnsupportedVariantError(
                f"unknown variant {self.variant!r}, expected one of {VARIANTS}"
            )
        if not (0.0 < self.eps1 < 0.5 and 0.0 < self.eps2 < 0.5):
            raise ValueError("eps1 and eps2 must lie in (0, 0.5)")
        if self.eps1 + self.eps2 >= 1.0:
            raise ValueError("eps1 + eps2 must be < 1")
        if self.variant == "sb" and (self.b0 <= 0.0 or self.b1 <= 0.0):
            raise ValueError("sb variant requires b0 > 0 and b1 > 0")
        if self.variant == "ve" and self.sigma_max <= 1.0:
            raise ValueError("ve variant requires sigma_max > 1")

    @property
    def t_min(self) -> float:
        return self.eps2

    @property
    def t_max(self) -> float:
        return 1.0 - self.eps1


class ScheduleCoeffs(NamedTuple):
    """Coefficient triple at one time plus the derived SDE scalars, as floats.

    gnull_sq is the null-space diffusion rate dbeta/dt - 2 beta dlog(alpha)/dt;
    it and the range rate dgamma_dt are positive on the clipped interval for
    every variant (sb: gnull_sq = g^2 >= min(b0, b1)).  f_range =
    dgamma/dt / gamma and f_null = dbeta/dt / beta feed the denoiser-based
    drift of the reverse sampler.
    """

    t: float
    alpha: float
    beta: float
    gamma: float
    dalpha_dt: float
    dbeta_dt: float
    dgamma_dt: float
    dlog_alpha_dt: float
    gnull_sq: float
    f_range: float
    f_null: float


def _ghat_antideriv(t: float, s0: float, delta: float) -> float:
    # integral of (s0 + delta * u)^2 from 0 to t
    return s0 * s0 * t + s0 * delta * t * t + delta * delta * t ** 3 / 3.0


def g_squared(spec: ScheduleSpec, t: float) -> float:
    """Defining diffusion rate of the sb variant (mirrored around t = 0.5)."""
    if spec.variant != "sb":
        raise UnsupportedVariantError("g_squared is defined for the sb variant only")
    s0, s1 = math.sqrt(spec.b0), math.sqrt(spec.b1)
    u = t if t <= 0.5 else 1.0 - t
    val = s0 + u * (s1 - s0)
    return val * val


def evaluate(spec: ScheduleSpec, t: float) -> ScheduleCoeffs:
    """Coefficients and analytic time derivatives at time t."""
    if not (spec.t_min <= t <= spec.t_max):
        raise ScheduleDomainError(
            f"t={t} outside clipped interval [{spec.t_min}, {spec.t_max}]"
        )

    if spec.variant == "vp":
        rt = math.sqrt(t)
        alpha = 1.0 - t
        beta = rt
        gamma = rt
        dalpha = -1.0
        dbeta = 0.5 / rt
        dgamma = dbeta
        dlog_alpha = -1.0 / (1.0 - t)
    elif spec.variant == "ve":
        rt = math.sqrt(t)
        alpha = 1.0
        beta = spec.sigma_max * rt
        gamma = rt
        dalpha = 0.0
        dbeta = 0.5 * spec.sigma_max / rt
        dgamma = 0.5 / rt
        dlog_alpha = 0.0
    else:
        # by the mirror, never a difference of nearly equal numbers (module docstring)
        s0 = math.sqrt(spec.b0)
        delta = math.sqrt(spec.b1) - s0
        near = _ghat_antideriv(min(t, 1.0 - t), s0, delta)
        total = 2.0 * _ghat_antideriv(0.5, s0, delta)
        s_sq, sbar_sq = (near, total - near) if t <= 0.5 else (total - near, near)
        g2 = g_squared(spec, t)
        alpha = sbar_sq / total
        gamma = s_sq / total
        beta = s_sq * sbar_sq / total
        dalpha = -g2 / total
        dgamma = g2 / total
        dbeta = g2 * (sbar_sq - s_sq) / total
        dlog_alpha = -g2 / sbar_sq

    gnull_sq = dbeta - 2.0 * beta * dlog_alpha
    f_range = dgamma / gamma
    f_null = dbeta / beta
    return ScheduleCoeffs(
        t=t,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        dalpha_dt=dalpha,
        dbeta_dt=dbeta,
        dgamma_dt=dgamma,
        dlog_alpha_dt=dlog_alpha,
        gnull_sq=gnull_sq,
        f_range=f_range,
        f_null=f_null,
    )


def verify_g2_identity(spec: ScheduleSpec, grid) -> float:
    """Max residual of (dbeta/dt - 2 beta dlog(alpha)/dt) - g^2 over a grid.

    The identity is what makes the sb null-space diffusion rate consistent
    with its defining rate; analytic evaluation keeps it below 1e-8.
    """
    if spec.variant != "sb":
        raise UnsupportedVariantError(
            f"g^2 identity applies to the sb variant, got {spec.variant!r}"
        )
    worst = 0.0
    for t in grid:
        c = evaluate(spec, float(t))
        worst = max(worst, abs(c.gnull_sq - g_squared(spec, float(t))))
    return worst
