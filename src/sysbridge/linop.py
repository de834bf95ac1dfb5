"""Linear measurement-system algebra.

A measurement system maps a signal x in R^d to an observation
y = A x + S e, where A is the m x d system response matrix, S is a square
root of the noise covariance (S S^T = Sigma) and e is standard Gaussian.
The Moore-Penrose pseudoinverse A+ splits the signal space into the range
component A+ A x, which survives measurement, and the null component
(I - A+ A) x, which is annihilated by A.  A dense A gets its A+ from one
SVD in `build_dense_system`, where singular values at or below
CUTOFF times the largest count as zero.  `with_range` combines the null
part of one vector with the range part of another in a single `apply` and
`apply_pinv`; the forward process and the sampler update through it.

Each noisy update (a forward draw, a forward-SDE step, a reverse step) is
affine in its state and in its standard normal draws, a `Noise` record:
z in signal space, whose null part is the null noise, and, on some
systems, eps in measurement space for the range noise A+ S eps.  A system
is a partial isometry when all its nonzero singular values equal one s;
then A+ A+^T = kappa A+ A with kappa = 1 / s^2 (masks: 1, orthonormal
Fourier rows: 1, k x k block means: k^2).  With scalar noise S = s I as
well, A+ S eps has the law of s sqrt(kappa) A+ A z, and the range and null
parts of one z are independent.  Such systems carry `kappa` and take their
range noise from the range part of z: one d-wide draw per update instead
of a d-wide and an m-wide one.  Every other noisy system (matrix noise, a
decaying spectrum as in truncated_svd) draws eps as well.  `draw_noise`
holds this rule and the draw order, and `with_range_noise` turns the draws
into range noise; the updates themselves never see a generator.

A `LinearSystem` states each map once: A through `apply` and
`apply_pinv`, S through `sigma_half`, and kappa; its `noise_scale`
closure is built from `sigma_half`.  All downstream math consumes
operators through closures (`apply`, `apply_pinv`, `noise_scale`) so
structured systems never materialize dense matrices in the hot path.
Dense matrices appear only at construction time (for the SVD) and in test
oracles.  Every closure is vectorized over leading axes: inputs of shape
(..., d) map to (..., m) and vice versa, and a wrong last axis is a
`DimensionError` (`_check_last_axis`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import DimensionError, NumericalError

# Relative singular-value cutoff for generic pseudoinverses.  Structured
# operators with a prescribed spectrum (e.g. threshold-truncated SVD) carry
# their own absolute threshold instead.
CUTOFF = 1e-12

SigmaHalf = Union[float, np.ndarray]


@dataclass(frozen=True)
class LinearSystem:
    """A measurement model exposed as matrix-free operator applications.

    Attributes
    ----------
    m, d:
        Measurement and signal dimensions.
    apply, apply_pinv:
        Actions of A and A+.  Vectorized over leading axes; each returns a
        new array and refuses a wrong last axis with `DimensionError`.
    sigma_half:
        The covariance square root S: a scalar s meaning s * I, or a dense
        m x m factor.  Zero, the default, for a noiseless system.
    kappa:
        The kappa with A+ A+^T = kappa A+ A when every nonzero singular
        value of A is equal (1 / s^2 for the common value s), else None.
        Dense systems under matrix noise, which never use it, carry None.
    noise_scale:
        Action of S on a measurement-space vector, built from `sigma_half`
        by `make_noise_scale` unless a closure is passed in (as a tracer
        does through `dataclasses.replace`).  A closure records the
        `sigma_half` it was built from, so one built from another value,
        as after a replace that changes `sigma_half`, is rebuilt; a closure
        without that record is kept.
    """

    m: int
    d: int
    apply: Callable[[np.ndarray], np.ndarray]
    apply_pinv: Callable[[np.ndarray], np.ndarray]
    sigma_half: SigmaHalf = 0.0
    kappa: Optional[float] = None
    noise_scale: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        built_from = getattr(self.noise_scale, "sigma_half", self.sigma_half)
        if self.noise_scale is None or built_from is not self.sigma_half:
            object.__setattr__(self, "noise_scale", make_noise_scale(self.sigma_half, self.m))

    @property
    def noise_is_zero(self) -> bool:
        if isinstance(self.sigma_half, np.ndarray):
            return not np.any(self.sigma_half)
        return float(self.sigma_half) == 0.0

    @property
    def range_noise_gain(self) -> Optional[float]:
        """s sqrt(kappa) when the range noise A+ S e is drawn as
        s sqrt(kappa) A+ A z from the signal-space draw z (a partial isometry
        with noise s I, s != 0); None when e is drawn in measurement space."""
        if self.kappa is None or isinstance(self.sigma_half, np.ndarray) or self.noise_is_zero:
            return None
        return float(self.sigma_half) * float(np.sqrt(self.kappa))


def _check_last_axis(x, n, what):
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != n:
        raise DimensionError(f"{what}: expected last axis {n}, got shape {x.shape}")
    return x


def penrose_residuals(a: np.ndarray, a_pinv: np.ndarray) -> dict:
    """Max absolute residual of each of the four Penrose identities."""
    apa = a @ a_pinv @ a
    pap = a_pinv @ a @ a_pinv
    aap = a @ a_pinv
    paa = a_pinv @ a
    return {
        "A A+ A = A": float(np.max(np.abs(apa - a))),
        "A+ A A+ = A+": float(np.max(np.abs(pap - a_pinv))),
        "(A A+)^T = A A+": float(np.max(np.abs(aap - aap.T))),
        "(A+ A)^T = A+ A": float(np.max(np.abs(paa - paa.T))),
    }


def project_range(sys: LinearSystem, x: np.ndarray) -> np.ndarray:
    """Component of x that survives measurement: A+ (A x)."""
    x = _check_last_axis(x, sys.d, "project_range")
    return sys.apply_pinv(sys.apply(x))


def project_null(sys: LinearSystem, x: np.ndarray) -> np.ndarray:
    """Component of x annihilated by A: x - A+ A x."""
    x = _check_last_axis(x, sys.d, "project_null")
    return x - sys.apply_pinv(sys.apply(x))


def with_range(sys: LinearSystem, v: np.ndarray, r, s=None) -> np.ndarray:
    """Null part of v, range part of r, plus A+ s: v + A+ (A (r - v) + s).

    The one range/null split of the hot paths: a forward draw, a forward-SDE
    step, a chain start and a reverse step are each a single call, so each
    costs exactly one `apply` and one `apply_pinv`.  r may be a scalar (0.0
    keeps no range part) and s a measurement-space term or None.  The
    operator outputs are updated in place, so closures must return new arrays.
    """
    v = _check_last_axis(v, sys.d, "with_range")
    a = sys.apply(r - v)
    if s is not None:
        a += s
    out = sys.apply_pinv(a)
    out += v
    return out


class Noise(NamedTuple):
    """The standard normal draws of one update: z in signal space, and eps
    in measurement space on a noisy system without `range_noise_gain`."""

    z: np.ndarray
    eps: Optional[np.ndarray] = None


def draw_noise(sys: LinearSystem, rng, shape) -> Noise:
    """One update's draws for a state of the given shape, in their fixed
    order: eps first when the system takes it, then z."""
    eps = None
    if not sys.noise_is_zero and sys.range_noise_gain is None:
        eps = rng.standard_normal(tuple(shape[:-1]) + (sys.m,))
    return Noise(rng.standard_normal(shape), eps)


def with_range_noise(sys: LinearSystem, v: np.ndarray, r, noise: Noise, range_scale: float):
    """`with_range(sys, v, r', s)` with the range noise of ``noise`` at
    ``range_scale`` added: r' = r + gain range_scale z on a system with
    `range_noise_gain`, s = S (range_scale eps) on any other noisy system,
    and neither on a noiseless one.  The draws are read, never written."""
    if sys.noise_is_zero:
        return with_range(sys, v, r)
    gain = sys.range_noise_gain
    if gain is not None:
        r_noisy = noise.z * (gain * range_scale)
        r_noisy += r
        return with_range(sys, v, r_noisy)
    return with_range(sys, v, r, sys.noise_scale(noise.eps * range_scale))


def make_noise_scale(sigma_half: SigmaHalf, m: int):
    """The action of S on measurement-space vectors; a matrix S must be m x m.

    The closure records ``sigma_half`` as its attribute of that name.
    """
    if isinstance(sigma_half, np.ndarray):
        if sigma_half.shape != (m, m):
            raise DimensionError(
                f"sigma_half: expected ({m}, {m}), got {sigma_half.shape}"
            )
        s = sigma_half.astype(np.float64)

        def noise_scale(eps):
            eps = _check_last_axis(eps, m, "noise_scale")
            return eps @ s.T

    else:
        scale = float(sigma_half)

        def noise_scale(eps):
            eps = _check_last_axis(eps, m, "noise_scale")
            return scale * eps

    noise_scale.sigma_half = sigma_half
    return noise_scale


def build_dense_system(a: np.ndarray, sigma_half: SigmaHalf = 0.0) -> LinearSystem:
    """Back A and A+ with dense multiplies, from one SVD of A.

    The one threshold rule: singular values at or below ``CUTOFF * s_max``
    count as zero and the rest are reciprocated into A+.  The same mask
    decides kappa (scalar noise only): 1 / s_max^2 when the kept values
    agree to 1e-12 relative, else None.  The all-zero matrix keeps nothing:
    its A+ is all zero and its kappa None.  Non-finite entries are a
    `DimensionError`.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    m, d = a.shape
    if not np.all(np.isfinite(a)):
        raise DimensionError("build_dense_system: non-finite entries")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge for {m}x{d} matrix") from exc
    keep = s > CUTOFF * s.max(initial=0.0)
    a_pinv = (vt.T * np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)) @ u.T
    kappa = None
    if not isinstance(sigma_half, np.ndarray) and keep.any():
        kept = s[keep]
        if kept[0] - kept[-1] <= 1e-12 * kept[0]:
            kappa = float(1.0 / (kept[0] * kept[0]))

    def apply(x):
        return _check_last_axis(x, d, "apply") @ a.T

    def apply_pinv(y):
        return _check_last_axis(y, m, "apply_pinv") @ a_pinv.T

    return LinearSystem(
        m=m,
        d=d,
        apply=apply,
        apply_pinv=apply_pinv,
        sigma_half=sigma_half,
        kappa=kappa,
    )


def materialize(sys: LinearSystem) -> np.ndarray:
    """Dense A, recovered by applying the operator to basis vectors."""
    return sys.apply(np.eye(sys.d)).T


def materialize_pinv(sys: LinearSystem) -> np.ndarray:
    """Dense A+, recovered column by column."""
    return sys.apply_pinv(np.eye(sys.m)).T


def materialize_noise_half(sys: LinearSystem) -> np.ndarray:
    """Dense covariance square root S."""
    return sys.noise_scale(np.eye(sys.m)).T
