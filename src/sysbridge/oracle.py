"""Analytic linear-Gaussian machinery.

Exact conjugate posteriors, exact conditional-expectation denoisers, dense
marginal scores for Gaussian priors, and the forward process's closed-form
marginal (mean map H_t, covariance Sigma_t).  These are the ground truth the
forward process, the reverse sampler and the trained network are validated
against.  Every dense routine refuses d > `errors.MAX_DENSE_DIM` with a
`CapacityError`.  The forward law is stated once, from two matrices of the
system, P = I - A+ A and N = A+ Sigma A+^T: H_t = I - (1 - alpha_t) P and
Sigma_t = gamma_t N + beta_t P.  The oracle denoiser forms P and N once,
forms its gain on every call and keeps nothing per time.  Its `eigh` and
dense products change their last bits with the BLAS thread count, so the
command line runs the oracle path on one thread.  All conditioning goes
through the joint Gaussian with eigendecomposition-based pseudo-inverses,
so zero noise and rank-deficient operators are handled without forming
explicit precision matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linop
from .errors import DegeneratePosteriorError, check_dense_dim
from .linop import LinearSystem
from .schedule import ScheduleCoeffs, ScheduleSpec, evaluate

_DENSE = "dense Gaussian algebra"
_PSD_TOL = 1e-10


@dataclass
class GaussianBelief:
    """Mean vector and dense symmetric PSD covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.cov = np.asarray(self.cov, dtype=np.float64)
        d = self.mean.shape[-1]
        if self.cov.shape != (d, d):
            raise ValueError(f"cov shape {self.cov.shape} != ({d}, {d})")
        scale = max(1.0, float(np.max(np.abs(self.cov))))
        if float(np.max(np.abs(self.cov - self.cov.T))) > _PSD_TOL * scale:
            raise ValueError("covariance is not symmetric within tolerance")
        evals = np.linalg.eigvalsh(0.5 * (self.cov + self.cov.T))
        if float(np.min(evals)) < -_PSD_TOL * scale:
            raise ValueError(f"covariance has negative eigenvalue {np.min(evals):.3e}")


def _sym(mat):
    return 0.5 * (mat + mat.T)


def _psd_pinv(mat):
    """Pseudo-inverse of a symmetric PSD matrix via eigendecomposition.

    Returns (pinv, evecs, keep): the eigenvectors and the mask of the
    eigenvalues kept, from which a caller that needs the range projector
    forms ``(evecs * keep) @ evecs.T``.
    """
    sym = _sym(mat)
    evals, evecs = np.linalg.eigh(sym)
    scale = max(float(np.max(np.abs(evals))), 1.0)
    keep = evals > _PSD_TOL * scale
    inv = np.where(keep, 1.0 / np.where(keep, evals, 1.0), 0.0)
    return (evecs * inv) @ evecs.T, evecs, keep


def gaussian_posterior(prior: GaussianBelief, sys: LinearSystem, y: np.ndarray) -> GaussianBelief:
    """Conjugate posterior of x given y = A x + noise under a Gaussian prior.

    Conditioning uses the joint Gaussian of (x, y) so that singular noise
    covariances and rank-deficient A stay first-class.  If the observation
    has mass outside the range of the marginal observation covariance, the
    model cannot have produced it and a degenerate-posterior error names
    the offending directions.
    """
    check_dense_dim(sys.d, _DENSE)
    y = np.asarray(y, dtype=np.float64)
    a = linop.materialize(sys)
    s_half = linop.materialize_noise_half(sys)
    sigma = s_half @ s_half.T

    cross = prior.cov @ a.T                      # cov(x, y), d x m
    obs_cov = _sym(a @ prior.cov @ a.T + sigma)  # cov(y), m x m
    obs_pinv, evecs, keep = _psd_pinv(obs_cov)

    resid = y - a @ prior.mean
    if not keep.all():
        obs_proj = (evecs * keep.astype(float)) @ evecs.T
        off_range = resid - obs_proj @ resid
        norm = float(np.linalg.norm(off_range))
        if norm > 1e-8 * max(1.0, float(np.linalg.norm(resid))):
            idx = np.argsort(-np.abs(off_range))[:3]
            raise DegeneratePosteriorError(
                "observation incompatible with singular model; "
                f"largest off-range components at measurement indices {idx.tolist()}"
            )

    gain = cross @ obs_pinv
    mean = prior.mean + gain @ resid
    cov = _sym(prior.cov - gain @ cross.T)
    return GaussianBelief(mean=mean, cov=cov)


def _split(sys: LinearSystem):
    """Dense (P, N): the null projector P = I - A+ A and the range noise
    covariance N = A+ Sigma A+^T, from one `apply` and two `apply_pinv`."""
    check_dense_dim(sys.d, _DENSE)
    eye = np.eye(sys.d)
    pinv_noise = sys.apply_pinv(sys.noise_scale(np.eye(sys.m)))  # (A+ S)^T, m x d
    return _sym(eye - linop.project_range(sys, eye)), _sym(pinv_noise.T @ pinv_noise)


def _law(null_proj, noise_cov, coeffs: ScheduleCoeffs):
    """Dense (H_t, Sigma_t) at coeffs.t from the system's `_split` (P, N)."""
    h = np.eye(len(null_proj)) - (1.0 - coeffs.alpha) * null_proj
    return h, coeffs.gamma * noise_cov + coeffs.beta * null_proj


def analytic_marginal(sys: LinearSystem, coeffs: ScheduleCoeffs, x0) -> GaussianBelief:
    """Closed-form Gaussian marginal of the corrupted state at coeffs.t."""
    h, sigma_t = _law(*_split(sys), coeffs)
    return GaussianBelief(mean=np.asarray(x0, dtype=np.float64) @ h.T, cov=sigma_t)


def _marginal_pieces(prior: GaussianBelief, split, coeffs: ScheduleCoeffs):
    """Dense (H, marginal mean, marginal covariance) of the corrupted state."""
    h, sigma_t = _law(*split, coeffs)
    return h, h @ prior.mean, _sym(h @ prior.cov @ h.T + sigma_t)


def oracle_denoiser(prior: GaussianBelief, sys: LinearSystem, spec: ScheduleSpec):
    """Exact conditional-expectation denoiser E[x0 | x_t] for a Gaussian prior.

    The system's two matrices (`_split`) are formed once, here; the
    returned ``denoise(x_t, t)`` forms the gain at time t on every call,
    with no operator application, and keeps nothing per time.  It is affine
    in x_t and vectorized over leading axes.
    """
    split = _split(sys)

    def denoise(x_t, t):
        h, marg_mean, marg_cov = _marginal_pieces(prior, split, evaluate(spec, float(t)))
        pinv, _, _ = _psd_pinv(marg_cov)
        gain = prior.cov @ h.T @ pinv
        offset = prior.mean - gain @ marg_mean
        return np.asarray(x_t, dtype=np.float64) @ gain.T + offset

    return denoise


def dense_score(prior: GaussianBelief, sys: LinearSystem, coeffs: ScheduleCoeffs, x_t: np.ndarray):
    """Exact score of the Gaussian marginal of the corrupted state.

    When the marginal covariance is singular the score is restricted to its
    range via the pseudo-inverse.
    """
    _, marg_mean, marg_cov = _marginal_pieces(prior, _split(sys), coeffs)
    pinv, _, _ = _psd_pinv(marg_cov)
    return -(np.asarray(x_t, dtype=np.float64) - marg_mean) @ pinv.T
