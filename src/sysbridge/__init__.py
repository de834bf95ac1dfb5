"""Diffusion bridges with an embedded linear measurement system.

The measurement model y = A x + S e (system response A, noise factor S)
is built into the coefficients of the corruption process, so the range
component of a signal is denoised while the null component is synthesized.
Modules: linop (operator algebra), schedule (coefficient triples), forward
(corruption process), sampler (reverse-time sampling), denoiser (network
and training loop), oracle (analytic Gaussian ground truth), tasks
(task schema, benchmark systems, datasets, metrics), nonlinear (local
linearization), cli
(command-line orchestration).
"""

from .linop import (
    LinearSystem,
    build_dense_system,
    identity_system,
    project_null,
    project_range,
    pseudoinverse,
)
from .oracle import GaussianBelief, gaussian_posterior, oracle_denoiser
from .schedule import ScheduleCoeffs, ScheduleSpec, evaluate
from .forward import ProcessState, analytic_marginal, forward_sample, simulate_forward_sde
from .sampler import SamplerConfig, SampleTrace, sample
from .denoiser import DenoiserNet, TrainConfig, forward_denoise, init_net, train
from .tasks import Perturbation, TaskSpec, build_system, make_toy_dataset, perturb_system, psnr, ssim
from .nonlinear import NonlinearSystem, linearize, mle_init, sigmoid_contrast_system

__version__ = "0.1.0"

__all__ = [
    "LinearSystem",
    "build_dense_system",
    "identity_system",
    "project_null",
    "project_range",
    "pseudoinverse",
    "GaussianBelief",
    "gaussian_posterior",
    "oracle_denoiser",
    "ScheduleCoeffs",
    "ScheduleSpec",
    "evaluate",
    "ProcessState",
    "analytic_marginal",
    "forward_sample",
    "simulate_forward_sde",
    "SamplerConfig",
    "SampleTrace",
    "sample",
    "DenoiserNet",
    "TrainConfig",
    "forward_denoise",
    "init_net",
    "train",
    "Perturbation",
    "TaskSpec",
    "build_system",
    "make_toy_dataset",
    "perturb_system",
    "psnr",
    "ssim",
    "NonlinearSystem",
    "linearize",
    "mle_init",
    "sigmoid_contrast_system",
    "__version__",
]
