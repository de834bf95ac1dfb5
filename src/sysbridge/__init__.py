"""Diffusion bridges with an embedded linear measurement system.

The measurement model y = A x + S e (system response A, noise factor S)
is built into the coefficients of the corruption process, so the range
component of a signal is denoised while the null component is synthesized.
Modules: linop (operator algebra), schedule (coefficient triples), forward
(corruption process), sampler (reverse-time sampling), denoiser (network
and training loop), oracle (analytic Gaussian ground truth), tasks
(task schema, benchmark systems, datasets, metrics), nonlinear (local
linearization), cli (command-line orchestration).  The package re-exports
none of their names: import the module, as in ``from sysbridge import
sampler``.
"""

__version__ = "0.1.0"
