"""Local linearization of differentiable nonlinear measurement operators.

A nonlinear operator is reduced to the standard linear pipeline in three
steps: estimate the signal by a few fixed-step gradient-descent iterations
on the squared residual, evaluate the Jacobian at that estimate, and treat
the measurement as coming from the resulting linear Gaussian model (with
the first-order offset removed).  Running the three steps on an operator
that is already linear reproduces the standard pipeline exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError, check_dense_dim
from .linop import LinearSystem, _check_last_axis, build_dense_system


@dataclass(frozen=True)
class NonlinearSystem:
    """Differentiable measurement operator with Jacobian products.

    jvp(x, v) is the directional derivative at x along v; vjp(x, u) is the
    transpose product.  The two must be adjoint:
    <u, jvp(x, v)> = <vjp(x, u), v>.
    """

    m: int
    d: int
    apply: Callable[[np.ndarray], np.ndarray]
    jvp: Callable[[np.ndarray, np.ndarray], np.ndarray]
    vjp: Callable[[np.ndarray, np.ndarray], np.ndarray]


def sigmoid_contrast_system(d: int, k: float = 4.0, a: float = 0.5) -> NonlinearSystem:
    """Elementwise contrast operator sigmoid(k (x - a)) with analytic Jacobian."""

    def _sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    def apply(x):
        return _sig(k * (_check_last_axis(x, d, "apply") - a))

    def _deriv(x):
        s = _sig(k * (np.asarray(x, dtype=np.float64) - a))
        return k * s * (1.0 - s)

    return NonlinearSystem(
        m=d,
        d=d,
        apply=apply,
        jvp=lambda x, v: _deriv(x) * np.asarray(v, dtype=np.float64),
        vjp=lambda x, u: _deriv(x) * np.asarray(u, dtype=np.float64),
    )


def affine_system(a: np.ndarray) -> NonlinearSystem:
    """Wrap the linear map A x as a NonlinearSystem (pipeline-equivalence aid)."""
    a = np.asarray(a, dtype=np.float64)
    m, d = a.shape
    return NonlinearSystem(
        m=m,
        d=d,
        apply=lambda x: np.asarray(x, dtype=np.float64) @ a.T,
        jvp=lambda x, v: np.asarray(v, dtype=np.float64) @ a.T,
        vjp=lambda x, u: np.asarray(u, dtype=np.float64) @ a,
    )


def mle_init(nsys: NonlinearSystem, y):
    """Gradient descent on || A(x) - y ||^2: five steps of size 0.5 from zero.

    Returns the best iterate seen, so the returned residual never exceeds
    the starting one.
    """
    y = np.asarray(y, dtype=np.float64)
    x = np.zeros(nsys.d)

    def residual(xc):
        r = nsys.apply(xc) - y
        return r, float(r @ r)

    r, best_val = residual(x)
    best_x = x.copy()
    for it in range(5):
        grad = 2.0 * nsys.vjp(x, r)
        x = x - 0.5 * grad
        r, val = residual(x)
        if not np.isfinite(val):
            raise NumericalError(f"mle_init diverged at iteration {it + 1}")
        if val < best_val:
            best_val = val
            best_x = x.copy()
    return best_x


def jacobian_matrix(nsys: NonlinearSystem, x_hat) -> np.ndarray:
    """Dense Jacobian at x_hat, built column by column from jvp."""
    check_dense_dim(nsys.d, "dense Jacobian")
    x_hat = np.asarray(x_hat, dtype=np.float64)
    cols = [nsys.jvp(x_hat, e) for e in np.eye(nsys.d)]
    jac = np.stack(cols, axis=1)
    if not np.all(np.isfinite(jac)):
        raise NumericalError("non-finite Jacobian entries")
    return jac


def linearize(nsys: NonlinearSystem, x_hat, sigma_half=0.0) -> LinearSystem:
    """Dense linear system backed by the Jacobian at x_hat."""
    return build_dense_system(jacobian_matrix(nsys, x_hat), sigma_half=sigma_half)


def linearized_measurement(nsys: NonlinearSystem, sys: LinearSystem, x_hat, y) -> np.ndarray:
    """Measurement for the linearized model: y - (A(x_hat) - J x_hat).

    The correction term is computed first so that it is exactly zero for a
    linear operator (A(x_hat) and J x_hat are then the same product) and
    y passes through bitwise unchanged.
    """
    x_hat = np.asarray(x_hat, dtype=np.float64)
    correction = sys.apply(x_hat) - nsys.apply(x_hat)
    return np.asarray(y, dtype=np.float64) + correction


def localize(nsys: NonlinearSystem, y):
    """The full three-step reduction: (linear system, adjusted measurement,
    x_hat), with `mle_init`'s estimate and a noiseless linear system."""
    x_hat = mle_init(nsys, y)
    sys = linearize(nsys, x_hat)
    y_lin = linearized_measurement(nsys, sys, x_hat, y)
    return sys, y_lin, x_hat
