"""Theory-facing instrumentation for solver runs.

This module evaluates the augmented Lagrangian, the stability function
used to certify descent in expectation, the operator B = tau*Id -
beta*A^T A appearing in its lagged coupling term. Everything here is a
pure computation over state snapshots.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import DiagnosticUndefinedError

__all__ = [
    "DiagnosticsRecord",
    "StabilityConstants",
    "stability_constants",
    "augmented_lagrangian",
    "apply_B",
    "stability_psi",
]


@dataclass(frozen=True)
class StabilityConstants:
    """Coefficients of the stability function, frozen for one run.

    c0 = 4(1-sigma) / (sigma^2 beta lambda_m)
    c1 = 8(sigma tau + L)^2 / (sigma beta lambda_m)
    c3 = (32/(sigma beta lambda_m) + eta/2)(V1 + V_Upsilon/rho) + c2 + c1

    ``tau`` rides along because the lagged coupling term applies
    B = tau*Id - beta*A^T A.
    """

    c0: float
    c1: float
    c3: float
    lambda_m: float
    eta: float
    c2: float
    tau: float


def stability_constants(sigma, beta, tau, L, lambda_m, eta, c2, v1, v_upsilon, rho):
    """Evaluate the stability-function coefficients from raw parameters."""
    if lambda_m <= 0:
        raise DiagnosticUndefinedError(
            "stability constants need lambda_min(AA^T) > 0"
        )
    denom = sigma * beta * lambda_m
    c0 = 4.0 * (1.0 - sigma) / (sigma * denom)
    c1 = 8.0 * (sigma * tau + L) ** 2 / denom
    c3 = (32.0 / denom + eta / 2.0) * (v1 + v_upsilon / rho) + c2 + c1
    return StabilityConstants(c0, c1, c3, lambda_m, eta, c2, tau)


@dataclass
class DiagnosticsRecord:
    """Per-iteration theory diagnostics.

    ``psi`` is None when lambda_min(AA^T) = 0 makes the stability function
    undefined; all added correction terms are nonnegative, so whenever psi
    is defined it dominates the augmented Lagrangian.
    """

    aug_lagrangian: float
    psi: Optional[float]
    primal_residual: float
    upsilon: float
    gamma: float
    grad_err_sq_prev: float


def augmented_lagrangian(problem, x, z, u, beta):
    """F(z) + H(x) + <u, Ax - z> + (beta/2) ||Ax - z||^2.

    ``beta`` may be zero here, giving the plain Lagrangian.
    """
    r = problem.op.apply(x) - np.asarray(z, dtype=float)
    objective = problem.reg.value(z) + problem.loss.full_value(x)
    return _augmented_lagrangian(objective, np.asarray(u, dtype=float), r, beta)


def _augmented_lagrangian(objective, u, r, beta):
    """``augmented_lagrangian`` given F(z) + H(x) and the residual r = Ax - z."""
    return objective + float(u @ r) + 0.5 * beta * float(r @ r)


def apply_B(x, op, tau, beta):
    """Apply B = tau*Id - beta*A^T A to a vector."""
    x = np.asarray(x, dtype=float)
    return tau * x - beta * op.adjoint(op.apply(x))


def stability_psi(problem, state, consts, upsilon, grad_err_sq_prev, beta, sigma, rho):
    """Stability function at the state's (current, lagged) iterate pair.

    The five terms are the augmented Lagrangian, the lagged dual/primal
    coupling weighted by c0, the error-bound term in upsilon, the previous
    squared estimator error, and the lagged squared step weighted by c3.

    Raises DiagnosticUndefinedError if constructed with lambda_m <= 0
    (already prevented by ``stability_constants``).
    """
    if consts.lambda_m <= 0:
        raise DiagnosticUndefinedError("stability function undefined for lambda_m <= 0")
    lb = augmented_lagrangian(problem, state.x, state.z, state.u, beta)
    return _psi(lb, problem.op, state, consts, upsilon, grad_err_sq_prev, beta, sigma, rho)


def _psi(lb, op, state, consts, upsilon, grad_err_sq_prev, beta, sigma, rho):
    """``stability_psi`` given the augmented Lagrangian ``lb`` at the state."""
    coupling = op.adjoint(state.u - state.u_prev) + sigma * apply_B(
        state.x - state.x_prev, op, consts.tau, beta
    )
    dx = state.x - state.x_prev
    denom = sigma * beta * consts.lambda_m
    return (
        lb
        + consts.c0 * float(coupling @ coupling)
        + (1.0 / rho) * (32.0 / denom + consts.eta / 2.0) * upsilon
        + (16.0 / denom) * grad_err_sq_prev
        + consts.c3 * float(dx @ dx)
    )
