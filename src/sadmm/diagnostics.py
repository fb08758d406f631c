"""Theory-facing instrumentation for solver runs.

This module holds the coefficients of the stability function used to
certify descent in expectation, and evaluates it, with the augmented
Lagrangian it starts from, on the values ``solver.step`` already has.
Everything here is a pure computation over state snapshots.
"""

from dataclasses import dataclass
from typing import Optional

from .exceptions import DiagnosticUndefinedError

__all__ = [
    "DiagnosticsRecord",
    "StabilityConstants",
    "stability_constants",
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


def _augmented_lagrangian(objective, u, r, beta):
    """F(z) + H(x) + <u, r> + (beta/2) ||r||^2 from ``objective`` = F(z) + H(x)."""
    return objective + float(u @ r) + 0.5 * beta * float(r @ r)


def _psi(lb, op, state, consts, upsilon, grad_err_sq_prev, beta, sigma, rho):
    """Stability function at the state's (current, lagged) iterate pair.

    Adds to the augmented Lagrangian ``lb`` the coupling A^T (u - u_prev) +
    sigma B dx, B = tau*Id - beta*A^T A and dx = x - x_prev, weighted by c0;
    the error-bound term in upsilon; the previous squared estimator error;
    and c3 ||dx||^2.
    """
    dx = state.x - state.x_prev
    coupling = op.adjoint(state.u - state.u_prev) + sigma * (
        consts.tau * dx - beta * op.adjoint(op.apply(dx))
    )
    denom = sigma * beta * consts.lambda_m
    return (
        lb
        + consts.c0 * float(coupling @ coupling)
        + (1.0 / rho) * (32.0 / denom + consts.eta / 2.0) * upsilon
        + (16.0 / denom) * grad_err_sq_prev
        + consts.c3 * float(dx @ dx)
    )
