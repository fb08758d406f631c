"""Theory-facing instrumentation for solver runs.

This module holds the coefficients of the stability function used to
certify descent in expectation, and evaluates it, with the augmented
Lagrangian it starts from, on the values ``solver.step`` already has.
Everything here is a pure computation over state snapshots.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .exceptions import DiagnosticUndefinedError

__all__ = [
    "DiagnosticsRecord",
    "StabilityConstants",
    "stability_constants",
]


def _square(x):
    """x ** 2, reading an overflow as inf."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _quot(a, b):
    """a / b for a >= 0, reading a division by an underflowed b = 0 as inf
    (nan for 0 / 0)."""
    try:
        return a / b
    except ZeroDivisionError:
        return math.inf if a > 0 else math.nan


@dataclass(frozen=True)
class StabilityConstants:
    """Weights of the stability function's correction terms, frozen for one run.

    With q = sigma beta lambda_m and c1 = 8(sigma tau + L)^2 / q:

    c0 = 4(1-sigma) / (sigma q)
    c3 = (32/q + eta/2)(V1 + V_Upsilon/rho) + c2 + c1
    c_upsilon = (1/rho)(32/q + eta/2)
    c_err = 16/q
    """

    c0: float
    c3: float
    c_upsilon: float
    c_err: float


def stability_constants(sigma, beta, tau, L, lambda_m, eta, c2, v1, v_upsilon, rho):
    """Evaluate the stability-function weights from raw parameters."""
    if not lambda_m > 0:
        raise DiagnosticUndefinedError(
            "stability constants need lambda_min(AA^T) > 0"
        )
    denom = sigma * beta * lambda_m
    c0 = _quot(4.0 * (1.0 - sigma), sigma * denom)
    c1 = _quot(8.0 * _square(sigma * tau + L), denom)
    w = _quot(32.0, denom) + eta / 2.0
    c3 = w * (v1 + v_upsilon / rho) + c2 + c1
    return StabilityConstants(c0, c3, (1.0 / rho) * w, _quot(16.0, denom))


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


def _psi(lb, op, state, config, consts, upsilon, grad_err_sq_prev):
    """Stability function at the state's (current, lagged) iterate pair.

    Adds to the augmented Lagrangian ``lb`` the coupling A^T (u - u_prev) +
    sigma B dx, B = tau*Id - beta*A^T A and dx = x - x_prev, weighted by c0;
    the error-bound term in upsilon; the previous squared estimator error;
    and c3 ||dx||^2. sigma, beta and tau are the run's ``config``.
    """
    dx = state.x - state.x_prev
    coupling = op._adjoint(state.u - state.u_prev) + config.sigma * (
        config.tau * dx - config.beta * op._adjoint(op._apply(dx))
    )
    return (
        lb
        + consts.c0 * float(coupling @ coupling)
        + consts.c_upsilon * upsilon
        + consts.c_err * grad_err_sq_prev
        + consts.c3 * float(dx @ dx)
    )
