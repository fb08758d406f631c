"""The parameter theory and the per-iteration diagnostics built on it.

The convergence argument rests on the estimator class's variance constants
(V1, V2, V_Upsilon, rho), the descent coefficient eta_tilde, whose
positivity certifies that the stability function psi decreases in
expectation, and psi's weights. ``validate_params`` evaluates them with the
feasibility checks on (beta, tau, sigma); psi and the augmented Lagrangian
are evaluated on the values ``solver.step`` already has. Everything here is
a pure computation over parameters and state snapshots.
"""

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from .exceptions import DiagnosticUndefinedError, NoCertifiedConstantsError

__all__ = [
    "DiagnosticsRecord",
    "StabilityConstants",
    "stability_constants",
    "VarianceConstants",
    "theoretical_constants",
    "ParamReport",
    "validate_params",
    "descent_coefficient",
    "ETA_GRID",
]

# Grid over which the free constant eta is maximized when evaluating the
# descent coefficient.
ETA_GRID = tuple(2.0**k for k in range(-20, 21))


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


class VarianceConstants(NamedTuple):
    v1: float
    v2: float
    v_upsilon: float
    rho: float


def theoretical_constants(spec, L, n):
    """Certified variance-reduction constants (V1, V2, V_Upsilon, rho).

    Only the gradient-table and recursive backends carry proven
    constants; for anything else a NoCertifiedConstantsError is raised and
    callers fall back to conservative defaults.
    """
    lip = L.L
    if spec.kind == "saga":
        b = spec.batch_size
        v_up = math.inf if b * n == 1 else n * _square(lip) / (b * n - 1)
        return VarianceConstants(0.0, 0.0, v_up, b / n)
    if spec.kind == "sarah":
        b = spec.batch_size
        return VarianceConstants(0.0, lip / math.sqrt(b), _square(lip) / b, 1.0 / spec.restart_p)
    raise NoCertifiedConstantsError(
        f"estimator kind {spec.kind!r} has no certified constants"
    )


def _variance_constants(spec, L, n):
    """Certified constants, or conservative defaults flagged uncertified."""
    try:
        return theoretical_constants(spec, L, n), True
    except NoCertifiedConstantsError:
        b = n if spec.kind == "full" else spec.batch_size
        return VarianceConstants(0.0, 0.0, _square(L.L), b / n), False


def descent_coefficient(
    tau, beta, sigma, op_norm_sq, lambda_m, L, eta, c2, v1, v_upsilon, rho
):
    """The coefficient multiplying ||x_{t+1} - x_t||^2 in the descent test.

    Positive values certify that the stability function decreases in
    expectation. Requires lambda_m > 0. A square that overflows, or a
    division by a product that underflows to 0, reads as inf.
    """
    denom = sigma * beta * lambda_m
    v = v1 + v_upsilon / rho
    return (
        tau
        - (L + beta * op_norm_sq) / 2.0
        - _quot(4.0 * sigma * _square(tau), beta * lambda_m)
        - _quot(8.0 * _square(sigma * tau + L), denom)
        - 1.0 / (2.0 * eta)
        - (_quot(64.0, denom) + eta) * v
        - c2
    )


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
class ParamReport:
    """Outcome of the parameter feasibility checks.

    ``checks`` is a list of (name, status, detail) with status one of
    "pass", "warn", "fail". ``eta_tilde`` is NaN when lambda_min(AA^T) = 0
    leaves the descent coefficient undefined. ``stability`` holds the
    weights of the stability function psi at ``eta_used`` and ``c2_used``,
    and is None unless lambda_min(AA^T) > 0.
    """

    eta_tilde: float
    eta_used: float
    c2_used: float
    checks: List[Tuple[str, str, str]]
    certified: bool
    constants: VarianceConstants
    lipschitz: float
    op_norm_sq: float
    lambda_min_aat: float
    kappa: float
    stability: Optional[StabilityConstants]

    def all_pass(self):
        return all(status == "pass" for _, status, _ in self.checks)


def validate_params(problem, config, spectral, L):
    """Evaluate the feasibility checks and the descent coefficient.

    The free constant eta is chosen by maximizing the descent coefficient
    over ETA_GRID, and c2 is pinned to 1e-6 * tau; when no eta gives a
    finite value, the last one is reported with its value and the check
    fails. Reports, never raises.
    """
    beta, tau, sigma = config.beta, config.tau, config.sigma
    vc, certified = _variance_constants(config.estimator, L, problem.loss.n)
    c2 = 1e-6 * tau
    lam = spectral.lambda_min_aat
    checks = []

    ok = 2.0 * tau >= beta * spectral.op_norm_sq
    checks.append(
        (
            "tau_vs_beta_norm",
            "pass" if ok else "fail",
            f"2*tau = {2.0 * tau:g} vs beta*||A||^2 = {beta * spectral.op_norm_sq:g}",
        )
    )

    bound = 0.0 if math.isinf(spectral.condition_kappa) else 1.0 / (
        24.0 * spectral.condition_kappa
    )
    ok = sigma < bound
    checks.append(
        (
            "sigma_vs_kappa",
            "pass" if ok else "fail",
            f"sigma = {sigma:g} vs 1/(24*kappa) = {bound:g}",
        )
    )

    checks.append(
        (
            "lambda_min_positive",
            "pass" if lam > 0 else "warn",
            f"lambda_min(AA^T) = {lam:g}"
            + ("" if lam > 0 else " (A not surjective; descent theory unavailable)"),
        )
    )

    if lam > 0:
        best_eta, best_val = None, -math.inf
        for eta in ETA_GRID:
            val = descent_coefficient(
                tau, beta, sigma, spectral.op_norm_sq, lam, L.L, eta, c2, vc.v1, vc.v_upsilon, vc.rho
            )
            if val > best_val:
                best_eta, best_val = eta, val
        eta_used, eta_tilde = (eta, val) if best_eta is None else (best_eta, best_val)
        checks.append((
            "eta_tilde_positive",
            "pass" if eta_tilde > 0 else "fail",
            f"eta_tilde = {eta_tilde:g} at eta = {eta_used:g}",
        ))
        stability = stability_constants(
            sigma, beta, tau, L.L, lam, eta_used, c2, vc.v1, vc.v_upsilon, vc.rho
        )
    else:
        eta_used, eta_tilde, stability = 1.0, float("nan"), None
        checks.append(
            ("eta_tilde_positive", "warn", "undefined (division by lambda_min(AA^T) = 0)")
        )

    checks.append(
        (
            "certified_constants",
            "pass" if certified else "warn",
            "certified"
            if certified
            else f"uncertified: conservative defaults for {config.estimator.kind!r}",
        )
    )

    return ParamReport(
        eta_tilde=eta_tilde,
        eta_used=eta_used,
        c2_used=c2,
        checks=checks,
        certified=certified,
        constants=vc,
        lipschitz=L.L,
        op_norm_sq=spectral.op_norm_sq,
        lambda_min_aat=lam,
        kappa=spectral.condition_kappa,
        stability=stability,
    )


@dataclass
class DiagnosticsRecord:
    """Per-iteration theory diagnostics; the primal residual is its
    IterationRecord's.

    ``psi`` is None when lambda_min(AA^T) = 0 makes the stability function
    undefined; all added correction terms are nonnegative, so whenever psi
    is defined it dominates the augmented Lagrangian.
    """

    aug_lagrangian: float
    psi: Optional[float]
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
