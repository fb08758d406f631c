"""Stochastic linearized ADMM iteration, runner and parameter validator.

One iteration performs, in order: the splitting-variable prox step, a
stochastic gradient estimate at the current point, the linearized primal
step, and the relaxed dual ascent step:

    z_{t+1} = prox_F( A x_t + u_t / beta, beta )
    x_{t+1} = x_t - (1/tau) ( g_t + A^T ( u_t + beta (A x_t - z_{t+1}) ) )
    u_{t+1} = u_t + sigma beta ( A x_{t+1} - z_{t+1} )

``validate_params`` evaluates the descent coefficient eta_tilde whose
positivity certifies that the stability function decreases in
expectation, together with the feasibility checks on (beta, tau, sigma).
The solver itself never enforces those checks; it runs on warnings and
aborts only on structural errors.
"""

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .diagnostics import (
    DiagnosticsRecord,
    StabilityConstants,
    _augmented_lagrangian,
    _psi,
    _quot,
    _square,
    stability_constants,
)
from .estimators import (
    EstimatorSpec,
    VarianceConstants,
    init_estimator,
    theoretical_constants,
)
from .exceptions import (
    DivergenceError,
    NoCertifiedConstantsError,
    ParameterError,
    SpectralEstimationError,
    _check_count,
)
from .linops import estimate_spectral
from .rng import DOMAIN_OUTPUT, substream

__all__ = [
    "SolverConfig",
    "SolverState",
    "IterationRecord",
    "RunResult",
    "ParamReport",
    "step",
    "run",
    "validate_params",
    "descent_coefficient",
    "ETA_GRID",
]

OUTPUT_RULES = ("final", "uniform_random")

# Grid over which the free constant eta is maximized when evaluating the
# descent coefficient.
ETA_GRID = tuple(2.0**k for k in range(-20, 21))


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters: penalty beta, step tau, dual relaxation sigma."""

    beta: float
    tau: float
    sigma: float = 0.95
    estimator: EstimatorSpec = field(default_factory=lambda: EstimatorSpec("full"))
    max_epochs: int = 10
    residual_tol: float = 0.0
    diag_every: int = 0
    seed: int = 0
    output_rule: str = "final"

    def __post_init__(self):
        if not self.beta > 0:
            raise ParameterError(f"beta must be positive, got {self.beta}")
        if not self.tau > 0:
            raise ParameterError(f"tau must be positive, got {self.tau}")
        if not 0 < self.sigma <= 1:
            raise ParameterError(f"sigma must lie in (0, 1], got {self.sigma}")
        _check_count("max_epochs", self.max_epochs, 1)
        if not self.residual_tol >= 0:
            raise ParameterError("residual_tol must be nonnegative")
        _check_count("diag_every", self.diag_every, 0)
        _check_count("seed", self.seed)
        if self.output_rule not in OUTPUT_RULES:
            raise ParameterError(f"unknown output_rule {self.output_rule!r}")


@dataclass
class SolverState:
    """Current and lagged iterates; ``t`` counts completed iterations.

    ``ax`` is A x, carried from one step to the next so that a step applies
    A once; None makes ``step`` compute it.
    """

    x: np.ndarray
    z: np.ndarray
    u: np.ndarray
    x_prev: np.ndarray
    u_prev: np.ndarray
    t: int = 0
    ax: Optional[np.ndarray] = None


@dataclass
class IterationRecord:
    iter: int
    epoch: float
    objective: float
    primal_residual: float
    wall_ms: float
    diag: Optional[DiagnosticsRecord] = None


@dataclass
class RunResult:
    trace: List[IterationRecord]
    output: Tuple[np.ndarray, np.ndarray]
    state: SolverState


def step(state, problem, config, estimator, report=None):
    """Advance one iteration; returns (new_state, record).

    Runs the z, x and u updates of the module docstring through the
    unchecked cores ``_apply``, ``_adjoint`` and ``_prox``: the state holds
    float arrays of the shapes ``run`` builds. A is applied once, to
    x_{t+1}. The estimator is updated in place. When ``report`` (the run's
    ParamReport from ``validate_params``) is given the record carries a
    DiagnosticsRecord computed for the new state (cost O(n * dim)); psi is
    weighted by ``report.stability``, and is None when that is None.
    """
    op, reg, loss = problem.op, problem.reg, problem.loss
    beta, tau, sigma = config.beta, config.tau, config.sigma
    t0 = time.perf_counter()
    ax = op._apply(state.x) if state.ax is None else state.ax
    z_next = reg._prox(ax + state.u / beta, beta)
    g = estimator.estimate(state.x)
    x_next = state.x - (g + op._adjoint(state.u + beta * (ax - z_next))) / tau
    ax_next = op._apply(x_next)
    resid_vec = ax_next - z_next
    u_next = state.u + sigma * beta * resid_vec
    new_state = SolverState(
        x=x_next, z=z_next, u=u_next, x_prev=state.x, u_prev=state.u, t=state.t + 1,
        ax=ax_next,
    )
    residual = math.sqrt(resid_vec.dot(resid_vec))
    if report is not None:
        # Before x_{t+1} is scored, while the loss's memo still holds x_t:
        # the estimator error and SARAH's bounding sequence both take the
        # exact gradient there.
        err = g - loss.full_gradient(state.x)
        grad_err_sq_prev = float(err @ err)
        upsilon, gamma = estimator.upsilon_gamma(x_next)
    objective = loss.full_value(x_next) + reg.value(z_next)
    diag = None
    if report is not None:
        aug = _augmented_lagrangian(objective, u_next, resid_vec, beta)
        psi = None
        if report.stability is not None:
            psi = _psi(aug, op, new_state, config, report.stability, upsilon, grad_err_sq_prev)
        diag = DiagnosticsRecord(aug, psi, residual, upsilon, gamma, grad_err_sq_prev)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    record = IterationRecord(
        iter=new_state.t,
        epoch=estimator.evals / loss.n,
        objective=objective,
        primal_residual=residual,
        wall_ms=wall_ms,
        diag=diag,
    )
    return new_state, record


def _variance_constants(spec, L, n):
    """Certified constants, or conservative defaults flagged uncertified."""
    try:
        return theoretical_constants(spec, L, n), True
    except NoCertifiedConstantsError:
        b = n if spec.kind == "full" else spec.batch_size
        return VarianceConstants(0.0, 0.0, _square(L.L), b / n), False


def run(problem, config, x0=None, spectral=None):
    """Run the iteration for ``max_epochs`` worth of estimator calls.

    Starts from x0 (zeros when omitted), z0 = A x0, u0 = 0. One epoch is
    ceil(n / b) estimator calls (one call for the full backend). With a
    positive finite ``residual_tol`` the run stops early once both the
    primal residual and the relative x-stagnation fall below it; the
    default 0 and an infinite tolerance both exhaust the budget. The
    reported iterate follows ``output_rule``: the last state, or one drawn
    uniformly from the trace. ``spectral`` (SpectralEstimates) is used by
    the diagnostics when ``diag_every > 0``, whose steps read psi's weights
    from its ``validate_params`` report; when omitted it is estimated here
    with ``config.seed``. A non-finite x, z, u or recorded objective
    raises DivergenceError naming it. The loss's memo is dropped when the
    run returns or raises.
    """
    loss = problem.loss
    if x0 is None:
        x0 = np.zeros(loss.dim)
    x0 = np.asarray(x0, dtype=float)  # init_estimator checks its shape
    try:
        return _iterate(problem, config, x0, spectral)
    finally:
        loss.drop_memo()


def _non_finite(x, z, u):
    """Which of x, z, u has a non-finite entry, or None: one sum of squares
    (``np.vdot`` does not warn on overflow), then a scan if that overflows."""
    if math.isfinite(np.vdot(x, x) + np.vdot(z, z) + np.vdot(u, u)):
        return None
    return next((k for k, v in zip("xzu", (x, z, u)) if not np.isfinite(v).all()), None)


def _iterate(problem, config, x0, spectral):
    loss, op = problem.loss, problem.op
    estimator = init_estimator(config.estimator, loss, x0)
    b_eff = loss.n if config.estimator.kind == "full" else config.estimator.batch_size
    total_iters = config.max_epochs * math.ceil(loss.n / b_eff)
    ax0 = op.apply(x0)
    state = SolverState(
        x=x0.copy(),
        z=ax0.copy(),
        u=np.zeros(op.out_dim),
        x_prev=x0.copy(),
        u_prev=np.zeros(op.out_dim),
        t=0,
        ax=ax0,
    )
    report = None  # the diagnosed steps read psi's weights from it
    if config.diag_every > 0:
        if spectral is None:
            try:
                spectral = estimate_spectral(op, seed=config.seed)
            except SpectralEstimationError as exc:
                spectral = exc.best
        report = validate_params(problem, config, spectral, loss.lipschitz_bound())
    keep_iterates = config.output_rule == "uniform_random"
    trace = []
    iterates = []
    for _ in range(total_iters):
        sampled = report is not None and state.t % config.diag_every == 0
        new_state, record = step(
            state, problem, config, estimator, report if sampled else None
        )
        name = _non_finite(new_state.x, new_state.z, new_state.u)
        if name:
            raise DivergenceError(new_state.t, name)
        if not math.isfinite(record.objective):
            raise DivergenceError(new_state.t, "objective")
        trace.append(record)
        if keep_iterates:
            iterates.append((new_state.x, new_state.z))
        stalled = False
        if 0.0 < config.residual_tol < math.inf:
            dx = new_state.x - state.x
            stalled = (
                record.primal_residual <= config.residual_tol
                and math.sqrt(dx.dot(dx))
                <= config.residual_tol * (1.0 + math.sqrt(new_state.x.dot(new_state.x)))
            )
        state = new_state
        if stalled:
            break
    if config.output_rule == "uniform_random" and iterates:
        k = int(substream(config.seed, DOMAIN_OUTPUT, 0).integers(0, len(iterates)))
        output = iterates[k]
    else:
        output = (state.x, state.z)
    # A kept result does not hold the carried A x; a step from it recomputes it.
    state.ax = None
    return RunResult(trace=trace, output=output, state=state)


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
