import dataclasses
import math

import numpy as np
import pytest

from helpers import aug_lagrangian_oracle, engineered_feasible_params, psi_oracle
from sadmm import (
    DenseMatrix,
    DiagnosticUndefinedError,
    EstimatorSpec,
    FiniteSumLoss,
    Identity,
    L1,
    LeastSquaresComponent,
    LipschitzBound,
    Problem,
    SolverConfig,
    SolverState,
    SpectralEstimates,
    estimate_spectral,
    init_estimator,
    run,
    stability_constants,
    step,
    theoretical_constants,
    validate_params,
)


def toy_problem(seed=0, n=8, d=4, m=None):
    rng = np.random.default_rng(seed)
    loss = FiniteSumLoss(
        [
            LeastSquaresComponent(rng.standard_normal(d), rng.standard_normal())
            for _ in range(n)
        ]
    )
    if m is None:
        op = Identity(d)
    else:
        op = DenseMatrix(rng.standard_normal((m, d)))
    return Problem(loss=loss, reg=L1(0.2), op=op)


def test_stability_constants_match_defining_formulas():
    sigma, beta, tau, L, lam = 0.4, 1.3, 5.0, 2.0, 0.7
    eta, c2, v1, v_up, rho = 0.25, 1e-6, 0.1, 0.9, 0.5
    consts = stability_constants(sigma, beta, tau, L, lam, eta, c2, v1, v_up, rho)
    denom = sigma * beta * lam
    assert consts.c0 == pytest.approx(
        4.0 * (1.0 - sigma) / (sigma**2 * beta * lam), rel=1e-15
    )
    c1 = 8.0 * (sigma * tau + L) ** 2 / denom
    assert consts.c3 == pytest.approx(
        (32.0 / denom + eta / 2.0) * (v1 + v_up / rho) + c2 + c1, rel=1e-15
    )
    assert consts.c_upsilon == pytest.approx((32.0 / denom + eta / 2.0) / rho, rel=1e-15)
    assert consts.c_err == pytest.approx(16.0 / denom, rel=1e-15)
    assert len(dataclasses.fields(consts)) == 4


def test_stability_constants_require_positive_lambda():
    for lam in (0.0, -1.0, math.nan):
        with pytest.raises(DiagnosticUndefinedError):
            stability_constants(0.4, 1.0, 1.0, 1.0, lam, 1.0, 1e-6, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("kind", ["full", "sgd", "saga", "svrg", "sarah"])
def test_report_stability_is_stability_constants_at_its_own_eta_and_c2(kind):
    problem = toy_problem(seed=3)
    restart_p = 4.0 if kind == "sarah" else None
    spec = EstimatorSpec(kind, batch_size=2, restart_p=restart_p)
    config = SolverConfig(beta=1.7, tau=9.0, sigma=0.3, estimator=spec)
    spectral = estimate_spectral(problem.op)
    report = validate_params(problem, config, spectral, problem.loss.lipschitz_bound())
    vc = report.constants
    expected = stability_constants(
        config.sigma, config.beta, config.tau, report.lipschitz, report.lambda_min_aat,
        report.eta_used, report.c2_used, vc.v1, vc.v_upsilon, vc.rho,
    )
    assert dataclasses.astuple(report.stability) == dataclasses.astuple(expected)
    # a singular A A^T leaves psi undefined: no weights
    tall = toy_problem(seed=3, m=6)
    report = validate_params(tall, config, estimate_spectral(tall.op), LipschitzBound(1.0))
    assert report.stability is None


def test_augmented_lagrangian_term_by_term_oracle():
    # with m = 5 > d, lambda_min(AA^T) = 0: psi is undefined, the
    # augmented Lagrangian is still recorded
    for m in (None, 5):
        problem = toy_problem(seed=6, m=m)
        spec = EstimatorSpec("sgd", batch_size=3, seed=7)
        config = SolverConfig(
            beta=2.3, tau=40.0, sigma=0.5, estimator=spec, max_epochs=4, diag_every=1
        )
        result = run(problem, config)
        s, last = result.state, result.trace[-1].diag
        assert last.aug_lagrangian == pytest.approx(
            aug_lagrangian_oracle(problem, s.x, s.z, s.u, config.beta), rel=1e-12
        )
        assert (last.psi is None) == (m is not None)


def _diag_step(problem, state, config, spectral, L):
    """One step from a hand-built state, diagnosed with the parameter report
    of the given spectrum and Lipschitz constant; returns (report, new
    state, record)."""
    report = validate_params(problem, config, spectral, LipschitzBound(L))
    est = init_estimator(config.estimator, problem.loss, state.x)
    return (report, *step(state, problem, config, est, report))


def _kkt_step():
    """One full-gradient step from a KKT point of (1/4)||x - b||^2 + 0.25 ||x||_1.

    z = x and u = 0.25 sign(x) = -grad H(x); every value is dyadic, so the
    step is exact and leaves x, z and u where they are.
    """
    xs = np.array([1.5, -2.0, 0.75, -1.25])
    loss = FiniteSumLoss.from_rows("least_squares", np.eye(4), xs + 0.5 * np.sign(xs))
    problem = Problem(loss=loss, reg=L1(0.25), op=Identity(4))
    u = 0.25 * np.sign(xs)
    state = SolverState(x=xs, z=xs.copy(), u=u, x_prev=xs.copy(), u_prev=u.copy(), t=3)
    config = SolverConfig(beta=2.0, tau=4.0, sigma=0.5)
    _, new_state, rec = _diag_step(problem, state, config, SpectralEstimates(1.0, 1.0), 2.0)
    assert np.array_equal(new_state.x, xs) and np.array_equal(new_state.z, xs)
    assert np.array_equal(new_state.u, u)
    return problem, new_state, rec


def test_augmented_lagrangian_zero_residual_case():
    problem, s, rec = _kkt_step()
    diag = rec.diag
    assert rec.primal_residual == 0.0
    assert diag.aug_lagrangian == problem.reg.value(s.z) + problem.loss.full_value(s.x)


def test_psi_reduces_to_lagrangian_at_stationarity():
    problem, s, rec = _kkt_step()
    diag = rec.diag
    assert diag.psi == diag.aug_lagrangian
    assert diag.aug_lagrangian == pytest.approx(
        aug_lagrangian_oracle(problem, s.x, s.z, s.u, 2.0), rel=1e-15
    )


def test_psi_exact_estimator_keeps_only_lagged_terms():
    problem = toy_problem(seed=10)
    rng = np.random.default_rng(11)
    x, xp = rng.standard_normal(4), rng.standard_normal(4)
    z = rng.standard_normal(4)
    u, up = rng.standard_normal(4), rng.standard_normal(4)
    config = SolverConfig(beta=1.2, tau=5.0, sigma=0.3)
    state = SolverState(x=x, z=z, u=u, x_prev=xp, u_prev=up, t=2)
    report, new_state, rec = _diag_step(problem, state, config, SpectralEstimates(1.0, 1.0), 2.0)
    assert rec.diag.upsilon == 0.0 and rec.diag.grad_err_sq_prev == 0.0
    assert rec.diag.psi == pytest.approx(
        psi_oracle(problem, new_state, report, config, 0.0, 0.0), rel=1e-12
    )


def test_psi_term_by_term_oracle():
    problem = toy_problem(seed=12, m=6)
    rng = np.random.default_rng(13)
    d, m = 4, 6
    x, xp = rng.standard_normal(d), rng.standard_normal(d)
    z = rng.standard_normal(m)
    u, up = rng.standard_normal(m), rng.standard_normal(m)
    spec = EstimatorSpec("sgd", batch_size=3, seed=2)
    config = SolverConfig(beta=1.9, tau=6.0, sigma=0.25, estimator=spec)
    state = SolverState(x=x, z=z, u=u, x_prev=xp, u_prev=up, t=5)
    # a hand-picked spectrum: psi reads only lambda_min(AA^T) from it
    spectral = SpectralEstimates(4.0, 0.8)
    report, new_state, rec = _diag_step(problem, state, config, spectral, 1.4)
    diag = rec.diag
    # all five terms are live
    assert diag.upsilon > 0 and diag.grad_err_sq_prev > 0
    assert diag.psi == pytest.approx(
        psi_oracle(problem, new_state, report, config, diag.upsilon, diag.grad_err_sq_prev),
        rel=1e-10,
    )


def test_psi_dominates_lagrangian_along_a_run():
    problem = toy_problem(seed=14)
    L = problem.loss.lipschitz_bound()
    spec = EstimatorSpec("saga", batch_size=2, seed=5)
    vc = theoretical_constants(spec, L, problem.loss.n)
    beta, tau, sigma = engineered_feasible_params(
        1.0, 1.0, 1.0, L.L, vc.v1, vc.v_upsilon, vc.rho
    )
    config = SolverConfig(
        beta=beta, tau=tau, sigma=sigma, estimator=spec, max_epochs=10, diag_every=1
    )
    result = run(problem, config)
    assert len(result.trace) > 0
    for rec in result.trace:
        assert rec.diag is not None and rec.diag.psi is not None
        assert rec.diag.psi >= rec.diag.aug_lagrangian - 1e-12
        # nonnegative loss and penalty with u0 = 0 bound psi below by zero
        assert rec.diag.psi >= 0.0
