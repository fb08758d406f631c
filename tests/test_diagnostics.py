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
    Problem,
    SolverConfig,
    SolverState,
    init_estimator,
    run,
    stability_constants,
    step,
    theoretical_constants,
)
from sadmm.solver import _DiagContext


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
    assert consts.c1 == pytest.approx(
        8.0 * (sigma * tau + L) ** 2 / denom, rel=1e-15
    )
    assert consts.c3 == pytest.approx(
        (32.0 / denom + eta / 2.0) * (v1 + v_up / rho) + c2 + consts.c1, rel=1e-15
    )
    assert consts.lambda_m == lam and consts.eta == eta and consts.c2 == c2


def test_stability_constants_require_positive_lambda():
    with pytest.raises(DiagnosticUndefinedError):
        stability_constants(0.4, 1.0, 1.0, 1.0, 0.0, 1.0, 1e-6, 0.0, 1.0, 1.0)


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


def _diag_step(problem, state, spec, consts, beta, sigma, rho):
    """One step from a hand-built state with the diagnostics of ``consts``."""
    config = SolverConfig(beta=beta, tau=consts.tau, sigma=sigma, estimator=spec)
    est = init_estimator(spec, problem.loss, state.x)
    return step(state, problem, config, est, _DiagContext(consts, rho))


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
    beta, sigma, rho = 2.0, 0.5, 1.0
    consts = stability_constants(sigma, beta, 4.0, 2.0, 1.0, 1.0, 1e-6, 0.0, 1.0, rho)
    new_state, rec = _diag_step(problem, state, EstimatorSpec("full"), consts, beta, sigma, rho)
    assert np.array_equal(new_state.x, xs) and np.array_equal(new_state.z, xs)
    assert np.array_equal(new_state.u, u)
    return problem, new_state, rec.diag


def test_augmented_lagrangian_zero_residual_case():
    problem, s, diag = _kkt_step()
    assert diag.primal_residual == 0.0
    assert diag.aug_lagrangian == problem.reg.value(s.z) + problem.loss.full_value(s.x)


def test_psi_reduces_to_lagrangian_at_stationarity():
    problem, s, diag = _kkt_step()
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
    beta, sigma, rho = 1.2, 0.3, 1.0
    consts = stability_constants(sigma, beta, 5.0, 2.0, 1.0, 2.0, 1e-6, 0.0, 1.0, rho)
    state = SolverState(x=x, z=z, u=u, x_prev=xp, u_prev=up, t=2)
    new_state, rec = _diag_step(problem, state, EstimatorSpec("full"), consts, beta, sigma, rho)
    assert rec.diag.upsilon == 0.0 and rec.diag.grad_err_sq_prev == 0.0
    assert rec.diag.psi == pytest.approx(
        psi_oracle(problem, new_state, consts, 0.0, 0.0, beta, sigma, rho), rel=1e-12
    )


def test_psi_term_by_term_oracle():
    problem = toy_problem(seed=12, m=6)
    rng = np.random.default_rng(13)
    d, m = 4, 6
    x, xp = rng.standard_normal(d), rng.standard_normal(d)
    z = rng.standard_normal(m)
    u, up = rng.standard_normal(m), rng.standard_normal(m)
    beta, sigma, tau, L = 1.9, 0.25, 6.0, 1.4
    lam = 0.8
    eta, c2, v1, v_up, rho = 0.5, 1e-7, 0.2, 1.1, 0.4
    consts = stability_constants(sigma, beta, tau, L, lam, eta, c2, v1, v_up, rho)
    state = SolverState(x=x, z=z, u=u, x_prev=xp, u_prev=up, t=5)
    spec = EstimatorSpec("sgd", batch_size=3, seed=2)
    new_state, rec = _diag_step(problem, state, spec, consts, beta, sigma, rho)
    diag = rec.diag
    # all five terms are live
    assert diag.upsilon > 0 and diag.grad_err_sq_prev > 0
    assert diag.psi == pytest.approx(
        psi_oracle(problem, new_state, consts, diag.upsilon, diag.grad_err_sq_prev,
                   beta, sigma, rho),
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
