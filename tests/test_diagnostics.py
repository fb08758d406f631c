import numpy as np
import pytest

from helpers import dense, engineered_feasible_params
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
    apply_B,
    augmented_lagrangian,
    run,
    stability_constants,
    stability_psi,
    theoretical_constants,
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


def test_apply_B_examples():
    assert np.array_equal(apply_B(np.array([1.0, 1.0]), Identity(2), 2.0, 1.0), [1.0, 1.0])
    x = np.array([0.3, -0.4, 2.0])
    assert np.array_equal(apply_B(x, Identity(3), 5.0, 0.0), 5.0 * x)


def test_apply_B_matches_explicit_gram_oracle():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((6, 4))
    op = DenseMatrix(mat)
    tau, beta = 3.7, 1.9
    explicit = tau * np.eye(4) - beta * mat.T @ mat
    for _ in range(50):
        x = rng.standard_normal(4)
        assert np.allclose(apply_B(x, op, tau, beta), explicit @ x, rtol=1e-12)


def test_augmented_lagrangian_zero_residual_case():
    problem = toy_problem(seed=2)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4)
    z = problem.op.apply(x)
    u = rng.standard_normal(4)
    expected = problem.reg.value(z) + problem.loss.full_value(x)
    assert augmented_lagrangian(problem, x, z, u, 1.7) == pytest.approx(expected)


def test_augmented_lagrangian_zero_beta_allowed():
    problem = toy_problem(seed=4)
    rng = np.random.default_rng(5)
    x, z, u = rng.standard_normal(4), rng.standard_normal(4), rng.standard_normal(4)
    r = problem.op.apply(x) - z
    expected = problem.reg.value(z) + problem.loss.full_value(x) + float(u @ r)
    assert augmented_lagrangian(problem, x, z, u, 0.0) == pytest.approx(expected)


def test_augmented_lagrangian_term_by_term_oracle():
    problem = toy_problem(seed=6, m=5)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(4)
    z = rng.standard_normal(5)
    u = rng.standard_normal(5)
    beta = 2.3
    ax = problem.op.apply(x)
    oracle = (
        problem.reg.value(z)
        + problem.loss.full_value(x)
        + sum(u[i] * (ax[i] - z[i]) for i in range(5))
        + 0.5 * beta * sum((ax[i] - z[i]) ** 2 for i in range(5))
    )
    assert augmented_lagrangian(problem, x, z, u, beta) == pytest.approx(
        oracle, rel=1e-12
    )


def _stationary_state(x, z, u):
    return SolverState(x=x, z=z, u=u, x_prev=x.copy(), u_prev=u.copy(), t=3)


def test_psi_reduces_to_lagrangian_at_stationarity():
    problem = toy_problem(seed=8)
    rng = np.random.default_rng(9)
    x = rng.standard_normal(4)
    z = rng.standard_normal(4)
    u = rng.standard_normal(4)
    beta, sigma = 1.5, 0.4
    consts = stability_constants(sigma, beta, 4.0, 2.0, 1.0, 1.0, 1e-6, 0.0, 1.0, 0.5)
    psi = stability_psi(
        problem, _stationary_state(x, z, u), consts, 0.0, 0.0, beta, sigma, 0.5
    )
    assert psi == pytest.approx(augmented_lagrangian(problem, x, z, u, beta), rel=1e-12)


def test_psi_exact_estimator_keeps_only_lagged_terms():
    problem = toy_problem(seed=10)
    rng = np.random.default_rng(11)
    x, xp = rng.standard_normal(4), rng.standard_normal(4)
    z = rng.standard_normal(4)
    u, up = rng.standard_normal(4), rng.standard_normal(4)
    beta, sigma, rho = 1.2, 0.3, 1.0
    consts = stability_constants(sigma, beta, 5.0, 2.0, 1.0, 2.0, 1e-6, 0.0, 1.0, rho)
    state = SolverState(x=x, z=z, u=u, x_prev=xp, u_prev=up, t=2)
    psi = stability_psi(problem, state, consts, 0.0, 0.0, beta, sigma, rho)
    coupling = problem.op.adjoint(u - up) + sigma * apply_B(x - xp, problem.op, consts.tau, beta)
    expected = (
        augmented_lagrangian(problem, x, z, u, beta)
        + consts.c0 * float(coupling @ coupling)
        + consts.c3 * float((x - xp) @ (x - xp))
    )
    assert psi == pytest.approx(expected, rel=1e-12)


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
    upsilon, grad_err = 0.37, 0.12
    consts = stability_constants(sigma, beta, tau, L, lam, eta, c2, v1, v_up, rho)
    state = SolverState(x=x, z=z, u=u, x_prev=xp, u_prev=up, t=5)
    psi = stability_psi(problem, state, consts, upsilon, grad_err, beta, sigma, rho)

    mat = dense(problem.op)
    denom = sigma * beta * lam
    coupling = mat.T @ (u - up) + sigma * (tau * (x - xp) - beta * mat.T @ (mat @ (x - xp)))
    oracle = (
        augmented_lagrangian(problem, x, z, u, beta)
        + (4.0 * (1.0 - sigma) / (sigma**2 * beta * lam)) * float(coupling @ coupling)
        + (1.0 / rho) * (32.0 / denom + eta / 2.0) * upsilon
        + (16.0 / denom) * grad_err
        + ((32.0 / denom + eta / 2.0) * (v1 + v_up / rho) + c2
           + 8.0 * (sigma * tau + L) ** 2 / denom) * float((x - xp) @ (x - xp))
    )
    assert psi == pytest.approx(oracle, rel=1e-10)


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
