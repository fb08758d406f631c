import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    aug_lagrangian_oracle,
    engineered_feasible_params,
    eta_tilde_oracle,
    psi_oracle,
)
from sadmm import (
    DenseMatrix,
    DivergenceError,
    EstimatorSpec,
    FiniteSumLoss,
    Identity,
    L1,
    LeastSquaresComponent,
    LipschitzBound,
    ParameterError,
    Problem,
    ShapeError,
    SolverConfig,
    SolverState,
    SpectralEstimates,
    VerticalStack,
    build_toy_reconstruction,
    estimate_spectral,
    generate_synthetic_quadratic,
    init_estimator,
    run,
    step,
    theoretical_constants,
    validate_params,
)


def small_problem(seed=0, n=15, d=6):
    return generate_synthetic_quadratic(n, d, seed=seed)


def unit_lipschitz_identity_problem(n=20, d=10, seed=0):
    """Identity operator, rows scaled so the gradient Lipschitz bound is 1."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    rows *= math.sqrt(0.5)
    b = rng.standard_normal(n)
    loss = FiniteSumLoss([LeastSquaresComponent(rows[i], b[i]) for i in range(n)])
    return Problem(loss=loss, reg=L1(0.1), op=Identity(d), name="engineered")


class FixedEstimate:
    """Stands in for an estimator: ``estimate`` returns the given g."""

    evals = 0

    def __init__(self, g):
        self.g = np.asarray(g, dtype=float)

    def estimate(self, x):
        return self.g.copy()


def one_step(op, reg, x, u, beta, tau=1.0, sigma=0.95, g=None):
    """One ``step`` from (x, u) under op and reg with the estimate g (zeros
    when omitted); the loss only scores the new iterate."""
    d = op.in_dim
    loss = FiniteSumLoss.from_rows("least_squares", np.eye(d), np.zeros(d))
    problem = Problem(loss=loss, reg=reg, op=op, name="one_step")
    config = SolverConfig(beta=beta, tau=tau, sigma=sigma)
    x, u = np.asarray(x, dtype=float), np.asarray(u, dtype=float)
    state = SolverState(x=x, z=np.zeros(op.out_dim), u=u, x_prev=x, u_prev=u)
    est = FixedEstimate(np.zeros(d) if g is None else g)
    return step(state, problem, config, est)[0]


def test_z_update_soft_threshold_case():
    new = one_step(Identity(3), L1(0.5), [2.0, -0.3, 0.1], np.zeros(3), 1.0)
    assert np.allclose(new.z, [1.5, 0.0, 0.0])


def test_z_update_zero_penalty_is_shifted_point():
    x = np.array([0.5, -1.0, 2.0])
    u = np.array([1.0, 2.0, -4.0])
    new = one_step(Identity(3), L1(0.0), x, u, 2.0)
    assert np.allclose(new.z, x + u / 2.0)


def test_z_update_beats_random_candidates():
    rng = np.random.default_rng(1)
    op = DenseMatrix(rng.standard_normal((5, 4)))
    reg = L1(0.6)
    x = rng.standard_normal(4)
    u = rng.standard_normal(5)
    beta = 1.7
    z_star = one_step(op, reg, x, u, beta).z
    ax = op.apply(x)

    def objective(z):
        return reg.value(z) + float(u @ (ax - z)) + 0.5 * beta * np.sum((ax - z) ** 2)

    base = objective(z_star)
    for _ in range(1000):
        z = z_star + rng.standard_normal(5)
        assert base <= objective(z) + 1e-12


def test_x_update_hand_case():
    # L1(2) at beta = 1 thresholds A x = 1 to z = 0; g = 0 and u = 0 leave
    # x - (x - 0) / tau
    new = one_step(Identity(1), L1(2.0), [1.0], [0.0], 1.0, tau=2.0)
    assert new.z[0] == 0.0
    assert new.x[0] == pytest.approx(0.5)


def test_x_update_zero_direction_keeps_x():
    rng = np.random.default_rng(2)
    op = DenseMatrix(rng.standard_normal((4, 3)))
    reg = L1(0.2)
    x = rng.standard_normal(3)
    u = rng.standard_normal(4)
    beta = 1.3
    ax = op.apply(x)
    z = reg.prox(ax + u / beta, beta)
    g = -op.adjoint(u + beta * (ax - z))
    new = one_step(op, reg, x, u, beta, tau=5.0, g=g)
    assert np.array_equal(new.x, x)


def test_x_update_step_shrinks_with_tau():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4)
    u = rng.standard_normal(4)
    g = rng.standard_normal(4)
    prev = None
    for tau in (1.0, 10.0, 100.0, 1000.0):
        delta = np.linalg.norm(one_step(Identity(4), L1(0.1), x, u, 1.0, tau=tau, g=g).x - x)
        if prev is not None:
            assert delta < prev
        prev = delta


def test_u_update_examples():
    # L1(0) at beta = 1: z = x + u = 3, and x_{t+1} = x - (g + u + x - z) = x - g
    op = Identity(1)
    new = one_step(op, L1(0.0), [2.0], [1.0], 1.0, sigma=0.95, g=[-1.0])
    assert new.x[0] == 3.0 and new.z[0] == 3.0
    assert new.u[0] == 1.0  # A x_{t+1} = z_{t+1} leaves the dual alone

    new = one_step(op, L1(0.0), [2.0], [1.0], 1.0, sigma=0.95, g=[0.0])
    assert new.x[0] == 2.0
    assert new.u[0] == pytest.approx(1.0 + 0.95 * (2.0 - 3.0))

    new = one_step(Identity(2), L1(0.0), [1.0, -1.0], np.zeros(2), 1.0, sigma=1.0, g=[1.0, -1.0])
    assert np.array_equal(new.x, [0.0, 0.0])
    assert np.array_equal(new.u, [-1.0, 1.0])


def test_step_equals_composition_of_updates():
    """Each step equals, byte for byte, the prox, linearized primal and
    relaxed dual updates written out from the module docstring, under a
    non-identity operator and every estimator."""
    base = small_problem(seed=4)
    op = DenseMatrix(np.random.default_rng(4).standard_normal((9, 6)))
    problem = Problem(loss=base.loss, reg=L1(0.3), op=op, name="dense_op")
    reg, d = problem.reg, problem.loss.dim
    for kind in ("full", "sgd", "saga", "svrg", "sarah"):
        spec = EstimatorSpec(kind, batch_size=4, epoch_len=3, restart_p=3.0, seed=8)
        config = SolverConfig(beta=1.3, tau=40.0, sigma=0.9, estimator=spec)
        beta, tau, sigma = config.beta, config.tau, config.sigma
        est_a = init_estimator(spec, problem.loss, np.zeros(d))
        est_b = init_estimator(spec, problem.loss, np.zeros(d))
        rng = np.random.default_rng(5)
        x0, u0 = rng.standard_normal(d), rng.standard_normal(op.out_dim)
        state = SolverState(x=x0, z=np.zeros(op.out_dim), u=u0, x_prev=x0, u_prev=u0)
        for _ in range(8):
            new_state, _ = step(state, problem, config, est_a)
            x, u = state.x, state.u
            ax = op.apply(x)
            z1 = reg.prox(ax + u / beta, beta)
            g = est_b.estimate(x)
            x1 = x - (g + op.adjoint(u + beta * (ax - z1))) / tau
            u1 = u + sigma * beta * (op.apply(x1) - z1)
            assert new_state.z.tobytes() == z1.tobytes()
            assert new_state.x.tobytes() == x1.tobytes()
            assert new_state.u.tobytes() == u1.tobytes()
            assert new_state.x_prev is x and new_state.u_prev is u
            assert not np.array_equal(x1, x)
            state = new_state


def test_dual_step_identity_every_iteration():
    problem = small_problem(seed=5)
    config = SolverConfig(
        beta=1.4, tau=5.0, sigma=0.8,
        estimator=EstimatorSpec("sgd", batch_size=3, seed=2), max_epochs=4,
    )
    est = init_estimator(config.estimator, problem.loss, np.zeros(6))
    state = SolverState(
        x=np.zeros(6), z=np.zeros(6), u=np.zeros(6),
        x_prev=np.zeros(6), u_prev=np.zeros(6), t=0,
    )
    for _ in range(20):
        new_state, _ = step(state, problem, config, est)
        expected = state.u + config.sigma * config.beta * (
            problem.op.apply(new_state.x) - new_state.z
        )
        assert np.array_equal(new_state.u, expected)
        state = new_state


def test_z_residual_chain_inequality():
    problem = small_problem(seed=6, n=20, d=8)
    spectral = estimate_spectral(problem.op)
    norm_a = math.sqrt(spectral.op_norm_sq)
    for spec in (
        EstimatorSpec("full"),
        EstimatorSpec("sarah", batch_size=4, restart_p=5.0, seed=3),
    ):
        config = SolverConfig(beta=1.0, tau=4.0, sigma=0.9, estimator=spec, max_epochs=8)
        est = init_estimator(spec, problem.loss, np.zeros(8))
        state = SolverState(
            x=np.zeros(8), z=problem.op.apply(np.zeros(8)), u=np.zeros(8),
            x_prev=np.zeros(8), u_prev=np.zeros(8), t=0,
        )
        history = [state]
        for _ in range(40):
            state, _ = step(state, problem, config, est)
            history.append(state)
        sb = config.sigma * config.beta
        for t in range(1, len(history) - 1):
            prev_state, cur = history[t], history[t + 1]
            lhs = np.linalg.norm(cur.z - prev_state.z)
            rhs = (
                norm_a * np.linalg.norm(cur.x - prev_state.x)
                + np.linalg.norm(cur.u - prev_state.u) / sb
                + np.linalg.norm(prev_state.u - prev_state.u_prev) / sb
            )
            assert lhs <= rhs + 1e-9 * (1.0 + rhs)


def test_full_estimator_descends_augmented_lagrangian():
    # at parameters certified by the feasibility algebra the deterministic
    # iteration decreases the augmented Lagrangian at every step
    problem = unit_lipschitz_identity_problem()
    L = problem.loss.lipschitz_bound()
    beta, tau, sigma = engineered_feasible_params(
        1.0, 1.0, 1.0, L.L, 0.0, L.L**2, 1.0
    )
    config = SolverConfig(
        beta=beta, tau=tau, sigma=sigma, estimator=EstimatorSpec("full"), max_epochs=300
    )
    d = problem.loss.dim
    est = init_estimator(config.estimator, problem.loss, np.zeros(d))
    state = SolverState(
        x=np.zeros(d), z=problem.op.apply(np.zeros(d)), u=np.zeros(d),
        x_prev=np.zeros(d), u_prev=np.zeros(d), t=0,
    )
    values = [aug_lagrangian_oracle(problem, state.x, state.z, state.u, config.beta)]
    for _ in range(300):
        state, _ = step(state, problem, config, est)
        values.append(
            aug_lagrangian_oracle(problem, state.x, state.z, state.u, config.beta)
        )
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-10)


def test_run_exhausts_budget_when_tolerance_disabled():
    problem = small_problem(seed=8)
    spec = EstimatorSpec("sgd", batch_size=4, seed=1)
    # ceil(15 / 4) = 4 iterations per epoch
    config = SolverConfig(
        beta=1.0, tau=4.0, sigma=0.9, estimator=spec,
        max_epochs=6, residual_tol=math.inf,
    )
    result = run(problem, config)
    assert len(result.trace) == 6 * 4
    assert result.trace[-1].iter == 24

    config_full = SolverConfig(
        beta=1.0, tau=4.0, sigma=0.9, estimator=EstimatorSpec("full"),
        max_epochs=9, residual_tol=math.inf,
    )
    assert len(run(problem, config_full).trace) == 9


def test_run_stops_early_on_small_residual():
    problem = small_problem(seed=9)
    config = SolverConfig(
        beta=1.0, tau=4.0, sigma=0.95, estimator=EstimatorSpec("full"),
        max_epochs=50000, residual_tol=1e-8,
    )
    result = run(problem, config)
    assert len(result.trace) < 50000
    assert result.trace[-1].primal_residual <= 1e-8


def test_run_zero_tolerance_exhausts_budget_after_a_still_step():
    # The first batch only touches pixels whose blurred target is 0, so the
    # first step leaves x, z and u at 0; the default tolerance 0 must not
    # take that for convergence.
    problem, _ = build_toy_reconstruction(32, 32, seed=0)
    config = SolverConfig(
        beta=0.1, tau=0.65, sigma=0.95,
        estimator=EstimatorSpec("sgd", batch_size=16, seed=0),
        max_epochs=4, seed=0,
    )
    assert config.residual_tol == 0.0
    result = run(problem, config)
    assert len(result.trace) == 4 * 1024 // 16


def test_run_uses_given_spectral_estimate(monkeypatch):
    import sadmm.solver

    problem = small_problem(seed=12)
    config = SolverConfig(
        beta=1.0, tau=4.0, sigma=0.9, estimator=EstimatorSpec("saga", batch_size=5),
        max_epochs=2, diag_every=1,
    )
    spectral = estimate_spectral(problem.op, seed=config.seed)
    expected = run(problem, config)

    def fail(*args, **kwargs):
        raise AssertionError("spectrum estimated again")

    monkeypatch.setattr(sadmm.solver, "estimate_spectral", fail)
    result = run(problem, config, spectral=spectral)
    assert [r.diag.psi for r in result.trace] == [r.diag.psi for r in expected.trace]
    assert result.trace[-1].objective == expected.trace[-1].objective


@pytest.mark.filterwarnings("ignore:invalid value", "ignore:overflow")
def test_run_reports_divergence_with_iteration():
    problem = small_problem(seed=10)
    config = SolverConfig(
        beta=1.0, tau=1e-4, sigma=0.95, estimator=EstimatorSpec("full"), max_epochs=5000
    )
    with pytest.raises(DivergenceError) as excinfo:
        run(problem, config)
    assert excinfo.value.iteration >= 1


@pytest.mark.filterwarnings("ignore:overflow")
def test_run_reports_divergence_on_non_finite_objective():
    # (x - 0)^2 overflows once x passes about 1.3e154 while x, z and u stay
    # finite, so only the objective shows the blow-up.
    loss = FiniteSumLoss([LeastSquaresComponent([1.0], 0.0)])
    problem = Problem(loss=loss, reg=L1(0.1), op=Identity(1), name="overflow")
    config = SolverConfig(
        beta=1.0, tau=4.0, sigma=0.9, estimator=EstimatorSpec("full"), max_epochs=3
    )
    with pytest.raises(DivergenceError, match="objective") as excinfo:
        run(problem, config, x0=np.array([1e155]))
    assert excinfo.value.iteration == 1


@pytest.mark.filterwarnings("ignore:overflow")
def test_run_names_the_non_finite_x():
    # g / tau = 1e308 / 0.5 overflows, so x_1 = -inf; z_1 = prox(x_0) and
    # u_1 stay finite only until x_1 reaches them
    loss = FiniteSumLoss([LeastSquaresComponent([1.0], 0.0)])
    problem = Problem(loss=loss, reg=L1(0.1), op=Identity(1), name="x_overflow")
    config = SolverConfig(
        beta=1.0, tau=0.5, sigma=0.9, estimator=EstimatorSpec("full"), max_epochs=3
    )
    with pytest.raises(DivergenceError, match="^non-finite x at iteration 1$") as excinfo:
        run(problem, config, x0=np.array([1e308]))
    assert (excinfo.value.what, excinfo.value.iteration) == ("x", 1)


@pytest.mark.filterwarnings("ignore:overflow")
def test_run_names_the_non_finite_u():
    # A = [1e200]: x_1 = 1 - 1/tau = -1e120 is finite and z_1 = prox(A x_0)
    # is finite, but A x_1 overflows, so only u_1 = sigma beta (A x_1 - z_1)
    # is infinite
    loss = FiniteSumLoss([LeastSquaresComponent([1.0], 0.0)])
    problem = Problem(loss=loss, reg=L1(0.1), op=DenseMatrix([[1e200]]), name="u_overflow")
    config = SolverConfig(
        beta=1.0, tau=1e-120, sigma=0.9, estimator=EstimatorSpec("full"), max_epochs=3
    )
    with pytest.raises(DivergenceError, match="^non-finite u at iteration 1$") as excinfo:
        run(problem, config, x0=np.array([1.0]))
    assert (excinfo.value.what, excinfo.value.iteration) == ("u", 1)


@pytest.mark.parametrize("where", [0, 1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_divergence_check_names_the_non_finite_vector(where, bad):
    from sadmm.solver import _non_finite

    vectors = [np.ones(3), np.ones(5), np.ones(5)]
    assert _non_finite(*vectors) is None
    vectors[where][where + 1] = bad
    assert _non_finite(*vectors) == "xzu"[where]


@pytest.mark.filterwarnings("error")
def test_divergence_check_passes_a_huge_finite_iterate():
    # the squares of 1e200 overflow the sum; the scan then finds every
    # entry finite, and nothing warns
    from sadmm.solver import _non_finite

    huge = np.full(4, 1e200)
    assert _non_finite(huge, -huge, huge[:1]) is None
    assert _non_finite(huge, -huge, np.array([np.inf])) == "u"


def test_run_is_deterministic_given_seed():
    problem = small_problem(seed=11)
    spec = EstimatorSpec("sarah", batch_size=3, restart_p=4.0, seed=21)
    config = SolverConfig(beta=1.0, tau=4.0, sigma=0.9, estimator=spec, max_epochs=5, seed=21)
    a = run(problem, config)
    b = run(problem, config)
    assert [r.objective for r in a.trace] == [r.objective for r in b.trace]
    assert [r.primal_residual for r in a.trace] == [r.primal_residual for r in b.trace]
    assert np.array_equal(a.output[0], b.output[0])


def test_uniform_random_output_comes_from_trace():
    problem = small_problem(seed=12)
    spec = EstimatorSpec("sgd", batch_size=5, seed=3)
    config = SolverConfig(
        beta=1.0, tau=4.0, sigma=0.9, estimator=spec,
        max_epochs=4, seed=3, output_rule="uniform_random",
    )
    result = run(problem, config)
    # replay the iterates and confirm membership
    est = init_estimator(spec, problem.loss, np.zeros(6))
    state = SolverState(
        x=np.zeros(6), z=problem.op.apply(np.zeros(6)), u=np.zeros(6),
        x_prev=np.zeros(6), u_prev=np.zeros(6), t=0,
    )
    xs = []
    for _ in range(len(result.trace)):
        state, _ = step(state, problem, config, est)
        xs.append(state.x)
    assert any(np.array_equal(result.output[0], x) for x in xs)
    again = run(problem, config)
    assert np.array_equal(result.output[0], again.output[0])


def test_update_shape_errors():
    # step takes the shapes run built; run checks x0, the config beta
    problem = small_problem()
    with pytest.raises(ShapeError):
        run(problem, SolverConfig(beta=1.0, tau=4.0), x0=np.zeros(problem.loss.dim + 1))
    with pytest.raises(ParameterError):
        SolverConfig(beta=0.0, tau=4.0)


def test_config_validation():
    with pytest.raises(ParameterError):
        SolverConfig(beta=0.0, tau=1.0)
    with pytest.raises(ParameterError):
        SolverConfig(beta=1.0, tau=-1.0)
    with pytest.raises(ParameterError):
        SolverConfig(beta=1.0, tau=1.0, sigma=0.0)
    with pytest.raises(ParameterError):
        SolverConfig(beta=1.0, tau=1.0, sigma=1.5)
    with pytest.raises(ParameterError):
        SolverConfig(beta=1.0, tau=1.0, output_rule="median")


def test_validator_rejects_large_sigma():
    problem = small_problem(seed=13)
    config = SolverConfig(beta=1.0, tau=4.0, sigma=0.95, estimator=EstimatorSpec("full"))
    spectral = estimate_spectral(problem.op)
    report = validate_params(problem, config, spectral, problem.loss.lipschitz_bound())
    status = dict((name, s) for name, s, _ in report.checks)
    assert status["sigma_vs_kappa"] == "fail"
    assert status["certified_constants"] == "warn"


def test_validator_boundary_tau_passes_non_strictly():
    problem = small_problem(seed=14)  # identity operator, so ||A||^2 = 1
    config = SolverConfig(beta=2.0, tau=1.0, sigma=0.01, estimator=EstimatorSpec("full"))
    spectral = estimate_spectral(problem.op)
    assert spectral.op_norm_sq == 1.0
    report = validate_params(problem, config, spectral, problem.loss.lipschitz_bound())
    status = dict((name, s) for name, s, _ in report.checks)
    assert status["tau_vs_beta_norm"] == "pass"


def test_validator_engineered_triple_passes_with_positive_eta_tilde():
    problem = unit_lipschitz_identity_problem()
    L = problem.loss.lipschitz_bound()
    spec = EstimatorSpec("saga", batch_size=1, seed=0)
    vc = theoretical_constants(spec, L, problem.loss.n)
    beta, tau, sigma = engineered_feasible_params(
        1.0, 1.0, 1.0, L.L, vc.v1, vc.v_upsilon, vc.rho
    )
    config = SolverConfig(beta=beta, tau=tau, sigma=sigma, estimator=spec)
    spectral = estimate_spectral(problem.op)
    report = validate_params(problem, config, spectral, L)
    assert report.all_pass()
    assert report.eta_tilde > 0
    # the oracle evaluation of the display at the validator's own eta agrees
    oracle = eta_tilde_oracle(
        tau, beta, sigma, spectral.op_norm_sq, spectral.lambda_min_aat,
        L.L, report.eta_used, report.c2_used, vc.v1, vc.v_upsilon, vc.rho,
    )
    assert report.eta_tilde == pytest.approx(oracle, rel=1e-12)


def test_validator_singular_operator_warns_not_fails():
    rng = np.random.default_rng(15)
    loss = FiniteSumLoss(
        [LeastSquaresComponent(rng.standard_normal(3), 0.0) for _ in range(5)]
    )
    tall = DenseMatrix(rng.standard_normal((6, 3)))  # AA^T singular
    problem = Problem(loss=loss, reg=L1(0.1), op=tall)
    config = SolverConfig(beta=1.0, tau=4.0, sigma=0.5, estimator=EstimatorSpec("full"))
    spectral = estimate_spectral(problem.op)
    assert spectral.lambda_min_aat == 0.0
    report = validate_params(problem, config, spectral, problem.loss.lipschitz_bound())
    status = dict((name, s) for name, s, _ in report.checks)
    assert status["lambda_min_positive"] == "warn"
    assert status["eta_tilde_positive"] == "warn"
    assert math.isnan(report.eta_tilde)


@settings(max_examples=300, deadline=None)
@given(
    beta=st.floats(1e-300, 1e300),
    tau=st.floats(1e-300, 1e300),
    sigma=st.floats(0.0, 1.0, exclude_min=True),
    lip=st.floats(0.0, math.inf),
    op_norm_sq=st.floats(),
    lam=st.floats(),
    kind=st.sampled_from(["full", "sgd", "saga", "svrg", "sarah"]),
    n=st.integers(1, 4),
    batch_size=st.integers(1, 4),
    restart_p=st.floats(1.0, exclude_min=True, allow_infinity=False),
)
def test_validator_reports_on_any_parameters(
    beta, tau, sigma, lip, op_norm_sq, lam, kind, n, batch_size, restart_p
):
    # overflowing squares, underflowing products and an eta grid without a
    # finite value all end in a report, never in an exception
    loss = FiniteSumLoss.from_rows("least_squares", np.ones((n, 1)), np.zeros(n))
    problem = Problem(loss=loss, reg=L1(0.1), op=Identity(1))
    spec = EstimatorSpec(kind, batch_size, restart_p=restart_p if kind == "sarah" else None)
    config = SolverConfig(beta=beta, tau=tau, sigma=sigma, estimator=spec)
    spectral = SpectralEstimates(op_norm_sq, lam)
    report = validate_params(problem, config, spectral, LipschitzBound(lip))
    assert (report.stability is None) == (not lam > 0)
    assert report.eta_tilde > 0 or not report.all_pass()


def test_run_with_diagnostics_on_singular_operator_disables_psi():
    rng = np.random.default_rng(16)
    loss = FiniteSumLoss(
        [LeastSquaresComponent(rng.standard_normal(3), 0.1) for _ in range(5)]
    )
    tall = DenseMatrix(rng.standard_normal((6, 3)))
    problem = Problem(loss=loss, reg=L1(0.1), op=tall)
    config = SolverConfig(
        beta=1.0, tau=6.0, sigma=0.5, estimator=EstimatorSpec("full"),
        max_epochs=3, diag_every=1,
    )
    result = run(problem, config)
    assert all(r.diag is not None for r in result.trace)
    assert all(r.diag.psi is None for r in result.trace)
    assert all(r.diag.aug_lagrangian is not None for r in result.trace)


def _count_calls(monkeypatch, owner, name, keep=lambda *args: True):
    calls = []
    inner = getattr(owner, name)

    def counting(*args):
        if keep(*args):
            calls.append(1)
        return inner(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_full_run_takes_one_all_rows_pass_per_iteration(monkeypatch):
    # each iterate's scoring pass feeds the next full gradient: T + 1 passes
    # over all rows for T iterations, not 2T
    import sadmm.losses

    problem = small_problem(seed=14)
    n = problem.loss.n
    passes = _count_calls(
        monkeypatch, sadmm.losses, "_row_dots", lambda rows, x: rows.shape[0] == n
    )
    config = SolverConfig(
        beta=1.0, tau=4.0, sigma=0.9, estimator=EstimatorSpec("full"),
        max_epochs=12, residual_tol=math.inf,
    )
    result = run(problem, config)
    assert len(result.trace) == 12
    assert len(passes) == 12 + 1


def test_run_applies_the_operator_once_per_step(monkeypatch):
    problem, _ = build_toy_reconstruction(8, 8, seed=1)
    applies = _count_calls(monkeypatch, problem.op, "_apply")
    adjoints = _count_calls(monkeypatch, problem.op, "_adjoint")
    config = SolverConfig(
        beta=0.1, tau=0.65, sigma=0.95,
        estimator=EstimatorSpec("saga", batch_size=8, seed=2),
        max_epochs=2, residual_tol=math.inf,
    )
    result = run(problem, config)
    iters = len(result.trace)
    assert iters == 2 * 64 // 8
    assert len(applies) == iters + 1
    assert len(adjoints) == iters
    # the carried A x is A x bit for bit, and a step without it computes it
    est = init_estimator(config.estimator, problem.loss, result.state.x)
    new_state, _ = step(result.state, problem, config, est)
    assert np.array_equal(new_state.ax, problem.op.apply(new_state.x))


def test_sarah_diagnostics_take_one_exact_gradient_per_iteration(monkeypatch):
    # the estimator error and SARAH's bounding sequence are both taken at
    # x_t; the memo serves the second from the first
    import sadmm.losses

    problem = generate_synthetic_quadratic(200, 20, seed=3)
    passes = _count_calls(
        monkeypatch, sadmm.losses, "_row_dots", lambda rows, x: rows.shape[0] == 200
    )
    column_sums = _count_calls(monkeypatch, sadmm.losses, "_column_mean")
    spec = EstimatorSpec("sarah", batch_size=10, restart_p=1e9, seed=4)
    config = SolverConfig(
        beta=1.0, tau=3.0, sigma=0.95, estimator=spec, max_epochs=1,
        diag_every=1, seed=4,
    )
    result = run(problem, config)
    assert len(result.trace) == 20
    assert all(r.diag is not None and r.diag.psi is not None for r in result.trace)
    # one pass at x0, then one scoring pass per iterate
    assert len(passes) == 1 + 20
    assert len(column_sums) <= 21


def test_psi_reuses_the_step_augmented_lagrangian(monkeypatch):
    # step forms the augmented Lagrangian from its objective and residual
    # and hands it to stability psi
    import sadmm.solver

    problem = generate_synthetic_quadratic(200, 20, seed=3)
    in_step = _count_calls(monkeypatch, sadmm.solver, "_augmented_lagrangian")
    applies = _count_calls(monkeypatch, problem.op, "_apply")
    spec = EstimatorSpec("saga", batch_size=10, seed=4)
    config = SolverConfig(
        beta=1.0, tau=3.0, sigma=0.95, estimator=spec, max_epochs=1,
        diag_every=1, seed=4,
    )
    result = run(problem, config)
    assert len(result.trace) == 20
    assert len(in_step) == 20
    # A x0 and one step of each spectral Lanczos run (on A^T A and on the
    # shifted A A^T of the identity), then per sampled step A x_{t+1} and
    # the A inside B
    assert len(applies) == 3 + 2 * 20
    last = result.trace[-1].diag
    spectral = estimate_spectral(problem.op, seed=config.seed)
    report = validate_params(problem, config, spectral, problem.loss.lipschitz_bound())
    assert last.psi == pytest.approx(
        psi_oracle(problem, result.state, report, config, last.upsilon, last.grad_err_sq_prev),
        rel=1e-10,
    )


def fused_lasso_problem(n=30, d=5, seed=0):
    """Sigmoid loss with L1 on [G; I] x, G the differences along a chain."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d))
    labels = np.where(rng.random(n) > 0.5, 1.0, -1.0)
    loss = FiniteSumLoss.from_rows("sigmoid", rows, labels)
    op = VerticalStack([DenseMatrix(np.diff(np.eye(d), axis=0)), Identity(d)])
    return Problem(loss=loss, reg=L1(0.01), op=op, name="fused")


@pytest.mark.parametrize("diag_every", [0, 1])
@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("make", [
    fused_lasso_problem,
    lambda: build_toy_reconstruction(8, 8, seed=1)[0],
    small_problem,
], ids=["fused_lasso", "blur", "quadratic"])
def test_run_checks_operator_lengths_once(monkeypatch, make, epochs, diag_every):
    # the one check is A x0's; steps, psi and Lanczos call the unchecked cores
    import sadmm.linops

    problem = make()
    checks = _count_calls(monkeypatch, sadmm.linops, "_check_len")
    config = SolverConfig(
        beta=1.0, tau=8.0, sigma=0.95, estimator=EstimatorSpec("saga", batch_size=5, seed=2),
        max_epochs=epochs, residual_tol=math.inf, diag_every=diag_every,
    )
    result = run(problem, config)
    assert len(result.trace) == epochs * math.ceil(problem.loss.n / 5)
    assert len(checks) == 1


@pytest.mark.filterwarnings("ignore:overflow")
def test_run_drops_the_loss_memo_on_return_and_on_divergence():
    problem = small_problem(seed=13)
    config = SolverConfig(
        beta=1.0, tau=4.0, sigma=0.9, estimator=EstimatorSpec("full"), max_epochs=3
    )
    run(problem, config)
    assert problem.loss._memo is None

    # as in test_run_reports_divergence_on_non_finite_objective: the
    # objective overflows at the first iterate, after it was scored
    loss = FiniteSumLoss([LeastSquaresComponent([1.0], 0.0)])
    overflow = Problem(loss=loss, reg=L1(0.1), op=Identity(1), name="overflow")
    with pytest.raises(DivergenceError):
        run(overflow, config, x0=np.array([1e155]))
    assert loss._memo is None
