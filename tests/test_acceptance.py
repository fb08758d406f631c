"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail
line; run with ``pytest tests/test_acceptance.py -v -s`` to see the lines
as they complete.
"""

import math
import os
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (
    central_diff_gradient,
    engineered_feasible_params,
    eta_tilde_oracle,
    grid_prox_oracle,
    make_groups_onehot_dataset,
    proximal_gradient_lasso,
)
from sadmm import (
    EstimatorSpec,
    FiniteSumLoss,
    Identity,
    L0,
    L1,
    LeastSquaresComponent,
    Problem,
    SigmoidComponent,
    SolverConfig,
    SolverState,
    build_fused_lasso,
    build_graph,
    build_toy_reconstruction,
    estimate_spectral,
    generate_synthetic_quadratic,
    init_estimator,
    parse_libsvm,
    run,
    step,
    theoretical_constants,
    validate_params,
)
from sadmm.trace import write_trace


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {num:2d} FAIL  {text}")
        raise
    print(f"[acceptance] {num:2d} PASS  {text}")


def unit_lipschitz_identity_problem(n=20, d=10, seed=0, lam=0.1):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    rows *= math.sqrt(0.5)
    b = rng.standard_normal(n)
    loss = FiniteSumLoss([LeastSquaresComponent(rows[i], b[i]) for i in range(n)])
    return Problem(loss=loss, reg=L1(lam), op=Identity(d), name="unit-lipschitz")


def test_criterion_1_gradient_fidelity():
    with criterion(1, "gradient fidelity vs central finite differences"):
        rng = np.random.default_rng(101)
        d = 6
        sigmoid = FiniteSumLoss(
            [
                SigmoidComponent(rng.standard_normal(d), rng.choice([-1.0, 1.0]))
                for _ in range(5)
            ]
        )
        squares = FiniteSumLoss(
            [
                LeastSquaresComponent(rng.standard_normal(d), rng.standard_normal())
                for _ in range(5)
            ]
        )
        for loss in (sigmoid, squares):
            for _ in range(100):
                x = rng.standard_normal(d)
                for i in range(loss.n):
                    fd = central_diff_gradient(
                        lambda v: loss.component_value(i, v), x, step=1e-6
                    )
                    grad = loss.component_gradient(i, x)
                    err = np.linalg.norm(grad - fd)
                    assert err <= 1e-5 * max(1.0, np.linalg.norm(fd))


def test_criterion_2_prox_grid_oracle():
    with criterion(2, "prox equals 1-D grid minimization on 1000 scalars each"):
        rng = np.random.default_rng(102)
        l1 = L1(0.7)
        l0 = L0(0.4)
        beta = 1.3
        for v in rng.uniform(-3.0, 3.0, size=1000):
            expected = grid_prox_oracle(lambda z: l1.lam * np.abs(z), v, beta)
            assert abs(l1.prox(np.array([v]), beta)[0] - expected) <= 1e-3
        for v in rng.uniform(-3.0, 3.0, size=1000):
            expected = grid_prox_oracle(
                lambda z: l0.lam * (z != 0.0).astype(float), v, beta
            )
            assert abs(l0.prox(np.array([v]), beta)[0] - expected) <= 1e-3


def _quad_loss(rng, n, d):
    return FiniteSumLoss(
        [
            LeastSquaresComponent(rng.standard_normal(d), rng.standard_normal())
            for _ in range(n)
        ]
    )


def test_criterion_3_saga_axioms():
    with criterion(3, "gradient-table axioms: unbiasedness, MSE identity, decay"):
        rng = np.random.default_rng(103)
        n, d, b = 20, 5, 3
        loss = _quad_loss(rng, n, d)
        x0 = rng.standard_normal(d)
        x = rng.standard_normal(d)

        # (a) unbiasedness over 1e5 with-replacement draws at a fixed state
        est = init_estimator(EstimatorSpec("saga", batch_size=b, seed=0), loss, x0)
        for t in range(7):  # mix the table organically
            est.estimate(rng.standard_normal(d))
        draws = 100000
        target = loss.full_gradient(x)
        samples = np.empty((draws, d))
        for k in range(draws):
            idx = est._draw_batch(est._stream(1000 + k))
            samples[k], _ = est._combine(x, idx)
        mean = samples.mean(axis=0)
        se_vec = math.sqrt(np.sum(samples.var(axis=0)) / draws)
        assert np.linalg.norm(mean - target) < 4.0 * se_vec

        # (b) MSE identity: with a memory table whose errors average to
        # zero the bound holds with equality under with-replacement draws
        est2 = init_estimator(EstimatorSpec("saga", batch_size=b, seed=1), loss, x)
        w = rng.standard_normal((n, d))
        w -= w.mean(axis=0)
        est2.phi_grads = loss.component_gradients(x) + w
        est2.phi_mean = np.add.reduce(est2.phi_grads, axis=0) / n
        closed_form = float(np.sum(w * w)) / (b * n)
        sq_errors = np.empty(draws)
        for k in range(draws):
            idx = est2._draw_batch(est2._stream(k))
            g, _ = est2._combine(x, idx)
            e = g - target
            sq_errors[k] = float(e @ e)
        mc = sq_errors.mean()
        se = sq_errors.std(ddof=1) / math.sqrt(draws)
        assert abs(mc - closed_form) < 3.0 * se

        # the generic-state form: MC MSE matches the variance decomposition
        # and stays below the memory-table bound
        diffs = loss.component_gradients(x) - est.phi_grads
        dbar = np.add.reduce(diffs, axis=0) / n
        bound = float(np.sum(diffs * diffs)) / (b * n)
        exact = bound - float(dbar @ dbar) / b
        sq_errors = np.empty(draws)
        for k in range(draws):
            idx = est._draw_batch(est._stream(k))
            g, _ = est._combine(x, idx)
            e = g - target
            sq_errors[k] = float(e @ e)
        mc = sq_errors.mean()
        se = sq_errors.std(ddof=1) / math.sqrt(draws)
        assert abs(mc - exact) < 3.0 * se
        assert mc <= bound + 3.0 * se

        # (c) geometric decay with rho = b/n at unit batch, 200 seeds
        n2, d2 = 10, 4
        loss2 = _quad_loss(rng, n2, d2)
        x_bar = rng.standard_normal(d2)
        seeds, steps = 200, 10
        rho = 1.0 / n2
        curves = np.empty((seeds, steps + 1))
        for s in range(seeds):
            est3 = init_estimator(
                EstimatorSpec("saga", batch_size=1, seed=s), loss2, np.zeros(d2)
            )
            for t in range(steps + 1):
                curves[s, t] = est3.upsilon_gamma(x_bar)[0]
                est3.estimate(x_bar)
        means = curves.mean(axis=0)
        for t in range(steps):
            se_t = curves[:, t + 1].std(ddof=1) / math.sqrt(seeds)
            assert means[t + 1] <= (1.0 - rho) * means[t] + 4.0 * se_t + 1e-12
        assert means[-1] < means[0]


def test_criterion_4_sarah_axioms():
    with criterion(4, "recursive-estimator axioms: restart, conditional mean, decay"):
        rng = np.random.default_rng(104)
        n, d, b = 16, 5, 4
        loss = _quad_loss(rng, n, d)
        x0 = rng.standard_normal(d)

        # restart equality at t = 0 is exact
        est = init_estimator(
            EstimatorSpec("sarah", batch_size=b, restart_p=4.0, seed=0), loss, x0
        )
        assert np.array_equal(est.prev_estimate, loss.full_gradient(x0))
        assert np.array_equal(est.estimate(x0), loss.full_gradient(x0))

        # conditional-mean recursion identity by Monte-Carlo
        x1 = rng.standard_normal(d)
        target = loss.full_gradient(x1) - loss.full_gradient(x0) + est.prev_estimate
        draws = 100000
        samples = np.empty((draws, d))
        for k in range(draws):
            idx = est._draw_batch(est._stream(k))
            samples[k] = est._recursion(x1, idx)
        mean = samples.mean(axis=0)
        se_vec = math.sqrt(np.sum(samples.var(axis=0)) / draws)
        assert np.linalg.norm(mean - target) < 3.0 * se_vec

        # error decay with rho = 1/p over 200 seeds on a frozen point
        p = 4.0
        rho = 1.0 / p
        seeds, steps = 200, 10
        x_bar = rng.standard_normal(d)
        w = rng.standard_normal(d)
        curves = np.empty((seeds, steps + 1))
        for s in range(seeds):
            est2 = init_estimator(
                EstimatorSpec("sarah", batch_size=b, restart_p=p, seed=s), loss, x_bar
            )
            est2.prev_estimate = est2.prev_estimate + w
            est2.estimate(x_bar)  # first call keeps the injected error
            for t in range(steps + 1):
                curves[s, t] = est2.upsilon_gamma(x_bar)[0]
                est2.estimate(x_bar)
        means = curves.mean(axis=0)
        for t in range(steps):
            se_t = curves[:, t + 1].std(ddof=1) / math.sqrt(seeds)
            assert abs(means[t + 1] - (1.0 - rho) * means[t]) <= 4.0 * se_t + 1e-12
        assert means[-1] < 0.5 * means[0]


def test_criterion_5_stability_descent():
    with criterion(5, "seed-averaged stability function is non-increasing"):
        problem = unit_lipschitz_identity_problem()
        L = problem.loss.lipschitz_bound()
        base_spec = EstimatorSpec("saga", batch_size=1, seed=0)
        vc = theoretical_constants(base_spec, L, problem.loss.n)
        beta, tau, sigma = engineered_feasible_params(
            1.0, 1.0, 1.0, L.L, vc.v1, vc.v_upsilon, vc.rho
        )
        spectral = estimate_spectral(problem.op)
        config0 = SolverConfig(beta=beta, tau=tau, sigma=sigma, estimator=base_spec)
        report = validate_params(problem, config0, spectral, L)
        assert report.all_pass() and report.eta_tilde > 0

        seeds = 100
        curves = []
        for s in range(seeds):
            spec = EstimatorSpec("saga", batch_size=1, seed=5000 + s)
            config = SolverConfig(
                beta=beta, tau=tau, sigma=sigma, estimator=spec,
                max_epochs=10, diag_every=1, seed=5000 + s,
            )
            result = run(problem, config)
            curves.append([r.diag.psi for r in result.trace])
        curves = np.array(curves)
        mean = curves.mean(axis=0)
        diffs = np.diff(mean)
        increases = np.flatnonzero(diffs > 0)
        assert len(increases) <= 0.01 * len(diffs)
        se_diff = np.diff(curves, axis=1).std(axis=0, ddof=1) / math.sqrt(seeds)
        for idx in increases:
            assert diffs[idx] <= 2.0 * se_diff[idx]


def test_criterion_6_convergence_to_reference():
    with criterion(6, "matches an independent proximal-gradient reference"):
        problem = generate_synthetic_quadratic(200, 50, seed=7)
        rows = np.vstack([c.r for c in problem.loss.components])
        b = np.array([c.b for c in problem.loss.components])
        _, obj_ref = proximal_gradient_lasso(rows, b, 0.1)

        config = SolverConfig(
            beta=1.0, tau=3.0, sigma=0.95, estimator=EstimatorSpec("full"),
            max_epochs=20000, residual_tol=1e-10, seed=0,
        )
        result = run(problem, config)
        final = result.trace[-1]
        assert abs(final.objective - obj_ref) <= 1e-6 * abs(obj_ref)
        assert final.primal_residual < 1e-6

        finals = []
        for seed in range(20):
            spec = EstimatorSpec("sarah", batch_size=10, restart_p=20.0, seed=seed)
            cfg = SolverConfig(
                beta=1.0, tau=3.0, sigma=0.95, estimator=spec,
                max_epochs=150, seed=seed,
            )
            finals.append(run(problem, cfg).trace[-1].objective)
        median = float(np.median(finals))
        assert abs(median - obj_ref) <= 1e-4 * abs(obj_ref)


def test_criterion_7_parameter_validator():
    with criterion(7, "validator: relaxation bound, engineered triple, boundary"):
        # sigma = 0.95 fails the relaxation bound for any kappa >= 1
        problem = unit_lipschitz_identity_problem()
        spectral = estimate_spectral(problem.op)
        L = problem.loss.lipschitz_bound()
        config = SolverConfig(
            beta=1.0, tau=4.0, sigma=0.95, estimator=EstimatorSpec("full")
        )
        report = validate_params(problem, config, spectral, L)
        status = dict((name, s) for name, s, _ in report.checks)
        assert status["sigma_vs_kappa"] == "fail"

        # an engineered triple from the quadratic-root recipe passes
        spec = EstimatorSpec("saga", batch_size=1, seed=0)
        vc = theoretical_constants(spec, L, problem.loss.n)
        beta, tau, sigma = engineered_feasible_params(
            1.0, 1.0, 1.0, L.L, vc.v1, vc.v_upsilon, vc.rho
        )
        good = SolverConfig(beta=beta, tau=tau, sigma=sigma, estimator=spec)
        report = validate_params(problem, good, spectral, L)
        assert report.all_pass()
        assert report.eta_tilde > 0
        oracle = eta_tilde_oracle(
            tau, beta, sigma, spectral.op_norm_sq, spectral.lambda_min_aat,
            L.L, report.eta_used, report.c2_used, vc.v1, vc.v_upsilon, vc.rho,
        )
        assert report.eta_tilde == pytest.approx(oracle, rel=1e-12)

        # exact boundary 2 tau = beta ||A||^2 passes non-strictly
        boundary = SolverConfig(
            beta=2.0, tau=1.0, sigma=0.01, estimator=EstimatorSpec("full")
        )
        report = validate_params(problem, boundary, spectral, L)
        status = dict((name, s) for name, s, _ in report.checks)
        assert spectral.op_norm_sq == 1.0
        assert status["tau_vs_beta_norm"] == "pass"


@pytest.mark.slow
def test_criterion_8_qualitative_method_ordering(tmp_path):
    # Desk-scale stand-in for the mushrooms benchmark: the real file is not
    # redistributable here, so a deterministic categorical dataset with the
    # same shape (4062 samples, 112 one-hot columns in 22 attribute groups,
    # {1,2} labels) is generated and ingested through the normal path.
    # Equal budgets: identical batch size and max_epochs for every method,
    # so all methods take the same number of iterations; the trace's epoch
    # column still accounts the recursion restarts honestly.
    with criterion(8, "variance-reduced methods beat plain SGD at equal budgets"):
        path = tmp_path / "mushrooms_standin.svm"
        make_groups_onehot_dataset(path, n=4062, d=112, flip=0.25, seed=0)
        data = parse_libsvm(path)
        assert (data.n, data.d) == (4062, 112)
        graph = build_graph(data, rho_c=0.2)
        problem = build_fused_lasso(
            data, lambda1=1e-5, graph=graph, name="mushrooms_standin"
        )

        batch = 16
        epochs = 24
        lipschitz = problem.loss.lipschitz_bound().L
        spectral = estimate_spectral(problem.op, seed=0)
        tau_base = (lipschitz + spectral.op_norm_sq) / 2.0
        tau_grid = (tau_base / 2.0, tau_base, 2.0 * tau_base)

        def spec_for(kind, seed):
            if kind == "sarah":
                return EstimatorSpec("sarah", batch_size=batch, restart_p=8.0, seed=seed)
            return EstimatorSpec(kind, batch_size=batch, seed=seed)

        best = {}
        for kind in ("sgd", "saga", "sarah"):
            medians = []
            for tau in tau_grid:
                finals = []
                for seed in range(10):
                    config = SolverConfig(
                        beta=1.0, tau=tau, sigma=0.95,
                        estimator=spec_for(kind, seed),
                        max_epochs=epochs, seed=seed,
                    )
                    finals.append(run(problem, config).trace[-1].objective)
                medians.append(float(np.median(finals)))
            best[kind] = min(medians)
        assert best["sarah"] <= best["sgd"]
        assert best["saga"] <= best["sgd"]


def _chain_holds(problem, config, n_steps):
    """Replay a run step by step and check the splitting-residual chain."""
    spectral = estimate_spectral(problem.op, seed=config.seed)
    norm_a = math.sqrt(spectral.op_norm_sq)
    d = problem.loss.dim
    x0 = np.zeros(d)
    est = init_estimator(config.estimator, problem.loss, x0)
    state = SolverState(
        x=x0.copy(), z=problem.op.apply(x0), u=np.zeros(problem.op.out_dim),
        x_prev=x0.copy(), u_prev=np.zeros(problem.op.out_dim), t=0,
    )
    history = [state]
    for _ in range(n_steps):
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


def test_criterion_9_residual_chain_everywhere():
    with criterion(9, "splitting-residual chain holds at every iteration"):
        lasso = generate_synthetic_quadratic(200, 50, seed=7)
        _chain_holds(
            lasso,
            SolverConfig(beta=1.0, tau=3.0, sigma=0.95, estimator=EstimatorSpec("full")),
            300,
        )
        _chain_holds(
            lasso,
            SolverConfig(
                beta=1.0, tau=3.0, sigma=0.95,
                estimator=EstimatorSpec("sarah", batch_size=10, restart_p=20.0, seed=1),
            ),
            300,
        )
        recon, _ = build_toy_reconstruction(
            8, 8, forward="mask", keep=0.8, noise_sigma=0.01,
            lam=1e-3, reg_kind="l0", seed=3,
        )
        _chain_holds(
            recon,
            SolverConfig(
                beta=0.5, tau=8.0, sigma=0.9,
                estimator=EstimatorSpec("saga", batch_size=8, seed=2),
            ),
            200,
        )
        quad = unit_lipschitz_identity_problem()
        _chain_holds(
            quad,
            SolverConfig(
                beta=1.0, tau=2.0, sigma=0.5,
                estimator=EstimatorSpec("sgd", batch_size=4, seed=3),
            ),
            200,
        )


def test_criterion_10_seed_determinism(tmp_path):
    with criterion(10, "identical seeds give byte-identical traces"):
        problem = generate_synthetic_quadratic(30, 8, seed=3)
        spec = EstimatorSpec("sarah", batch_size=5, restart_p=6.0, seed=11)
        config = SolverConfig(
            beta=1.0, tau=4.0, sigma=0.9, estimator=spec,
            max_epochs=6, diag_every=2, seed=11,
        )
        paths = []
        for name in ("a.csv", "b.csv"):
            result = run(problem, config)
            path = tmp_path / name
            write_trace(path, result.trace, with_diagnostics=True)
            paths.append(path)

        def rows_without_wall(path):
            lines = path.read_text().splitlines()
            out = []
            for line in lines[1:]:
                cells = line.split(",")
                cells[4] = ""
                out.append(",".join(cells))
            return lines[0], out

        header_a, rows_a = rows_without_wall(paths[0])
        header_b, rows_b = rows_without_wall(paths[1])
        assert header_a == header_b
        assert rows_a == rows_b
