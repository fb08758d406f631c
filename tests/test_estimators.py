import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import table_estimates
from sadmm import (
    EstimatorSpec,
    FiniteSumLoss,
    LeastSquaresComponent,
    LipschitzBound,
    NoCertifiedConstantsError,
    ParameterError,
    ShapeError,
    generate_synthetic_quadratic,
    init_estimator,
    theoretical_constants,
)
from sadmm.rng import DOMAIN_BATCH, substream


def quad_loss(rng, n=12, d=5):
    comps = [
        LeastSquaresComponent(rng.standard_normal(d), rng.standard_normal())
        for _ in range(n)
    ]
    return FiniteSumLoss(comps)


@pytest.mark.parametrize("kind", ["full", "sgd", "saga", "svrg", "sarah"])
def test_estimate_rejects_a_point_of_the_wrong_shape(kind):
    # the estimators skip re-checking their own draws and points, never
    # the caller's; a list of the right length is a point
    rng = np.random.default_rng(4)
    loss = quad_loss(rng)
    spec = EstimatorSpec(kind, batch_size=3, epoch_len=1, restart_p=1e9, seed=0)
    est = init_estimator(spec, loss, np.zeros(loss.dim))
    for _ in range(3):
        for bad in (np.zeros(loss.dim + 1), np.zeros((1, loss.dim)), np.zeros(())):
            with pytest.raises(ShapeError):
                est.estimate(bad)
        assert est.estimate(list(rng.standard_normal(loss.dim))).shape == (loss.dim,)


def test_spec_validation():
    with pytest.raises(ParameterError):
        EstimatorSpec("nope")
    with pytest.raises(ParameterError):
        EstimatorSpec("sgd", batch_size=0)
    with pytest.raises(ParameterError):
        EstimatorSpec("sarah", restart_p=1.0)
    with pytest.raises(ParameterError):
        EstimatorSpec("svrg", epoch_len=0)
    with pytest.raises(ParameterError):
        init_estimator(
            EstimatorSpec("sgd", batch_size=50),
            quad_loss(np.random.default_rng(0), n=10),
            np.zeros(5),
        )


def test_sarah_init_holds_exact_gradient():
    rng = np.random.default_rng(1)
    loss = quad_loss(rng)
    x0 = rng.standard_normal(loss.dim)
    est = init_estimator(EstimatorSpec("sarah", batch_size=3, restart_p=4.0), loss, x0)
    assert np.array_equal(est.prev_estimate, loss.full_gradient(x0))
    # first call emits it unchanged
    assert np.array_equal(est.estimate(x0), loss.full_gradient(x0))


def test_saga_init_table_mean_is_full_gradient():
    rng = np.random.default_rng(2)
    loss = quad_loss(rng)
    x0 = rng.standard_normal(loss.dim)
    est = init_estimator(EstimatorSpec("saga", batch_size=2), loss, x0)
    assert np.array_equal(est.phi_mean, loss.full_gradient(x0))
    assert np.array_equal(est.phi_grads, loss.component_gradients(x0))


def test_full_estimator_stateless_and_exact():
    rng = np.random.default_rng(3)
    loss = quad_loss(rng)
    est = init_estimator(EstimatorSpec("full"), loss, np.zeros(loss.dim))
    x = rng.standard_normal(loss.dim)
    assert np.array_equal(est.estimate(x), loss.full_gradient(x))


@pytest.mark.parametrize("b", [1, 3, 12])
def test_saga_fresh_table_emits_full_gradient(b):
    rng = np.random.default_rng(4)
    loss = quad_loss(rng)
    x = rng.standard_normal(loss.dim)
    est = init_estimator(EstimatorSpec("saga", batch_size=b, seed=9), loss, x)
    full = loss.full_gradient(x)
    assert np.array_equal(est.estimate(x), full)
    assert np.array_equal(est.estimate(x), full)


def test_saga_estimate_matches_manual_formula():
    rng = np.random.default_rng(5)
    loss = quad_loss(rng, n=9, d=4)
    x0 = rng.standard_normal(4)
    spec = EstimatorSpec("saga", batch_size=3, seed=77)
    est = init_estimator(spec, loss, x0)
    x1 = rng.standard_normal(4)
    table = est.phi_grads.copy()
    mean = est.phi_mean.copy()
    idx = substream(77, DOMAIN_BATCH, 0).integers(0, 9, size=3)
    expected = (
        np.add.reduce(loss.component_gradients(x1, idx) - table[idx], axis=0) / 3
        + mean
    )
    assert np.array_equal(est.estimate(x1), expected)
    # table updated at the drawn rows only
    touched = np.unique(idx)
    untouched = np.setdiff1d(np.arange(9), touched)
    assert np.array_equal(est.phi_grads[untouched], table[untouched])
    assert np.array_equal(est.phi_grads[touched], loss.component_gradients(x1, touched))


def test_saga_phi_mean_tracks_table_within_drift_bound():
    rng = np.random.default_rng(6)
    loss = quad_loss(rng, n=8, d=3)
    est = init_estimator(EstimatorSpec("saga", batch_size=2, seed=3), loss, np.zeros(3))
    for t in range(100):
        est.estimate(rng.standard_normal(3))
        recomputed = np.add.reduce(est.phi_grads, axis=0) / est.n
        assert np.linalg.norm(est.phi_mean - recomputed) <= 1e-10


def test_sarah_forced_full_batch_recursion_identity():
    rng = np.random.default_rng(7)
    loss = quad_loss(rng, n=6, d=4)
    x0 = rng.standard_normal(4)
    est = init_estimator(EstimatorSpec("sarah", batch_size=6, restart_p=8.0), loss, x0)
    est.estimate(x0)
    x1 = rng.standard_normal(4)

    class NoRestartFullBatch:
        # a stream whose restart draw never fires and whose batch is every row
        def random(self):
            return 1.0

        def integers(self, *args, **kwargs):
            return np.arange(6)

    est._stream = lambda t: NoRestartFullBatch()
    prev = est.prev_estimate.copy()
    g = est.estimate(x1)
    expected = loss.full_gradient(x1) - loss.full_gradient(x0) + prev
    assert np.allclose(g, expected, rtol=1e-12, atol=1e-14)


def test_sarah_restart_frequency():
    rng = np.random.default_rng(8)
    loss = quad_loss(rng, n=6, d=3)
    p = 5.0
    est = init_estimator(
        EstimatorSpec("sarah", batch_size=2, restart_p=p, seed=123), loss, np.zeros(3)
    )
    x = rng.standard_normal(3)
    est.estimate(x)
    restarts = 0
    trials = 4000
    for _ in range(trials):
        before = est.evals
        est.estimate(x)
        if est.evals - before == loss.n:
            restarts += 1
    freq = restarts / trials
    se = math.sqrt((1 / p) * (1 - 1 / p) / trials)
    assert abs(freq - 1 / p) < 4 * se


def test_svrg_reanchors_every_epoch_len():
    rng = np.random.default_rng(9)
    loss = quad_loss(rng, n=6, d=3)
    x0 = np.zeros(3)
    est = init_estimator(
        EstimatorSpec("svrg", batch_size=2, epoch_len=3, seed=5), loss, x0
    )
    # first call at the anchor point emits the exact gradient
    assert np.array_equal(est.estimate(x0), loss.full_gradient(x0))
    xs = [rng.standard_normal(3) for _ in range(6)]
    est.estimate(xs[0])
    est.estimate(xs[1])
    assert np.array_equal(est.anchor_x, x0)
    est.estimate(xs[2])  # fourth call: re-anchor at xs[2] first
    assert np.array_equal(est.anchor_x, xs[2])


def test_sgd_estimate_matches_manual_formula():
    rng = np.random.default_rng(10)
    loss = quad_loss(rng, n=7, d=4)
    spec = EstimatorSpec("sgd", batch_size=3, seed=11)
    est = init_estimator(spec, loss, np.zeros(4))
    x = rng.standard_normal(4)
    idx = substream(11, DOMAIN_BATCH, 0).integers(0, 7, size=3)
    expected = np.add.reduce(loss.component_gradients(x, idx), axis=0) / 3
    assert np.array_equal(est.estimate(x), expected)


def test_saga_unbiased_monte_carlo_small():
    rng = np.random.default_rng(12)
    loss = quad_loss(rng, n=10, d=4)
    x0 = rng.standard_normal(4)
    x = rng.standard_normal(4)
    est = init_estimator(EstimatorSpec("saga", batch_size=3, seed=0), loss, x0)
    draws = 20000
    target = loss.full_gradient(x)
    samples = np.empty((draws, 4))
    for k in range(draws):
        idx = est._draw_batch(est._stream(k))
        samples[k], _ = est._combine(x, idx)
    mean = samples.mean(axis=0)
    se_vec = math.sqrt(np.sum(samples.var(axis=0)) / draws)
    assert np.linalg.norm(mean - target) < 4 * se_vec


def test_saga_with_replacement_decay_factor():
    # On a frozen point the exact per-step decay of the error-bound
    # sequence is (1 - 1/n)^b under with-replacement sampling.
    rng = np.random.default_rng(13)
    n, b, d = 10, 4, 3
    loss = quad_loss(rng, n=n, d=d)
    x_bar = rng.standard_normal(d)
    seeds = 300
    steps = 6
    curves = np.empty((seeds, steps + 1))
    for s in range(seeds):
        est = init_estimator(EstimatorSpec("saga", batch_size=b, seed=s), loss, np.zeros(d))
        for t in range(steps + 1):
            curves[s, t] = est.upsilon_gamma(x_bar)[0]
            est.estimate(x_bar)
    factor = (1.0 - 1.0 / n) ** b
    means = curves.mean(axis=0)
    for t in range(steps):
        expected = factor * means[t]
        se = curves[:, t + 1].std(ddof=1) / math.sqrt(seeds)
        assert abs(means[t + 1] - expected) < 4 * se + 1e-12


def test_estimator_convergence_as_iterates_settle():
    rng = np.random.default_rng(14)
    loss = quad_loss(rng, n=8, d=4)
    x_star = rng.standard_normal(4)
    w = rng.standard_normal(4)
    for spec in (
        EstimatorSpec("saga", batch_size=2, seed=1),
        EstimatorSpec("sarah", batch_size=2, restart_p=4.0, seed=1),
    ):
        est = init_estimator(spec, loss, x_star + w)
        upsilon = math.inf
        for t in range(200):
            x_t = x_star + (0.5**t) * w
            est.estimate(x_t)
        upsilon = est.upsilon_gamma(x_star)[0]
        assert upsilon < 1e-8


def test_saga_diagnostics_examples_and_oracle():
    rng = np.random.default_rng(15)
    loss = quad_loss(rng, n=8, d=3)
    x0 = rng.standard_normal(3)
    spec = EstimatorSpec("saga", batch_size=3, seed=21)
    est = init_estimator(spec, loss, x0)
    assert est.upsilon_gamma(x0) == (0.0, 0.0)

    # independent oracle: track the memory *points*, replay the batches,
    # and recompute the sums from scratch.
    phi_points = [x0.copy() for _ in range(8)]
    xs = [rng.standard_normal(3) for _ in range(5)]
    for t, x in enumerate(xs):
        est.estimate(x)
        idx = substream(21, DOMAIN_BATCH, t).integers(0, 8, size=3)
        for j in np.unique(idx):
            phi_points[j] = x.copy()
    x_query = rng.standard_normal(3)
    diffs = [
        loss.component_gradient(i, x_query) - loss.component_gradient(i, phi_points[i])
        for i in range(8)
    ]
    upsilon_oracle = sum(float(dv @ dv) for dv in diffs) / (3 * 8)
    gamma_oracle = sum(float(np.linalg.norm(dv)) for dv in diffs) / math.sqrt(3 * 8)
    upsilon, gamma = est.upsilon_gamma(x_query)
    assert upsilon == pytest.approx(upsilon_oracle, rel=1e-10)
    assert gamma == pytest.approx(gamma_oracle, rel=1e-10)


def test_theoretical_constants_examples():
    saga = theoretical_constants(
        EstimatorSpec("saga", batch_size=10), LipschitzBound(1.0), 10
    )
    assert saga.rho == 1.0
    assert saga.v_upsilon == pytest.approx(10.0 / 99.0)
    assert saga.v1 == 0.0 and saga.v2 == 0.0

    sarah = theoretical_constants(
        EstimatorSpec("sarah", batch_size=4, restart_p=2.0), LipschitzBound(2.0), 50
    )
    assert sarah.rho == 0.5
    assert sarah.v_upsilon == pytest.approx(1.0)
    assert sarah.v2 == pytest.approx(1.0)

    for kind in ("full", "sgd", "svrg"):
        with pytest.raises(NoCertifiedConstantsError):
            theoretical_constants(EstimatorSpec(kind), LipschitzBound(1.0), 10)


def test_sarah_large_p_starves_rho():
    sarah = theoretical_constants(
        EstimatorSpec("sarah", batch_size=1, restart_p=1e12), LipschitzBound(1.0), 10
    )
    assert sarah.rho == pytest.approx(1e-12)
    # feeding this rho into the descent formula divides by it; callers must
    # treat a vanishing rho as hostile, so it must stay positive here.
    assert sarah.rho > 0

    # and the validator indeed reports an infeasible descent coefficient
    from sadmm import SolverConfig, estimate_spectral, validate_params

    problem = generate_synthetic_quadratic(10, 4, seed=1)
    config = SolverConfig(
        beta=1.0,
        tau=4.0,
        sigma=0.01,
        estimator=EstimatorSpec("sarah", batch_size=1, restart_p=1e12),
    )
    report = validate_params(
        problem, config, estimate_spectral(problem.op), problem.loss.lipschitz_bound()
    )
    status = dict((name, s) for name, s, _ in report.checks)
    assert status["eta_tilde_positive"] == "fail"
    assert report.eta_tilde < 0


def test_identical_seeds_give_identical_streams():
    problem = generate_synthetic_quadratic(10, 4, seed=2)
    for spec in (
        EstimatorSpec("sgd", batch_size=3, seed=42),
        EstimatorSpec("saga", batch_size=3, seed=42),
        EstimatorSpec("svrg", batch_size=3, epoch_len=4, seed=42),
        EstimatorSpec("sarah", batch_size=3, restart_p=3.0, seed=42),
    ):
        rng = np.random.default_rng(0)
        xs = [rng.standard_normal(4) for _ in range(12)]
        a = init_estimator(spec, problem.loss, np.zeros(4))
        b = init_estimator(spec, problem.loss, np.zeros(4))
        for x in xs:
            assert np.array_equal(a.estimate(x), b.estimate(x))
        c = init_estimator(
            EstimatorSpec(spec.kind, batch_size=3, epoch_len=spec.epoch_len,
                          restart_p=spec.restart_p, seed=43),
            problem.loss,
            np.zeros(4),
        )
        outputs_differ = any(
            not np.array_equal(init_estimator(spec, problem.loss, np.zeros(4)).estimate(xs[0]),
                               c.estimate(xs[0]))
            for _ in range(1)
        )
        if spec.kind != "sarah":  # sarah's first call ignores the stream
            assert outputs_differ


@pytest.mark.parametrize("kind", ["sgd", "saga", "svrg"])
def test_upsilon_gamma_equals_out_of_place_scatter(kind):
    # sgd scatters the table rows around the full gradient in place; the
    # figures must be the out-of-place formula's, bit for bit. saga and svrg
    # store coefficients m_i (at the last visit, at the anchor), so theirs
    # are the sums of (c_i(x) - m_i)^2 ||a_i||^2, and the table formula's to
    # rounding. The memory must stay as it was.
    rng = np.random.default_rng(16)
    loss = quad_loss(rng, n=9, d=4)
    est = init_estimator(EstimatorSpec(kind, batch_size=2, seed=5), loss, rng.standard_normal(4))
    for _ in range(4):
        est.estimate(rng.standard_normal(4))
    x = rng.standard_normal(4)
    fresh = FiniteSumLoss(loss.components)

    def scatter(sq):
        return (
            float(np.add.reduce(sq)) / (2 * 9),
            float(np.add.reduce(np.sqrt(sq))) / math.sqrt(2 * 9),
        )

    if kind == "sgd":
        diffs = fresh.component_gradients(x) - fresh.full_gradient(x)
        assert est.upsilon_gamma(x) == scatter(np.add.reduce(diffs * diffs, axis=1))
        return
    if kind == "saga":
        memory, table = est.alpha.copy(), est.phi_grads.copy()
    else:
        memory = fresh.component_coefficients(est.anchor_x)[1]
        table = fresh.component_gradients(est.anchor_x)
    dc = fresh.component_coefficients(x)[1] - memory
    sq_norms = np.array([c.r @ c.r for c in loss.components])
    got = est.upsilon_gamma(x)
    assert got == scatter(dc * dc * sq_norms)
    diffs = fresh.component_gradients(x) - table
    by_table = scatter(np.add.reduce(diffs * diffs, axis=1))
    assert got == pytest.approx(by_table, rel=1e-12)
    if kind == "saga":
        assert est.alpha.tobytes() == memory.tobytes()
        assert np.array_equal(est.phi_grads, table)
        est.phi_grads = table  # an explicit table takes the table formula
        assert est.upsilon_gamma(x) == by_table
        assert np.array_equal(est.phi_grads, table)


@st.composite
def _estimator_runs(draw):
    """A loss of either kind on dense or CSR rows, d = 1 or d >= 2, an
    estimator spec and 2n query points.

    Hypothesis picks the shapes, storage, density, scale and spec; the
    values come from a drawn seed, so that sums round as real data does.
    Batches drawn with replacement from n <= 6 rows repeat indices often.
    """
    n, d = draw(st.integers(1, 6)), draw(st.sampled_from([1, 2, 3, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.4, 1.0]))
    rows = 10.0 * rng.standard_normal((n, d)) * (rng.random((n, d)) < density)
    kind = draw(st.sampled_from(["least_squares", "sigmoid"]))
    if kind == "sigmoid":
        targets = rng.choice([-1.0, 1.0], size=n)
    else:
        targets = 10.0 * rng.standard_normal(n)
    if draw(st.booleans()):
        rows = sp.csr_matrix(rows)
    spec = EstimatorSpec(
        draw(st.sampled_from(["sgd", "saga", "svrg", "sarah"])),
        batch_size=draw(st.integers(1, n)),
        epoch_len=draw(st.sampled_from([None, 1, 2])),
        restart_p=draw(st.sampled_from([2.0, 4.0])),
        seed=draw(st.integers(0, 2**16)),
    )
    scale = draw(st.sampled_from([0.1, 1.0, 30.0]))
    xs = scale * rng.standard_normal((2 * n + 1, d))
    return FiniteSumLoss.from_rows(kind, rows, targets), spec, xs


@settings(max_examples=100, deadline=None)
@given(_estimator_runs())
def test_estimates_equal_the_table_formulas_bytes(example):
    # the estimators work on coefficients and column sums; every estimate
    # must still be the gradient-table formula's, byte for byte
    loss, spec, xs = example
    ests = [init_estimator(spec, loss, xs[0])]
    if spec.kind == "saga":  # and one switched to an explicit table
        ests.append(init_estimator(spec, loss, xs[0]))
        ests[1].phi_grads = ests[1].phi_grads
    want, table = table_estimates(spec.kind, loss, spec.seed, spec.batch_size, xs[0], xs[1:],
                                  spec.epoch_len, spec.restart_p)
    for est in ests:
        for x, g in zip(xs[1:], want):
            assert est.estimate(x).tobytes() == g.tobytes()
        if spec.kind == "saga":  # 2n calls: the mean was re-synced at the last one
            assert est.phi_grads.tobytes() == table.tobytes()
            assert est.phi_mean.tobytes() == (np.add.reduce(table, axis=0) / loss.n).tobytes()


@pytest.mark.parametrize("kind", ["saga", "svrg", "sarah"])
def test_variance_reduced_estimators_keep_no_gradient_table(kind):
    # every component gradient is c_i a_i: the memory is n scalars, and no
    # n x d table is built on set-up, per estimate or for the diagnostics
    rng = np.random.default_rng(17)
    n = d = 256
    rows = sp.random(n, d, density=0.02, random_state=rng, data_rvs=rng.standard_normal)
    loss = FiniteSumLoss.from_rows("least_squares", rows, rng.standard_normal(n))
    spec = EstimatorSpec(kind, batch_size=8, epoch_len=2, restart_p=2.0, seed=3)
    xs = rng.standard_normal((6, d))
    tracemalloc.start()
    try:
        est = init_estimator(spec, loss, xs[0])
        for x in xs[1:]:
            est.estimate(x)
        est.upsilon_gamma(xs[-1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * d * 8 / 4
    assert not [k for k, v in vars(est).items() if isinstance(v, np.ndarray) and v.ndim == 2]
    if kind == "saga":  # the memory reads as the gradients at each row's last visit
        last = [xs[0]] * n
        for t, x in enumerate(xs[1:]):
            for i in substream(3, DOMAIN_BATCH, t).integers(0, n, size=8):
                last[i] = x
        want = np.stack([loss.component_gradients(last[i], [i])[0] for i in range(n)])
        assert est.phi_grads.tobytes() == want.tobytes()
