import numpy as np
import pytest
import scipy.sparse as sp

from sadmm import (
    DataError,
    Dataset,
    EstimatorSpec,
    FiniteDifference2D,
    Identity,
    L0,
    ParameterError,
    SolverConfig,
    VerticalStack,
    build_fused_lasso,
    build_graph,
    build_toy_reconstruction,
    generate_synthetic_quadratic,
    rectangle_phantom,
    run,
    write_pgm,
)


def dataset_from_dense(mat, labels):
    mat = np.asarray(mat, dtype=float)
    return Dataset(
        features=sp.csr_matrix(mat),
        labels=np.asarray(labels, dtype=float),
        n=mat.shape[0],
        d=mat.shape[1],
    )


def test_graph_identical_columns_found_at_threshold_one():
    rng = np.random.default_rng(0)
    col = rng.standard_normal(30)
    mat = np.column_stack([col, col, rng.standard_normal(30)])
    data = dataset_from_dense(mat, np.ones(30))
    graph = build_graph(data, rho_c=1.0)
    assert (0, 1) in graph.edges


def test_graph_orthogonal_columns_give_no_edge():
    # constructed exactly orthogonal, mean-zero columns
    mat = np.array(
        [
            [1.0, 1.0],
            [1.0, -1.0],
            [-1.0, 1.0],
            [-1.0, -1.0],
        ]
    )
    data = dataset_from_dense(mat, np.ones(4))
    graph = build_graph(data, rho_c=0.9)
    assert graph.edges == ()


def test_graph_constant_column_treated_as_correlation_zero():
    rng = np.random.default_rng(1)
    mat = np.column_stack([np.ones(20), rng.standard_normal(20)])
    data = dataset_from_dense(mat, np.ones(20))
    graph = build_graph(data, rho_c=0.1)
    assert graph.edges == ()


def test_graph_planted_pair_is_exactly_recovered():
    rng = np.random.default_rng(2)
    base = rng.standard_normal(60)
    mat = np.column_stack(
        [
            base,
            base + 0.01 * rng.standard_normal(60),
            rng.standard_normal(60),
            rng.standard_normal(60),
        ]
    )
    data = dataset_from_dense(mat, np.ones(60))
    # oracle: direct correlation computation
    corr = np.corrcoef(mat, rowvar=False)
    expected = tuple(
        (i, j)
        for i in range(4)
        for j in range(i + 1, 4)
        if abs(corr[i, j]) >= 0.95
    )
    assert expected == ((0, 1),)
    graph = build_graph(data, rho_c=0.95)
    assert graph.edges == expected


def _loop_edges(mat, rho_c):
    # the correlation of build_graph, thresholded pair by pair
    centered = mat - mat.mean(axis=0)
    cov = centered.T @ centered
    std = np.sqrt(np.diag(cov))
    denom = np.outer(std, std)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(denom > 0, cov / denom, 0.0)
    corr = np.where(np.abs(corr) >= 1.0 - 1e-12, np.sign(corr), corr)
    d = mat.shape[1]
    return tuple(
        (i, j) for i in range(d) for j in range(i + 1, d) if abs(corr[i, j]) >= rho_c
    )


@pytest.mark.parametrize("rho_c", [1e-9, 0.1, 0.9, 1.0])
def test_graph_edges_and_rows_match_a_pairwise_loop(rho_c):
    rng = np.random.default_rng(5)
    base = rng.standard_normal((40, 5))
    mat = np.column_stack(
        [base, base[:, 1], -base[:, 3] + 1e-3 * rng.standard_normal(40), np.ones(40)]
    )
    labels = np.where(rng.random(40) > 0.5, 1.0, -1.0)
    data = dataset_from_dense(mat, labels)
    graph = build_graph(data, rho_c)
    expected = _loop_edges(mat, rho_c)
    assert graph.edges == expected
    assert (1, 5) in graph.edges
    assert all(type(i) is int and type(j) is int for i, j in graph.edges)
    problem = build_fused_lasso(data, graph=graph)
    g_rows = problem.op.operators[0].matrix
    for k, (i, j) in enumerate(expected):
        want = np.zeros(mat.shape[1])
        want[i], want[j] = 1.0, -1.0
        assert np.array_equal(g_rows[k], want)


def test_fused_lasso_edge_rows_and_shape():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((10, 3))
    labels = np.where(rng.random(10) > 0.5, 1.0, -1.0)
    data = dataset_from_dense(mat, labels)
    graph = build_graph(data, rho_c=1e-9)  # every pair becomes an edge
    problem = build_fused_lasso(data, lambda1=1e-5, graph=graph)
    assert problem.op.out_dim == len(graph.edges) + 3

    from sadmm.problems import GraphSpec

    single = build_fused_lasso(data, lambda1=1e-5, graph=GraphSpec(edges=((0, 1),)))
    assert isinstance(single.op, VerticalStack)
    assert single.op.out_dim == 4
    g_row = single.op.operators[0].matrix[0]
    assert np.array_equal(g_row, [1.0, -1.0, 0.0])


def test_fused_lasso_empty_graph_is_plain_lasso():
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((8, 3))
    data = dataset_from_dense(mat, np.ones(8))
    problem = build_fused_lasso(data, lambda1=1e-5, graph=None)
    assert isinstance(problem.op, Identity)
    x = rng.standard_normal(3)
    assert problem.reg.value(problem.op.apply(x)) == pytest.approx(
        1e-5 * np.abs(x).sum()
    )


def test_fused_lasso_rejects_non_binary_labels():
    rng = np.random.default_rng(5)
    data = dataset_from_dense(rng.standard_normal((5, 2)), [1.0, 2.0, 1.0, 2.0, 3.0])
    with pytest.raises(DataError):
        build_fused_lasso(data)


def test_fused_lasso_identity_block_keeps_norm_at_least_one():
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((10, 4))
    data = dataset_from_dense(mat, np.where(rng.random(10) > 0.5, 1.0, -1.0))
    graph = build_graph(data, rho_c=0.5)
    problem = build_fused_lasso(data, graph=graph)
    from sadmm import estimate_spectral

    if graph.edges:
        se = estimate_spectral(problem.op)
        assert se.op_norm_sq >= 1.0 - 1e-9


def test_phantom_difference_support_matches_perimeter():
    # one interior rectangle: the nonzero forward differences sit exactly on
    # its vertical and horizontal boundary crossings
    h, w = 12, 10
    r0, c0, r1, c1 = 3, 2, 8, 7
    img = rectangle_phantom(h, w, [(r0, c0, r1, c1, 1.0)])
    op = FiniteDifference2D(h, w)
    out = op.apply(img.ravel())
    count = int(np.count_nonzero(out))
    expected = 2 * (r1 - r0) + 2 * (c1 - c0)
    assert count == expected
    assert L0(1.0).value(out) == expected


def test_toy_reconstruction_mask_keep_one_is_identity_forward():
    problem, truth = build_toy_reconstruction(
        8, 8, forward="mask", keep=1.0, noise_sigma=0.0, lam=0.01, reg_kind="l1", seed=1
    )
    rows = np.vstack([c.r for c in problem.loss.components])
    assert np.array_equal(rows, np.eye(64))
    b = np.array([c.b for c in problem.loss.components])
    assert np.array_equal(b, truth)


def test_toy_reconstruction_blur_zero_radius_is_identity_forward():
    problem, truth = build_toy_reconstruction(
        8, 8, forward="blur", radius=0, noise_sigma=0.0, lam=0.01, reg_kind="l1", seed=2
    )
    rows = np.vstack([c.r for c in problem.loss.components])
    assert np.array_equal(rows, np.eye(64))


@pytest.mark.parametrize("height, width, radius", [(8, 8, 1), (9, 12, 2), (10, 8, 4)])
def test_toy_reconstruction_blur_rows_match_a_per_pixel_window(height, width, radius):
    problem, _ = build_toy_reconstruction(height, width, forward="blur", radius=radius)
    rows = np.vstack([c.r for c in problem.loss.components])
    expected = np.zeros((height * width, height * width))
    for i in range(height):
        for j in range(width):
            r0, r1 = max(0, i - radius), min(height, i + radius + 1)
            c0, c1 = max(0, j - radius), min(width, j + radius + 1)
            window = np.zeros((height, width))
            window[r0:r1, c0:c1] = 1.0 / ((r1 - r0) * (c1 - c0))
            expected[i * width + j] = window.ravel()
    assert rows.tobytes() == expected.tobytes()


def test_toy_reconstruction_parameter_errors():
    with pytest.raises(ParameterError):
        build_toy_reconstruction(8, 8, forward="mask", keep=0.0)
    with pytest.raises(ParameterError):
        build_toy_reconstruction(8, 8, forward="mask", keep=1.5)
    with pytest.raises(ParameterError):
        build_toy_reconstruction(4, 4)
    with pytest.raises(ParameterError):
        build_toy_reconstruction(8, 8, reg_kind="l2")


def test_toy_reconstruction_noiseless_identity_recovers_truth():
    problem, truth = build_toy_reconstruction(
        8, 8, forward="blur", radius=0, noise_sigma=0.0, lam=1e-6, reg_kind="l1", seed=3
    )
    config = SolverConfig(
        beta=0.05,
        tau=6.0,
        sigma=0.95,
        estimator=EstimatorSpec("full"),
        max_epochs=4000,
        residual_tol=0.0,
    )
    result = run(problem, config)
    err = np.linalg.norm(result.state.x - truth) / max(1.0, np.linalg.norm(truth))
    assert err < 1e-3


def test_synthetic_quadratic_conditioning_and_determinism():
    flat = generate_synthetic_quadratic(10, 4, seed=5, conditioning=1.0)
    norms = [np.linalg.norm(c.r) for c in flat.loss.components]
    assert max(norms) == pytest.approx(min(norms))

    spread = generate_synthetic_quadratic(10, 4, seed=5, conditioning=7.0)
    norms = [np.linalg.norm(c.r) for c in spread.loss.components]
    assert max(norms) / min(norms) == pytest.approx(7.0)

    again = generate_synthetic_quadratic(10, 4, seed=5, conditioning=7.0)
    for a, b in zip(spread.loss.components, again.loss.components):
        assert np.array_equal(a.r, b.r) and a.b == b.b


def test_synthetic_quadratic_minimizer_metadata():
    problem = generate_synthetic_quadratic(30, 6, seed=6)
    x_star = problem.metadata["smooth_minimizer"]
    grad = problem.loss.full_gradient(x_star)
    assert np.linalg.norm(grad) < 1e-8


def test_smooth_minimizer_hand_case():
    from sadmm import FiniteSumLoss, LeastSquaresComponent

    loss = FiniteSumLoss(
        [LeastSquaresComponent([1.0], 0.0), LeastSquaresComponent([1.0], 2.0)]
    )
    # (1/2)[(x-0)^2 + (x-2)^2] minimized at x = 1
    assert np.linalg.norm(loss.full_gradient(np.array([1.0]))) == 0.0


def test_write_pgm(tmp_path):
    img = rectangle_phantom(8, 10, [(2, 2, 5, 6, 1.0)])
    path = tmp_path / "phantom.pgm"
    write_pgm(path, img)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "10 8"
    assert lines[2] == "255"
    grid = np.array([[int(v) for v in line.split()] for line in lines[3:]])
    assert grid.shape == (8, 10)
    assert grid.max() == 255 and grid.min() == 0
