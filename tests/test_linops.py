import math

import numpy as np
import pytest

from sadmm import (
    DenseMatrix,
    FiniteDifference1D,
    FiniteDifference2D,
    Identity,
    LinearOperator,
    ParseError,
    ShapeError,
    SolverConfig,
    SpectralEstimationError,
    VerticalStack,
    build_toy_reconstruction,
    estimate_spectral,
    load_dense_matrix,
    validate_params,
)


def operator_zoo(rng):
    ops = [
        Identity(7),
        FiniteDifference1D(9),
        FiniteDifference2D(4, 5),
        DenseMatrix(rng.standard_normal((6, 4))),
        VerticalStack([FiniteDifference1D(5), Identity(5)]),
        VerticalStack(
            [DenseMatrix(rng.standard_normal((3, 5))), Identity(5), FiniteDifference1D(5)]
        ),
    ]
    return ops


def test_apply_examples():
    assert np.array_equal(Identity(3).apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    assert np.array_equal(FiniteDifference1D(3).apply([1.0, 3.0, 6.0]), [2.0, 3.0])
    dm = DenseMatrix([[1.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(dm.apply([2.0, 3.0]), [2.0, 5.0])


def test_adjoint_examples():
    assert np.array_equal(Identity(2).adjoint([4.0, 5.0]), [4.0, 5.0])
    assert np.array_equal(FiniteDifference1D(3).adjoint([1.0, 1.0]), [-1.0, 0.0, 1.0])
    dm = DenseMatrix([[1.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(dm.adjoint([1.0, 1.0]), [2.0, 1.0])


def test_shape_errors():
    with pytest.raises(ShapeError):
        Identity(3).apply([1.0, 2.0])
    with pytest.raises(ShapeError):
        FiniteDifference1D(4).adjoint([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ShapeError):
        VerticalStack([Identity(3), Identity(4)])


def test_adjoint_consistency_1000_pairs():
    rng = np.random.default_rng(7)
    for op in operator_zoo(rng):
        for _ in range(1000):
            x = rng.standard_normal(op.in_dim)
            y = rng.standard_normal(op.out_dim)
            lhs = float(op.apply(x) @ y)
            rhs = float(x @ op.adjoint(y))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_gram_maps_are_psd():
    rng = np.random.default_rng(8)
    for op in operator_zoo(rng):
        for _ in range(50):
            x = rng.standard_normal(op.in_dim)
            y = rng.standard_normal(op.out_dim)
            assert float(x @ op.adjoint(op.apply(x))) >= -1e-12
            assert float(y @ op.apply(op.adjoint(y))) >= -1e-12


def test_vertical_stack_out_dim_sum():
    stack = VerticalStack([FiniteDifference1D(4), Identity(4)])
    assert stack.out_dim == 3 + 4
    assert stack.in_dim == 4


def test_finite_difference_2d_layout():
    op = FiniteDifference2D(3, 4)
    assert op.out_dim == 2 * 3 * 4 - 3 - 4
    img = np.arange(12.0).reshape(3, 4)
    out = op.apply(img.ravel())
    horiz = out[: 3 * 3].reshape(3, 3)
    vert = out[3 * 3 :].reshape(2, 4)
    assert np.array_equal(horiz, img[:, 1:] - img[:, :-1])
    assert np.array_equal(vert, img[1:, :] - img[:-1, :])


def test_spectral_trivial_examples():
    se = estimate_spectral(DenseMatrix(np.diag([3.0, 1.0])))
    assert se.op_norm_sq == pytest.approx(9.0, rel=1e-10)
    assert se.lambda_min_aat == pytest.approx(1.0, rel=1e-10)

    se = estimate_spectral(Identity(5))
    assert se.op_norm_sq == 1.0
    assert se.lambda_min_aat == 1.0
    assert se.condition_kappa == 1.0


def test_spectral_stacked_difference_identity_is_singular():
    # 7x4 stack [G; I]: AA^T has rank at most 4, so lambda_min(AA^T) = 0.
    op = VerticalStack([FiniteDifference1D(4), Identity(4)])
    assert op.out_dim == 7
    se = estimate_spectral(op)
    dense = op.to_dense()
    gram = dense @ dense.T
    eigs = np.linalg.eigvalsh(gram)
    assert eigs[0] == pytest.approx(0.0, abs=1e-10)
    assert se.lambda_min_aat == 0.0
    assert se.condition_kappa == float("inf")
    assert se.op_norm_sq == pytest.approx(eigs[-1], rel=1e-8)


def test_spectral_matches_dense_oracle():
    rng = np.random.default_rng(11)
    shapes = [(5, 5), (8, 12), (12, 8), (50, 40), (40, 50), (3, 50)]
    for m, d in shapes:
        mat = rng.standard_normal((m, d))
        op = DenseMatrix(mat)
        se = estimate_spectral(op, tol=1e-12, max_iter=200000, seed=5)
        ata_eigs = np.linalg.eigvalsh(mat.T @ mat)
        aat_eigs = np.linalg.eigvalsh(mat @ mat.T)
        assert se.op_norm_sq == pytest.approx(ata_eigs[-1], rel=1e-6)
        if m <= d:
            assert se.lambda_min_aat == pytest.approx(aat_eigs[0], rel=1e-6)
        else:
            assert se.lambda_min_aat == 0.0


def test_spectral_deterministic_given_seed():
    rng = np.random.default_rng(3)
    op = DenseMatrix(rng.standard_normal((10, 6)))
    a = estimate_spectral(op, seed=42)
    b = estimate_spectral(op, seed=42)
    assert a.op_norm_sq == b.op_norm_sq
    assert a.lambda_min_aat == b.lambda_min_aat


def test_spectral_nonconvergence_carries_best():
    op = DenseMatrix([[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(SpectralEstimationError) as excinfo:
        estimate_spectral(op, tol=1e-15, max_iter=1, seed=0)
    assert excinfo.value.best is not None
    assert excinfo.value.best.op_norm_sq > 0


@pytest.mark.parametrize("height,width", [(32, 33), (48, 48)])
def test_spectral_difference_2d_above_dense_limit(height, width):
    # out_dim > 2000 and out_dim > in_dim: A^T A is the Neumann grid
    # Laplacian and AA^T is singular.
    op = FiniteDifference2D(height, width)
    assert op.out_dim > 2000
    se = estimate_spectral(op)
    closed = 4.0 + 2.0 * math.cos(math.pi / height) + 2.0 * math.cos(math.pi / width)
    assert se.op_norm_sq == pytest.approx(closed, rel=1e-10)
    assert se.lambda_min_aat == 0.0
    assert se.condition_kappa == float("inf")


def test_spectral_rank_rule_leaves_descent_coefficient_undefined():
    problem, _ = build_toy_reconstruction(32, 33, seed=0)
    se = estimate_spectral(problem.op)
    config = SolverConfig(beta=1.0, tau=4.5, sigma=0.95)
    report = validate_params(problem, config, se, problem.loss.lipschitz_bound())
    status = dict((name, s) for name, s, _ in report.checks)
    assert status["lambda_min_positive"] == "warn"
    assert math.isnan(report.eta_tilde)


class RowDifferences(LinearOperator):
    """Forward differences down the columns of a (rows, cols) image.

    A = D kron I_cols with D the (rows-1) x rows difference matrix, so AA^T
    has the eigenvalues 2 - 2 cos(k pi / rows), k = 1..rows-1, each
    ``cols`` times. Not materializable, to keep the dense path out.
    """

    def __init__(self, rows, cols):
        self.rows, self.cols = rows, cols
        self.in_dim = rows * cols
        self.out_dim = (rows - 1) * cols

    def apply(self, x):
        img = np.asarray(x, dtype=float).reshape(self.rows, self.cols)
        return (img[1:] - img[:-1]).ravel()

    def adjoint(self, y):
        diff = np.asarray(y, dtype=float).reshape(self.rows - 1, self.cols)
        out = np.zeros((self.rows, self.cols))
        out[1:] += diff
        out[:-1] -= diff
        return out.ravel()

    def to_dense(self):
        raise AssertionError("the shifted branch must not materialize the operator")


def test_spectral_shifted_branch_matches_closed_form():
    op = RowDifferences(8, 300)
    assert 2000 < op.out_dim <= op.in_dim
    se = estimate_spectral(op, seed=3)
    assert se.op_norm_sq == pytest.approx(2.0 + 2.0 * math.cos(math.pi / 8), rel=1e-10)
    assert se.lambda_min_aat == pytest.approx(2.0 - 2.0 * math.cos(math.pi / 8), rel=1e-9)


def test_dense_loader_roundtrip(tmp_path):
    path = tmp_path / "mat.txt"
    path.write_text("2 3\n1 2 3\n4.5 -6 0\n")
    op = load_dense_matrix(path)
    assert op.out_dim == 2 and op.in_dim == 3
    assert np.array_equal(op.matrix, [[1.0, 2.0, 3.0], [4.5, -6.0, 0.0]])


def test_dense_loader_errors(tmp_path):
    bad_header = tmp_path / "a.txt"
    bad_header.write_text("2\n1 2\n3 4\n")
    with pytest.raises(ParseError):
        load_dense_matrix(bad_header)

    short_row = tmp_path / "b.txt"
    short_row.write_text("2 2\n1 2\n3\n")
    with pytest.raises(ParseError, match="line 3"):
        load_dense_matrix(short_row)

    non_numeric = tmp_path / "c.txt"
    non_numeric.write_text("1 2\n1 x\n")
    with pytest.raises(ParseError, match="line 2"):
        load_dense_matrix(non_numeric)
