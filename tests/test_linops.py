import math

import numpy as np
import pytest

from helpers import dense
from sadmm import (
    DenseMatrix,
    FiniteDifference2D,
    Identity,
    LinearOperator,
    ShapeError,
    SolverConfig,
    SpectralEstimationError,
    VerticalStack,
    build_toy_reconstruction,
    estimate_spectral,
    validate_params,
)


def differences(d):
    """Forward differences (Ax)_i = x_{i+1} - x_i as a (d - 1) x d matrix."""
    return DenseMatrix(np.diff(np.eye(d), axis=0))


def operator_zoo(rng):
    ops = [
        Identity(7),
        differences(9),
        FiniteDifference2D(4, 5),
        DenseMatrix(rng.standard_normal((6, 4))),
        VerticalStack([differences(5), Identity(5)]),
        VerticalStack(
            [DenseMatrix(rng.standard_normal((3, 5))), Identity(5), differences(5)]
        ),
    ]
    return ops


def test_apply_examples():
    assert np.array_equal(Identity(3).apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    assert np.array_equal(differences(3).apply([1.0, 3.0, 6.0]), [2.0, 3.0])
    dm = DenseMatrix([[1.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(dm.apply([2.0, 3.0]), [2.0, 5.0])


def test_adjoint_examples():
    assert np.array_equal(Identity(2).adjoint([4.0, 5.0]), [4.0, 5.0])
    assert np.array_equal(differences(3).adjoint([1.0, 1.0]), [-1.0, 0.0, 1.0])
    dm = DenseMatrix([[1.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(dm.adjoint([1.0, 1.0]), [2.0, 1.0])


def test_shape_errors():
    with pytest.raises(ShapeError):
        Identity(3).apply([1.0, 2.0])
    with pytest.raises(ShapeError):
        differences(4).adjoint([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ShapeError):
        VerticalStack([Identity(3), Identity(4)])


_NAN = float("nan")


@pytest.mark.parametrize(
    "make",
    [
        lambda: Identity(2.5),
        lambda: Identity(_NAN),
        lambda: Identity(0),
        lambda: FiniteDifference2D(3.7, 4),
        lambda: FiniteDifference2D(4, _NAN),
        lambda: FiniteDifference2D(4, 1),
    ],
    ids=["identity_fraction", "identity_nan", "identity_zero", "fd2d_height_fraction",
         "fd2d_width_nan", "fd2d_width_one"],
)
def test_operator_dimensions_must_be_integers_in_range(make):
    with pytest.raises(ShapeError):
        make()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": _NAN},
        {"tol": 0.0},
        {"tol": -1e-10},
        {"max_iter": _NAN},
        {"max_iter": 2.5},
        {"max_iter": 0},
    ],
    ids=["tol_nan", "tol_zero", "tol_negative", "max_iter_nan", "max_iter_fraction",
         "max_iter_zero"],
)
def test_spectral_rejects_bad_tol_and_max_iter(kwargs):
    with pytest.raises(ShapeError):
        estimate_spectral(Identity(3), **kwargs)


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
    stack = VerticalStack([differences(4), Identity(4)])
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
    op = VerticalStack([differences(4), Identity(4)])
    assert op.out_dim == 7
    se = estimate_spectral(op)
    mat = dense(op)
    gram = mat @ mat.T
    eigs = np.linalg.eigvalsh(gram)
    assert eigs[0] == pytest.approx(0.0, abs=1e-10)
    assert se.lambda_min_aat == 0.0
    assert se.condition_kappa == float("inf")
    assert se.op_norm_sq == pytest.approx(eigs[-1], rel=1e-8)


def test_spectral_matches_dense_oracle():
    rng = np.random.default_rng(11)
    shapes = [(5, 5), (8, 12), (12, 8), (50, 40), (40, 50), (3, 50)]
    ops = [DenseMatrix(rng.standard_normal((m, d))) for m, d in shapes]
    # AA^T of the 49 x 50 differences has eigenvalues 2 - 2 cos(k pi / 50),
    # and the 10 x 30 product has rank 4
    rank4 = DenseMatrix(rng.standard_normal((10, 4)) @ rng.standard_normal((4, 30)))
    ops += [differences(50), rank4]
    for op in ops:
        mat = dense(op)
        se = estimate_spectral(op, tol=1e-12, max_iter=200000, seed=5)
        ata_eigs = np.linalg.eigvalsh(mat.T @ mat)
        aat_eigs = np.linalg.eigvalsh(mat @ mat.T)
        assert se.op_norm_sq == pytest.approx(ata_eigs[-1], rel=1e-6)
        if op is rank4:
            assert se.lambda_min_aat == 0.0
        elif op.out_dim <= op.in_dim:
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
    ``cols`` times.
    """

    def __init__(self, rows, cols):
        self.rows, self.cols = rows, cols
        self.in_dim = rows * cols
        self.out_dim = (rows - 1) * cols

    def _apply(self, x):
        img = x.reshape(self.rows, self.cols)
        return (img[1:] - img[:-1]).ravel()

    def _adjoint(self, y):
        diff = y.reshape(self.rows - 1, self.cols)
        out = np.zeros((self.rows, self.cols))
        out[1:] += diff
        out[:-1] -= diff
        return out.ravel()


@pytest.mark.parametrize("index", range(7))
def test_public_maps_check_and_coerce_their_input(index):
    # apply and adjoint are the base class's; a subclass implements only the
    # unchecked cores
    rng = np.random.default_rng(12)
    op = (operator_zoo(rng) + [RowDifferences(3, 4)])[index]
    for method, dim in ((op.apply, op.in_dim), (op.adjoint, op.out_dim)):
        for bad in (np.ones(dim + 1), np.ones(dim - 1), np.ones((1, dim)), np.ones((dim, 1))):
            with pytest.raises(ShapeError):
                method(bad)
        v = rng.standard_normal(dim)
        assert method(list(v)).tobytes() == method(v).tobytes()


def test_spectral_shifted_branch_matches_closed_form():
    op = RowDifferences(8, 300)
    assert 2000 < op.out_dim <= op.in_dim
    se = estimate_spectral(op, seed=3)
    assert se.op_norm_sq == pytest.approx(2.0 + 2.0 * math.cos(math.pi / 8), rel=1e-10)
    assert se.lambda_min_aat == pytest.approx(2.0 - 2.0 * math.cos(math.pi / 8), rel=1e-9)


def test_spectral_small_square_like_operator_is_not_materialized():
    # out_dim <= in_dim <= 2000: lambda_min(AA^T) still comes from Lanczos
    op = RowDifferences(6, 5)
    assert op.out_dim <= op.in_dim <= 2000
    se = estimate_spectral(op, seed=3)
    assert se.op_norm_sq == pytest.approx(2.0 + 2.0 * math.cos(math.pi / 6), rel=1e-10)
    assert se.lambda_min_aat == pytest.approx(2.0 - 2.0 * math.cos(math.pi / 6), rel=1e-9)
