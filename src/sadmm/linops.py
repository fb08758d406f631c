"""Linear operators and spectral estimation.

The solver only ever touches an operator through ``apply`` (x -> Ax) and
``adjoint`` (y -> A^T y); the concrete classes below cover dense matrices,
forward finite differences on an image, the identity, and vertical
stacking. ``estimate_spectral`` produces the two spectral quantities the
step-size analysis needs: the squared operator norm
(largest eigenvalue of A^T A), from a seeded Lanczos iteration, and the
smallest eigenvalue of A A^T, which is exactly 0 whenever out_dim > in_dim
(rank rule) and otherwise comes from the same Lanczos iteration on a
shifted map. Both use ``apply`` and ``adjoint`` alone; no operator is
materialized.
"""

import numpy as np

from .exceptions import ShapeError, SpectralEstimationError, _check_count
from .rng import DOMAIN_SPECTRAL, substream

__all__ = [
    "LinearOperator",
    "DenseMatrix",
    "FiniteDifference2D",
    "Identity",
    "VerticalStack",
    "SpectralEstimates",
    "estimate_spectral",
]


def _check_len(v, expected, name):
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.shape[0] != expected:
        raise ShapeError(f"{name} must be a vector of length {expected}, got shape {v.shape}")
    return v


class LinearOperator:
    """Base class: a linear map R^in_dim -> R^out_dim with an adjoint.

    Instances are immutable after construction; ``apply`` and ``adjoint``
    are pure and safe to call concurrently.
    """

    in_dim = 0
    out_dim = 0

    def apply(self, x):
        raise NotImplementedError

    def adjoint(self, y):
        raise NotImplementedError


class DenseMatrix(LinearOperator):
    """Operator backed by an explicit (m, d) row-major array."""

    def __init__(self, matrix):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ShapeError(f"matrix must be 2-D, got shape {matrix.shape}")
        self.matrix = matrix
        self.out_dim, self.in_dim = matrix.shape

    def apply(self, x):
        x = _check_len(x, self.in_dim, "x")
        return self.matrix @ x

    def adjoint(self, y):
        y = _check_len(y, self.out_dim, "y")
        return self.matrix.T @ y


class Identity(LinearOperator):
    """The identity on R^dim."""

    def __init__(self, dim):
        _check_count("dim", dim, 1, ShapeError)
        self.in_dim = self.out_dim = int(dim)

    def apply(self, x):
        return _check_len(x, self.in_dim, "x").copy()

    def adjoint(self, y):
        return _check_len(y, self.out_dim, "y").copy()


class FiniteDifference2D(LinearOperator):
    """Forward differences on an image, horizontal rows stacked above vertical.

    The image is row-major with shape (height, width). Boundary rows that
    would reach outside the image are dropped, so the output has
    ``height*(width-1) + (height-1)*width`` entries and A^T A is exactly the
    Neumann graph Laplacian of the grid.
    """

    def __init__(self, height, width):
        _check_count("height", height, 2, ShapeError)
        _check_count("width", width, 2, ShapeError)
        self.height = int(height)
        self.width = int(width)
        self.in_dim = self.height * self.width
        self._n_h = self.height * (self.width - 1)
        self._n_v = (self.height - 1) * self.width
        self.out_dim = self._n_h + self._n_v

    def apply(self, x):
        x = _check_len(x, self.in_dim, "x")
        img = x.reshape(self.height, self.width)
        horiz = img[:, 1:] - img[:, :-1]
        vert = img[1:, :] - img[:-1, :]
        return np.concatenate([horiz.ravel(), vert.ravel()])

    def adjoint(self, y):
        y = _check_len(y, self.out_dim, "y")
        horiz = y[: self._n_h].reshape(self.height, self.width - 1)
        vert = y[self._n_h :].reshape(self.height - 1, self.width)
        out = np.zeros((self.height, self.width))
        out[:, 1:] += horiz
        out[:, :-1] -= horiz
        out[1:, :] += vert
        out[:-1, :] -= vert
        return out.ravel()


class VerticalStack(LinearOperator):
    """Stack of operators sharing in_dim; apply concatenates member outputs."""

    def __init__(self, operators):
        operators = list(operators)
        if not operators:
            raise ShapeError("VerticalStack needs at least one operator")
        in_dim = operators[0].in_dim
        for op in operators:
            if op.in_dim != in_dim:
                raise ShapeError(
                    f"all stacked operators must share in_dim {in_dim}, got {op.in_dim}"
                )
        self.operators = tuple(operators)
        self.in_dim = in_dim
        self.out_dim = sum(op.out_dim for op in operators)

    def apply(self, x):
        x = _check_len(x, self.in_dim, "x")
        return np.concatenate([op.apply(x) for op in self.operators])

    def adjoint(self, y):
        y = _check_len(y, self.out_dim, "y")
        out = np.zeros(self.in_dim)
        offset = 0
        for op in self.operators:
            out += op.adjoint(y[offset : offset + op.out_dim])
            offset += op.out_dim
        return out


class SpectralEstimates:
    """Spectral quantities of an operator.

    Attributes
    ----------
    op_norm_sq : float
        Largest eigenvalue of A^T A, i.e. the squared operator norm.
    lambda_min_aat : float
        Smallest eigenvalue of A A^T; zero when A is not surjective.
    condition_kappa : float
        lambda_max(AA^T) / lambda_min(AA^T); +inf exactly when
        ``lambda_min_aat`` is zero.
    """

    def __init__(self, op_norm_sq, lambda_min_aat):
        self.op_norm_sq = float(op_norm_sq)
        self.lambda_min_aat = float(lambda_min_aat)
        if self.lambda_min_aat == 0.0:
            self.condition_kappa = float("inf")
        else:
            self.condition_kappa = max(1.0, self.op_norm_sq / self.lambda_min_aat)

    def __repr__(self):
        return (
            f"SpectralEstimates(op_norm_sq={self.op_norm_sq!r}, "
            f"lambda_min_aat={self.lambda_min_aat!r}, "
            f"condition_kappa={self.condition_kappa!r})"
        )


# Eigenvalues of AA^T below this multiple of the largest one are treated as
# exact zeros (rank deficiency), mirroring the usual rank tolerance.
_ZERO_REL_TOL = 1e-10


def _lanczos(matvec, dim, tol, max_iter, rng):
    """Largest eigenvalue of a symmetric PSD map given by ``matvec``.

    Lanczos iteration with full reorthogonalisation (two classical
    Gram-Schmidt passes per step) from a seeded start vector; one step is
    one ``matvec``. Stops when the residual ``beta_k |s_k|`` of the largest
    Ritz pair falls below tol * theta, or when the Krylov space is
    exhausted. The k x k Ritz problem costs O(k^3), so it is solved after
    each of the first 8 steps, then after every eighth more steps, and at
    the last step allowed: a run overshoots its stopping step by at most
    an eighth. Returns (theta, converged_flag).
    """
    q = rng.standard_normal(dim)
    if not q.any():
        q = np.ones(dim)
    q /= np.linalg.norm(q)
    basis = np.empty((min(dim, 16), dim))
    alphas, betas = [], []
    theta = 0.0
    check = 1
    for k in range(1, min(max_iter, dim) + 1):
        if k > basis.shape[0]:
            grown = np.empty((min(2 * basis.shape[0], dim), dim))
            grown[: k - 1] = basis
            basis = grown
        basis[k - 1] = q
        w = matvec(q)
        # The Rayleigh quotient rather than q @ w, so that a map fixing q
        # gives exactly 1.
        alphas.append(float(q @ w) / float(q @ q))
        w = w - alphas[-1] * q
        if betas:
            w -= betas[-1] * basis[k - 2]
        active = basis[:k]
        for _ in range(2):
            w -= active.T @ (active @ w)
        beta = float(np.linalg.norm(w))
        if k in (check, max_iter, dim) or beta == 0.0:
            check = k + max(1, k // 8)
            ritz, vecs = np.linalg.eigh(
                np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            )
            theta = float(ritz[-1])
            resid = beta * abs(float(vecs[-1, -1]))
            if resid <= tol * max(abs(theta), np.finfo(float).tiny) or k == dim:
                return theta, True
        betas.append(beta)
        q = w / beta
    return theta, False


def estimate_spectral(op, tol=1e-10, max_iter=10000, seed=0):
    """Estimate ``op_norm_sq`` and ``lambda_min_aat`` of an operator.

    The squared norm is the largest Ritz value of a Lanczos iteration on
    A^T A with a seeded start vector; one step (one product with A^T A)
    counts as one of ``max_iter`` iterations, and the iteration stops once
    the Ritz residual is at most ``tol`` times the Ritz value or the Krylov
    space is exhausted. The smallest eigenvalue of A A^T follows from the
    shape where it can: when ``out_dim > in_dim`` the rank of A A^T is at
    most ``in_dim``, so it is exactly 0 and nothing more is computed.
    Otherwise it is ``op_norm_sq`` minus the largest Ritz value of the same
    Lanczos iteration on the shifted map ``op_norm_sq * Id - A A^T``,
    from a second seeded start vector; an estimate below 1e-10 times
    ``op_norm_sq`` is an exact 0 (rank deficiency). The operator is never
    materialized. Results are deterministic given ``seed``.

    Raises
    ------
    SpectralEstimationError
        If a Lanczos iteration fails to converge within ``max_iter``
        steps; the best estimates so far ride along on the exception.
    """
    if not tol > 0:
        raise ShapeError(f"tol must be positive, got {tol}")
    _check_count("max_iter", max_iter, 1, ShapeError)

    def ata(v):
        return op.adjoint(op.apply(v))

    rng = substream(seed, DOMAIN_SPECTRAL, 0)
    op_norm_sq, ok = _lanczos(ata, op.in_dim, tol, max_iter, rng)
    op_norm_sq = max(0.0, op_norm_sq)
    if not ok:
        raise SpectralEstimationError(
            f"Lanczos iteration on A^T A did not converge in {max_iter} steps",
            best=SpectralEstimates(op_norm_sq, 0.0),
        )

    if op.out_dim > op.in_dim:
        # rank(AA^T) <= in_dim < out_dim, so AA^T is singular.
        return SpectralEstimates(op_norm_sq, 0.0)

    def shifted(v):
        return op_norm_sq * v - op.apply(op.adjoint(v))

    rng = substream(seed, DOMAIN_SPECTRAL, 1)
    mu, ok = _lanczos(shifted, op.out_dim, tol, max_iter, rng)
    lam_min = op_norm_sq - mu
    if not ok:
        raise SpectralEstimationError(
            f"shifted Lanczos iteration on A A^T did not converge in {max_iter} steps",
            best=SpectralEstimates(op_norm_sq, max(0.0, lam_min)),
        )
    if lam_min < _ZERO_REL_TOL * op_norm_sq:
        lam_min = 0.0
    return SpectralEstimates(op_norm_sq, lam_min)
