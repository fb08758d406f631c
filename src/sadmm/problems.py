"""Concrete problem builders.

A Problem bundles the three ingredients of the composite objective
H(x) + F(Ax): a finite-sum smooth loss, a separable regularizer and a
linear operator. Builders cover the graph-guided fused lasso on a binary
classification dataset, a desk-scale image-reconstruction problem
(blurred or subsampled measurements with a finite-difference sparsity
transform), and seeded synthetic quadratics used as test fixtures.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .exceptions import DataError, ParameterError, ShapeError, _check_count
from .linops import DenseMatrix, FiniteDifference2D, Identity, VerticalStack
from .losses import FiniteSumLoss
from .regularizers import L0, L1
from .rng import DOMAIN_MASK, DOMAIN_NOISE, DOMAIN_PROBLEM, substream

__all__ = [
    "Problem",
    "Dataset",
    "build_graph",
    "build_fused_lasso",
    "build_toy_reconstruction",
    "generate_synthetic_quadratic",
    "rectangle_phantom",
]


@dataclass(frozen=True)
class Problem:
    """Immutable bundle of the objective H(x) + F(Ax): loss H, regularizer F,
    operator A and a descriptive name."""

    loss: FiniteSumLoss
    reg: object
    op: object
    name: str = ""

    def __post_init__(self):
        if self.op.in_dim != self.loss.dim:
            raise ShapeError(
                f"operator in_dim {self.op.in_dim} != loss dim {self.loss.dim}"
            )


@dataclass(frozen=True)
class Dataset:
    """Sample matrix in sparse row storage plus labels; n and d read its shape."""

    features: sp.csr_matrix
    labels: np.ndarray

    n = property(lambda self: self.features.shape[0])
    d = property(lambda self: self.features.shape[1])

    def __post_init__(self):
        if self.labels.shape != (self.n,):
            raise DataError("row count and label count differ")


def build_graph(data, rho_c):
    """Edges between feature columns with |Pearson correlation| >= rho_c,
    a tuple of int pairs (i, j) with i < j, in ascending order.

    Constant columns get correlation zero. Exact duplicates are snapped to
    correlation one so that a threshold of 1.0 still finds them.
    """
    if not 0 < rho_c <= 1:
        raise ParameterError(f"rho_c must lie in (0, 1], got {rho_c}")
    if data.n < 2:
        raise DataError("correlation graph needs at least 2 samples")
    cols = np.asarray(data.features.todense(), dtype=float)
    centered = cols - cols.mean(axis=0)
    cov = centered.T @ centered
    std = np.sqrt(np.diag(cov))
    denom = np.outer(std, std)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(denom > 0, cov / denom, 0.0)
    snap = np.abs(corr) >= 1.0 - 1e-12
    corr = np.where(snap, np.sign(corr), corr)
    first, second = np.nonzero(np.triu(np.abs(corr) >= rho_c, 1))
    return tuple(zip(first.tolist(), second.tolist()))


def build_fused_lasso(data, lambda1=1e-5, graph=None, name="fused_lasso"):
    """Sigmoid-loss classification with an L1 penalty on [G; I] x.

    The loss is the row store of the dense samples and their labels. G holds
    one row e_i - e_j per edge (i, j) of ``graph``, as ``build_graph``
    returns it; with no edges (None or ()) it is omitted.
    """
    labels = np.asarray(data.labels, dtype=float)
    if not set(np.unique(labels)) <= {-1.0, 1.0}:
        raise DataError("fused lasso needs binary labels in {-1, +1}")
    if not lambda1 > 0:
        raise ParameterError(f"lambda1 must be positive, got {lambda1}")
    loss = FiniteSumLoss.from_rows("sigmoid", data.features.todense(), labels)
    if graph:
        pairs, k = np.array(graph), np.arange(len(graph))
        g_rows = np.zeros((len(graph), data.d))
        g_rows[k, pairs[:, 0]] = 1.0
        g_rows[k, pairs[:, 1]] = -1.0
        op = VerticalStack([DenseMatrix(g_rows), Identity(data.d)])
    else:
        op = Identity(data.d)
    return Problem(loss=loss, reg=L1(lambda1), op=op, name=name)


def rectangle_phantom(height, width, rectangles):
    """Piecewise-constant image from a list of (r0, c0, r1, c1, value).

    Rectangles are half-open in both axes and painted in order.
    """
    img = np.zeros((height, width))
    for r0, c0, r1, c1, value in rectangles:
        img[r0:r1, c0:c1] = value
    return img


def _random_rectangles(height, width, rng, count=3):
    rects = []
    for _ in range(count):
        r0 = int(rng.integers(0, height - 3))
        c0 = int(rng.integers(0, width - 3))
        r1 = int(rng.integers(r0 + 2, min(height, r0 + max(3, height // 2)) + 1))
        c1 = int(rng.integers(c0 + 2, min(width, c0 + max(3, width // 2)) + 1))
        value = float(rng.uniform(0.3, 1.0))
        rects.append((r0, c0, r1, c1, value))
    return rects


def build_toy_reconstruction(
    height,
    width,
    forward="blur",
    radius=1,
    keep=0.5,
    noise_sigma=0.0,
    lam=0.01,
    reg_kind="l1",
    seed=0,
):
    """Image reconstruction from blurred or subsampled pixels.

    The ground truth is a random rectangle phantom; measurements are inner
    products with the forward rows plus Gaussian noise, and the loss is the
    row store of those rows and measurements. The forward rows are built
    and stored as CSR: a blur row holds its window's (2 radius + 1)^2
    pixels at most and a mask row one, so set-up, scoring and full
    gradients cost O(nnz), never O(d^2). The sparsity transform is the
    2-D forward-difference operator. Returns the Problem and the flattened
    ground-truth image.
    """
    _check_count("height", height, 8)
    _check_count("width", width, 8)
    if not 0 <= noise_sigma < np.inf:
        raise ParameterError(f"noise_sigma must be finite and nonnegative, got {noise_sigma}")
    if forward not in ("blur", "mask"):
        raise ParameterError(f"forward must be 'blur' or 'mask', got {forward!r}")
    if reg_kind not in ("l0", "l1"):
        raise ParameterError(f"reg_kind must be 'l0' or 'l1', got {reg_kind!r}")
    d = height * width
    truth_img = rectangle_phantom(
        height, width, _random_rectangles(height, width, substream(seed, DOMAIN_PROBLEM, 0))
    )
    truth = truth_img.ravel()

    if forward == "blur":
        _check_count("radius", radius, 0)
        # pixel (i, j) averages its (2 radius + 1)^2 window, clipped at the border
        near_r, near_c = (np.abs(np.subtract.outer(np.arange(m), np.arange(m))) <= radius
                          for m in (height, width))
        counts = np.outer(near_r.sum(axis=1), near_c.sum(axis=1)).ravel()
        rows = sp.kron(sp.csr_matrix(near_r, dtype=float), sp.csr_matrix(near_c, dtype=float),
                       format="csr")
        rows.data /= np.repeat(counts, np.diff(rows.indptr))
    else:
        if not 0 < keep <= 1:
            raise ParameterError(f"keep fraction must lie in (0, 1], got {keep}")
        n_keep = max(1, int(round(keep * d)))
        kept = np.sort(substream(seed, DOMAIN_MASK, 0).choice(d, size=n_keep, replace=False))
        rows = sp.csr_matrix((np.ones(n_keep), kept, np.arange(n_keep + 1)), shape=(n_keep, d))

    clean = rows @ truth
    noise = noise_sigma * substream(seed, DOMAIN_NOISE, 0).standard_normal(len(clean))
    b = clean + noise
    loss = FiniteSumLoss.from_rows("least_squares", rows, b)
    op = FiniteDifference2D(height, width)
    reg = L1(lam) if reg_kind == "l1" else L0(lam)
    return Problem(loss=loss, reg=reg, op=op, name="toy_reconstruction"), truth


def generate_synthetic_quadratic(n, d, seed=0, conditioning=1.0):
    """Seeded least-squares instance with controlled row-norm spread.

    Rows are Gaussian, normalized, then scaled so the max/min row-norm
    ratio equals ``conditioning``; with Gaussian targets they are the loss's
    row store. The regularizer is L1(0.1) and the operator is the
    identity.
    """
    _check_count("n", n, 1)
    _check_count("d", d, 1)
    if not 1 <= conditioning < np.inf:
        raise ParameterError(f"conditioning must be finite and at least 1, got {conditioning}")
    rng = substream(seed, DOMAIN_PROBLEM, 0)
    rows = rng.standard_normal((n, d))
    norms = np.linalg.norm(rows, axis=1)
    norms[norms == 0] = 1.0
    rows = rows / norms[:, None]
    if n > 1:
        scales = conditioning ** (np.arange(n) / (n - 1))
    else:
        scales = np.ones(1)
    rows = rows * scales[:, None]
    b = rng.standard_normal(n)
    loss = FiniteSumLoss.from_rows("least_squares", rows, b)
    return Problem(loss=loss, reg=L1(0.1), op=Identity(d), name="synthetic_quadratic")
