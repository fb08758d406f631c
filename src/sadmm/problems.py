"""Concrete problem builders.

A Problem bundles the three ingredients of the composite objective
H(x) + F(Ax): a finite-sum smooth loss, a separable regularizer and a
linear operator. Builders cover the graph-guided fused lasso on a binary
classification dataset, a desk-scale image-reconstruction problem
(blurred or subsampled measurements with a finite-difference sparsity
transform), and seeded synthetic quadratics used as test fixtures.
"""

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np
import scipy.sparse as sp

from .exceptions import DataError, ParameterError, ShapeError
from .linops import DenseMatrix, FiniteDifference2D, Identity, VerticalStack
from .losses import FiniteSumLoss
from .regularizers import L0, L1
from .rng import DOMAIN_MASK, DOMAIN_NOISE, DOMAIN_PROBLEM, substream

__all__ = [
    "Problem",
    "Dataset",
    "GraphSpec",
    "build_graph",
    "build_fused_lasso",
    "build_toy_reconstruction",
    "generate_synthetic_quadratic",
    "rectangle_phantom",
    "write_pgm",
]


@dataclass(frozen=True)
class Problem:
    """Immutable bundle (loss H, regularizer F, operator A)."""

    loss: FiniteSumLoss
    reg: object
    op: object
    name: str = ""
    metadata: Dict = field(default_factory=dict)

    def __post_init__(self):
        if self.op.in_dim != self.loss.dim:
            raise ShapeError(
                f"operator in_dim {self.op.in_dim} != loss dim {self.loss.dim}"
            )
        probe = np.zeros(self.op.out_dim)
        try:
            self.reg.value(probe)
        except ShapeError as exc:
            raise ShapeError(
                f"regularizer incompatible with operator out_dim {self.op.out_dim}: {exc}"
            ) from None


@dataclass(frozen=True)
class Dataset:
    """Sample matrix in sparse row storage plus labels."""

    features: sp.csr_matrix
    labels: np.ndarray
    n: int
    d: int

    def __post_init__(self):
        if self.features.shape != (self.n, self.d):
            raise DataError(
                f"feature matrix shape {self.features.shape} != ({self.n}, {self.d})"
            )
        if self.labels.shape != (self.n,):
            raise DataError("row count and label count differ")


@dataclass(frozen=True)
class GraphSpec:
    """Feature-pair edges, ordered by (i, j) with i < j."""

    edges: Tuple[Tuple[int, int], ...]
    rho_c: float = float("nan")


def build_graph(data, rho_c):
    """Edges between feature columns with |Pearson correlation| >= rho_c.

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
    return GraphSpec(edges=tuple(zip(first.tolist(), second.tolist())), rho_c=rho_c)


def build_fused_lasso(data, lambda1=1e-5, graph=None, name="fused_lasso"):
    """Sigmoid-loss classification with an L1 penalty on [G; I] x.

    The loss is the row store of the dense samples and their labels. G holds
    one row e_i - e_j per graph edge; with an empty graph it is omitted.
    """
    labels = np.asarray(data.labels, dtype=float)
    if not set(np.unique(labels)) <= {-1.0, 1.0}:
        raise DataError("fused lasso needs binary labels in {-1, +1}")
    if lambda1 <= 0:
        raise ParameterError(f"lambda1 must be positive, got {lambda1}")
    loss = FiniteSumLoss.from_rows("sigmoid", data.features.todense(), labels)
    edges = graph.edges if graph is not None else ()
    if edges:
        pairs, k = np.array(edges), np.arange(len(edges))
        g_rows = np.zeros((len(edges), data.d))
        g_rows[k, pairs[:, 0]] = 1.0
        g_rows[k, pairs[:, 1]] = -1.0
        op = VerticalStack([DenseMatrix(g_rows), Identity(data.d)])
    else:
        op = Identity(data.d)
    metadata = {
        "lambda1": lambda1,
        "n_edges": len(edges),
        "graph_rho_c": graph.rho_c if graph is not None else None,
        "dataset_shape": (data.n, data.d),
    }
    return Problem(loss=loss, reg=L1(lambda1), op=op, name=name, metadata=metadata)


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
    row store of those rows and measurements. The sparsity transform is the
    2-D forward-difference operator. Returns the Problem and the flattened
    ground-truth image.
    """
    if height < 8 or width < 8:
        raise ParameterError("phantom needs at least 8x8 pixels")
    if noise_sigma < 0:
        raise ParameterError("noise_sigma must be nonnegative")
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
        if radius < 0:
            raise ParameterError("blur radius must be nonnegative")
        # pixel (i, j) averages its (2 radius + 1)^2 window, clipped at the border
        near_r, near_c = (np.abs(np.subtract.outer(np.arange(m), np.arange(m))) <= radius
                          for m in (height, width))
        counts = np.outer(near_r.sum(axis=1), near_c.sum(axis=1)).ravel()
        rows = np.kron(near_r, near_c) / counts[:, None]
    else:
        if not 0 < keep <= 1:
            raise ParameterError(f"keep fraction must lie in (0, 1], got {keep}")
        n_keep = max(1, int(round(keep * d)))
        kept = np.sort(substream(seed, DOMAIN_MASK, 0).choice(d, size=n_keep, replace=False))
        rows = np.zeros((n_keep, d))
        rows[np.arange(n_keep), kept] = 1.0

    clean = rows @ truth
    noise = noise_sigma * substream(seed, DOMAIN_NOISE, 0).standard_normal(len(clean))
    b = clean + noise
    loss = FiniteSumLoss.from_rows("least_squares", rows, b)
    op = FiniteDifference2D(height, width)
    reg = L1(lam) if reg_kind == "l1" else L0(lam)
    metadata = {
        "height": height,
        "width": width,
        "forward": forward,
        "radius": radius,
        "keep": keep,
        "noise_sigma": noise_sigma,
        "lambda": lam,
        "reg_kind": reg_kind,
        "seed": seed,
    }
    return (
        Problem(loss=loss, reg=reg, op=op, name="toy_reconstruction", metadata=metadata),
        truth,
    )


def generate_synthetic_quadratic(n, d, seed=0, conditioning=1.0):
    """Seeded least-squares instance with controlled row-norm spread.

    Rows are Gaussian, normalized, then scaled so the max/min row-norm
    ratio equals ``conditioning``; with Gaussian targets they are the loss's
    row store. The regularizer is L1(0.1) and the operator is the
    identity; the unregularized minimizer is kept in the metadata.
    """
    if n < 1 or d < 1:
        raise ParameterError("n and d must be positive")
    if conditioning < 1:
        raise ParameterError("conditioning must be at least 1")
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
    smooth_min, *_ = np.linalg.lstsq(rows, b, rcond=None)
    loss = FiniteSumLoss.from_rows("least_squares", rows, b)
    metadata = {
        "seed": seed,
        "conditioning": conditioning,
        "smooth_minimizer": smooth_min,
    }
    return Problem(
        loss=loss,
        reg=L1(0.1),
        op=Identity(d),
        name="synthetic_quadratic",
        metadata=metadata,
    )


def write_pgm(path, image, maxval=255):
    """Export a 2-D image as ASCII PGM (P2), scaled to [0, maxval]."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ShapeError("image must be 2-D")
    lo, hi = float(image.min()), float(image.max())
    if hi > lo:
        scaled = np.rint((image - lo) / (hi - lo) * maxval).astype(int)
    else:
        scaled = np.zeros_like(image, dtype=int)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("P2\n")
        fh.write(f"{image.shape[1]} {image.shape[0]}\n")
        fh.write(f"{maxval}\n")
        for row in scaled:
            fh.write(" ".join(str(v) for v in row) + "\n")
