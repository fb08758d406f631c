"""Reference computations made apart from the program.

Nothing here imports ``sadmm``. The benchmark checks the program's outputs
against these: objectives recomputed from raw rows and targets, operator
matrices built from their definitions, closed-form spectra, a plain
proximal-gradient lasso solver and the KKT residuals of a returned state.
"""

import math

import numpy as np

# Largest |d^2/ds^2| of s -> 1 / (1 + exp(s)).
SIGMOID_CURVATURE = 1.0 / (6.0 * math.sqrt(3.0))


def sigmoid_losses(rows, labels, x):
    """Per-sample 1 / (1 + exp(y <a, x>)), written as (1 - tanh(t / 2)) / 2."""
    t = labels * (rows @ x)
    return 0.5 * (1.0 - np.tanh(0.5 * t))


def sigmoid_gradient(rows, labels, x):
    """Gradient of the mean sigmoid loss; d/dt of the loss is -(1 - tanh^2(t/2)) / 4."""
    t = labels * (rows @ x)
    th = np.tanh(0.5 * t)
    coef = -0.25 * labels * (1.0 - th * th)
    return rows.T @ coef / rows.shape[0]


def least_squares_gradient(rows, targets, x):
    return 2.0 * rows.T @ (rows @ x - targets) / rows.shape[0]


def objective(kind, rows, targets, lam, x, z):
    """H(x) + lam * ||z||_1 for a sigmoid or least-squares finite sum."""
    if kind == "sigmoid":
        smooth = float(np.mean(sigmoid_losses(rows, targets, x)))
    else:
        r = rows @ x - targets
        smooth = float(r @ r) / rows.shape[0]
    return smooth + lam * float(np.abs(z).sum())


def lipschitz_bound(kind, rows):
    """Largest gradient Lipschitz constant over the components."""
    sq = np.einsum("ij,ij->i", rows, rows).max()
    return float(SIGMOID_CURVATURE * sq if kind == "sigmoid" else 2.0 * sq)


def correlation_edges(features, rho_c):
    """Feature pairs (i, j), i < j, with |Pearson correlation| >= rho_c."""
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.corrcoef(features, rowvar=False)
    corr = np.nan_to_num(corr, nan=0.0)
    i, j = np.nonzero(np.triu(np.abs(corr) >= rho_c, k=1))
    return list(zip(i.tolist(), j.tolist()))


def fused_lasso_matrix(edges, d):
    """[G; I] with one row e_i - e_j of G per edge."""
    g = np.zeros((len(edges), d))
    for k, (i, j) in enumerate(edges):
        g[k, i] = 1.0
        g[k, j] = -1.0
    return np.vstack([g, np.eye(d)])


def _forward_difference(m):
    return np.eye(m)[1:] - np.eye(m)[:-1]


def finite_difference_2d_matrix(height, width):
    """Horizontal then vertical forward differences of a row-major image."""
    horiz = np.kron(np.eye(height), _forward_difference(width))
    vert = np.kron(_forward_difference(height), np.eye(width))
    return np.vstack([horiz, vert])


def grid_laplacian_norm_sq(height, width):
    """||A||^2 for the 2-D forward differences: the largest Neumann grid
    Laplacian eigenvalue, (2 + 2 cos(pi / h)) + (2 + 2 cos(pi / w))."""
    return 4.0 + 2.0 * math.cos(math.pi / height) + 2.0 * math.cos(math.pi / width)


def _box_average(m, radius):
    out = np.zeros((m, m))
    for i in range(m):
        lo, hi = max(0, i - radius), min(m, i + radius + 1)
        out[i, lo:hi] = 1.0 / (hi - lo)
    return out


def box_blur_matrix(height, width, radius):
    """Mean over the (2r+1)^2 window clipped to the image, one row per pixel."""
    return np.kron(_box_average(height, radius), _box_average(width, radius))


def proximal_gradient_lasso(rows, targets, lam, tol=1e-14, max_iter=200000):
    """min (1/n) ||R x - b||^2 + lam ||x||_1 by proximal gradient with step 1/L."""
    n = rows.shape[0]
    step = 1.0 / (2.0 * float(np.linalg.eigvalsh(rows.T @ rows)[-1]) / n)
    x = np.zeros(rows.shape[1])
    for _ in range(max_iter):
        v = x - step * least_squares_gradient(rows, targets, x)
        x_new = np.sign(v) * np.maximum(np.abs(v) - step * lam, 0.0)
        done = np.linalg.norm(x_new - x) <= tol * (1.0 + np.linalg.norm(x_new))
        x = x_new
        if done:
            break
    return x, objective("least_squares", rows, targets, lam, x, x)


def kkt_residuals(grad, matrix, lam, x, z, u):
    """(||grad H(x) + A^T u||, ||A x - z||, dist(u, d(lam ||.||_1)(z)))."""
    stationarity = float(np.linalg.norm(grad + matrix.T @ u))
    feasibility = float(np.linalg.norm(matrix @ x - z))
    gap = np.where(z != 0.0, np.abs(u - lam * np.sign(z)), np.maximum(np.abs(u) - lam, 0.0))
    return stationarity, feasibility, float(np.linalg.norm(gap))


def kkt_bound(tol, lipschitz, tau, beta, op_norm_sq, x):
    """Bound on each KKT residual when the solver stops on ``tol``.

    The stop needs ||A x - z|| <= tol and ||x - x_prev|| <= tol (1 + ||x||).
    The x- and z-updates then leave residuals of at most
    C tol (1 + ||x||) with C = L + tau + beta (||A||^2 + ||A|| + 1).
    """
    c = lipschitz + tau + beta * (op_norm_sq + math.sqrt(op_norm_sq) + 1.0)
    return c * tol * (1.0 + float(np.linalg.norm(x)))
