"""Shared test oracles, independent of the library code paths they check."""

import math

import numpy as np

from sadmm.rng import DOMAIN_BATCH, substream


def central_diff_gradient(f, x, step=1e-6):
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        grad[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return grad


def grid_prox_oracle(penalty, v, beta, lo=-10.0, hi=10.0, step=1e-4):
    """Brute-force 1-D prox: minimize penalty(z) + (beta/2)(z - v)^2 on a grid.

    The grid is built from integer multiples of the step so that exact zero
    is a candidate (the point where discontinuous penalties jump).
    """
    grid = step * np.arange(round(lo / step), round(hi / step) + 1)
    costs = penalty(grid) + 0.5 * beta * (grid - v) ** 2
    return float(grid[np.argmin(costs)])


def dense(op):
    """The (out_dim, in_dim) matrix of a LinearOperator, column j = apply(e_j)."""
    cols = [op.apply(e) for e in np.eye(op.in_dim)]
    return np.column_stack(cols) if cols else np.zeros((op.out_dim, 0))


def aug_lagrangian_oracle(problem, x, z, u, beta):
    """F(z) + H(x) + <u, Mx - z> + (beta/2) ||Mx - z||^2 with M = dense(op)."""
    r = dense(problem.op) @ x - z
    return (
        problem.reg.value(z)
        + problem.loss.full_value(x)
        + sum(u[i] * r[i] for i in range(r.size))
        + 0.5 * beta * sum(r[i] ** 2 for i in range(r.size))
    )


def psi_oracle(problem, state, consts, upsilon, grad_err, beta, sigma, rho):
    """The stability function at the state's (current, lagged) pair, term by term.

    With M = dense(op), lam = lambda_min(AA^T) and q = sigma beta lam:
    the augmented Lagrangian, plus 4(1 - sigma)/(sigma q) times the squared
    coupling M^T (u - u_prev) + sigma (tau I - beta M^T M)(x - x_prev), plus
    (1/rho)(32/q + eta/2) upsilon, plus (16/q) grad_err, plus c3 times
    ||x - x_prev||^2. Only c3 is read from ``consts``.
    """
    mat = dense(problem.op)
    dx = state.x - state.x_prev
    gram_b = consts.tau * np.eye(mat.shape[1]) - beta * mat.T @ mat
    coupling = mat.T @ (state.u - state.u_prev) + sigma * gram_b @ dx
    q = sigma * beta * consts.lambda_m
    return (
        aug_lagrangian_oracle(problem, state.x, state.z, state.u, beta)
        + (4.0 * (1.0 - sigma) / (sigma * q)) * float(coupling @ coupling)
        + (1.0 / rho) * (32.0 / q + consts.eta / 2.0) * upsilon
        + (16.0 / q) * grad_err
        + consts.c3 * float(dx @ dx)
    )


def soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def proximal_gradient_lasso(rows, b, lam, max_iter=200000, tol=1e-14):
    """Independent reference solver for min (1/n) sum (r_i x - b_i)^2 + lam ||x||_1.

    Plain proximal gradient with the exact step 1 / L where
    L = 2 lambda_max(R^T R) / n. Returns (x, objective).
    """
    rows = np.asarray(rows, dtype=float)
    b = np.asarray(b, dtype=float)
    n = rows.shape[0]
    hess = 2.0 * rows.T @ rows / n
    lip = float(np.linalg.eigvalsh(hess)[-1])
    step = 1.0 / lip
    x = np.zeros(rows.shape[1])

    def objective(x):
        r = rows @ x - b
        return float(r @ r) / n + lam * float(np.abs(x).sum())

    for _ in range(max_iter):
        grad = 2.0 * rows.T @ (rows @ x - b) / n
        x_new = soft_threshold(x - step * grad, step * lam)
        if np.linalg.norm(x_new - x) <= tol * (1.0 + np.linalg.norm(x)):
            x = x_new
            break
        x = x_new
    return x, objective(x)


def feasible_beta_root(sigma, kappa, nu, L, eta, c2, V):
    """Larger root of the penalty-feasibility quadratic in beta.

    Quadratic: (1 - 24 sigma kappa) beta^2
               - 2 (4 + 3 sigma + 3 sigma/(eta L) + 6 sigma eta V / L
                    + 6 sigma c2 / L) nu beta
               - 8 nu^2 - (192 nu^2 / L^2) V  = 0,
    valid when sigma < 1 / (24 kappa).
    """
    a = 1.0 - 24.0 * sigma * kappa
    if a <= 0:
        raise ValueError("requires sigma < 1/(24 kappa)")
    b_half = (
        4.0
        + 3.0 * sigma
        + 3.0 * sigma / (eta * L)
        + 6.0 * sigma * eta * V / L
        + 6.0 * sigma * c2 / L
    ) * nu
    c_const = -8.0 * nu**2 - (192.0 * nu**2 / L**2) * V
    disc = b_half**2 - a * c_const
    return (b_half + math.sqrt(disc)) / a


def step_root_discriminant(beta, sigma, lam_m, op_norm_sq, L, eta, c2, V):
    """Reduced discriminant of the step-size quadratic in tau."""
    q = beta * lam_m
    return (1.0 - 16.0 * L / q) ** 2 - (24.0 * sigma / q) * (
        16.0 * L**2 / (sigma * q)
        + L
        + beta * op_norm_sq
        + 1.0 / eta
        + (128.0 / (sigma * q) + 2.0 * eta) * V
        + 2.0 * c2
    )


def feasible_tau_root(beta, sigma, lam_m, op_norm_sq, L, eta, c2, V):
    """Larger root of the step-size quadratic in tau."""
    nu = 4.0 * L / lam_m
    delta = step_root_discriminant(beta, sigma, lam_m, op_norm_sq, L, eta, c2, V)
    if delta <= 0:
        raise ValueError("discriminant not positive; increase beta")
    return (beta * lam_m / (24.0 * sigma)) * (1.0 - 4.0 * nu / beta + math.sqrt(delta))


def eta_tilde_oracle(tau, beta, sigma, op_norm_sq, lam_m, L, eta, c2, v1, v_up, rho):
    """Direct evaluation of the descent coefficient display."""
    return (
        tau
        - (L + beta * op_norm_sq) / 2.0
        - 4.0 * sigma * tau**2 / (beta * lam_m)
        - 8.0 * (sigma * tau + L) ** 2 / (sigma * beta * lam_m)
        - 1.0 / (2.0 * eta)
        - (64.0 / (sigma * beta * lam_m) + eta) * (v1 + v_up / rho)
        - c2
    )


def engineered_feasible_params(lam_m, op_norm_sq, kappa, L, v1, v_up, rho,
                               sigma=1.0 / 48.0, eta=1.0, c2=1e-8,
                               beta_margin=1.10, tau_factor=0.99):
    """Construct (beta, tau, sigma) certified by the root formulas."""
    V = v1 + v_up / rho
    nu = 4.0 * L / lam_m
    beta = beta_margin * feasible_beta_root(sigma, kappa, nu, L, eta, c2, V)
    tau = tau_factor * feasible_tau_root(beta, sigma, lam_m, op_norm_sq, L, eta, c2, V)
    return beta, tau, sigma


def make_groups_onehot_dataset(path, n=4062, n_groups=22, d=112, flip=0.12, seed=0):
    """Write a deterministic one-hot categorical LIBSVM file.

    Mirrors the shape of a categorical mushroom-style dataset: d columns
    split into n_groups attribute groups, exactly one active column per
    group per sample, labels from a planted linear rule with a fraction of
    flips, written with the {1, 2} label convention.
    """
    rng = np.random.default_rng(seed)
    base = d // n_groups
    sizes = [base + 1 if g < d - base * n_groups else base for g in range(n_groups)]
    assert sum(sizes) == d
    offsets = np.cumsum([0] + sizes[:-1])
    w_star = rng.standard_normal(d)
    lines = []
    for _ in range(n):
        cols = [int(offsets[g] + rng.integers(0, sizes[g])) for g in range(n_groups)]
        cols.sort()
        score = float(np.sum(w_star[cols]))
        label = 1.0 if score > 0 else -1.0
        if rng.random() < flip:
            label = -label
        raw = 2 if label > 0 else 1
        pairs = " ".join(f"{c + 1}:1" for c in cols)
        lines.append(f"{raw} {pairs}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def table_estimates(kind, loss, seed, batch_size, x0, xs, epoch_len=None, restart_p=None):
    """The emitted estimates of a stochastic estimator, by the gradient-table
    formulas, with the n x d and b x d tables built from
    ``loss.component_gradients``.

    Replays the estimator's draws from ``substream(seed, DOMAIN_BATCH, t)``
    for the calls at the points xs, started at x0. Returns the list of
    estimates and, for saga, the final gradient table.
    """
    n, b = loss.n, batch_size

    def full(x):
        return np.add.reduce(loss.component_gradients(x), axis=0) / n

    def batch_mean(x, y, idx):
        diffs = loss.component_gradients(x, idx) - loss.component_gradients(y, idx)
        return np.add.reduce(diffs, axis=0) / b

    out, table = [], None
    if kind == "saga":
        table = loss.component_gradients(x0)
        mean = np.add.reduce(table, axis=0) / n
    # svrg: the anchor and its full gradient; sarah: the previous point
    # and estimate
    anchor, ref, since = x0, full(x0), 0
    epoch_len = epoch_len or math.ceil(n / b)
    for t, x in enumerate(xs):
        rng = substream(seed, DOMAIN_BATCH, t)
        if kind == "sgd":
            g = np.add.reduce(loss.component_gradients(x, rng.integers(0, n, size=b)), axis=0) / b
        elif kind == "saga":
            idx = rng.integers(0, n, size=b)
            grads = loss.component_gradients(x, idx)
            g = np.add.reduce(grads - table[idx], axis=0) / b + mean
            uniq, first = np.unique(idx, return_index=True)
            delta = grads[first] - table[uniq]
            table[uniq] = grads[first]
            mean = mean + np.add.reduce(delta, axis=0) / n
            if (t + 1) % n == 0:
                mean = np.add.reduce(table, axis=0) / n
        elif kind == "svrg":
            if since >= epoch_len:
                anchor, ref, since = x, full(x), 0
            g = batch_mean(x, anchor, rng.integers(0, n, size=b)) + ref
            since += 1
        elif t == 0:  # sarah emits the start point's gradient first
            g = ref
        elif rng.random() < 1.0 / restart_p:
            g = full(x)
        else:
            g = batch_mean(x, anchor, rng.integers(0, n, size=b)) + ref
        if kind == "sarah":
            anchor, ref = x, g
        out.append(g)
    return out, table
