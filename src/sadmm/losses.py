"""Finite-sum smooth losses with per-component values and gradients.

The smooth term is an average H(x) = (1/n) sum_i H_i(x); stochastic
estimators need per-component gradients, so every component exposes its
own value/gradient pair and the container offers vectorized block
evaluation. Two component families are provided: the sigmoid
classification loss 1 / (1 + exp(b <a, x>)) and the squared residual
(<r, x> - b)^2.

Both families are generalized linear: gradient i is a scalar c_i times
row i. Two einsum kernels keep the reduction order fixed. Row dots reduce
each row with splits that depend only on its length, so single-component
and block evaluations are bit-identical. The weighted column sum of
c_i * row i adds the rows in ascending order, exactly as the axis-0
reduce of the n x d gradient table does, so ``full_gradient`` is the
exact mean of the component gradients without building that table. With
d = 1 that reduce is pairwise, and the vector c_i r_i is reduced instead.

A packed loss keeps a one-entry memo of the last point an all-rows pass
saw: the per-row link terms there (sigmoid pair or residual, from which
both values and c_i follow elementwise), and the full value and gradient
once computed. The solver scores x_{t+1} with ``full_value`` and takes
the next full gradient at that same point, which then costs only the
column sum. The memo is keyed by the bytes of x, so -0.0 and 0.0 differ,
an array changed in place misses and a point with a NaN is never kept.
A hit returns exactly what a fresh evaluation returns, bit for bit,
because row dots are row-consistent and the link is elementwise.
``solver.run`` drops the memo when it returns or raises.
"""

import math

import numpy as np

from .exceptions import ShapeError

__all__ = [
    "SigmoidComponent",
    "LeastSquaresComponent",
    "FiniteSumLoss",
    "LipschitzBound",
    "SIGMOID_CURVATURE",
]

# Largest absolute second derivative of s -> 1/(1 + e^s); attained where the
# logistic value equals (1 +- 1/sqrt(3)) / 2.
SIGMOID_CURVATURE = 1.0 / (6.0 * np.sqrt(3.0))


def _row_dots(rows, x):
    # einsum reduces each row independently with splits that depend only on
    # the row length, which keeps single-row and block evaluations
    # bit-identical (guarded by test_row_dot_primitive_is_row_consistent).
    return np.einsum("ij,j->i", rows, x)


def _logistic_pair(s):
    """(1 / (1 + exp(-s)), 1 / (1 + exp(s))) elementwise from one e = exp(-|s|);
    each entry is 1 / (1 + e) or e / (1 + e), whichever cannot overflow."""
    e = np.exp(-np.abs(s))
    big = 1.0 / (1.0 + e)
    small = e / (1.0 + e)
    pos = s >= 0
    return np.where(pos, big, small), np.where(pos, small, big)


def _column_mean(coef, rows):
    """(1/n) sum_i coef_i * row i, adding the rows in ascending order.

    einsum matches the axis-0 reduce of the n x d table for d >= 2; for
    d = 1 that reduce is pairwise, and the vector coef_i r_i is reduced.
    """
    if rows.shape[1] == 1:
        return np.add.reduce(coef * rows[:, 0], keepdims=True) / rows.shape[0]
    return np.einsum("i,ij->j", coef, rows) / rows.shape[0]


class SigmoidComponent:
    """Sigmoid loss 1 / (1 + exp(b <a, x>)) for one labeled sample."""

    kind = "sigmoid"

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        if self.a.ndim != 1:
            raise ShapeError("feature vector must be 1-D")
        b = float(b)
        if b not in (-1.0, 1.0):
            raise ShapeError(f"sigmoid label must be -1 or +1, got {b}")
        self.b = b

    @property
    def dim(self):
        return self.a.shape[0]

    def value(self, x):
        s = self.b * float(_row_dots(self.a[None, :], np.asarray(x, dtype=float))[0])
        return float(_logistic_pair(np.array([s]))[1][0])

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        s = self.b * _row_dots(self.a[None, :], x)
        p, q = _logistic_pair(s)
        coef = -self.b * p * q
        return (coef[:, None] * self.a[None, :])[0]


class LeastSquaresComponent:
    """Squared residual (<r, x> - b)^2 for one measurement row."""

    kind = "least_squares"

    def __init__(self, r, b):
        self.r = np.asarray(r, dtype=float)
        if self.r.ndim != 1:
            raise ShapeError("measurement row must be 1-D")
        self.b = float(b)

    @property
    def dim(self):
        return self.r.shape[0]

    def value(self, x):
        s = float(_row_dots(self.r[None, :], np.asarray(x, dtype=float))[0])
        return (s - self.b) ** 2

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        s = _row_dots(self.r[None, :], x)
        coef = 2.0 * (s - self.b)
        return (coef[:, None] * self.r[None, :])[0]


class LipschitzBound:
    """A certified Lipschitz constant for every component gradient."""

    def __init__(self, L):
        self.L = float(L)

    def __repr__(self):
        return f"LipschitzBound(L={self.L!r})"


class FiniteSumLoss:
    """Average of n smooth components sharing one input dimension.

    When all components are of the same kind the per-component data is
    packed into matrices and block evaluations are vectorized; mixed
    collections fall back to a per-component loop with identical results.
    The components are immutable and every evaluation is pure: its result
    depends on x alone. A packed loss also keeps the one-point memo of the
    module docstring, replaced as one tuple; a hit returns exactly what a
    fresh evaluation would, and ``drop_memo`` releases it.
    """

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ShapeError("a finite-sum loss needs at least one component")
        dim = components[0].dim
        for c in components:
            if c.dim != dim:
                raise ShapeError(f"all components must share dim {dim}, got {c.dim}")
        self.components = components
        self.n = len(components)
        self.dim = dim
        kinds = {c.kind for c in components}
        self._kind = kinds.pop() if len(kinds) == 1 else None
        self._rows = self._targets = None
        if self._kind in ("sigmoid", "least_squares"):
            self._rows = np.vstack([c.a if self._kind == "sigmoid" else c.r for c in components])
            self._targets = np.array([c.b for c in components])
        # (key, link terms of every row, full value or None, full gradient or None)
        self._memo = None
        self._lipschitz = None

    def _check_x(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.shape[0] != self.dim:
            raise ShapeError(f"x must be a vector of length {self.dim}, got shape {x.shape}")
        return x

    def _check_idx(self, idx):
        if idx is None:
            return None  # means "all rows", avoiding a fancy-index copy
        idx = np.asarray(idx, dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise IndexError(f"component index out of range [0, {self.n})")
        return idx

    def _selected(self, idx):
        if idx is None:
            return self._rows, self._targets
        return self._rows[idx], self._targets[idx]

    def _link(self, x, rows, targets):
        """Per-row link terms at x: the logistic pair (p, q) of the sigmoid
        margins, or the least-squares residuals as a 1-tuple."""
        s = _row_dots(rows, x)
        if self._kind == "sigmoid":
            return _logistic_pair(targets * s)
        return (s - targets,)

    def _values(self, terms):
        return terms[1] if self._kind == "sigmoid" else terms[0] ** 2

    def _coefficients(self, terms, targets):
        """Per-row gradient coefficients c_i from the link terms."""
        if self._kind == "sigmoid":
            p, q = terms
            return -targets * p * q
        return 2.0 * terms[0]

    def _all_rows(self, x):
        """The memo at x; on a miss, one all-rows pass replaces it."""
        key = x.tobytes()
        memo = self._memo
        if memo is None or memo[0] != key:
            terms = self._link(x, self._rows, self._targets)
            if math.isnan(terms[-1][0]):
                key = None  # a NaN in x makes every row dot NaN; None never matches
            memo = self._memo = (key, terms, None, None)
        return memo

    def _selected_terms(self, x, idx, rows, targets):
        if idx is None:
            return self._all_rows(x)[1]
        memo = self._memo
        if memo is not None and memo[0] == x.tobytes():
            return tuple([t[idx] for t in memo[1]])
        return self._link(x, rows, targets)

    def drop_memo(self):
        """Release the memo; later results are unchanged."""
        self._memo = None

    def component_values(self, x, idx=None):
        """Values of the selected components at x, in the order of idx."""
        x = self._check_x(x)
        idx = self._check_idx(idx)
        if self._rows is not None:
            rows, targets = self._selected(idx)
            values = self._values(self._selected_terms(x, idx, rows, targets))
            # all the sigmoid values are the memo's own array
            return values.copy() if idx is None and self._kind == "sigmoid" else values
        members = self.components if idx is None else [self.components[i] for i in idx]
        return np.array([c.value(x) for c in members])

    def component_gradients(self, x, idx=None):
        """Gradients of the selected components at x, stacked row-wise."""
        x = self._check_x(x)
        idx = self._check_idx(idx)
        if self._rows is not None:
            rows, targets = self._selected(idx)
            terms = self._selected_terms(x, idx, rows, targets)
            return self._coefficients(terms, targets)[:, None] * rows
        members = self.components if idx is None else [self.components[i] for i in idx]
        return np.stack([c.gradient(x) for c in members])

    def component_value(self, i, x):
        return float(self.component_values(x, np.array([i]))[0])

    def component_gradient(self, i, x):
        return self.component_gradients(x, np.array([i]))[0]

    def full_value(self, x):
        """(1/n) sum of component values, accumulated in ascending order."""
        if self._rows is None:
            return float(np.add.reduce(self.component_values(x)) / self.n)
        key, terms, value, grad = self._all_rows(self._check_x(x))
        if value is None:
            value = float(np.add.reduce(self._values(terms)) / self.n)
            self._memo = (key, terms, value, grad)
        return value

    def full_gradient(self, x):
        """(1/n) sum of component gradients, bit for bit their axis-0 reduce.

        Packed losses take the column mean of c_i * row i (``_column_mean``);
        mixed ones reduce the stack.
        """
        if self._rows is None:
            return np.add.reduce(self.component_gradients(x), axis=0) / self.n
        key, terms, value, grad = self._all_rows(self._check_x(x))
        if grad is None:
            grad = _column_mean(self._coefficients(terms, self._targets), self._rows)
            self._memo = (key, terms, value, grad)
        return grad.copy()

    def lipschitz_bound(self):
        """Certified gradient Lipschitz constant.

        Sigmoid components contribute SIGMOID_CURVATURE * ||a||^2 and
        squared residuals 2 * ||r||^2; the bound is the maximum
        contribution. The loop over the components runs once per loss.
        """
        if self._lipschitz is None:
            best = 0.0
            for c in self.components:
                if c.kind == "sigmoid":
                    best = max(best, SIGMOID_CURVATURE * float(c.a @ c.a))
                elif c.kind == "least_squares":
                    best = max(best, 2.0 * float(c.r @ c.r))
                else:
                    raise ShapeError(f"unknown component kind {c.kind!r}")
            self._lipschitz = best
        return LipschitzBound(self._lipschitz)
