"""Finite-sum smooth losses with per-component values and gradients.

The smooth term is an average H(x) = (1/n) sum_i H_i(x) of sigmoid
losses 1 / (1 + exp(b <a, x>)) or squared residuals (<r, x> - b)^2, so
gradient i is a scalar c_i times row i. A loss is one row store
``(kind, rows, targets)``: builders hand it to ``FiniteSumLoss.from_rows``,
and ``FiniteSumLoss(components)`` packs a list of one kind into it. Its
components are views of its rows, built on first use; a list mixing both
kinds keeps a per-component loop.

All evaluations run the kernels ``_link``, ``_values`` and
``_coefficients`` (the c_i), keyed by kind; a component runs them on a
one-row block. Row dots are row-consistent, so single-component and block
evaluations are bit-identical, and ``full_gradient`` is the exact mean of
the component gradients without an n x d table (``_column_mean``).

A row-store loss keeps a one-entry memo of the last point an all-rows
pass saw: the link terms of every row there, and the full value and
gradient once computed. The solver scores x_{t+1} with ``full_value`` and
takes the next full gradient at that point, which then costs only the
column sum. The memo is keyed by the bytes of x, so -0.0 and 0.0 differ,
an array changed in place misses and a point with a NaN is never kept. A
hit returns exactly what a fresh evaluation returns, bit for bit.
``solver.run`` drops the memo when it returns or raises.
"""

import functools
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


def _link(kind, rows, targets, x):
    """Per-row link terms at x: the logistic pair (p, q) of the sigmoid
    margins, or the least-squares residuals as a 1-tuple."""
    s = _row_dots(rows, x)
    if kind == "sigmoid":
        return _logistic_pair(targets * s)
    return (s - targets,)


def _values(kind, terms):
    return terms[1] if kind == "sigmoid" else terms[0] ** 2


def _coefficients(kind, terms, targets):
    """Per-row gradient coefficients c_i from the link terms."""
    if kind == "sigmoid":
        p, q = terms
        return -targets * p * q
    return 2.0 * terms[0]


def _check_targets(kind, targets):
    if kind == "sigmoid" and not np.all(np.abs(targets) == 1.0):
        raise ShapeError("sigmoid labels must be -1 or +1")


def _column_mean(coef, rows):
    """(1/n) sum_i coef_i * row i, adding the rows in ascending order.

    einsum matches the axis-0 reduce of the n x d table for d >= 2; for
    d = 1 that reduce is pairwise, and the vector coef_i r_i is reduced.
    """
    if rows.shape[1] == 1:
        return np.add.reduce(coef * rows[:, 0], keepdims=True) / rows.shape[0]
    return np.einsum("i,ij->j", coef, rows) / rows.shape[0]


class _RowComponent:
    """One row and its target, evaluated bit for bit as by the loss kernels."""

    def __init__(self, row, b):
        row = np.asarray(row, dtype=float)
        if row.ndim != 1:
            raise ShapeError(f"{self.kind} row must be 1-D")
        self.row, self.b = row, float(b)
        _check_targets(self.kind, self.b)

    dim = property(lambda self: self.row.shape[0])

    def _terms(self, x):
        return _link(self.kind, self.row[None, :], self.b, np.asarray(x, dtype=float))

    def value(self, x):
        return float(_values(self.kind, self._terms(x))[0])

    def gradient(self, x):
        coef = _coefficients(self.kind, self._terms(x), self.b)
        return (coef[:, None] * self.row[None, :])[0]


class SigmoidComponent(_RowComponent):
    """Sigmoid loss 1 / (1 + exp(b <a, x>)) for one labeled sample."""

    kind = "sigmoid"
    curvature = SIGMOID_CURVATURE  # gradient Lipschitz constant / ||a||^2
    a = property(lambda self: self.row)


class LeastSquaresComponent(_RowComponent):
    """Squared residual (<r, x> - b)^2 for one measurement row."""

    kind = "least_squares"
    curvature = 2.0
    r = property(lambda self: self.row)


_COMPONENTS = {"sigmoid": SigmoidComponent, "least_squares": LeastSquaresComponent}


class LipschitzBound:
    """A certified Lipschitz constant for every component gradient."""

    def __init__(self, L):
        self.L = float(L)

    def __repr__(self):
        return f"LipschitzBound(L={self.L!r})"


class FiniteSumLoss:
    """Average of n smooth components sharing one input dimension.

    A loss of one kind owns its row store as read-only arrays; a mixed-kind
    loss loops over its components. ``components`` is the list given, or
    after ``from_rows`` a tuple of views of the rows. Every evaluation is
    pure: its result depends on x alone. The memo of the module docstring
    is replaced as one tuple, and ``drop_memo`` releases it.
    """

    _kind = _rows = _targets = None  # no row store: a mixed-kind loss
    _lipschitz = None
    _memo = None  # (key, link terms of all rows, full value or None, full gradient or None)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ShapeError("a finite-sum loss needs at least one component")
        dim = components[0].dim
        for c in components:
            if c.dim != dim:
                raise ShapeError(f"all components must share dim {dim}, got {c.dim}")
        kinds = {c.kind for c in components}
        if len(kinds) == 1 and kinds <= _COMPONENTS.keys():
            self._set_rows(kinds.pop(), [c.row for c in components], [c.b for c in components])
        else:
            self.n, self.dim = len(components), dim
        self.components = components

    @classmethod
    def from_rows(cls, kind, rows, targets):
        """Loss of one kind ("sigmoid" or "least_squares") over the rows of
        an n x d array and n targets, of which it keeps a read-only copy.
        Raises ShapeError for an unknown kind, rows that are not a non-empty
        2-D array, a target count other than n or a sigmoid label not +-1.
        """
        return cls.__new__(cls)._set_rows(kind, rows, targets)

    def _set_rows(self, kind, rows, targets):
        if kind not in _COMPONENTS:
            raise ShapeError(f"unknown loss kind {kind!r}")
        rows = np.array(rows, dtype=float, order="C")
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ShapeError(f"rows must be a non-empty 2-D array, got shape {rows.shape}")
        targets = np.array(targets, dtype=float)
        if targets.shape != rows.shape[:1]:
            raise ShapeError(f"need {rows.shape[0]} targets, got shape {targets.shape}")
        _check_targets(kind, targets)
        rows.flags.writeable = targets.flags.writeable = False
        self._kind, self._rows, self._targets = kind, rows, targets
        self.n, self.dim = rows.shape
        return self

    @functools.cached_property
    def components(self):
        """One component view per row, sharing the loss's read-only rows."""
        return tuple(map(_COMPONENTS[self._kind], self._rows, self._targets))

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

    def _all_rows(self, x):
        """The memo at x; on a miss, one all-rows pass replaces it."""
        key, memo = x.tobytes(), self._memo
        if memo is None or memo[0] != key:
            terms = _link(self._kind, self._rows, self._targets, x)
            if math.isnan(terms[-1][0]):
                key = None  # a NaN in x makes every row dot NaN; None never matches
            memo = self._memo = (key, terms, None, None)
        return memo

    def _block(self, x, idx):
        """Rows, targets and link terms at x of the selected components."""
        if idx is None:
            return self._rows, self._targets, self._all_rows(x)[1]
        rows, targets, memo = self._rows[idx], self._targets[idx], self._memo
        if memo is not None and memo[0] == x.tobytes():
            return rows, targets, tuple([t[idx] for t in memo[1]])
        return rows, targets, _link(self._kind, rows, targets, x)

    def drop_memo(self):
        """Release the memo; later results are unchanged."""
        self._memo = None

    def component_values(self, x, idx=None):
        """Values of the selected components at x, in the order of idx."""
        x = self._check_x(x)
        idx = self._check_idx(idx)
        if self._rows is not None:
            values = _values(self._kind, self._block(x, idx)[2])
            # all the sigmoid values are the memo's own array
            return values.copy() if idx is None and self._kind == "sigmoid" else values
        members = self.components if idx is None else [self.components[i] for i in idx]
        return np.array([c.value(x) for c in members])

    def component_gradients(self, x, idx=None):
        """Gradients of the selected components at x, stacked row-wise."""
        x = self._check_x(x)
        idx = self._check_idx(idx)
        if self._rows is not None:
            rows, targets, terms = self._block(x, idx)
            return _coefficients(self._kind, terms, targets)[:, None] * rows
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
            value = float(np.add.reduce(_values(self._kind, terms)) / self.n)
            self._memo = (key, terms, value, grad)
        return value

    def full_gradient(self, x):
        """(1/n) sum of component gradients, bit for bit their axis-0 reduce.

        Row-store losses take the column mean of c_i * row i
        (``_column_mean``); mixed ones reduce the stack.
        """
        if self._rows is None:
            return np.add.reduce(self.component_gradients(x), axis=0) / self.n
        key, terms, value, grad = self._all_rows(self._check_x(x))
        if grad is None:
            grad = _column_mean(_coefficients(self._kind, terms, self._targets), self._rows)
            self._memo = (key, terms, value, grad)
        return grad.copy()

    def lipschitz_bound(self):
        """Certified gradient Lipschitz constant, computed once per loss.

        Sigmoid components contribute SIGMOID_CURVATURE * ||a||^2 and
        squared residuals 2 * ||r||^2 (per-row BLAS dots); the bound is the
        maximum, and a row store scales its largest squared norm, the same
        float because rounding is monotone.
        """
        if self._lipschitz is None:
            if self._rows is not None:
                scale = _COMPONENTS[self._kind].curvature
                self._lipschitz = scale * max(float(r @ r) for r in self._rows)
            else:
                self._lipschitz = max(c.curvature * float(c.row @ c.row) for c in self.components)
        return LipschitzBound(self._lipschitz)
