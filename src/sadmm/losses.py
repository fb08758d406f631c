"""Finite-sum smooth losses with per-component values and gradients.

The smooth term is an average H(x) = (1/n) sum_i H_i(x) of sigmoid
losses 1 / (1 + exp(b <a, x>)) or squared residuals (<r, x> - b)^2, so
gradient i is a scalar c_i times row i. A loss is one row store
``(kind, rows, targets)``: builders hand it to ``FiniteSumLoss.from_rows``,
and ``FiniteSumLoss(components)`` packs a list of one kind into it; a
list that mixes kinds is rejected. Every loss therefore has the row store,
the memo below and one of the two storages. Its components are records,
a row and its target, that the loss evaluates; after ``from_rows`` they
are views of its rows, built on first use.

The rows are stored in one of two ways, fixed when they are stored; the
estimators, the solver and the diagnostics never see which.

* Dense (``_DenseRows``), an n x d array. Row dots are an einsum
  (``_row_dots``) and the full gradient an einsum column sum
  (``_column_mean``): O(n d) per all-rows pass.
* Sparse (``_CsrRows``), for rows handed over as a scipy sparse matrix:
  canonical CSR arrays (sorted, no duplicates) and the row of each
  nonzero. Row dots and column sums are ``np.bincount`` passes over the
  nonzeros, O(nnz). A batch is gathered with numpy over ``indptr``;
  scipy's row indexing costs several times the batch's arithmetic, and
  the batch is drawn on every iteration.

All evaluations run the kernels ``_link``, ``_values`` and
``_coefficients`` (the c_i), keyed by kind. Each public entry checks x
and the indices once and calls an unchecked core; the solver and the
estimators call the cores ``_full_value``, ``_full_gradient``,
``_all_coefficients`` and ``_batch``, which gathers a batch once for the
c_i at one or two points. Both storages keep the two bit contracts. Row
dots are row-consistent: single-row and block evaluations are bit-identical.
``full_gradient`` is the exact mean of the component gradients, the
axis-0 reduce of their stack, without an n x d table.
The two storages of the same rows agree to the last bit only where the
dense einsum happens to add a row as a sequential sum does.

A row-store loss keeps a one-entry memo of the last point an all-rows
pass saw: the link terms of every row there (for sigmoid rows e and the
sign mask, see ``_link``), and the full value and gradient once computed.
The solver scores x_{t+1} with ``_full_value`` and takes the next full
gradient at that point, which then costs only the column sum. The memo
is keyed by the bytes of x, so -0.0 and 0.0 differ, an array changed in
place misses and a point with a NaN is never kept. A hit returns exactly
what a fresh evaluation returns, bit for bit; it rests on the row store
being read-only.
``solver.run`` drops the memo when it returns or raises.
"""

import functools
import math

import numpy as np
import scipy.sparse as sp

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


def _link(kind, s, targets):
    """Per-row link terms from the row dots s: the least-squares residuals
    as a 1-tuple, or for the sigmoid margins m the values 1 / (1 + exp(m))
    and e = exp(-|m|), the sign mask m >= 0 and 1 + e, from which a gradient
    forms 1 / (1 + exp(-m)); each half is e / (1 + e) or 1 / (1 + e),
    whichever cannot overflow."""
    if kind == "sigmoid":
        m = targets * s
        e = np.exp(-np.abs(m))
        pos, d = m >= 0, 1.0 + e
        return np.where(pos, e, 1.0) / d, e, pos, d
    return (s - targets,)


def _values(kind, terms):
    return terms[0] if kind == "sigmoid" else terms[0] ** 2


def _coefficients(kind, terms, targets):
    """Per-row gradient coefficients c_i from the link terms."""
    if kind == "sigmoid":
        q, e, pos, d = terms
        return -targets * (np.where(pos, 1.0, e) / d) * q
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


class _DenseRows:
    """Rows in a read-only n x d array, under the dense kernels."""

    def __init__(self, rows):
        self.rows, self.shape = rows, rows.shape

    def take(self, idx):
        return _DenseRows(self.rows[idx])

    def dots(self, x):
        return _row_dots(self.rows, x)

    def scaled(self, coef):
        """The table of coef_i * row i."""
        return coef[:, None] * self.rows

    def column_mean(self, coef):
        return _column_mean(coef, self.rows)

    def diff_sum(self, ca, cb):
        """sum_i (ca_i row i - cb_i row i), summed as the difference of the tables."""
        return np.add.reduce(ca[:, None] * self.rows - cb[:, None] * self.rows, axis=0)

    @functools.cached_property
    def sq_norms(self):
        # the per-row BLAS dots r @ r, made from C as one stacked matmul
        return np.matmul(self.rows[:, None, :], self.rows[:, :, None])[:, 0, 0]

    def toarray(self):
        return self.rows


class _CsrRows:
    """Sparse rows as canonical CSR arrays: ``data``, column ``indices`` and
    ``indptr``, plus ``row_ids``, the row of each nonzero.

    ``np.bincount`` adds each bin's weights one by one, from 0.0, in the
    order given. Binned by row, that is one sequential sum per row, so a
    row's dot depends on that row alone. Binned by column, it adds each
    column in ascending row order, as the axis-0 reduce of the table does;
    the two differ at most in the sign of a zero.
    """

    def __init__(self, data, indices, indptr, row_ids, n_cols):
        self.data, self.indices, self.indptr, self.row_ids = data, indices, indptr, row_ids
        self.shape = (indptr.shape[0] - 1, n_cols)

    @classmethod
    def canonical(cls, matrix):
        """A read-only copy of a scipy sparse matrix or array, duplicates
        summed and the indices of each row sorted."""
        csr = sp.csr_matrix(matrix, dtype=float, copy=True)
        csr.sum_duplicates()
        indptr = csr.indptr.astype(np.intp)
        arrays = (csr.data, csr.indices.astype(np.intp), indptr,
                  np.repeat(np.arange(csr.shape[0]), np.diff(indptr)))
        for a in arrays:
            a.flags.writeable = False
        return cls(*arrays, csr.shape[1])

    def take(self, idx):
        """The rows idx, in that order, gathered over ``indptr``."""
        starts = self.indptr[idx]
        lengths = self.indptr[idx + 1] - starts
        indptr = np.zeros(len(idx) + 1, dtype=np.intp)
        np.cumsum(lengths, out=indptr[1:])
        row_ids = np.repeat(np.arange(len(idx)), lengths)
        pos = np.arange(row_ids.shape[0]) + (starts - indptr[:-1])[row_ids]
        return _CsrRows(self.data[pos], self.indices[pos], indptr, row_ids, self.shape[1])

    def dots(self, x):
        return np.bincount(self.row_ids, self.data * x[self.indices], self.shape[0])

    def scaled(self, coef):
        """The dense table of coef_i * row i."""
        table = np.zeros(self.shape)
        table[self.row_ids, self.indices] = coef[self.row_ids] * self.data
        return table

    def column_mean(self, coef):
        n, d = self.shape
        if d == 1:  # the axis-0 reduce of an n x 1 table is pairwise
            return np.add.reduce(self.scaled(coef), axis=0) / n
        return np.bincount(self.indices, coef[self.row_ids] * self.data, d) / n

    def diff_sum(self, ca, cb):
        if self.shape[1] == 1:
            return np.add.reduce(self.scaled(ca) - self.scaled(cb), axis=0)
        ra, rb = ca[self.row_ids], cb[self.row_ids]
        return np.bincount(self.indices, ra * self.data - rb * self.data, self.shape[1])

    @functools.cached_property
    def sq_norms(self):
        return np.bincount(self.row_ids, self.data * self.data, self.shape[0])

    def toarray(self):
        dense = np.zeros(self.shape)
        dense[self.row_ids, self.indices] = self.data
        return dense


class _RowComponent:
    """One row and its target, a record: a ``FiniteSumLoss`` evaluates it."""

    def __init__(self, row, b):
        row = np.asarray(row, dtype=float)
        if row.ndim != 1:
            raise ShapeError(f"{self.kind} row must be 1-D")
        self.row, self.b = row, float(b)
        _check_targets(self.kind, self.b)

    dim = property(lambda self: self.row.shape[0])


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

    Every loss is of one kind and owns its row store, dense or CSR, as
    read-only arrays; a component list that mixes kinds, or holds a kind
    other than "sigmoid" and "least_squares", raises ShapeError.
    ``components`` is the list given, or after ``from_rows`` a tuple of
    dense row views. Every evaluation is pure: its result depends on x
    alone. The memo of the module docstring is replaced as one tuple, and
    ``drop_memo`` releases it.
    """

    _lipschitz = None
    _memo = None  # (key, link terms of all rows, full value or None, full gradient or None)
    # _rows is a _DenseRows or a _CsrRows, fixed by _set_rows

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ShapeError("a finite-sum loss needs at least one component")
        dim = components[0].dim
        for c in components:
            if c.dim != dim:
                raise ShapeError(f"all components must share dim {dim}, got {c.dim}")
        kinds = sorted({c.kind for c in components})
        if len(kinds) != 1 or kinds[0] not in _COMPONENTS:
            raise ShapeError(f"a loss holds components of one known kind, got {kinds}")
        self._set_rows(kinds[0], [c.row for c in components], [c.b for c in components])
        self.components = components

    @classmethod
    def from_rows(cls, kind, rows, targets):
        """Loss of one kind ("sigmoid" or "least_squares") over n rows and
        n targets, of which it keeps a read-only copy.

        ``rows`` is an n x d array, stored dense, or a scipy sparse matrix
        or array (CSR, CSC, COO, ...), stored as canonical CSR with
        duplicates summed and indices sorted; its kernels then cost O(nnz).
        The storage is fixed here: dense rows keep the dense kernels and
        their traces, sparse rows never pass through scipy per evaluation.
        Raises ShapeError for an unknown kind, rows that are not a non-empty
        2-D array, a target count other than n or a sigmoid label not +-1.
        """
        return cls.__new__(cls)._set_rows(kind, rows, targets)

    def _set_rows(self, kind, rows, targets):
        if kind not in _COMPONENTS:
            raise ShapeError(f"unknown loss kind {kind!r}")
        sparse = sp.issparse(rows)
        if not sparse:
            rows = np.array(rows, dtype=float, order="C")
        if rows.ndim != 2 or rows.shape[0] == 0:
            raise ShapeError(f"rows must be a non-empty 2-D array, got shape {rows.shape}")
        targets = np.array(targets, dtype=float)
        if targets.shape != rows.shape[:1]:
            raise ShapeError(f"need {rows.shape[0]} targets, got shape {targets.shape}")
        _check_targets(kind, targets)
        if sparse:
            rows = _CsrRows.canonical(rows)
        else:
            rows.flags.writeable = False
            rows = _DenseRows(rows)
        targets.flags.writeable = False
        self._kind, self._rows, self._targets = kind, rows, targets
        self.n, self.dim = rows.shape
        return self

    @functools.cached_property
    def components(self):
        """One component view per row of the read-only dense rows; CSR rows
        are expanded once, byte for byte."""
        rows = self._rows.toarray()
        rows.flags.writeable = False
        return tuple(map(_COMPONENTS[self._kind], rows, self._targets))

    def _check_x(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.shape[0] != self.dim:
            raise ShapeError(f"x must be a vector of length {self.dim}, got shape {x.shape}")
        return x

    def _check_idx(self, idx):
        idx = np.asarray(idx)
        if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise ShapeError(f"idx must be 1-D integers, got {idx.dtype} of shape {idx.shape}")
        idx = idx.astype(int, copy=False)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise IndexError(f"component index out of range [0, {self.n})")
        return idx

    def _all_rows(self, x):
        """The memo at x; on a miss, one all-rows pass replaces it."""
        key, memo = x.tobytes(), self._memo
        if memo is None or memo[0] != key:
            if math.isnan(np.vdot(x, x)):  # x has a NaN: squares never sum to one
                key = None  # None never matches
            terms = _link(self._kind, self._rows.dots(x), self._targets)
            memo = self._memo = (key, terms, None, None)
        return memo

    def _terms(self, x, idx, rows, targets):
        """Link terms at x of the rows idx, gathered as rows and targets."""
        memo = self._memo
        if memo is not None and memo[0] == x.tobytes():
            return tuple([t[idx] for t in memo[1]])
        return _link(self._kind, rows.dots(x), targets)

    def _batch(self, idx, *points):
        """The rows idx, gathered once, and their coefficients at each point
        (x, or x and y), unchecked: idx in range, points float vectors."""
        rows, targets = self._rows.take(idx), self._targets[idx]
        return rows, *[_coefficients(self._kind, self._terms(p, idx, rows, targets), targets)
                       for p in points]

    def drop_memo(self):
        """Release the memo; later results are unchanged."""
        self._memo = None

    def component_coefficients(self, x, idx=None):
        """The rows idx (all when None) as one row store, and their gradient
        coefficients c_i at x, a new array: gradient i is c_i times row i."""
        x = self._check_x(x)
        if idx is None:
            return self._all_coefficients(x)
        return self._batch(self._check_idx(idx), x)

    def _all_coefficients(self, x):
        """The row store and the coefficients of all rows at x, unchecked."""
        return self._rows, _coefficients(self._kind, self._all_rows(x)[1], self._targets)

    def component_gradients(self, x, idx=None):
        """Gradients of the selected components at x, stacked row-wise."""
        rows, coef = self.component_coefficients(x, idx)
        return rows.scaled(coef)

    def component_value(self, i, x):
        x, idx = self._check_x(x), self._check_idx([i])
        terms = self._terms(x, idx, self._rows.take(idx), self._targets[idx])
        return float(_values(self._kind, terms)[0])

    def component_gradient(self, i, x):
        return self.component_gradients(x, [i])[0]

    def full_value(self, x):
        """(1/n) sum of component values, accumulated in ascending order."""
        return self._full_value(self._check_x(x))

    def _full_value(self, x):
        key, terms, value, grad = self._all_rows(x)
        if value is None:
            value = float(np.add.reduce(_values(self._kind, terms)) / self.n)
            self._memo = (key, terms, value, grad)
        return value

    def full_gradient(self, x):
        """(1/n) sum of component gradients, bit for bit their axis-0 reduce:
        the column mean of c_i * row i, with no n x d table built."""
        return self._full_gradient(self._check_x(x))

    def _full_gradient(self, x):
        key, terms, value, grad = self._all_rows(x)
        if grad is None:
            grad = self._rows.column_mean(_coefficients(self._kind, terms, self._targets))
            self._memo = (key, terms, value, grad)
        return grad.copy()

    def lipschitz_bound(self):
        """Certified gradient Lipschitz constant, computed once per loss.

        Sigmoid components contribute SIGMOID_CURVATURE * ||a||^2 and
        squared residuals 2 * ||r||^2 (per-row BLAS dots, or sums over the
        CSR nonzeros); the bound is the maximum, which scales the largest
        squared norm, the same float because rounding is monotone.
        """
        if self._lipschitz is None:
            scale = _COMPONENTS[self._kind].curvature
            self._lipschitz = scale * float(self._rows.sq_norms.max())
        return LipschitzBound(self._lipschitz)
