"""Stochastic gradient estimators behind a single interface.

Five backends are provided: the exact full gradient, plain mini-batch
SGD, SAGA (per-component gradient memory), SVRG (periodic full-gradient
anchor) and SARAH (recursive estimator with probabilistic full-gradient
restarts). Mini-batches are drawn uniformly WITH replacement, which is
what makes the batch terms independent and the mean-squared-error
identities used by the tests exact.

Every component gradient is c_i(x) times row a_i, so the backends hold
coefficients, not gradient tables: SAGA stores n scalars, SVRG the same
memory moved whole to each anchor, SGD and SARAH none. An estimate sums the
gathered batch rows by column over their stored entries (``diff_sum``
subtracts c_x[i] a_ij - c_y[i] a_ij, never (c_x[i] - c_y[i]) a_ij), so
it has the bytes of the table formula. ``estimate`` and ``init_estimator``
check x; the rest calls the loss's unchecked cores. A batch is gathered once.

Each estimator draws iteration t from the counter-based random stream
(seed, DOMAIN_BATCH, t), whose Philox counter [0, DOMAIN_BATCH, t, 0] keeps
the iteration clear of the block count in word 0: no two iterations share a
random block, and replaying a run with the same seed reproduces the exact
draw sequence regardless of process or thread layout. It builds one
generator, on its first draw, and moves it to each iteration's stream: the
generator ``_stream`` returns is valid only until the next ``_stream`` call.
An estimator instance is exclusively owned by one solver run; ``estimate``
mutates internal state and is not reentrant.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .exceptions import ParameterError, _check_count
from .rng import DOMAIN_BATCH, Substreams

__all__ = [
    "EstimatorSpec",
    "GradientEstimator",
    "FullEstimator",
    "SgdEstimator",
    "SagaEstimator",
    "SvrgEstimator",
    "SarahEstimator",
    "init_estimator",
]


@dataclass(frozen=True)
class EstimatorSpec:
    """Which backend to use and its sampling parameters.

    ``batch_size`` is ignored by the full backend. ``epoch_len`` applies
    to SVRG only (defaults to ceil(n / batch_size) at initialization);
    ``restart_p`` applies to SARAH only and is the inverse restart
    probability, required to be finite and greater than 1.
    """

    kind: str
    batch_size: int = 1
    epoch_len: Optional[int] = None
    restart_p: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown estimator kind {self.kind!r}")
        _check_count("batch_size", self.batch_size, 1)
        if self.epoch_len is not None:
            _check_count("epoch_len", self.epoch_len, 1)
        _check_count("seed", self.seed)
        if self.kind == "sarah":
            if self.restart_p is None or not self.restart_p > 1:
                raise ParameterError("sarah requires restart_p > 1")
            if self.restart_p == math.inf:
                raise ParameterError("restart_p must be finite, got inf")


class GradientEstimator:
    """Base class; concrete backends implement ``estimate``.

    Every backend is built as ``Backend(spec, loss, x0)``; the stateless
    ones ignore x0.

    Attributes
    ----------
    evals : int
        Cumulative component-gradient evaluations, including the ones
        spent at initialization; the solver divides by n to express
        progress in epochs.
    t : int
        Number of ``estimate`` calls made so far.
    """

    def __init__(self, spec, loss, x0):
        self.spec = spec
        self.loss = loss
        self.n = loss.n
        self.evals = 0
        self.t = 0

    @cached_property
    def _batches(self):
        # built on the first draw: the full backend never draws
        return Substreams(self.spec.seed, DOMAIN_BATCH)

    def _stream(self, t):
        return self._batches.at(t)

    def _draw_batch(self, rng):
        return rng.integers(0, self.n, size=self.spec.batch_size)

    def estimate(self, x):
        raise NotImplementedError

    def _scatter(self, sq):
        """(sum_i sq_i / (b n), sum_i sqrt(sq_i) / sqrt(b n)) over the squared
        norms sq_i of n differences."""
        b = self.spec.batch_size
        return (
            float(np.add.reduce(sq)) / (b * self.n),
            float(np.add.reduce(np.sqrt(sq))) / math.sqrt(b * self.n),
        )

    def upsilon_gamma(self, x):
        """Backend error-bounding pair (Upsilon, Gamma) at the current state."""
        raise NotImplementedError


class FullEstimator(GradientEstimator):
    """Exact gradient; stateless apart from the evaluation counter."""

    def estimate(self, x):
        self.t += 1
        self.evals += self.n
        return self.loss.full_gradient(x)

    def upsilon_gamma(self, x):
        return 0.0, 0.0


class SgdEstimator(GradientEstimator):
    """Plain mini-batch gradient; unbiased, no variance reduction."""

    def estimate(self, x):
        x = self.loss._check_x(x)
        idx = self._draw_batch(self._stream(self.t))
        rows, c = self.loss._batch(idx, x)
        self.t += 1
        self.evals += len(idx)
        return rows.column_mean(c)

    def upsilon_gamma(self, x):
        # No certified sequence exists; report the per-sample scatter around
        # the full gradient in the same normalization the certified
        # backends use, from the n x d table: ||c_i a_i - g||^2 has no
        # short form free of cancellation.
        rows, c = self.loss._all_coefficients(x)
        diffs = rows.scaled(c)
        diffs -= self.loss._full_gradient(x)
        return self._scatter(np.add.reduce(np.multiply(diffs, diffs, out=diffs), axis=1))


class SagaEstimator(GradientEstimator):
    """Gradient-memory estimator over n stored coefficients.

    Component i's memory is alpha_i a_i, its gradient where it was last
    drawn (the start point at first): O(n) memory. ``phi_mean`` tracks the
    memory's mean incrementally and is re-synced every n calls to bound
    rounding drift. ``phi_grads`` reads the memory as a read-only n x d
    array; assigning a table to it switches to that explicit table.
    """

    def __init__(self, spec, loss, x0):
        super().__init__(spec, loss, x0)
        self._refresh(x0)

    def _refresh(self, x):
        """Move every memory slot to x: n coefficients and their exact mean."""
        self._table = None
        self._rows, self.alpha = self.loss._all_coefficients(x)
        self.phi_mean = self.loss._full_gradient(x)
        self.evals += self.n

    @property
    def phi_grads(self):
        if self._table is not None:
            return self._table
        table = self._rows.scaled(self.alpha)
        table.flags.writeable = False
        return table

    @phi_grads.setter
    def phi_grads(self, table):
        self._table, self.alpha = np.array(table, dtype=float), None

    def _mean(self):
        if self._table is None:
            return self._rows.column_mean(self.alpha)
        return np.add.reduce(self._table, axis=0) / self.n

    def _diff_sum(self, rows, c, sel):
        """sum_k (c_k row k - the memory of component sel[k])."""
        if self._table is None:
            return rows.diff_sum(c, self.alpha[sel])
        return np.add.reduce(rows.scaled(c) - self._table[sel], axis=0)

    def _combine(self, x, idx):
        """Estimate for an explicit batch, without touching the memory, and
        the batch's rows and coefficients at x."""
        rows, c = self.loss._batch(idx, x)
        return self._diff_sum(rows, c, idx) / len(idx) + self.phi_mean, (rows, c)

    def estimate(self, x):
        x = self.loss._check_x(x)
        idx = self._draw_batch(self._stream(self.t))
        g, (rows, c) = self._combine(x, idx)
        uniq, first = np.unique(idx, return_index=True)
        rows, c = rows.take(first), c[first]
        self.phi_mean = self.phi_mean + self._diff_sum(rows, c, uniq) / self.n
        if self._table is None:
            self.alpha[uniq] = c
        else:
            self._table[uniq] = rows.scaled(c)
        self.t += 1
        self.evals += len(idx)
        if self.t % self.n == 0:
            self.phi_mean = self._mean()
        return g

    def upsilon_gamma(self, x):
        if self._table is not None:
            diffs = self._rows.scaled(self.loss._all_coefficients(x)[1]) - self._table
            return self._scatter(np.add.reduce(diffs * diffs, axis=1))
        # ||c_i a_i - alpha_i a_i||^2 = (c_i - alpha_i)^2 ||a_i||^2, O(n) after
        # the all-rows pass, which the solver's next score reuses
        dc = self.loss._all_coefficients(x)[1] - self.alpha
        return self._scatter(dc * dc * self._rows.sq_norms)


class SvrgEstimator(SagaEstimator):
    """SAGA's memory moved whole to the anchor x every ``epoch_len`` calls and
    kept between anchors, so a batch is dotted at x alone; SAGA's error bound."""

    def __init__(self, spec, loss, x0):
        super().__init__(spec, loss, x0)
        self.epoch_len = spec.epoch_len or math.ceil(self.n / spec.batch_size)
        self.anchor_x = np.array(x0, dtype=float)
        self.steps_since_anchor = 0

    def estimate(self, x):
        x = self.loss._check_x(x)
        if self.steps_since_anchor >= self.epoch_len:
            self._refresh(x)
            self.anchor_x, self.steps_since_anchor = np.array(x, dtype=float), 0
        idx = self._draw_batch(self._stream(self.t))
        g, _ = self._combine(x, idx)
        self.t += 1
        self.steps_since_anchor += 1
        self.evals += 2 * len(idx)
        return g


class SarahEstimator(GradientEstimator):
    """Recursive estimator with probabilistic full-gradient restarts.

    The first call emits the exact gradient computed at initialization.
    Afterwards each call restarts with probability 1 / restart_p and
    otherwise adds the mini-batch difference quotient to the previous
    estimate.
    """

    def __init__(self, spec, loss, x0):
        super().__init__(spec, loss, x0)
        self.prev_x = np.array(x0, dtype=float)
        self.prev_estimate = loss._full_gradient(self.prev_x)
        self.evals += self.n

    def _recursion(self, x, idx):
        rows, cx, cp = self.loss._batch(idx, x, self.prev_x)
        return rows.diff_sum(cx, cp) / len(idx) + self.prev_estimate

    def estimate(self, x):
        x = self.loss._check_x(x)
        if self.t == 0:
            g = self.prev_estimate.copy()
        else:
            rng = self._stream(self.t)
            if rng.random() < 1.0 / self.spec.restart_p:
                g = self.loss._full_gradient(x)
                self.evals += self.n
            else:
                idx = self._draw_batch(rng)
                g = self._recursion(x, idx)
                self.evals += 2 * len(idx)
        self.prev_x = np.array(x)
        self.prev_estimate = g.copy()
        self.t += 1
        return g

    def upsilon_gamma(self, x):
        # The bounding sequence is the exact error of the latest emission;
        # the query point is not used.
        err = self.prev_estimate - self.loss._full_gradient(self.prev_x)
        sq = float(err @ err)
        return sq, math.sqrt(sq)


_BACKENDS = {
    "full": FullEstimator,
    "sgd": SgdEstimator,
    "saga": SagaEstimator,
    "svrg": SvrgEstimator,
    "sarah": SarahEstimator,
}
KINDS = tuple(_BACKENDS)


def init_estimator(spec, loss, x0):
    """Construct the estimator named by ``spec`` bound to ``loss`` at x0."""
    x0 = loss._check_x(x0)
    _check_batch_size(spec, loss.n)
    return _BACKENDS[spec.kind](spec, loss, x0)


def _check_batch_size(spec, n):
    """Raise ParameterError when a sampling backend's batch exceeds n."""
    if spec.kind != "full" and spec.batch_size > n:
        raise ParameterError(f"batch_size {spec.batch_size} exceeds component count {n}")
