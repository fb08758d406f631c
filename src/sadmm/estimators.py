"""Stochastic gradient estimators behind a single interface.

Five backends are provided: the exact full gradient, plain mini-batch
SGD, SAGA (per-component gradient memory), SVRG (periodic full-gradient
anchor) and SARAH (recursive estimator with probabilistic full-gradient
restarts). Mini-batches are drawn uniformly WITH replacement, which is
what makes the batch terms independent and the mean-squared-error
identities used by the tests exact.

Each estimator owns a counter-based random stream keyed by
(seed, iteration), so replaying a run with the same seed reproduces the
exact draw sequence regardless of process or thread layout. An estimator
instance is exclusively owned by one solver run; ``estimate`` mutates
internal state and is not reentrant.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .exceptions import NoCertifiedConstantsError, ParameterError, ShapeError
from .rng import DOMAIN_BATCH, substream

__all__ = [
    "EstimatorSpec",
    "EstimatorDiagnostics",
    "VarianceConstants",
    "GradientEstimator",
    "FullEstimator",
    "SgdEstimator",
    "SagaEstimator",
    "SvrgEstimator",
    "SarahEstimator",
    "init_estimator",
    "theoretical_constants",
]

@dataclass(frozen=True)
class EstimatorSpec:
    """Which backend to use and its sampling parameters.

    ``batch_size`` is ignored by the full backend. ``epoch_len`` applies
    to SVRG only (defaults to ceil(n / batch_size) at initialization);
    ``restart_p`` applies to SARAH only and is the inverse restart
    probability, required to be greater than 1.
    """

    kind: str
    batch_size: int = 1
    epoch_len: Optional[int] = None
    restart_p: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown estimator kind {self.kind!r}")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be at least 1")
        if self.epoch_len is not None and self.epoch_len < 1:
            raise ParameterError("epoch_len must be at least 1")
        if self.kind == "sarah":
            if self.restart_p is None or not self.restart_p > 1:
                raise ParameterError("sarah requires restart_p > 1")


@dataclass
class EstimatorDiagnostics:
    """Error-tracking quantities for one estimator state.

    ``upsilon`` and ``gamma`` are the squared/unsquared error-bounding
    sequences of the backend; ``mse_exact`` is the exact squared error
    ||g_emitted - grad H(x)||^2 of an emitted estimate.
    """

    upsilon: float
    gamma: float
    mse_exact: float


class VarianceConstants(NamedTuple):
    v1: float
    v2: float
    v_upsilon: float
    rho: float


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

    def _stream(self, t):
        return substream(self.spec.seed, DOMAIN_BATCH, t)

    def _draw_batch(self, rng):
        return rng.integers(0, self.n, size=self.spec.batch_size)

    def estimate(self, x):
        raise NotImplementedError

    def _scatter(self, diffs):
        """(sum_i ||d_i||^2 / (b n), sum_i ||d_i|| / sqrt(b n)) over rows d_i.

        ``diffs`` is a temporary owned by the caller; it is squared in place.
        """
        sq = np.add.reduce(np.multiply(diffs, diffs, out=diffs), axis=1)
        b = self.spec.batch_size
        return (
            float(np.add.reduce(sq)) / (b * self.n),
            float(np.add.reduce(np.sqrt(sq))) / math.sqrt(b * self.n),
        )

    def upsilon_gamma(self, x):
        """Backend error-bounding pair (Upsilon, Gamma) at the current state."""
        raise NotImplementedError

    def diagnostics(self, x, g_emitted):
        """Full diagnostics record; costs O(n * dim)."""
        upsilon, gamma = self.upsilon_gamma(x)
        err = np.asarray(g_emitted, dtype=float) - self.loss.full_gradient(x)
        return EstimatorDiagnostics(upsilon, gamma, float(err @ err))


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
        idx = self._draw_batch(self._stream(self.t))
        grads = self.loss.component_gradients(x, idx)
        g = np.add.reduce(grads, axis=0) / len(idx)
        self.t += 1
        self.evals += len(idx)
        return g

    def upsilon_gamma(self, x):
        # No certified sequence exists; report the per-sample scatter around
        # the full gradient in the same normalization the certified
        # backends use.
        diffs = self.loss.component_gradients(x)
        diffs -= self.loss.full_gradient(x)
        return self._scatter(diffs)


class SagaEstimator(GradientEstimator):
    """Gradient-table estimator.

    ``phi_grads`` stores one gradient vector per component, initialized at
    the start point; ``phi_mean`` tracks the table average incrementally
    and is re-synced from the table every n calls to bound rounding drift.
    """

    def __init__(self, spec, loss, x0):
        super().__init__(spec, loss, x0)
        self.phi_grads = loss.component_gradients(x0)
        self.phi_mean = np.add.reduce(self.phi_grads, axis=0) / self.n
        self.evals += self.n

    def _combine(self, x, idx):
        """Estimate for an explicit batch, without touching the table."""
        grads = self.loss.component_gradients(x, idx)
        g = np.add.reduce(grads - self.phi_grads[idx], axis=0) / len(idx) + self.phi_mean
        return g, grads

    def estimate(self, x):
        idx = self._draw_batch(self._stream(self.t))
        g, grads = self._combine(x, idx)
        uniq, first = np.unique(idx, return_index=True)
        fresh = grads[first]
        delta = fresh - self.phi_grads[uniq]
        self.phi_grads[uniq] = fresh
        self.phi_mean = self.phi_mean + np.add.reduce(delta, axis=0) / self.n
        self.t += 1
        self.evals += len(idx)
        if self.t % self.n == 0:
            self.phi_mean = np.add.reduce(self.phi_grads, axis=0) / self.n
        return g

    def upsilon_gamma(self, x):
        diffs = self.loss.component_gradients(x)
        diffs -= self.phi_grads
        return self._scatter(diffs)


class SvrgEstimator(GradientEstimator):
    """Anchored estimator re-anchoring every ``epoch_len`` calls."""

    def __init__(self, spec, loss, x0):
        super().__init__(spec, loss, x0)
        self.epoch_len = spec.epoch_len or math.ceil(self.n / spec.batch_size)
        self.anchor_x = np.array(x0, dtype=float)
        self.anchor_full_grad = loss.full_gradient(self.anchor_x)
        self.steps_since_anchor = 0
        self.evals += self.n

    def _combine(self, x, idx):
        gx = self.loss.component_gradients(x, idx)
        ga = self.loss.component_gradients(self.anchor_x, idx)
        return np.add.reduce(gx - ga, axis=0) / len(idx) + self.anchor_full_grad

    def estimate(self, x):
        if self.steps_since_anchor >= self.epoch_len:
            self.anchor_x = np.array(x, dtype=float)
            self.anchor_full_grad = self.loss.full_gradient(self.anchor_x)
            self.steps_since_anchor = 0
            self.evals += self.n
        idx = self._draw_batch(self._stream(self.t))
        g = self._combine(x, idx)
        self.t += 1
        self.steps_since_anchor += 1
        self.evals += 2 * len(idx)
        return g

    def upsilon_gamma(self, x):
        # Uncertified analogue of the gradient-table formula with every
        # memory slot sitting at the anchor. The anchor goes first, so the
        # loss's memo ends at x, the point the solver scores next.
        at_anchor = self.loss.component_gradients(self.anchor_x)
        diffs = self.loss.component_gradients(x)
        diffs -= at_anchor
        return self._scatter(diffs)


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
        self.prev_estimate = loss.full_gradient(self.prev_x)
        self.evals += self.n

    def _recursion(self, x, idx):
        gx = self.loss.component_gradients(x, idx)
        gp = self.loss.component_gradients(self.prev_x, idx)
        return np.add.reduce(gx - gp, axis=0) / len(idx) + self.prev_estimate

    def estimate(self, x):
        x = np.asarray(x, dtype=float)
        if self.t == 0:
            g = self.prev_estimate.copy()
        else:
            rng = self._stream(self.t)
            if rng.random() < 1.0 / self.spec.restart_p:
                g = self.loss.full_gradient(x)
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
        err = self.prev_estimate - self.loss.full_gradient(self.prev_x)
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
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (loss.dim,):
        raise ShapeError(f"x0 must have length {loss.dim}, got shape {x0.shape}")
    if spec.kind != "full" and spec.batch_size > loss.n:
        raise ParameterError(
            f"batch_size {spec.batch_size} exceeds component count {loss.n}"
        )
    return _BACKENDS[spec.kind](spec, loss, x0)


def theoretical_constants(spec, L, n):
    """Certified variance-reduction constants (V1, V2, V_Upsilon, rho).

    Only the gradient-table and recursive backends carry proven
    constants; for anything else a NoCertifiedConstantsError is raised and
    callers fall back to conservative defaults.
    """
    lip = L.L
    if spec.kind == "saga":
        b = spec.batch_size
        v_up = math.inf if b * n == 1 else n * lip**2 / (b * n - 1)
        return VarianceConstants(0.0, 0.0, v_up, b / n)
    if spec.kind == "sarah":
        b = spec.batch_size
        return VarianceConstants(0.0, lip / math.sqrt(b), lip**2 / b, 1.0 / spec.restart_p)
    raise NoCertifiedConstantsError(
        f"estimator kind {spec.kind!r} has no certified constants"
    )
