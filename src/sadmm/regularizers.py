"""Separable sparsity regularizers and their proximal maps.

Each regularizer evaluates F(z) and solves the scaled proximal problem

    prox(v, beta) = argmin_z  F(z) + (beta / 2) ||z - v||^2

in closed form, which is exactly the shape of the splitting step the
solver performs after completing the square.
"""

import numpy as np

from .exceptions import ParameterError

__all__ = ["Regularizer", "L1", "L0"]


class Regularizer:
    """Base class for coordinate-separable penalties."""

    def value(self, z):
        raise NotImplementedError

    def prox(self, v, beta):
        raise NotImplementedError

    @staticmethod
    def _check_beta(beta):
        beta = float(beta)
        if beta <= 0:
            raise ParameterError(f"beta must be positive, got {beta}")
        return beta


class L1(Regularizer):
    """lam * ||z||_1; prox is soft thresholding at lam / beta.

    ``lam`` may be zero, in which case the penalty vanishes and the prox is
    the identity.
    """

    def __init__(self, lam):
        lam = float(lam)
        if not lam >= 0:
            raise ParameterError(f"lam must be nonnegative, got {lam}")
        self.lam = lam

    def value(self, z):
        z = np.asarray(z, dtype=float)
        return float(self.lam * np.add.reduce(np.abs(z)))

    def prox(self, v, beta):
        beta = self._check_beta(beta)
        v = np.asarray(v, dtype=float)
        t = self.lam / beta
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


class L0(Regularizer):
    """lam * #{i : z_i != 0}; prox is hard thresholding.

    A coordinate survives iff v_i^2 > 2 lam / beta; the tie
    v_i^2 == 2 lam / beta maps to zero, which favors sparsity and keeps the
    selection deterministic among the two minimizers.
    """

    def __init__(self, lam):
        lam = float(lam)
        if not lam >= 0:
            raise ParameterError(f"lam must be nonnegative, got {lam}")
        self.lam = lam

    def value(self, z):
        z = np.asarray(z, dtype=float)
        return float(self.lam * np.count_nonzero(z))

    def prox(self, v, beta):
        beta = self._check_beta(beta)
        v = np.asarray(v, dtype=float)
        keep = v * v > 2.0 * self.lam / beta
        return np.where(keep, v, 0.0)
