"""Conditional divergence between observed and predicted responses given x.

The prediction loss of the CS information-bottleneck objective: the CS
divergence between p(y|x) and the model's q(y_hat|x), estimated from a
batch of (x, y, y_hat) triples through Gram-matrix aggregates.  A
conditional-MMD comparator (which needs a ridge and a matrix inverse) is
provided for contrast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SingularMatrixError
from .kernels import as_sample_matrix, check_width, gram


@dataclass(frozen=True)
class PredictionBatch:
    """Row-aligned inputs, targets, and predictions."""

    x: np.ndarray
    y: np.ndarray
    y_hat: np.ndarray

    def __post_init__(self):
        x = as_sample_matrix(self.x, "x")
        y = as_sample_matrix(self.y, "y")
        y_hat = as_sample_matrix(self.y_hat, "y_hat")
        if not (x.shape[0] == y.shape[0] == y_hat.shape[0]):
            raise DimensionError("x, y, y_hat must have equal row counts")
        if y.shape[1] != y_hat.shape[1]:
            raise DimensionError("y and y_hat must have the same dimension")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "y_hat", y_hat)

    @property
    def rows(self) -> int:
        return self.x.shape[0]


def conditional_cs(batch: PredictionBatch, sigma_x: float = 1.0, sigma_y: float = 1.0) -> float:
    """CS divergence between p(y|x) and q(y_hat|x) from one batch.

    With K the x-Gram, L1/L2 the y/y_hat Grams and L21[i,j] the kernel
    between y_hat_i and y_j (all sharing the y-space width):

        log sum_j (K L1)_j / R_j^2 + log sum_j (K L2)_j / R_j^2
        - 2 log sum_j (K L21)_j / R_j^2,   R_j = sum_i K_ji.

    Returns inf when a cross inner sum underflows to zero.
    """
    if batch.rows < 2:
        raise DimensionError("conditional CS needs at least 2 rows")
    k = gram(batch.x, batch.x, sigma_x)
    l_obs = gram(batch.y, batch.y, sigma_y)
    l_pred = gram(batch.y_hat, batch.y_hat, sigma_y)
    l_cross = gram(batch.y_hat, batch.y, sigma_y)
    row = k.sum(axis=1)
    inv_row_sq = 1.0 / row**2
    term_obs = float(np.sum((k * l_obs).sum(axis=1) * inv_row_sq))
    term_pred = float(np.sum((k * l_pred).sum(axis=1) * inv_row_sq))
    cross_inner = (k * l_cross).sum(axis=1)
    if np.any(cross_inner == 0.0):
        return math.inf
    term_cross = float(np.sum(cross_inner * inv_row_sq))
    return math.log(term_obs) + math.log(term_pred) - 2.0 * math.log(term_cross)


def conditional_mmd(
    batch: PredictionBatch,
    sigma_x: float = 1.0,
    sigma_y: float = 1.0,
    ridge: float = 0.1,
) -> float:
    """Conditional MMD comparator with ridge-regularized inverse.

    tr(K A L1 A) + tr(K A L2 A) - 2 tr(K A L21 A) with A = (K + ridge I)^-1.
    """
    # Imported here: scipy.linalg is most of the package's import time,
    # and only this comparator needs it.
    from scipy.linalg import cho_factor, cho_solve

    if batch.rows < 2:
        raise DimensionError("conditional MMD needs at least 2 rows")
    ridge = float(ridge)
    if ridge <= 0:
        raise ValueError(f"ridge must be positive, got {ridge}")
    check_width(sigma_x)
    check_width(sigma_y)
    k = gram(batch.x, batch.x, sigma_x)
    n = k.shape[0]
    try:
        chol = cho_factor(k + ridge * np.eye(n))
        half = cho_solve(chol, k)  # A K
        core = cho_solve(chol, half.T)  # A K A, symmetric
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("ridge-regularized Gram matrix is singular") from exc
    l_obs = gram(batch.y, batch.y, sigma_y)
    l_pred = gram(batch.y_hat, batch.y_hat, sigma_y)
    l_cross = gram(batch.y_hat, batch.y, sigma_y)
    # tr(K A L A) = sum_{ij} (A K A)_ij L_ji
    return float(
        np.sum(core * l_obs)
        + np.sum(core * l_pred)
        - 2.0 * np.sum(core * l_cross.T)
    )


def mse(y, y_hat) -> float:
    """Mean squared error, (1/N) sum_i |y_i - y_hat_i|^2."""
    y = as_sample_matrix(y, "y")
    y_hat = as_sample_matrix(y_hat, "y_hat")
    if y.shape != y_hat.shape:
        raise DimensionError(f"shape mismatch: {y.shape} vs {y_hat.shape}")
    diff = y - y_hat
    return float(np.mean(np.sum(diff * diff, axis=1)))
