"""Conditional divergence between observed and predicted responses given x.

The prediction loss of the CS information-bottleneck objective: the CS
divergence between p(y|x) and the model's q(y_hat|x), estimated from a
batch of (x, y, y_hat) triples through Gram-matrix aggregates.  A
conditional-MMD comparator (which needs a ridge and a matrix inverse) is
provided for contrast.

Both stream their y-space Grams in row blocks; conditional MMD keeps one
N x N buffer for the x-Gram and its inverse, see :func:`conditional_mmd`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SingularMatrixError
from .divergences import _LOG_UNDERFLOW
from .kernels import (
    as_sample_matrix,
    block_logsumexp,
    check_width,
    fold_self_rows,
    log_gram_blocks,
    logsumexp,
)

# Rows of A per panel of A^2 in conditional_mmd: enough for the GEMM to
# run near peak, while the panel stays a small fraction of the N x N
# buffer.
_PANEL_ROWS = 256


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
        - 2 log sum_j (K L21)_j / R_j^2,   R_j = sum_i K_ji,

    where (K L)_j = sum_i K_ji L_ji.  The Grams are streamed in row
    blocks over their upper block triangles (:func:`log_gram_blocks`).
    R and the first two inner sums are symmetric with a unit diagonal
    term, so they are summed in linear space; the cross inner sums are
    not, and they are accumulated in the log domain (a max-shifted
    log-sum-exp per block, merged with ``logaddexp``).  Returns inf when
    a cross inner sum underflows, i.e. its log is below the log of the
    smallest subnormal.
    """
    if batch.rows < 2:
        raise DimensionError("conditional CS needs at least 2 rows")
    n = batch.rows
    row, obs, pred = np.zeros(n), np.zeros(n), np.zeros(n)
    log_cross = np.full(n, -np.inf)
    blocks = zip(
        log_gram_blocks(batch.x, sigma=sigma_x),
        log_gram_blocks(batch.y, sigma=sigma_y),
        log_gram_blocks(batch.y_hat, sigma=sigma_y),
        log_gram_blocks(batch.y_hat, batch.y, sigma_y),
        log_gram_blocks(batch.y, batch.y_hat, sigma_y),
    )
    for (start, stop, k), (_, _, l_obs), (_, _, l_pred), (_, _, l_21), (_, _, l_12) in blocks:
        # Rows start:stop of K o L21 at columns start:, then the entries
        # (j, i) below the diagonal for j >= stop, read as K_ij L12_ij.
        upper = l_21[:, start:]
        upper += k
        own = log_cross[start:stop]
        np.logaddexp(own, block_logsumexp(upper, axis=1), out=own)
        lower = l_12[:, stop:]
        lower += k[:, stop - start :]
        below = log_cross[stop:]
        np.logaddexp(below, block_logsumexp(lower, axis=0), out=below)
        np.exp(k, out=k)
        fold_self_rows(row, k, start, stop)
        for l_block, sums in ((l_obs, obs), (l_pred, pred)):
            np.exp(l_block, out=l_block)
            l_block *= k
            fold_self_rows(sums, l_block, start, stop)
    if np.any(log_cross < _LOG_UNDERFLOW):
        return math.inf
    inv_row_sq = 1.0 / row**2
    term_cross = float(logsumexp(log_cross - 2.0 * np.log(row)))
    return (
        math.log(float(obs @ inv_row_sq))
        + math.log(float(pred @ inv_row_sq))
        - 2.0 * term_cross
    )


def conditional_mmd(
    batch: PredictionBatch,
    sigma_x: float = 1.0,
    sigma_y: float = 1.0,
    ridge: float = 0.1,
) -> float:
    """Conditional MMD comparator with ridge-regularized inverse.

    tr(K A L1 A) + tr(K A L2 A) - 2 tr(K A L21 A) with A = (K + ridge I)^-1,
    which is sum_ij C_ij M_ij with C = A K A and M = L1 + L2 - L12 - L21
    (C is symmetric, so the cross term may be split evenly between L12
    and L21 = L12^T).

    All of it runs in one N x N buffer.  K is written into it block by
    block, the ridge is added to its diagonal in place, and LAPACK
    ``dpotrf`` then ``dpotri`` overwrite it with A (about N^3 flops).
    Since A (K + ridge I) = I, C = A - ridge A^2; C is reduced against M
    over the upper block triangle, one row panel of A^2 at a time (a GEMM
    of about N^3 flops in all), with the y-space Grams streamed.

    The identity cancels when the ridge dominates K: in an eigenvector
    of K with eigenvalue l, C has l / (l + ridge)^2 while A has
    1 / (l + ridge), so that component loses a factor 1 + ridge / l of
    relative precision, about ridge / l ulps.  Components with
    l << ridge contribute at most l / ridge^2 to C and are strongly
    damped, so the value stays accurate relative to the largest terms.
    """
    # Imported here: scipy.linalg is most of the package's import time,
    # and only this comparator needs it.
    from scipy.linalg import lapack

    if batch.rows < 2:
        raise DimensionError("conditional MMD needs at least 2 rows")
    ridge = float(ridge)
    if ridge <= 0:
        raise ValueError(f"ridge must be positive, got {ridge}")
    check_width(sigma_y)
    n = batch.rows
    buf = np.empty((n, n))
    for start, stop, block in log_gram_blocks(batch.x, sigma=sigma_x):
        buf[start:stop, start:] = np.exp(block, out=block)
    buf.reshape(-1)[:: n + 1] += ridge
    # The Fortran-order view of buf is its transpose, so buf's upper
    # triangle is the view's lower one; LAPACK overwrites it in place.
    chol, info = lapack.dpotrf(buf.T, lower=1, clean=0, overwrite_a=1)
    if info == 0:
        inverse, info = lapack.dpotri(chol, lower=1, overwrite_c=1)
    if info != 0:
        raise SingularMatrixError("ridge-regularized Gram matrix is singular")
    buf = inverse.T  # buf itself, unless the wrappers had to copy
    for start in range(0, n, _PANEL_ROWS):
        stop = min(start + _PANEL_ROWS, n)
        buf[stop:, start:stop] = buf[start:stop, stop:].T
        square = buf[start:stop, start:stop]
        np.copyto(square, square.T, where=np.tri(stop - start, k=-1, dtype=bool))
    total = 0.0
    panel_start = panel_stop = 0
    blocks = zip(
        log_gram_blocks(batch.y, sigma=sigma_y),
        log_gram_blocks(batch.y_hat, sigma=sigma_y),
        log_gram_blocks(batch.y, batch.y_hat, sigma_y),
        log_gram_blocks(batch.y_hat, batch.y, sigma_y),
    )
    for (start, stop, m), (_, _, l_pred), (_, _, l_12), (_, _, l_21) in blocks:
        if stop > panel_stop:
            # C over rows start:panel_stop and columns start:, from
            # A^2 = A A^T; panels hold whole row blocks of the Grams.
            panel_start = start
            panel_stop = min(start + max(_PANEL_ROWS // (stop - start), 1) * (stop - start), n)
            core = buf[panel_start:panel_stop] @ buf[panel_start:].T
            core *= -ridge
            core += buf[panel_start:panel_stop, panel_start:]
        np.exp(m, out=m)
        m += np.exp(l_pred, out=l_pred)
        m -= np.exp(l_12[:, start:], out=l_12[:, start:])
        m -= np.exp(l_21[:, start:], out=l_21[:, start:])
        m[:, stop - start :] *= 2.0  # entries right of the square stand for two
        c = core[start - panel_start : stop - panel_start, start - panel_start :]
        total += float(np.einsum("ij,ij->", c, m))
    return total


def mse(y, y_hat) -> float:
    """Mean squared error, (1/N) sum_i |y_i - y_hat_i|^2."""
    y = as_sample_matrix(y, "y")
    y_hat = as_sample_matrix(y_hat, "y_hat")
    if y.shape != y_hat.shape:
        raise DimensionError(f"shape mismatch: {y.shape} vs {y_hat.shape}")
    diff = y - y_hat
    return float(np.mean(np.sum(diff * diff, axis=1)))
