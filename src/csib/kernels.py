"""Pairwise squared distances, Gaussian Gram matrices and log-sum-exp.

Every estimator in the package reduces to aggregates over Gram matrices
built here.

Distances use the GEMM expansion ``|a|^2 + |b|^2 - 2 a.b`` on rows
centred by one shared column mean, with a cancellation guard.  Write
u = 2^-53 for the unit roundoff, d for the row dimension, a and b for
two centred rows, s = |a|^2 + |b|^2 and D = |a - b|^2 <= 2s.  To first
order in u:

- each norm carries relative error gamma_d ~ d u, so together they are
  off by at most d u s;
- the dot product is off by at most d u |a||b| <= d u s / 2, which the
  factor 2 turns into d u s;
- the sum of the norms and the final subtraction round once each, by at
  most u s and u D <= 2 u s;
- centring rounds each coordinate by at most u of its own size, which
  moves D by at most 2 sqrt(2) u sqrt(s D).

So the expansion is off by at most (2d + 3) u s + 2 sqrt(2) u sqrt(s D).
An entry whose computed value exceeds tau s therefore has relative error
at most (2d + 3) u / tau + 2 sqrt(2) u / sqrt(tau).  The kernel promises
a relative error of at most eps = 1e-12 on every entry, a hundredth of
the 1e-10 to which the ``forms`` suite checks estimator identities.
Taking

    tau(d) = 2 (2d + 3) u / eps

puts the first term at eps / 2, and the second is below eps / 2 whenever
eps >= 16 u / (2d + 3), which holds for every d.  That gives tau = 1.4e-2
at d = 30 and 5.8e-2 at d = 128.  Every entry at or below tau s is
recomputed by explicit subtraction on the original rows, which is also
how exact duplicates come out as exactly 0.

The expansion and its guard apply for d >= 2.  At d = 1 every entry is
the explicit (a_i - b_j)^2 on the original values: the difference and
the square round once each, so an entry is within about 3 u of the
exact distance with no guard, and since a_j - a_i is exactly
-(a_i - a_j), a self-Gram is exactly symmetric with a zero diagonal.

A self-call (``pairwise_sqdist(a, a)`` with the same object twice)
computes the upper block triangle only and mirrors it, so the result is
exactly symmetric with an exactly zero diagonal.  The guard works in row
blocks of about 2^20 entries, so it adds no N x N temporaries.

The numpy estimators do not hold N x N matrices: ``log_gram_blocks``
streams the guarded log-Gram -|a_i - b_j|^2 / 2 sigma^2 in row blocks of
about 2^16 entries through one reused buffer, each block overwritten by
the next, and a self-Gram only over its upper block triangle.  The block
body is the same code as ``pairwise_sqdist``'s (``_Operands.rows``), so
the guard exists once; the values agree with ``log_gram`` up to the
regrouping of the GEMM.

``logsumexp`` is the max-shifted log-domain sum behind every estimator
that must not underflow at small kernel widths; ``block_logsumexp`` is
its in-place form for one streamed block.  A self-Gram needs no shift:
each row's largest entry is its diagonal, exp(0) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidKernelError

# Unit roundoff of float64 and the relative error promised per distance.
_UNIT_ROUNDOFF = 2.0**-53
_DIST_REL_TOL = 1e-12
# Entries per row block of the expansion and its guard.
_BLOCK_ENTRIES = 1 << 20
# Entries per block streamed by log_gram_blocks: 512 KB, which stays in
# a core's L2 cache while a reduction makes its passes over the block.
_STREAM_ENTRIES = 1 << 16


@dataclass(frozen=True)
class KernelSpec:
    """Width of the Gaussian kernel exp(-|x - x'|^2 / 2 sigma^2)."""

    sigma: float = 1.0

    def __post_init__(self):
        check_width(self.sigma)


def check_width(sigma: float) -> float:
    """Validate a kernel width, returning it as a float."""
    sigma = float(sigma)
    if not np.isfinite(sigma) or sigma <= 0.0:
        raise InvalidKernelError(f"kernel width must be positive, got {sigma}")
    return sigma


def as_sample_matrix(a, name: str = "samples") -> np.ndarray:
    """Coerce to a 2-D float64 array with finite entries."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionError(f"{name} must be a nonempty 2-D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionError(f"{name} contains non-finite entries")
    return a


def guard_ratio(d: int) -> float:
    """The cancellation threshold tau(d) derived in the module docstring."""
    return 2.0 * (2 * d + 3) * _UNIT_ROUNDOFF / _DIST_REL_TOL


class _Operands:
    """Rows of a and b centred by their shared column mean, with squared norms.

    Holds what every row block of the guarded expansion reads; ``same``
    records a self-call (the same object passed twice).
    """

    def __init__(self, a, b):
        self.same = a is b
        a = as_sample_matrix(a, "a")
        b = a if self.same else as_sample_matrix(b, "b")
        if a.shape[1] != b.shape[1]:
            raise DimensionError(
                f"dimension mismatch: a has {a.shape[1]} columns, b has {b.shape[1]}"
            )
        n, d = a.shape
        m = b.shape[0]
        mean = (a.sum(axis=0) + b.sum(axis=0)) / (n + m)
        self.a, self.b = a, b
        self.ac = a - mean
        self.bc = self.ac if self.same else b - mean
        self.sq_a = np.einsum("ij,ij->i", self.ac, self.ac)
        self.sq_b = self.sq_a if self.same else np.einsum("ij,ij->i", self.bc, self.bc)
        self.tau = guard_ratio(d)

    def rows(self, start: int, stop: int, lo: int, dist=None, norms=None) -> np.ndarray:
        """Guarded squared distances of a[start:stop] to b[lo:] (explicit at d = 1).

        Writes into ``dist`` and uses ``norms`` as scratch when they are
        given (both of the block's shape).  In a self-call the entries
        on the diagonal of the full matrix are left to the caller.
        """
        width = self.b.shape[0] - lo
        if dist is None:
            dist = np.empty((stop - start, width))
            norms = np.empty((stop - start, width))
        if self.a.shape[1] == 1:
            np.subtract(self.a[start:stop], self.b[lo:].T, out=dist)
            return np.square(dist, out=dist)
        np.add(self.sq_a[start:stop, None], self.sq_b[None, lo:], out=norms)
        np.matmul(self.ac[start:stop], self.bc[lo:].T, out=dist)
        dist *= -2.0
        dist += norms
        norms *= self.tau
        suspect = dist <= norms
        if self.same:
            np.fill_diagonal(suspect[:, start - lo :], False)
        if suspect.any():
            rows, cols = np.divmod(np.flatnonzero(suspect), width)
            step = max(1, _BLOCK_ENTRIES // self.a.shape[1])
            for k in range(0, rows.size, step):
                r, c = rows[k : k + step], cols[k : k + step]
                diff = self.a[start + r] - self.b[lo + c]
                dist[r, c] = np.einsum("ij,ij->i", diff, diff)
        return dist


def pairwise_sqdist(a, b) -> np.ndarray:
    """Matrix of squared Euclidean distances between rows of a and b.

    GEMM expansion with the cancellation guard described in the module
    docstring; passing the same object twice gives an exactly symmetric
    result with a zero diagonal.
    """
    ops = _Operands(a, b)
    same = ops.same
    n, m = ops.a.shape[0], ops.b.shape[0]
    out = np.empty((n, m))
    block = max(1, _BLOCK_ENTRIES // m)
    for start in range(0, n, block):
        stop = min(start + block, n)
        lo = start if same else 0  # a self-call fills the upper block triangle
        dist = ops.rows(start, stop, lo)
        if same:
            square = dist[:, : stop - start]
            np.copyto(square, square.T, where=np.tri(stop - start, k=-1, dtype=bool))
            np.fill_diagonal(square, 0.0)
            out[stop:, start:stop] = dist[:, stop - start :].T
        out[start:stop, lo:] = dist
    return out


def log_gram_blocks(a, b=None, sigma: float = 1.0):
    """Stream the log-domain Gram matrix -|a_i - b_j|^2 / 2 sigma^2 by row blocks.

    Yields ``(start, stop, block)``: ``block`` holds rows ``start:stop``
    against the columns ``lo:``.  With ``b`` given, ``lo = 0``.  With
    ``b=None`` the matrix is a's symmetric self-Gram and only its upper
    block triangle is streamed: ``lo = start``, the first
    ``stop - start`` columns of a block are its whole diagonal square,
    and the entries right of that square stand for their mirror images
    below the diagonal too (see :func:`fold_self_rows`).  Whenever the
    two sides are the same rows, the diagonal is exactly zero.

    The entries are those of :func:`log_gram` up to the regrouping of
    the GEMM, and carry the same cancellation guard.  Every block is a
    view of one buffer of about ``_STREAM_ENTRIES`` entries, small
    enough to stay in cache: the next block overwrites it, so reduce a
    block (in place, if that helps) before advancing.
    """
    scale = -0.5 / check_width(sigma) ** 2
    upper = b is None
    ops = _Operands(a, a if upper else b)
    n, m = ops.a.shape[0], ops.b.shape[0]
    rows = max(1, _STREAM_ENTRIES // m)
    dist_buf = np.empty(min(rows, n) * m)
    norms_buf = np.empty_like(dist_buf)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        lo = start if upper else 0
        size = (stop - start) * (m - lo)
        block = dist_buf[:size].reshape(stop - start, m - lo)
        ops.rows(start, stop, lo, block, norms_buf[:size].reshape(block.shape))
        if ops.same:
            np.fill_diagonal(block[:, start - lo :], 0.0)
        block *= scale
        yield start, stop, block


def fold_self_rows(row_sums: np.ndarray, block: np.ndarray, start: int, stop: int) -> None:
    """Add one upper-triangle block of a symmetric matrix to its row sums.

    ``block`` covers rows ``start:stop`` and columns ``start:``, as
    :func:`log_gram_blocks` yields them without ``b`` (after any
    elementwise map such as ``exp``); its entries right of the diagonal
    square are also the entries of rows ``stop:`` left of the diagonal.
    """
    row_sums[start:stop] += block.sum(axis=1)
    row_sums[stop:] += block[:, stop - start :].sum(axis=0)


def self_gram_row_sums(a, sigma: float = 1.0) -> np.ndarray:
    """Row sums of the Gaussian Gram matrix of a with itself, streamed.

    Each row holds its diagonal entry exp(0) = 1 as its largest term, so
    these linear-space sums are what a max-shifted log-sum-exp would
    give: no row sum is below 1, whatever the width.
    """
    for start, stop, block in log_gram_blocks(a, sigma=sigma):
        if start == 0:
            row_sums = np.zeros(block.shape[1])
        np.exp(block, out=block)
        fold_self_rows(row_sums, block, start, stop)
    return row_sums


def block_logsumexp(block: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted log-sum-exp of a block of finite entries along ``axis``.

    Overwrites the block.
    """
    shift = block.max(axis=axis, keepdims=True)
    block -= shift
    np.exp(block, out=block)
    return np.log(block.sum(axis=axis)) + np.squeeze(shift, axis=axis)


def gram(a, b, sigma: float = 1.0) -> np.ndarray:
    """Gaussian Gram matrix exp(-|a_i - b_j|^2 / 2 sigma^2)."""
    sigma = check_width(sigma)
    return np.exp(pairwise_sqdist(a, b) * (-0.5 / sigma**2))


def log_gram(a, b, sigma: float = 1.0) -> np.ndarray:
    """Log-domain Gram matrix, -|a_i - b_j|^2 / 2 sigma^2.

    Used by log-sum-exp aggregation paths where the linear-space entries
    would underflow.
    """
    sigma = check_width(sigma)
    return pairwise_sqdist(a, b) * (-0.5 / sigma**2)


def logsumexp(x, axis=None):
    """log(sum(exp(x))) over all entries, or along ``axis``.

    Shifted by the maximum so no term overflows and the largest one is
    exactly 1; a sum over entries that are all -inf is -inf.
    """
    x = np.asarray(x, dtype=np.float64)
    shift = np.max(x, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    terms = x - shift
    np.exp(terms, out=terms)
    with np.errstate(divide="ignore"):
        total = np.log(np.sum(terms, axis=axis, keepdims=True))
    total += shift
    return np.squeeze(total, axis=axis)[()]
