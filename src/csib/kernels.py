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
eps >= 16 u / (2d + 3), which holds for every d.  That gives tau = 1.1e-3
at d = 1, 1.4e-2 at d = 30 and 5.8e-2 at d = 128.  Every entry at or
below tau s is recomputed by explicit subtraction on the original rows,
which is also how exact duplicates come out as exactly 0.

A self-call (``pairwise_sqdist(a, a)`` with the same object twice)
computes the upper block triangle only and mirrors it, so the result is
exactly symmetric with an exactly zero diagonal.  The guard works in row
blocks of about 2^20 entries, so it adds no N x N temporaries.

``logsumexp`` is the max-shifted log-domain sum behind every estimator
that must not underflow at small kernel widths.
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


def pairwise_sqdist(a, b) -> np.ndarray:
    """Matrix of squared Euclidean distances between rows of a and b.

    GEMM expansion with the cancellation guard described in the module
    docstring; passing the same object twice gives an exactly symmetric
    result with a zero diagonal.
    """
    same = a is b
    a = as_sample_matrix(a, "a")
    b = a if same else as_sample_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise DimensionError(
            f"dimension mismatch: a has {a.shape[1]} columns, b has {b.shape[1]}"
        )
    n, d = a.shape
    m = b.shape[0]
    mean = (a.sum(axis=0) + b.sum(axis=0)) / (n + m)
    ac = a - mean
    bc = ac if same else b - mean
    sq_a = np.einsum("ij,ij->i", ac, ac)
    sq_b = sq_a if same else np.einsum("ij,ij->i", bc, bc)
    tau = guard_ratio(d)
    out = np.empty((n, m))
    block = max(1, _BLOCK_ENTRIES // m)
    for start in range(0, n, block):
        stop = min(start + block, n)
        lo = start if same else 0  # a self-call fills the upper block triangle
        norms = np.add.outer(sq_a[start:stop], sq_b[lo:])
        dist = ac[start:stop] @ bc[lo:].T
        dist *= -2.0
        dist += norms
        norms *= tau
        suspect = dist <= norms
        if same:
            np.fill_diagonal(suspect, False)
        if suspect.any():
            rows, cols = np.nonzero(suspect)
            step = max(1, _BLOCK_ENTRIES // d)
            for k in range(0, rows.size, step):
                r, c = rows[k : k + step], cols[k : k + step]
                diff = a[start + r] - b[lo + c]
                dist[r, c] = np.einsum("ij,ij->i", diff, diff)
        if same:
            square = dist[:, : stop - start]
            np.copyto(square, square.T, where=np.tri(stop - start, k=-1, dtype=bool))
            np.fill_diagonal(square, 0.0)
            out[stop:, start:stop] = dist[:, stop - start :].T
        out[start:stop, lo:] = dist
    return out


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
