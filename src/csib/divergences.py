"""Cauchy-Schwarz divergence, MMD, and closed-form Gaussian / discrete divergences.

Conventions
-----------
The library's canonical CS divergence follows

    D(p;q) = log(int p^2) + log(int q^2) - 2 log(int pq),

which is what every empirical estimator returns.  The Gaussian closed
form is also available in a "halved" convention (exactly half the value
above); the p/q-symmetric inequality D_CS <= min(KL(p;q), KL(q;p)) is
proved for the halved convention, and the theorem validators test that
one.  ``gaussian_cs`` takes an explicit ``convention`` argument so both
are first-class.

Divergences return float('inf') rather than raising when supports are
numerically disjoint, so Monte Carlo sweeps can count support failures.
Log-of-Gram-mean terms are evaluated with log-sum-exp so small kernel
widths do not underflow before the log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SingularCovError
from .kernels import (
    as_sample_matrix,
    block_logsumexp,
    check_width,
    log_gram,
    log_gram_blocks,
    logsumexp,
    self_gram_row_sums,
)

# Log of the smallest positive (subnormal) double.  A log-mean below
# this corresponds to a Gram mean that underflows to zero in linear
# space: the supports are numerically disjoint at this kernel scale.
_LOG_UNDERFLOW = math.log(math.ulp(0.0))


def _sample_sets(a, b):
    """Both sample matrices, and whether they hold the same rows in order.

    Identical sets make every estimator here exactly 0; the streamed sums
    of the self- and cross-Grams would agree only to rounding.
    """
    a = as_sample_matrix(a, "a")
    b = a if b is a else as_sample_matrix(b, "b")
    return a, b, b is a or (a.shape == b.shape and np.array_equal(a, b))


def _self_mean(a: np.ndarray, sigma: float) -> float:
    """mean K_aa; at least 1/N, since the diagonal entries are 1."""
    return float(self_gram_row_sums(a, sigma).sum()) / a.shape[0] ** 2


def empirical_cs(a, b, sigma: float = 1.0) -> float:
    """KDE estimate of the CS divergence between the samples' densities.

    Returns the canonical (unhalved) value
    log(mean K_aa) + log(mean K_bb) - 2 log(mean K_ab), or inf when the
    cross-Gram mean underflows to zero (numerically disjoint supports),
    and exactly 0 for identical sample sets.  The Grams are streamed
    (:func:`log_gram_blocks`); only the cross-Gram mean can underflow,
    so only it is summed in the log domain, by a max-shifted
    log-sum-exp per row.
    """
    sigma = check_width(sigma)
    a, b, same = _sample_sets(a, b)
    if same:
        return 0.0
    row_lse = [block_logsumexp(block, axis=1) for _, _, block in log_gram_blocks(a, b, sigma)]
    log_cross = float(logsumexp(np.concatenate(row_lse))) - math.log(a.shape[0] * b.shape[0])
    if log_cross < _LOG_UNDERFLOW:
        return math.inf
    return math.log(_self_mean(a, sigma)) + math.log(_self_mean(b, sigma)) - 2.0 * log_cross


def empirical_cs_embedding_form(a, b, sigma: float = 1.0) -> float:
    """Same divergence as the cosine between kernel mean embeddings.

    Computes -2 log(<mu_a, mu_b> / (|mu_a| |mu_b|)) from linear-space
    Gram aggregates; agrees with :func:`empirical_cs` up to floating
    point regrouping, and shares its underflow contract.
    """
    sigma = check_width(sigma)
    self_a = float(np.mean(np.exp(log_gram(a, a, sigma))))  # |mu_a|^2
    self_b = float(np.mean(np.exp(log_gram(b, b, sigma))))  # |mu_b|^2
    cross = float(np.mean(np.exp(log_gram(a, b, sigma))))  # <mu_a, mu_b>
    if cross <= 0.0:
        return math.inf
    return -2.0 * math.log(cross / math.sqrt(self_a * self_b))


def empirical_mmd_sq(a, b, sigma: float = 1.0) -> float:
    """Biased squared MMD between the two sample sets, from streamed Grams.

    Exactly 0 for identical sample sets.
    """
    sigma = check_width(sigma)
    a, b, same = _sample_sets(a, b)
    if same:
        return 0.0
    cross = 0.0
    for _, _, block in log_gram_blocks(a, b, sigma):
        cross += float(np.exp(block, out=block).sum())
    cross /= a.shape[0] * b.shape[0]
    return _self_mean(a, sigma) + _self_mean(b, sigma) - 2.0 * cross


@dataclass(frozen=True)
class GaussianParams:
    """Mean vector and positive-definite covariance of a Gaussian."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=np.float64))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise DimensionError(f"cov shape {cov.shape} does not match mean length {d}")
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise SingularCovError("covariance must be symmetric")
        if np.min(np.linalg.eigvalsh(cov)) <= 1e-10:
            raise SingularCovError("covariance must be positive definite")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def _logdet(m: np.ndarray) -> float:
    sign, val = np.linalg.slogdet(m)
    if sign <= 0:
        raise SingularCovError("matrix has non-positive determinant")
    return float(val)


def gaussian_cs(p: GaussianParams, q: GaussianParams, convention: str = "eq10") -> float:
    """Closed-form CS divergence between two Gaussians.

    ``halved`` returns
    1/2 (mu2-mu1)^T (S1+S2)^-1 (mu2-mu1) + 1/2 ln(|S1+S2| / (2^d sqrt(|S1||S2|)));
    ``eq10`` returns exactly twice that (the library's canonical value).
    """
    if convention not in ("eq10", "halved"):
        raise ValueError(f"unknown convention {convention!r}")
    if p.dim != q.dim:
        raise DimensionError(f"dimension mismatch: {p.dim} vs {q.dim}")
    total = p.cov + q.cov
    diff = q.mean - p.mean
    try:
        solved = np.linalg.solve(total, diff)
    except np.linalg.LinAlgError as exc:
        raise SingularCovError("Sigma1 + Sigma2 is singular") from exc
    quad = float(diff @ solved)
    logdet_term = _logdet(total) - p.dim * math.log(2.0) - 0.5 * (
        _logdet(p.cov) + _logdet(q.cov)
    )
    halved = 0.5 * quad + 0.5 * logdet_term
    return halved if convention == "halved" else 2.0 * halved


def gaussian_kl(p: GaussianParams, q: GaussianParams) -> float:
    """Closed-form KL divergence KL(p; q) between two Gaussians."""
    if p.dim != q.dim:
        raise DimensionError(f"dimension mismatch: {p.dim} vs {q.dim}")
    try:
        inv_q_p = np.linalg.solve(q.cov, p.cov)
        diff = q.mean - p.mean
        quad = float(diff @ np.linalg.solve(q.cov, diff))
    except np.linalg.LinAlgError as exc:
        raise SingularCovError("Sigma2 is singular") from exc
    trace = float(np.trace(inv_q_p))
    return 0.5 * (trace - p.dim + quad + _logdet(q.cov) - _logdet(p.cov))


@dataclass(frozen=True)
class DiscreteDist:
    """Probability vector on a finite set."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.atleast_1d(np.asarray(self.probs, dtype=np.float64))
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 1 or probs.size < 1:
            raise DimensionError("probs must be a nonempty vector")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities must sum to 1, got {probs.sum()!r}")

    @classmethod
    def from_weights(cls, weights) -> "DiscreteDist":
        w = np.asarray(weights, dtype=np.float64)
        total = float(w.sum())
        if total <= 0:
            raise ValueError("weights must have positive sum")
        return cls(w / total)


def cosine_divergence(u, v) -> float:
    """-log of the cosine between two nonnegative weight vectors.

    This is the discrete CS divergence at the formula level; it is
    invariant to rescaling either argument by a positive constant.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionError(f"shape mismatch: {u.shape} vs {v.shape}")
    cross = float(u @ v)
    if cross <= 0.0:
        return math.inf
    return -math.log(cross / math.sqrt(float(u @ u) * float(v @ v)))


def discrete_cs(p: DiscreteDist, q: DiscreteDist) -> float:
    """CS divergence between two discrete distributions; inf on disjoint support."""
    if p.probs.shape != q.probs.shape:
        raise DimensionError("distributions live on sets of different size")
    return cosine_divergence(p.probs, q.probs)


def discrete_kl(p: DiscreteDist, q: DiscreteDist) -> float:
    """KL divergence sum p_i ln(p_i / q_i), with 0 ln(0/.) = 0; inf if p escapes q."""
    if p.probs.shape != q.probs.shape:
        raise DimensionError("distributions live on sets of different size")
    pp, qq = p.probs, q.probs
    support = pp > 0
    if np.any(qq[support] == 0):
        return math.inf
    return float(np.sum(pp[support] * np.log(pp[support] / qq[support])))
