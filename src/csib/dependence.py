"""Kernel dependence measures: CS-QMI, HSIC, and related quantities.

All values are in nats.  The CS quadratic mutual information between x
and t is the CS divergence between the joint density and the product of
marginals; its estimator aggregates the same Gram matrices HSIC uses,
with a logarithm wrapped around each of the three terms.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError, DimensionError
from .kernels import (
    as_sample_matrix,
    check_width,
    fold_self_rows,
    log_gram_blocks,
    logsumexp,
    self_gram_row_sums,
)

# Self-dependence at or below which an input counts as constant: the
# normalized CS-QMI divides by sqrt(I(x;x) I(t;t)).
_SELF_DEP_TOL = 1e-10


def _paired(x, t):
    x = as_sample_matrix(x, "x")
    t = as_sample_matrix(t, "t")
    if x.shape[0] != t.shape[0]:
        raise DimensionError(
            f"row-count mismatch: x has {x.shape[0]} rows, t has {t.shape[0]}"
        )
    if x.shape[0] < 2:
        raise DimensionError("paired dependence estimators need at least 2 rows")
    return x, t


def _pair_sums(x, t, sigma_x: float, sigma_t: float, entry=np.exp):
    """Aggregates of the paired Grams K (of x) and Q (of t), streamed.

    Returns (sum of K o Q, row sums of K, row sums of Q), with each
    log-Gram entry mapped by ``entry``: ``np.exp`` gives the Grams
    themselves, ``np.expm1`` gives K - 11' and Q - 11' to full relative
    precision.  Both Grams are symmetric, so only their upper block
    triangles are computed.  With ``np.exp`` every row sum is at least
    1 (the unit diagonal): these linear-space sums are what a
    max-shifted log-sum-exp would give, with the diagonal as the shift,
    whatever the widths.
    """
    x, t = _paired(x, t)
    n = x.shape[0]
    row_k, row_q, row_kq = np.zeros(n), np.zeros(n), np.zeros(n)
    blocks = zip(log_gram_blocks(x, sigma=sigma_x), log_gram_blocks(t, sigma=sigma_t))
    for (start, stop, k), (_, _, q) in blocks:
        entry(k, out=k)
        entry(q, out=q)
        fold_self_rows(row_k, k, start, stop)
        fold_self_rows(row_q, q, start, stop)
        k *= q
        fold_self_rows(row_kq, k, start, stop)
    return float(row_kq.sum()), row_k, row_q


def cs_qmi(x, t, sigma_x: float = 1.0, sigma_t: float = 1.0) -> float:
    """CS quadratic mutual information estimate, O(N^2) form.

    log(tr(KQ)/N^2) + log(1'K1 1'Q1 / N^4) - 2 log(1'KQ1 / N^3),
    assembled in the log domain from streamed sums that are all at least
    1, so small widths do not underflow.  No N x N intermediate is
    formed.
    """
    joint, row_k, row_q = _pair_sums(x, t, sigma_x, sigma_t)
    log_n = math.log(row_k.size)
    joint_term = math.log(joint) - 2.0 * log_n
    product = math.log(float(row_k.sum())) + math.log(float(row_q.sum())) - 4.0 * log_n
    cross = float(logsumexp(np.log(row_k) + np.log(row_q))) - 3.0 * log_n
    return joint_term + product - 2.0 * cross


def hsic_biased(x, t, sigma_x: float = 1.0, sigma_t: float = 1.0) -> float:
    """Biased (V-statistic) HSIC estimate, tr(KHQH) / N^2.

    Since H1 = 0, K and Q may be replaced by K - 11' and Q - 11', whose
    entries exp(.) - 1 are small where the kernels are wide.  The streamed
    aggregates of those give
    (sum K'oQ' - 2/N sum_i r_i s_i + (1'K'1)(1'Q'1) / N^2) / N^2, with r
    and s the row sums of K' and Q', and the three terms do not cancel
    beyond the size of K' and Q' themselves.
    """
    joint, row_k, row_q = _pair_sums(x, t, sigma_x, sigma_t, np.expm1)
    n = row_k.size
    cross = float(row_k @ row_q)
    product = float(row_k.sum()) * float(row_q.sum())
    return (joint - 2.0 * cross / n + product / n**2) / n**2


def normalized_cs_qmi(x, t, sigma_x: float = 1.0, sigma_t: float = 1.0) -> float:
    """CS-QMI normalized by the self-dependence terms, in [0, ~1].

    I(x;t) / sqrt(I(x;x) I(t;t)).  A constant input has zero
    self-dependence and raises :class:`DegenerateInputError`.
    """
    i_xx = cs_qmi(x, x, sigma_x, sigma_x)
    i_tt = cs_qmi(t, t, sigma_t, sigma_t)
    if i_xx <= _SELF_DEP_TOL or i_tt <= _SELF_DEP_TOL:
        raise DegenerateInputError(
            "self-dependence is zero (constant input); normalized CS-QMI undefined"
        )
    return cs_qmi(x, t, sigma_x, sigma_t) / math.sqrt(i_xx * i_tt)


def conditional_cs_qmi(
    x,
    t,
    y,
    sigma_x: float = 1.0,
    sigma_t: float = 1.0,
    sigma_y: float = 1.0,
) -> float:
    """Chain-rule conditional CS-QMI, I(x;t) - I(y;t).

    Defined by the arithmetic identity I(x;t) = I(x;t|y) + I(y;t).
    Estimator noise can make the difference slightly negative; the raw
    value is returned and only clamped at reporting layers.
    """
    return cs_qmi(x, t, sigma_x, sigma_t) - cs_qmi(y, t, sigma_y, sigma_t)


def embedding_norms(x, t, sigma_x: float = 1.0, sigma_t: float = 1.0):
    """Norms of the joint and product-of-marginals mean embeddings.

    Logged during training so one can inspect how close the two norms
    are (they coincide exactly in the idealized monotone-link regime).
    """
    joint, row_k, row_q = _pair_sums(x, t, sigma_x, sigma_t)
    n = row_k.size
    product = (float(row_k.sum()) / n**2) * (float(row_q.sum()) / n**2)
    return math.sqrt(joint / n**2), math.sqrt(product)


def nib_kde_bound(t_centers, noise_sigma: float) -> float:
    """KDE upper bound on I(x;t) used by NIB-style objectives.

    -(1/N) sum_i log (1/N) sum_j exp(-|h_i - h_j|^2 / 2 sigma^2).
    Nonnegative because every inner mean lies in (0, 1].
    """
    noise_sigma = check_width(noise_sigma)
    h = as_sample_matrix(t_centers, "t_centers")
    if h.shape[0] < 2:
        raise DimensionError("bound needs at least 2 centers")
    row_log_mean = np.log(self_gram_row_sums(h, noise_sigma)) - math.log(h.shape[0])
    return float(-np.mean(row_log_mean))
