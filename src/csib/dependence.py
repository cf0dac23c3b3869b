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
from .kernels import as_sample_matrix, check_width, gram, log_gram, logsumexp

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


def cs_qmi_from_log_grams(log_k: np.ndarray, log_q: np.ndarray) -> float:
    """CS-QMI from precomputed log-domain Gram matrices.

    Split out so callers evaluating several dependence values on the
    same samples (e.g. normalized CS-QMI) can share the Gram work.
    """
    n = log_k.shape[0]
    log_n = math.log(n)
    joint = float(logsumexp(log_k + log_q)) - 2.0 * log_n
    product = float(logsumexp(log_k)) + float(logsumexp(log_q)) - 4.0 * log_n
    row_k = logsumexp(log_k, axis=1)
    row_q = logsumexp(log_q, axis=1)
    cross = float(logsumexp(row_k + row_q)) - 3.0 * log_n
    return joint + product - 2.0 * cross


def cs_qmi(x, t, sigma_x: float = 1.0, sigma_t: float = 1.0) -> float:
    """CS quadratic mutual information estimate, O(N^2) form.

    log(tr(KQ)/N^2) + log(1'K1 1'Q1 / N^4) - 2 log(1'KQ1 / N^3),
    evaluated in the log domain so small widths do not underflow.
    No N^3 intermediate is formed.
    """
    x, t = _paired(x, t)
    return cs_qmi_from_log_grams(log_gram(x, x, sigma_x), log_gram(t, t, sigma_t))


def hsic_biased(x, t, sigma_x: float = 1.0, sigma_t: float = 1.0) -> float:
    """Biased (V-statistic) HSIC estimate, tr(KHQH) / N^2."""
    x, t = _paired(x, t)
    n = x.shape[0]
    k = gram(x, x, sigma_x)
    q = gram(t, t, sigma_t)
    # HKH without materializing H = I - 11'/N.
    k_centered = k - k.mean(axis=1, keepdims=True) - k.mean(axis=0, keepdims=True) + k.mean()
    return float(np.sum(k_centered * q)) / n**2


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
    x, t = _paired(x, t)
    k = gram(x, x, sigma_x)
    q = gram(t, t, sigma_t)
    joint = math.sqrt(float(np.mean(k * q)))
    product = math.sqrt(float(np.mean(k)) * float(np.mean(q)))
    return joint, product


def nib_kde_bound(t_centers, noise_sigma: float) -> float:
    """KDE upper bound on I(x;t) used by NIB-style objectives.

    -(1/N) sum_i log (1/N) sum_j exp(-|h_i - h_j|^2 / 2 sigma^2).
    Nonnegative because every inner mean lies in (0, 1].
    """
    noise_sigma = check_width(noise_sigma)
    h = as_sample_matrix(t_centers, "t_centers")
    if h.shape[0] < 2:
        raise DimensionError("bound needs at least 2 centers")
    log_k = log_gram(h, h, noise_sigma)
    row_log_mean = logsumexp(log_k, axis=1) - math.log(h.shape[0])
    return float(-np.mean(row_log_mean))
