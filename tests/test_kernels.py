import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from csib import kernels
from csib.errors import DimensionError, InvalidKernelError
from csib import conditional
from csib.conditional import PredictionBatch, conditional_cs, conditional_mmd
from csib.dependence import cs_qmi, hsic_biased, nib_kde_bound
from csib.divergences import empirical_cs, empirical_cs_embedding_form, empirical_mmd_sq
from csib.kernels import (
    KernelSpec,
    block_logsumexp,
    check_width,
    gram,
    guard_ratio,
    log_gram,
    log_gram_blocks,
    logsumexp,
    pairwise_sqdist,
    self_gram_row_sums,
)
from csib.oracle import (
    naive_conditional_cs,
    naive_conditional_mmd,
    naive_cs_qmi,
    naive_hsic,
    naive_mmd_sq,
    naive_nib_bound,
    naive_pairwise_sqdist,
)

# Twice the per-entry relative error the guarded expansion promises.
DIST_RTOL = 2.0 * kernels._DIST_REL_TOL


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


class TestPairwiseSqdist:
    def test_two_points_hand(self):
        a = np.array([[0.0], [1.0]])
        np.testing.assert_allclose(pairwise_sqdist(a, a), [[0.0, 1.0], [1.0, 0.0]])

    def test_single_pair_hand(self):
        out = pairwise_sqdist([[1.0, 1.0]], [[0.0, 0.0]])
        np.testing.assert_allclose(out, [[2.0]])

    def test_matches_naive_loop(self):
        a, b = rand((5, 3), 0), rand((7, 3), 1)
        np.testing.assert_allclose(pairwise_sqdist(a, b), naive_pairwise_sqdist(a, b), atol=1e-12)

    def test_blocked_path_matches_naive(self):
        # wide rows force the row-blocked branch
        a = rand((40, 60), 2)
        np.testing.assert_allclose(pairwise_sqdist(a, a), naive_pairwise_sqdist(a, a), atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            pairwise_sqdist(rand((3, 2), 0), rand((3, 4), 1))

    def test_rejects_nonfinite(self):
        bad = np.array([[np.nan, 0.0]])
        with pytest.raises(DimensionError):
            pairwise_sqdist(bad, bad)


class TestGuardedExpansion:
    def test_guard_ratio_values(self):
        # tau(d) = 2 (2d + 3) u / 1e-12, u = 2^-53
        assert guard_ratio(1) == pytest.approx(1.110e-3, rel=1e-3)
        assert guard_ratio(30) == pytest.approx(1.399e-2, rel=1e-3)
        assert guard_ratio(128) == pytest.approx(5.751e-2, rel=1e-3)

    def test_self_call_symmetric_zero_diagonal(self):
        a = rand((50, 7), 8) * 1e3 + 5.0
        out = pairwise_sqdist(a, a)
        assert np.array_equal(out, out.T)
        assert np.all(np.diag(out) == 0.0)

    def test_row_blocks_match_single_block(self, monkeypatch):
        a, b = rand((37, 5), 9), rand((23, 5), 10)
        a[5] = a[3]  # an exact duplicate goes through the guard
        whole_self, whole_cross = pairwise_sqdist(a, a), pairwise_sqdist(a, b)
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 40)
        blocked_self = pairwise_sqdist(a, a)
        np.testing.assert_allclose(blocked_self, whole_self, rtol=DIST_RTOL, atol=0)
        assert np.array_equal(blocked_self, blocked_self.T)
        assert np.all(np.diag(blocked_self) == 0.0) and blocked_self[3, 5] == 0.0
        np.testing.assert_allclose(pairwise_sqdist(a, b), whole_cross, rtol=DIST_RTOL, atol=0)

    def test_one_dimensional_rows_are_explicit_differences(self):
        # y = sin(.) puts many entries below the d >= 2 guard's threshold.
        a, b = np.sin(rand((300, 1), 11)), np.sin(rand((200, 1), 12))
        assert np.array_equal(pairwise_sqdist(a, b), (a - b.T) ** 2)
        assert np.array_equal(pairwise_sqdist(a, a), (a - a.T) ** 2)


def _assert_matches_naive(a, b):
    out = pairwise_sqdist(a, b)
    np.testing.assert_allclose(out, naive_pairwise_sqdist(a, b), rtol=DIST_RTOL, atol=0)
    return out


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), d=st.integers(1, 5), seed=st.integers(0, 1000),
       offset=st.sampled_from([0.0, 1e6, -1e6]))
def test_near_duplicate_rows(n, d, seed, offset):
    base = rand((n, d), seed) + offset
    near = base + 1e-7 * rand((n, d), seed + 1)
    rows = np.vstack([base, near])
    _assert_matches_naive(rows, rows)
    _assert_matches_naive(base, near)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 16), m=st.integers(1, 16), d=st.integers(1, 5),
       seed=st.integers(0, 1000))
def test_common_offset(n, m, d, seed):
    a = rand((n, d), seed) + 1e6
    b = rand((m, d), seed + 1) + 1e6
    _assert_matches_naive(a, b)
    _assert_matches_naive(a, a)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 20), d=st.integers(1, 5), seed=st.integers(0, 1000))
def test_row_scales_span_twelve_decades(n, d, seed):
    scales = 10.0 ** np.random.default_rng(seed).uniform(-6.0, 6.0, (n, 1))
    a = rand((n, d), seed + 1) * scales
    b = rand((n, d), seed + 2) * scales[::-1]
    _assert_matches_naive(a, a)
    _assert_matches_naive(a, b)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 30), m=st.integers(1, 30), seed=st.integers(0, 1000),
       spread=st.floats(1e-6, 1e6))
def test_one_dimensional_rows(n, m, seed, spread):
    a = rand((n, 1), seed) * spread + 3.0
    b = rand((m, 1), seed + 1) * spread + 3.0
    _assert_matches_naive(a, b)
    _assert_matches_naive(a, a)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 30), d=st.integers(1, 6), seed=st.integers(0, 1000),
       scale=st.floats(1e-6, 1e6), offset=st.floats(-1e6, 1e6))
def test_self_call_exact_symmetry(n, d, seed, scale, offset):
    a = rand((n, d), seed) * scale + offset
    out = _assert_matches_naive(a, a)
    assert np.array_equal(out, out.T)
    assert np.all(np.diag(out) == 0.0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 30), d=st.integers(1, 6), seed=st.integers(0, 1000),
       scale=st.floats(1e-6, 1e6), offset=st.floats(-1e6, 1e6))
def test_against_copy(n, d, seed, scale, offset):
    a = rand((n, d), seed) * scale + offset
    out = _assert_matches_naive(a, a.copy())
    assert np.all(np.diag(out) == 0.0)


class TestLogsumexp:
    def test_single_entry(self):
        assert logsumexp(np.array([[-3.5]])) == -3.5
        np.testing.assert_array_equal(logsumexp(np.array([[-3.5]]), axis=1), [-3.5])

    def test_all_negative_infinity(self):
        assert logsumexp(np.full((3, 4), -np.inf)) == -np.inf
        np.testing.assert_array_equal(logsumexp(np.full((3, 4), -np.inf), axis=1), [-np.inf] * 3)

    def test_no_overflow(self):
        assert logsumexp(np.array([1000.0, 1000.0])) == pytest.approx(1000.0 + np.log(2.0))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), m=st.integers(1, 12), seed=st.integers(0, 1000),
       scale=st.floats(1e-3, 1e3), dead_rows=st.integers(0, 3))
def test_logsumexp_matches_scipy(n, m, seed, scale, dead_rows):
    x = rand((n, m), seed) * scale - scale
    x[: min(dead_rows, n)] = -np.inf
    for axis in (None, 1):
        np.testing.assert_allclose(logsumexp(x, axis=axis), scipy_logsumexp(x, axis=axis),
                                   rtol=1e-13, atol=1e-13)


def _streamed(a, b, sigma):
    """The full matrix reassembled from log_gram_blocks, and the blocks' buffers."""
    n, m = len(a), len(a) if b is None else len(b)
    out = np.full((n, m), np.nan)
    bases = set()
    for start, stop, block in log_gram_blocks(a, b, sigma):
        bases.add(id(block.base))
        if b is None:
            out[start:stop, start:] = block
            out[stop:, start:stop] = block[:, stop - start :].T
        else:
            out[start:stop] = block
    return out, bases


def _set_block_rows(monkeypatch, rows, width):
    monkeypatch.setattr(kernels, "_STREAM_ENTRIES", rows * width)


# One row per block, an odd count that leaves a short last block, and
# one block holding every row.
BLOCK_ROWS = (1, 3, 1000)


class TestLogGramBlocks:
    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    @pytest.mark.parametrize("sigma", [0.8, 0.01])
    def test_blocks_match_materialized(self, monkeypatch, rows, sigma):
        a, b = rand((23, 4), 11), rand((17, 4), 12)
        a[7] = a[2]  # an exact duplicate goes through the guard
        whole_self, whole_cross = log_gram(a, a, sigma), log_gram(a, b, sigma)
        _set_block_rows(monkeypatch, rows, 23)
        upper, bases = _streamed(a, None, sigma)
        full, _ = _streamed(a, a, sigma)
        assert len(bases) == 1  # every block is a view of one buffer
        for out in (upper, full):
            np.testing.assert_allclose(out, whole_self, rtol=DIST_RTOL, atol=0)
            assert np.all(np.diag(out) == 0.0) and out[2, 7] == 0.0 and out[7, 2] == 0.0
        assert np.array_equal(upper, upper.T)
        _set_block_rows(monkeypatch, rows, 17)
        cross, _ = _streamed(a, b, sigma)
        np.testing.assert_allclose(cross, whole_cross, rtol=DIST_RTOL, atol=0)

    @pytest.mark.parametrize("rows", BLOCK_ROWS)
    @pytest.mark.parametrize("sigma", [0.8, 0.01])
    def test_reductions_match_logsumexp(self, monkeypatch, rows, sigma):
        a, b = rand((23, 4), 13), rand((17, 4), 14) + 0.5
        whole_self, whole_cross = log_gram(a, a, sigma), log_gram(a, b, sigma)
        _set_block_rows(monkeypatch, rows, 23)
        row_sums = self_gram_row_sums(a, sigma)
        np.testing.assert_allclose(np.log(row_sums), logsumexp(whole_self, axis=1),
                                   rtol=1e-13, atol=1e-14)
        _set_block_rows(monkeypatch, rows, 17)
        cross_rows = np.concatenate(
            [block_logsumexp(block, axis=1) for _, _, block in log_gram_blocks(a, b, sigma)]
        )
        np.testing.assert_allclose(cross_rows, logsumexp(whole_cross, axis=1),
                                   rtol=1e-13, atol=1e-14)
        if sigma < 0.1:
            # Linear-space sums underflow here; the log-domain ones do not.
            assert np.all(np.exp(whole_cross).sum(axis=1) == 0.0)
            assert np.all(np.isfinite(cross_rows)) and np.all(row_sums >= 1.0)

    def test_columns_of_a_block(self):
        block = rand((5, 9), 15) * 30.0 - 400.0
        expected = logsumexp(block, axis=0)
        np.testing.assert_allclose(block_logsumexp(block.copy(), axis=0), expected, rtol=1e-14)


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


@pytest.mark.parametrize("rows", BLOCK_ROWS)
def test_estimators_independent_of_block_rows(monkeypatch, rows):
    """Every streamed estimator against its materialized or naive form."""
    n = 13
    gen = np.random.default_rng(16)
    a, b = gen.standard_normal((n, 3)), gen.standard_normal((n, 3)) + 0.4
    t = 0.6 * a + 0.4 * gen.standard_normal((n, 3))
    y = gen.standard_normal((n, 1))
    y_hat = y + 0.3 * gen.standard_normal((n, 1))
    batch = PredictionBatch(a, y, y_hat)
    _set_block_rows(monkeypatch, rows, n)
    monkeypatch.setattr(conditional, "_PANEL_ROWS", 2)  # several panels of A^2
    pairs = (
        (empirical_cs(a, b, 0.9), empirical_cs_embedding_form(a, b, 0.9)),
        (empirical_mmd_sq(a, b, 0.9), naive_mmd_sq(a, b, 0.9)),
        (cs_qmi(a, t, 0.9, 1.1), naive_cs_qmi(a, t, 0.9, 1.1)),
        (hsic_biased(a, t, 0.9, 1.1), naive_hsic(a, t, 0.9, 1.1)),
        (nib_kde_bound(a, 0.7), naive_nib_bound(a, 0.7)),
        (conditional_cs(batch, 0.9, 0.6), naive_conditional_cs(a, y, y_hat, 0.9, 0.6)),
        (conditional_mmd(batch, 0.9, 0.6, 0.1), naive_conditional_mmd(a, y, y_hat, 0.9, 0.6, 0.1)),
    )
    for fast, reference in pairs:
        assert _rel(fast, reference) <= 1e-10


class TestGram:
    def test_identical_point_unity(self):
        x = np.array([[0.3, -1.2]])
        assert gram(x, x, 5.0)[0, 0] == 1.0

    def test_known_decay(self):
        # squared distance 2 sigma^2 -> exp(-1)
        sigma = 0.7
        a = np.array([[0.0]])
        b = np.array([[np.sqrt(2.0) * sigma]])
        np.testing.assert_allclose(gram(a, b, sigma), [[np.exp(-1.0)]], rtol=1e-12)

    def test_zero_width_rejected(self):
        x = rand((3, 2), 0)
        with pytest.raises(InvalidKernelError):
            gram(x, x, 0.0)
        with pytest.raises(InvalidKernelError):
            gram(x, x, -1.0)
        with pytest.raises(InvalidKernelError):
            KernelSpec(0.0)

    def test_check_width_passthrough(self):
        assert check_width(2.5) == 2.5

    def test_transpose_symmetry(self):
        a, b = rand((6, 3), 3), rand((4, 3), 4)
        np.testing.assert_allclose(gram(a, b, 0.8), gram(b, a, 0.8).T, atol=1e-12)

    def test_log_gram_consistent(self):
        a, b = rand((5, 2), 5), rand((6, 2), 6)
        np.testing.assert_allclose(np.exp(log_gram(a, b, 1.3)), gram(a, b, 1.3), rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 12),
    d=st.integers(1, 4),
    sigma=st.floats(0.1, 5.0),
    seed=st.integers(0, 1000),
)
def test_gram_entries_in_unit_interval(n, d, sigma, seed):
    x = rand((n, d), seed)
    # entries are exp of this; stay inside the float64-representable band
    # (beyond it they flush to exactly 0, which the inf-flag paths own)
    assume(pairwise_sqdist(x, x).max() / (2.0 * sigma**2) < 700.0)
    k = gram(x, x, sigma)
    assert np.all(k > 0.0) and np.all(k <= 1.0)
    np.testing.assert_allclose(np.diag(k), 1.0)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 10), d=st.integers(1, 3), seed=st.integers(0, 1000))
def test_gram_psd_rayleigh(n, d, seed):
    x = rand((n, d), seed)
    k = gram(x, x, 1.0)
    vectors = rand((8, n), seed + 1)
    for v in vectors:
        assert v @ k @ v >= -1e-10


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 1000),
    wide=st.floats(0.5, 3.0),
    shrink=st.floats(0.05, 0.95),
)
def test_shrinking_width_decreases_offdiagonal(n, seed, wide, shrink):
    x = rand((n, 2), seed)
    k_wide = gram(x, x, wide)
    k_narrow = gram(x, x, wide * shrink)
    off = ~np.eye(n, dtype=bool)
    assert np.all(k_narrow[off] <= k_wide[off] + 1e-15)
