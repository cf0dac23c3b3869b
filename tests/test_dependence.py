import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csib.dependence import (
    conditional_cs_qmi,
    cs_qmi,
    embedding_norms,
    hsic_biased,
    nib_kde_bound,
    normalized_cs_qmi,
)
from csib.divergences import empirical_cs
from csib.errors import CostGuardError, DegenerateInputError, DimensionError, InvalidKernelError
from csib.oracle import naive_cs_qmi, naive_hsic, naive_nib_bound


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def dependent_pair(n, d, seed, mix=0.5):
    x = rand((n, d), seed)
    t = mix * x + (1 - mix) * rand((n, d), seed + 10_000)
    return x, t


class TestCsQmi:
    def test_constant_t_zero(self):
        x = rand((8, 2), 0)
        t = np.ones((8, 1))
        assert abs(cs_qmi(x, t)) < 1e-12

    def test_matches_naive_sums(self):
        x, t = dependent_pair(8, 2, 1)
        fast = cs_qmi(x, t, 0.9, 1.1)
        slow = naive_cs_qmi(x, t, 0.9, 1.1)
        assert abs(fast - slow) <= 1e-10 * max(1.0, abs(slow))

    def test_self_dependence_positive(self):
        x = rand((10, 3), 2)
        assert cs_qmi(x, x) > 0.0

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionError):
            cs_qmi(rand((5, 2), 0), rand((6, 2), 1))

    def test_single_row_rejected(self):
        with pytest.raises(DimensionError):
            cs_qmi(rand((1, 2), 0), rand((1, 2), 1))

    def test_row_permutation_invariance(self):
        x, t = dependent_pair(12, 2, 3)
        perm = np.random.default_rng(4).permutation(12)
        assert abs(cs_qmi(x, t) - cs_qmi(x[perm], t[perm])) < 1e-12

    def test_small_width_stays_finite(self):
        x, t = dependent_pair(6, 2, 5)
        value = cs_qmi(x, t, 0.01, 0.01)
        assert math.isfinite(value)


class TestHsic:
    def test_constant_t_zero(self):
        x = rand((9, 2), 0)
        t = np.full((9, 2), 3.0)
        assert abs(hsic_biased(x, t)) < 1e-14

    def test_matches_three_sum_form(self):
        x, t = dependent_pair(8, 2, 6)
        fast = hsic_biased(x, t, 1.2, 0.7)
        slow = naive_hsic(x, t, 1.2, 0.7)
        assert abs(fast - slow) <= 1e-10 * max(1.0, abs(slow))

    def test_permutation_reduces_dependence(self):
        x, t = dependent_pair(40, 2, 7, mix=0.95)
        paired = hsic_biased(x, t)
        gen = np.random.default_rng(8)
        shuffled_values = [hsic_biased(x, t[gen.permutation(40)]) for _ in range(100)]
        # breaking the pairing on strongly dependent data reduces HSIC
        assert all(v < paired for v in shuffled_values)

    def test_row_permutation_invariance(self):
        x, t = dependent_pair(11, 3, 9)
        perm = np.random.default_rng(10).permutation(11)
        assert abs(hsic_biased(x, t) - hsic_biased(x[perm], t[perm])) < 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 16), d=st.integers(1, 3), seed=st.integers(0, 10_000))
def test_dependence_measures_nonnegative(n, d, seed):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, d))
    t = gen.standard_normal((n, d))
    assert cs_qmi(x, t) >= -1e-9
    assert hsic_biased(x, t) >= -1e-9


def test_dependence_nonnegative_thousand_instances():
    for seed in range(1000):
        gen = np.random.default_rng(seed)
        n, d = int(gen.integers(2, 11)), int(gen.integers(1, 4))
        x = gen.standard_normal((n, d))
        t = gen.standard_normal((n, d))
        assert cs_qmi(x, t) >= -1e-9
        assert hsic_biased(x, t) >= -1e-9


class TestNormalizedCsQmi:
    def test_self_is_one(self):
        x = rand((10, 2), 0)
        assert normalized_cs_qmi(x, x) == pytest.approx(1.0, abs=1e-10)

    def test_constant_input_degenerate(self):
        x = rand((8, 2), 1)
        with pytest.raises(DegenerateInputError):
            normalized_cs_qmi(x, np.ones((8, 1)))

    def test_dependent_pair_in_unit_interval(self):
        x, t = dependent_pair(20, 2, 2, mix=0.7)
        value = normalized_cs_qmi(x, t)
        assert 0.0 < value < 1.0


class TestConditionalCsQmi:
    def test_constant_t_zero(self):
        x = rand((8, 2), 0)
        y = rand((8, 1), 1)
        t = np.ones((8, 1))
        assert abs(conditional_cs_qmi(x, t, y)) < 1e-12

    def test_definitional_identity(self):
        x, t = dependent_pair(10, 2, 3)
        y = rand((10, 1), 4)
        expected = cs_qmi(x, t) - cs_qmi(y, t)
        assert conditional_cs_qmi(x, t, y) == expected

    def test_t_equals_y_substitution(self):
        x = rand((10, 2), 5)
        y = rand((10, 2), 6)
        value = conditional_cs_qmi(x, y, y)
        assert value == pytest.approx(cs_qmi(x, y) - cs_qmi(y, y), abs=1e-12)


class TestNibBound:
    def test_identical_centers_zero(self):
        h = np.tile([[0.5, -0.25]], (6, 1))
        assert nib_kde_bound(h, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        for seed in range(20):
            h = rand((8, 3), seed)
            assert nib_kde_bound(h, 0.5) >= -1e-12

    def test_matches_double_loop(self):
        h = rand((8, 2), 42)
        assert nib_kde_bound(h, 0.7) == pytest.approx(naive_nib_bound(h, 0.7), abs=1e-12)

    def test_invalid_width(self):
        with pytest.raises(InvalidKernelError):
            nib_kde_bound(rand((4, 2), 0), 0.0)


class TestEmbeddingNorms:
    def test_product_norm_factorizes(self):
        x, t = dependent_pair(12, 2, 11)
        joint, product = embedding_norms(x, t)
        assert joint > 0 and product > 0
        # independence-like case: shuffling t brings the norms closer
        assert math.isfinite(joint) and math.isfinite(product)


class TestCostGuard:
    def test_naive_oracles_capped(self):
        x = rand((65, 1), 0)
        with pytest.raises(CostGuardError):
            naive_cs_qmi(x, x)
        with pytest.raises(CostGuardError):
            naive_hsic(x, x)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 20), d=st.integers(1, 3), seed=st.integers(0, 10_000),
       offset=st.floats(-100.0, 100.0), sigma=st.floats(0.3, 3.0))
def test_estimators_invariant_to_row_order_and_translation(n, d, seed, offset, sigma):
    # The streamed sums regroup under a permutation, and centring absorbs a
    # common offset up to a few ulps of it; 1e-9 (scale floored at 1) is far
    # above both and far below any real change of the estimate.
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, d))
    t = 0.5 * x + 0.5 * gen.standard_normal((n, d))
    perm = gen.permutation(n)
    shift = np.full(d, offset)

    def close(a, b):
        return abs(a - b) <= 1e-9 * max(1.0, abs(b))

    for measure in (cs_qmi, hsic_biased):
        base = measure(x, t, sigma, sigma)
        assert close(measure(x[perm], t[perm], sigma, sigma), base)
        assert close(measure(x + shift, t - shift, sigma, sigma), base)
    base = empirical_cs(x, t, sigma)
    assert close(empirical_cs(x[perm], t[::-1], sigma), base)
    assert close(empirical_cs(x + shift, t + shift, sigma), base)
    base = nib_kde_bound(x, sigma)
    assert close(nib_kde_bound(x[perm], sigma), base)
    assert close(nib_kde_bound(x + shift, sigma), base)
