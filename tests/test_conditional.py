import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csib.conditional import PredictionBatch, conditional_cs, conditional_mmd, mse
from csib.divergences import _LOG_UNDERFLOW
from csib.errors import DimensionError
from csib.kernels import gram
from csib.oracle import naive_conditional_cs, naive_conditional_mmd


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def random_batch(n, d, seed, scale=1.0):
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, d))
    y = gen.standard_normal((n, 1))
    y_hat = y + scale * gen.standard_normal((n, 1))
    return PredictionBatch(x, y, y_hat)


class TestConditionalCS:
    def test_exact_predictions_zero(self):
        gen = np.random.default_rng(0)
        x = gen.standard_normal((8, 3))
        y = gen.standard_normal((8, 1))
        assert conditional_cs(PredictionBatch(x, y, y.copy())) == 0.0

    def test_matches_independent_reimplementation(self):
        batch = random_batch(6, 2, 1)
        fast = conditional_cs(batch, 0.8, 1.1)
        slow = naive_conditional_cs(batch.x, batch.y, batch.y_hat, 0.8, 1.1)
        assert fast == pytest.approx(slow, abs=1e-10)

    def test_small_residual_tracks_mse_ordering(self):
        # kernel-width regime of the sigma -> 0 limit: x-kernel effectively
        # diagonal, residuals well inside the y-kernel width
        gen = np.random.default_rng(2)
        n = 24
        x = gen.standard_normal((n, 3)) * 4.0
        y = gen.standard_normal((n, 1))
        from csib.kernels import pairwise_sqdist

        dmin = np.sqrt(np.min(pairwise_sqdist(x, x)[~np.eye(n, dtype=bool)]))
        sigma_x = dmin / 16.0
        agree = 0
        for trial in range(100):
            r_a = gen.standard_normal((n, 1)) * 0.01 * gen.uniform(0.2, 1.0)
            r_b = gen.standard_normal((n, 1)) * 0.01 * gen.uniform(0.2, 1.0)
            a = PredictionBatch(x, y, y + r_a)
            b = PredictionBatch(x, y, y + r_b)
            d_cs = conditional_cs(a, sigma_x, 1.0) - conditional_cs(b, sigma_x, 1.0)
            d_mse = mse(a.y, a.y_hat) - mse(b.y, b.y_hat)
            if math.copysign(1.0, d_cs) == math.copysign(1.0, d_mse):
                agree += 1
        assert agree == 100

    def test_distributional_matching_on_duplicated_inputs(self):
        # The loss compares conditional *laws*, not per-row residuals: on
        # duplicated inputs, swapped predictions reproduce the local target
        # distribution exactly and cost nothing, an equal-MSE offset pair
        # costs more, and predictions straddling a common target are closer
        # (in divergence) than the same MSE spent as a one-sided shift.
        x = np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 2.0], [-2.0, 1.0]])
        y_mixed = np.array([[0.3], [0.7], [0.1], [0.9]])
        swapped = np.array([[0.7], [0.3], [0.1], [0.9]])
        assert conditional_cs(PredictionBatch(x, y_mixed, swapped)) == pytest.approx(0.0, abs=1e-12)

        y_equal = np.array([[0.5], [0.5], [0.1], [0.9]])
        delta = 0.3
        straddle = np.array([[0.5 + delta], [0.5 - delta], [0.1], [0.9]])
        one_sided = np.array([[0.5 + delta], [0.5 + delta], [0.1], [0.9]])
        assert mse(y_equal, straddle) == pytest.approx(mse(y_equal, one_sided))
        loss_straddle = conditional_cs(PredictionBatch(x, y_equal, straddle))
        loss_shift = conditional_cs(PredictionBatch(x, y_equal, one_sided))
        assert 0.0 < loss_straddle < loss_shift

    def test_underflow_returns_inf(self):
        x = np.array([[0.0], [1.0]])
        y = np.array([[0.0], [0.0]])
        y_hat = np.array([[1e6], [1e6]])
        assert math.isinf(conditional_cs(PredictionBatch(x, y, y_hat)))

    def test_batch_validation(self):
        with pytest.raises(DimensionError):
            PredictionBatch(rand((4, 2), 0), rand((3, 1), 1), rand((4, 1), 2))
        with pytest.raises(DimensionError):
            PredictionBatch(rand((4, 2), 0), rand((4, 1), 1), rand((4, 2), 2))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 16), d=st.integers(1, 3), seed=st.integers(0, 10_000), scale=st.floats(0.01, 2.0))
def test_conditional_cs_nonnegative_in_diagonal_regime(n, d, seed, scale):
    # With inputs spread far beyond the x-width the x-Gram is effectively
    # diagonal and the estimator reduces to 2 log N - 2 log sum kappa(r_j),
    # which is provably nonnegative.
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, d)) * 40.0
    y = gen.standard_normal((n, 1))
    y_hat = y + scale * gen.standard_normal((n, 1))
    assert conditional_cs(PredictionBatch(x, y, y_hat)) >= -1e-12


def test_conditional_cs_finite_sample_sign_characterization():
    """Outside the diagonal regime the estimator can dip slightly negative.

    The population quantity is nonnegative by the Cauchy-Schwarz
    inequality, but the three integrals are estimated by separate
    V-statistics, so finite samples can (and routinely do) produce small
    negative values.  This test freezes the observed magnitude so any
    regression in the estimator shows up; the raw API deliberately does
    not clamp.
    """
    violations = 0
    worst = 0.0
    for seed in range(1000):
        gen = np.random.default_rng(seed)
        n, d = int(gen.integers(2, 17)), int(gen.integers(1, 4))
        x = gen.standard_normal((n, d))
        y = gen.standard_normal((n, 1))
        y_hat = y + gen.uniform(0.01, 2.0) * gen.standard_normal((n, 1))
        value = conditional_cs(PredictionBatch(x, y, y_hat))
        if value < -1e-9:
            violations += 1
            worst = min(worst, value)
    # observed at calibration time: 22/1000 violations, worst -2.02e-2
    assert violations > 0
    assert worst > -0.1


def test_cross_inner_sum_underflow_boundary():
    # x far apart makes K the identity to double precision, so the cross
    # inner sum of row 0 is its diagonal term exp(-r^2 / 2): finite just
    # above the log of the smallest subnormal, infinite just below it.
    x = np.array([[0.0], [100.0]])
    y = np.zeros((2, 1))
    for margin, expect_inf in ((-5.0, False), (5.0, True)):
        residual = math.sqrt(2.0 * (-_LOG_UNDERFLOW + margin))
        batch = PredictionBatch(x, y, np.array([[residual], [0.0]]))
        assert math.isinf(conditional_cs(batch, 1.0, 1.0)) == expect_inf


class TestConditionalMMD:
    def test_exact_predictions_zero(self):
        gen = np.random.default_rng(3)
        x = gen.standard_normal((6, 2))
        y = gen.standard_normal((6, 1))
        batch = PredictionBatch(x, y, y.copy())
        assert conditional_mmd(batch, ridge=0.1) == pytest.approx(0.0, abs=1e-10)

    def test_huge_ridge_kills_value(self):
        batch = random_batch(6, 2, 4)
        assert abs(conditional_mmd(batch, ridge=1e12)) < 1e-12

    def test_matches_matrix_oracle(self):
        batch = random_batch(6, 2, 5)
        fast = conditional_mmd(batch, 0.9, 1.2, ridge=0.1)
        slow = naive_conditional_mmd(batch.x, batch.y, batch.y_hat, 0.9, 1.2, 0.1)
        assert fast == pytest.approx(slow, abs=1e-8)

    @pytest.mark.parametrize("ridge", [1e-6, 1e-3, 0.1, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("n", [2, 7, 17, 48])
    @pytest.mark.parametrize("d", [1, 3])
    def test_matches_matrix_oracle_across_ridges(self, ridge, n, d):
        # Both paths lose about u * cond(K + ridge I) to the solve, and the
        # A - ridge A^2 identity loses about u * ridge / l on a component of
        # K with eigenvalue l; the components that carry the value have
        # l of order 1 (the Gram has trace n), so 256 u (cond + ridge)
        # bounds the relative gap with room to spare.
        batch = random_batch(n, d, 100 + n + d)
        fast = conditional_mmd(batch, 0.9, 1.2, ridge)
        slow = naive_conditional_mmd(batch.x, batch.y, batch.y_hat, 0.9, 1.2, ridge)
        eig = np.linalg.eigvalsh(gram(batch.x, batch.x, 0.9))
        cond = (eig[-1] + ridge) / (max(eig[0], 0.0) + ridge)
        assert abs(fast - slow) <= 256 * 2.0**-53 * (cond + ridge) * abs(slow)

    def test_ridge_must_be_positive(self):
        batch = random_batch(4, 2, 6)
        with pytest.raises(ValueError):
            conditional_mmd(batch, ridge=0.0)


class TestMse:
    def test_exact_zero(self):
        y = rand((5, 2), 0)
        assert mse(y, y.copy()) == 0.0

    def test_hand_value(self):
        assert mse([[0.0]], [[2.0]]) == 4.0

    def test_matches_loop(self):
        y, y_hat = rand((9, 3), 1), rand((9, 3), 2)
        expected = sum(float(np.sum((y[i] - y_hat[i]) ** 2)) for i in range(9)) / 9
        assert mse(y, y_hat) == pytest.approx(expected, rel=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mse(rand((4, 1), 0), rand((4, 2), 1))
