"""Statistics tests: definition-level oracles and quadrature for p-values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from oracles import numpy_pearson_r, numpy_rse, paired_t_test
from sentpop.stats import (
    Strength,
    classify_strength,
    pearson,
    r_squared,
    regularized_incomplete_beta,
    rse,
    student_t_two_tailed_p,
)


def _t_pdf(x: float, dof: int) -> float:
    ln = (
        math.lgamma((dof + 1) / 2)
        - math.lgamma(dof / 2)
        - 0.5 * math.log(dof * math.pi)
        - ((dof + 1) / 2) * math.log1p(x * x / dof)
    )
    return math.exp(ln)


def _two_tailed_by_quadrature(t_stat: float, dof: int) -> float:
    tail, _ = integrate.quad(_t_pdf, abs(t_stat), np.inf, args=(dof,))
    return 2.0 * tail


def _pearson_r_oracle(x, y):
    """Covariance over the product of standard deviations, all scalar loops."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    sx = math.sqrt(sum((a - mx) ** 2 for a in x) / n)
    sy = math.sqrt(sum((b - my) ** 2 for b in y) / n)
    return cov / (sx * sy)


class TestPearson:
    def test_exact_positive_linearity(self):
        x = [1.0, 2.0, 3.0, 4.0]
        r, p = pearson(x, [2 * v + 1 for v in x])
        assert r == 1.0
        assert p == 0.0

    def test_exact_negative_linearity(self):
        x = [1.0, 2.0, 3.0, 4.0]
        r, _ = pearson(x, [-v for v in x])
        assert r == -1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=12), rng.normal(size=12)
        assert pearson(x, y)[0] == pytest.approx(pearson(y, x)[0], abs=1e-15)

    def test_affine_invariance_up_to_sign(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=15), rng.normal(size=15)
        r, _ = pearson(x, y)
        r_pos, _ = pearson(3.5 * x + 2.0, y)
        r_neg, _ = pearson(-0.7 * x + 1.0, y)
        assert r_pos == pytest.approx(r, abs=1e-12)
        assert r_neg == pytest.approx(-r, abs=1e-12)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [2.0, 1.0])

    @pytest.mark.parametrize("c", [0.1, 0.7])
    def test_constant_series_whose_mean_rounds_away_rejected(self, c):
        # sum([c] * 3) / 3 != c: a deviation from the rounded mean is not 0
        with pytest.raises(ValueError, match="constant"):
            pearson([c] * 3, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="constant"):
            pearson([1.0, 2.0, 3.0], [c] * 3)

    @pytest.mark.parametrize("scale", [1e-90, 1e160])
    def test_extreme_magnitudes(self, scale):
        # unscaled, the product of the sums of squares underflows to 0 at 1e-90
        # and the squares overflow at 1e160
        r, _ = pearson([scale, 2 * scale, 4 * scale], [scale, 3 * scale, 4 * scale])
        assert r == pytest.approx(0.9286, abs=1e-4)
        assert abs(r - pearson([1.0, 2.0, 4.0], [1.0, 3.0, 4.0])[0]) <= 1e-12

    @pytest.mark.parametrize("power", [-300, 300])
    def test_power_of_two_scaling_leaves_r_unchanged_to_the_bit(self, power):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=25).tolist(), rng.normal(size=25).tolist()
        x2, y2 = ([math.ldexp(v, power) for v in s] for s in (x, y))
        assert pearson(x2, y) == pearson(x, y2) == pearson(x2, y2) == pearson(x, y)

    @pytest.mark.parametrize("x,y,message", [
        (np.ones((3, 2)), [1.0, 2.0, 3.0], "x must be one-dimensional"),
        ([1.0, 2.0, 3.0], [[1.0], [2.0], [3.0]], "y must be one-dimensional"),
        (4.0, [1.0, 2.0, 3.0], "x must be one-dimensional"),
        ([1.0, 2.0, 3.0], [1.0, 2.0], "lengths differ"),
    ])
    def test_malformed_series_rejected(self, x, y, message):
        with pytest.raises(ValueError, match=message):
            pearson(x, y)

    def test_against_definition_and_quadrature_oracles(self):
        """50 seeded instances: r to 1e-12, p to 1e-6 of numeric integration."""
        rng = np.random.default_rng(42)
        for _ in range(50):
            x = rng.normal(size=20)
            y = 0.6 * x + rng.normal(size=20)
            r, p = pearson(x, y)
            assert r == pytest.approx(_pearson_r_oracle(list(x), list(y)), abs=1e-12)
            t_stat = r * math.sqrt(18 / (1 - r * r))
            assert p == pytest.approx(_two_tailed_by_quadrature(t_stat, 18), abs=1e-6)


_BAND_EDGES = (0.05, 0.35, 0.65, 0.95)


@st.composite
def _series_pairs(draw):
    """n = 3-200 values of magnitude 1e-6 to 1e6, y independent of x or near-collinear."""
    n = draw(st.integers(3, 200))
    unit = st.integers(-10**6, 10**6).map(lambda k: k / 10**6)
    sx, sy = (10.0 ** draw(st.integers(-6, 6)) for _ in range(2))
    x = [sx * u for u in draw(st.lists(unit, min_size=n, max_size=n))]
    noise = [sy * u for u in draw(st.lists(unit, min_size=n, max_size=n))]
    if draw(st.booleans()):
        y = noise
    else:
        slope = draw(st.sampled_from([-3.0, -1.0, 0.5, 2.0])) * sy / sx
        rel = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1]))
        y = [slope * a + rel * b for a, b in zip(x, noise)]
    return x, y


@settings(max_examples=300, deadline=None)
@given(_series_pairs())
def test_pearson_matches_the_numpy_formula(xy):
    """fsum sums are correctly rounded; numpy's pairwise sums and BLAS dots are not, so r
    may move in its last digits, never by more than 1e-12."""
    x, y = xy
    if min(x) == max(x) or min(y) == max(y):
        with pytest.raises(ValueError, match="constant"):
            pearson(x, y)
        return
    r, p = pearson(x, y)
    r_oracle = numpy_pearson_r(x, y)
    assert abs(r - r_oracle) <= 1e-12
    n = len(x)
    if abs(r) == 1.0:
        assert p == 0.0
    else:
        assert p == student_t_two_tailed_p(r * math.sqrt((n - 2) / (1.0 - r * r)), n - 2)
    if all(abs(abs(r) - edge) > 1e-12 for edge in _BAND_EDGES):
        assert classify_strength(r) is classify_strength(r_oracle)


class TestClassifyStrength:
    @pytest.mark.parametrize(
        "r,expected",
        [
            (0.0, Strength.ZERO),
            (0.2, Strength.WEAK),
            (0.5, Strength.MODERATE),
            (0.8, Strength.STRONG),
            (1.0, Strength.PERFECT),
            (-0.8, Strength.STRONG),
            (-1.0, Strength.PERFECT),
            (0.0499, Strength.ZERO),
            (0.05, Strength.WEAK),
            (0.35, Strength.MODERATE),
            (0.65, Strength.STRONG),
            (0.95, Strength.PERFECT),
        ],
    )
    def test_fixture_table(self, r, expected):
        assert classify_strength(r) is expected

    def test_monotone_in_absolute_r(self):
        order = [Strength.ZERO, Strength.WEAK, Strength.MODERATE, Strength.STRONG, Strength.PERFECT]
        ranks = [order.index(classify_strength(r)) for r in np.linspace(0, 1, 201)]
        assert ranks == sorted(ranks)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            classify_strength(1.2)


class TestPairedT:
    def test_identical_series_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_constant_shift_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(4, 20))
            a = rng.normal(size=n)
            b = a + rng.normal(loc=0.3, scale=0.5, size=n)
            p = paired_t_test(a, b)
            d = a - b
            t_stat = d.mean() / (d.std(ddof=1) / math.sqrt(n))
            assert p == pytest.approx(_two_tailed_by_quadrature(t_stat, n - 1), abs=1e-6)

    def test_zero_mean_difference_has_p_one(self):
        p = paired_t_test([1.0, 2.0], [2.0, 1.0])
        assert p == pytest.approx(1.0, abs=1e-12)


class TestRse:
    def test_perfect_prediction(self):
        assert rse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_mean_predictor(self):
        actual = [1.0, 2.0, 3.0, 6.0]
        mean = sum(actual) / len(actual)
        assert rse([mean] * 4, actual) == 1.0
        assert r_squared([mean] * 4, actual) == 0.0

    def test_constant_actual_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            rse([1.0, 2.0], [3.0, 3.0])

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        pred = list(rng.normal(size=30))
        actual = list(rng.normal(size=30))
        mean = sum(actual) / 30
        num = sum((p - a) ** 2 for p, a in zip(pred, actual))
        den = sum((mean - a) ** 2 for a in actual)
        assert rse(pred, actual) == pytest.approx(num / den, abs=1e-12)

    def test_nonnegative_and_zero_only_for_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pred = rng.normal(size=10)
            actual = rng.normal(size=10)
            assert rse(pred, actual) >= 0.0
        assert r_squared(list(rng.normal(size=5)) * 2, list(rng.normal(size=10))) <= 1.0


@st.composite
def _rse_pairs(draw):
    """n = 2-60 actuals of magnitude 1e-6 to 1e6; predictions at, near or far from them."""
    n = draw(st.integers(2, 60))
    unit = st.integers(-10**6, 10**6).map(lambda k: k / 10**6)
    scale = 10.0 ** draw(st.integers(-6, 6))
    actual = [scale * u for u in draw(st.lists(unit, min_size=n, max_size=n))]
    rel = draw(st.sampled_from([0.0, 1e-9, 1e-3, 1.0, 1e3]))
    noise = draw(st.lists(unit, min_size=n, max_size=n))
    return [a + rel * scale * u for a, u in zip(actual, noise)], actual


@settings(max_examples=200, deadline=None)
@given(_rse_pairs())
def test_rse_matches_the_numpy_formula(pair):
    """fsum sums are correctly rounded; numpy's pairwise sums are not, so RSE may move
    in its last digits, never by more than 1e-12 of itself."""
    predicted, actual = pair
    if min(actual) == max(actual):
        with pytest.raises(ValueError, match="constant"):
            rse(predicted, actual)
        return
    value = rse(predicted, actual)
    assert abs(value - numpy_rse(predicted, actual)) <= 1e-12 * value
    assert rse(actual, actual) == 0.0
    mean = math.fsum(actual) / len(actual)
    assert rse([mean] * len(actual), actual) == 1.0


class TestIncompleteBeta:
    def test_matches_scipy_reference(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            a = float(rng.uniform(0.3, 40))
            b = float(rng.uniform(0.3, 40))
            x = float(rng.uniform(0, 1))
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                float(special.betainc(a, b, x)), abs=1e-10
            )

    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_t_tail_special_values(self):
        # dof=1 is a Cauchy: P(|T| >= 1) is exactly 1/2
        assert student_t_two_tailed_p(1.0, 1) == pytest.approx(0.5, abs=1e-12)
        assert student_t_two_tailed_p(0.0, 5) == 1.0
        assert student_t_two_tailed_p(math.inf, 5) == 0.0
