from __future__ import annotations

import math
import random
import re

import pytest
import scipy.stats
from hypothesis import example, given
from hypothesis import strategies as st

from citerank import normal_cdf, pearson_r, spearman_rho, ztest_proportions

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


# --- pearson ------------------------------------------------------------------

def test_pearson_self_correlation():
    x = [1.5, 2.0, 3.7, 8.25]
    assert pearson_r(x, x).coefficient == 1.0


def test_pearson_negative_affine_image():
    x = [1.0, 2.0, 3.0, 5.0]
    y = [-2.0 * v + 3.0 for v in x]
    assert pearson_r(x, y).coefficient == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_computed():
    result = pearson_r([1, 2, 3], [1, 2, 4])
    assert result.coefficient == pytest.approx(0.98198, abs=1e-5)
    assert result.n == 3


def test_pearson_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        pearson_r([1, 2], [1, 2, 3])


def test_pearson_constant_vector():
    with pytest.raises(ValueError, match="zero variance"):
        pearson_r([1, 2, 3], [5, 5, 5])


@pytest.mark.parametrize("tiny", [2.0449476083188804e-157, 1e-160, 1e-170, 5e-324])
def test_pearson_tiny_spread_is_bounded(tiny):
    # the squared deviations underflow unless the values are scaled first
    coefficient = pearson_r([0, 0, 1], [0, 0, tiny]).coefficient
    assert coefficient == pytest.approx(1.0, abs=1e-15) and coefficient <= 1.0


def test_pearson_constancy_is_exact():
    # the mean of three 0.1s rounds away from 0.1, so every deviation is a tiny nonzero number
    with pytest.raises(ValueError, match="zero variance"):
        pearson_r([0.1] * 3, [0, 1, 2])


@pytest.mark.parametrize("x", [[1e308, 1.5e308, -1e308], [1.7e308, -1.7e308, 1.7e308], [1e-300, 3e-300, 2e-300]])
def test_pearson_extreme_magnitudes_match_the_scaled_vector(x):
    # sums of squares of these overflow or underflow unless the values are scaled first
    scale = max(map(abs, x))
    y = [1.0, 2.0, 3.0]
    assert pearson_r(x, y).coefficient == pytest.approx(pearson_r([v / scale for v in x], y).coefficient, abs=1e-15)


def test_pearson_too_short():
    with pytest.raises(ValueError, match="at least 2"):
        pearson_r([1], [2])


@pytest.mark.parametrize(
    "x, y, message",
    [
        # each of these used to return a nan coefficient
        ([math.nan, 0, 1], [1, 2, 3], "x[0] is nan"),
        ([math.inf, 0, 1], [1, 2, 3], "x[0] is inf"),
        ([0, 1, 2], [1, 2, -math.inf], "y[2] is -inf"),
        ([0, math.nan, math.inf], [1, 2, 3], "x[1] is nan"),
    ],
)
def test_pearson_names_the_first_non_finite_value(x, y, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}, not a finite number$"):
        pearson_r(x, y)


def test_pearson_matches_scipy():
    rnd = random.Random(11)
    for _ in range(50):
        n = rnd.randint(3, 40)
        x = [rnd.uniform(-100, 100) for _ in range(n)]
        y = [rnd.uniform(-100, 100) for _ in range(n)]
        expected = scipy.stats.pearsonr(x, y).statistic
        assert pearson_r(x, y).coefficient == pytest.approx(expected, abs=1e-12)


@given(
    xy=st.lists(st.tuples(finite_floats, finite_floats), min_size=2, max_size=30),
)
@example(xy=[(0.0, 0.0), (0.0, 0.0), (1.0, 2.0449476083188804e-157)])
def test_pearson_symmetric_and_bounded(xy):
    x = [a for a, _ in xy]
    y = [b for _, b in xy]
    try:
        forward = pearson_r(x, y)
    except ValueError:
        return  # constant vector
    backward = pearson_r(y, x)
    assert forward.coefficient == backward.coefficient
    assert abs(forward.coefficient) <= 1.0 + 1e-12


@given(
    x=st.lists(st.integers(min_value=-1000, max_value=1000), min_size=2, max_size=30, unique=True),
    a=st.floats(min_value=0.1, max_value=100),
    b=st.floats(min_value=-1e6, max_value=1e6),
)
def test_pearson_positive_affine_invariance(x, a, b):
    y = [a * v + b for v in x]
    assert pearson_r(x, y).coefficient == pytest.approx(1.0, abs=1e-9)


# --- spearman -----------------------------------------------------------------

def test_spearman_monotone_transform():
    x = [1.0, 4.0, 9.0, 16.0, 30.0]
    y = [math.sqrt(v) for v in x]
    assert spearman_rho(x, y).coefficient == 1.0


def test_spearman_hand_computed():
    assert spearman_rho([1, 2, 3], [3, 1, 2]).coefficient == pytest.approx(-0.5)


def test_spearman_reversal():
    x = [1.0, 1.5, 3.0, 4.0, 9.0]
    assert spearman_rho(x, list(reversed(x))).coefficient == pytest.approx(-1.0)


def test_spearman_matches_scipy_with_ties():
    # one tie block at the bottom, blocks at both ends, and -0.0 tied with 0.0
    cases = [
        ([0, 0, 0, 1], [1, 2, 3, 4]),
        ([2, 1, 2, 1, 3, 3], [5, 5, 1, 1, 1, 0]),
        ([0.0, -0.0, 1.0, -0.0, 2.0, 0.0], [3.0, 1.0, 2.0, 2.0, 0.0, -0.0]),
    ]
    rnd = random.Random(13)
    for _ in range(50):
        n = rnd.randint(3, 40)
        cases.append(([rnd.randint(0, 8) for _ in range(n)], [rnd.randint(0, 8) for _ in range(n)]))  # heavy ties
    for x, y in cases:
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        expected = scipy.stats.spearmanr(x, y).statistic
        assert spearman_rho(x, y).coefficient == pytest.approx(expected, abs=1e-12)


def test_spearman_errors_follow_pearson():
    with pytest.raises(ValueError, match="length mismatch"):
        spearman_rho([1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="zero variance"):
        spearman_rho([1, 2, 3], [7, 7, 7])


@pytest.mark.parametrize(
    "x, y, message",
    [
        # NaNs have no order: ranked, these gave the ranks 1, 2, 3 and a coefficient of 1.0
        ([math.nan] * 3, [1, 2, 3], "x[0] is nan"),
        ([1, 2, 3], [3, math.nan, 1], "y[1] is nan"),
        ([1, math.inf, 3], [1, 2, 3], "x[1] is inf"),
    ],
)
def test_spearman_rejects_non_finite_values_before_ranking(x, y, message):
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}, not a finite number$"):
        spearman_rho(x, y)


# --- z-test -------------------------------------------------------------------

def test_ztest_identical_proportions():
    result = ztest_proportions(50, 100, 50, 100)
    assert result.z == 0.0
    assert result.p_two_sided == 1.0
    assert result.pooled_proportion == 0.5


def test_ztest_hand_computed():
    result = ztest_proportions(20, 100, 10, 100)
    assert result.z == pytest.approx(1.9803, abs=1e-3)
    assert result.p_two_sided == pytest.approx(0.0477, abs=1e-3)
    assert result.pooled_proportion == pytest.approx(0.15)
    assert result.p_one_sided == result.p_two_sided / 2.0


def test_ztest_antisymmetric():
    assert ztest_proportions(10, 100, 20, 100).z == -ztest_proportions(20, 100, 10, 100).z


def test_ztest_antisymmetric_random():
    rnd = random.Random(17)
    for _ in range(200):
        n1, n2 = rnd.randint(1, 500), rnd.randint(1, 500)
        k1, k2 = rnd.randint(0, n1), rnd.randint(0, n2)
        if k1 + k2 == 0 or k1 + k2 == n1 + n2:
            continue
        assert ztest_proportions(k1, n1, k2, n2).z == -ztest_proportions(k2, n2, k1, n1).z


def test_ztest_validation():
    with pytest.raises(ValueError, match="positive"):
        ztest_proportions(0, 0, 1, 2)
    with pytest.raises(ValueError, match="lie in"):
        ztest_proportions(5, 4, 1, 2)
    with pytest.raises(ValueError, match="lie in"):
        ztest_proportions(-1, 4, 1, 2)


@pytest.mark.parametrize("k1,k2", [(0, 0), (10, 10)])
def test_ztest_degenerate_pool(k1, k2):
    with pytest.raises(ValueError, match="degenerate proportions"):
        ztest_proportions(k1, 10, k2, 10)


# --- cross-module -------------------------------------------------------------

def test_quantile_lb09_percentiles_correlate_exactly_within_one_group():
    from citerank import PercentileRule, ReferenceScope, compute_percentiles
    from conftest import make_records

    rnd = random.Random(23)
    for _ in range(20):
        counts = [rnd.randint(0, 40) for _ in range(rnd.randint(3, 100))]
        if len(set(counts)) < 2:
            continue  # constant vectors have no correlation
        records = make_records(counts)
        quantile = compute_percentiles(records, PercentileRule.QUANTILE, ReferenceScope.PER_SET)
        lb09 = compute_percentiles(records, PercentileRule.LB09, ReferenceScope.PER_SET)
        order = sorted(quantile.entries)
        x = [quantile.entries[pid] for pid in order]
        y = [lb09.entries[pid] for pid in order]
        assert pearson_r(x, y).coefficient == pytest.approx(1.0, abs=1e-12)


# --- normal_cdf ---------------------------------------------------------------

def test_normal_cdf_center():
    assert normal_cdf(0.0) == 0.5


@pytest.mark.parametrize(
    "x,expected",
    [(1.96, 0.97500), (-1.96, 0.02500), (1.0, 0.841345), (-2.575, 0.005), (3.0, 0.998650)],
)
def test_normal_cdf_reference_values(x, expected):
    assert normal_cdf(x) == pytest.approx(expected, abs=1e-4)


def test_normal_cdf_matches_scipy():
    for i in range(-80, 81):
        x = i / 10.0
        assert normal_cdf(x) == pytest.approx(scipy.stats.norm.cdf(x), abs=1e-9)


@given(x=st.floats(min_value=-8, max_value=8))
def test_normal_cdf_reflection(x):
    assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-12)


def test_normal_cdf_monotone():
    grid = [i / 20.0 for i in range(-160, 161)]
    values = [normal_cdf(x) for x in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))
