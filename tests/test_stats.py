import csv
import math
import random
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from orchard_mtvrp.stats import friedman, wilcoxon_signed_rank

FIXTURES = Path(__file__).parent / "fixtures"


def load_rg_means():
    with (FIXTURES / "rg_means.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    cols = {name: [float(r[name]) for r in rows] for name in rows[0] if name != "instance"}
    return cols


class TestWilcoxon:
    def test_all_positive_differences(self):
        res = wilcoxon_signed_rank([2, 4, 6, 8, 10], [1, 2, 3, 4, 5])
        assert res.r_plus == 15.0
        assert res.r_minus == 0.0

    def test_benchmark_fixture_columns(self):
        cols = load_rg_means()
        res = wilcoxon_signed_rank(cols["ETSA"], cols["AEDGA"])
        assert res.r_plus == 903.0
        assert res.r_minus == 0.0
        assert res.n_effective == 42
        assert res.p_asymptotic < 1e-7
        assert res.p_asymptotic <= 0.05

    def test_fixture_zero_difference_drops_pair(self):
        cols = load_rg_means()
        res = wilcoxon_signed_rank(cols["GA-NN"], cols["AEDGA"])
        assert res.n_effective == 41
        assert res.r_plus + res.r_minus == 41 * 42 / 2 == 861.0
        assert res.r_plus == 861.0

    def test_mirror_swaps_rank_sums(self):
        rng = random.Random(1)
        a = [rng.uniform(0, 10) for _ in range(20)]
        b = [rng.uniform(0, 10) for _ in range(20)]
        fwd = wilcoxon_signed_rank(a, b)
        rev = wilcoxon_signed_rank(b, a)
        assert fwd.r_plus == rev.r_minus
        assert fwd.r_minus == rev.r_plus
        assert fwd.p_asymptotic == pytest.approx(rev.p_asymptotic, abs=1e-15)
        assert fwd.p_exact == pytest.approx(rev.p_exact, abs=1e-15)

    def test_all_zero_differences_degenerate(self):
        res = wilcoxon_signed_rank([1.0] * 6, [1.0] * 6)
        assert res.n_effective == 0
        assert res.p_asymptotic == 1.0

    def test_rank_sum_identity_over_random_inputs(self):
        rng = random.Random(2024)
        for _ in range(10_000):
            n = rng.randint(5, 40)
            a = [rng.choice([0, 1, 2, 5]) * rng.random() for _ in range(n)]
            b = [rng.choice([0, 1, 2, 5]) * rng.random() for _ in range(n)]
            if rng.random() < 0.5:  # force ties and zero differences
                b = [round(x, 1) for x in a[: n // 2]] + b[n // 2 :]
                a = [round(x, 1) for x in a[: n // 2]] + a[n // 2 :]
            res = wilcoxon_signed_rank(a, b)
            assert res.r_plus + res.r_minus == pytest.approx(
                res.n_effective * (res.n_effective + 1) / 2
            )
            assert 0 <= res.p_asymptotic <= 1

    def test_matches_scipy_asymptotic_no_ties(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(12, 40)
            a = [rng.gauss(0, 1) for _ in range(n)]
            b = [rng.gauss(0.3, 1) for _ in range(n)]
            ours = wilcoxon_signed_rank(a, b)
            ref = scipy.stats.wilcoxon(a, b, correction=False, mode="approx")
            assert ours.p_asymptotic == pytest.approx(ref.pvalue, rel=1e-9)

    def test_matches_scipy_exact_small(self):
        rng = random.Random(10)
        for _ in range(20):
            n = rng.randint(6, 15)
            a = [rng.gauss(0, 1) for _ in range(n)]
            b = [rng.gauss(0.5, 1) for _ in range(n)]
            ours = wilcoxon_signed_rank(a, b)
            ref = scipy.stats.wilcoxon(a, b, mode="exact")
            assert ours.p_exact == pytest.approx(ref.pvalue, rel=1e-9)

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1, 2], [3, 4])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=5, max_size=30),
        st.integers(min_value=1, max_value=4),
    )
    def test_depends_only_on_signs_and_abs_order(self, diffs, scale):
        a = [float(d) for d in diffs]
        zeros = [0.0] * len(a)
        base = wilcoxon_signed_rank(a, zeros)
        scaled = wilcoxon_signed_rank([d * scale for d in a], zeros)
        assert base.r_plus == scaled.r_plus
        assert base.r_minus == scaled.r_minus


class TestFriedman:
    def test_identical_columns_symmetry(self):
        res = friedman([[1.0, 1.0, 1.0]] * 4)
        assert all(r == pytest.approx(2.0) for r in res.mean_ranks)
        assert res.chi_square == pytest.approx(0.0)

    def test_dominant_method_ranks_first(self):
        matrix = [[1.0, 5.0, 7.0], [2.0, 9.0, 4.0], [0.5, 3.0, 3.5], [1.5, 2.0, 6.0]]
        res = friedman(matrix)
        assert res.mean_ranks[0] == pytest.approx(1.0)

    def test_hand_ranked_matrix(self):
        matrix = [
            [3.0, 1.0, 2.0],
            [2.0, 1.0, 3.0],
            [3.0, 2.0, 1.0],
            [3.0, 1.0, 2.0],
        ]
        res = friedman(matrix)
        assert res.mean_ranks == pytest.approx((2.75, 1.25, 2.0))
        n, k = 4, 3
        expected = 12 * n / (k * (k + 1)) * sum(
            (r - (k + 1) / 2) ** 2 for r in (2.75, 1.25, 2.0)
        )
        assert res.chi_square == pytest.approx(expected)

    def test_mean_ranks_average_to_center(self):
        rng = random.Random(3)
        matrix = [[rng.random() for _ in range(5)] for _ in range(9)]
        res = friedman(matrix)
        assert sum(res.mean_ranks) / 5 == pytest.approx(3.0)

    def test_infinite_entries_rank_last(self):
        matrix = [
            [1.0, math.inf, 2.0],
            [1.5, math.inf, math.inf],
        ]
        res = friedman(matrix)
        assert res.mean_ranks[0] == pytest.approx(1.0)
        assert res.mean_ranks[1] == pytest.approx((3.0 + 2.5) / 2)

    def test_matches_scipy(self):
        rng = random.Random(4)
        matrix = [[rng.random() for _ in range(4)] for _ in range(12)]
        res = friedman(matrix)
        cols = list(zip(*matrix))
        ref = scipy.stats.friedmanchisquare(*[list(c) for c in cols])
        assert res.chi_square == pytest.approx(ref.statistic, rel=1e-9)
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            friedman([[1.0, 2.0]])
        with pytest.raises(ValueError):
            friedman(np.array([1.0, 2.0]))


class TestWilcoxonNonFinite:
    @pytest.mark.filterwarnings("error")
    def test_equal_infinities_are_a_zero_difference(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        b = [2.0, 4.0, 6.0, 8.0, 10.0]
        with_tie = wilcoxon_signed_rank(a + [math.inf], b + [math.inf])
        assert with_tie == wilcoxon_signed_rank(a, b)
        assert with_tie.n_effective == 5

    @pytest.mark.parametrize("side", [0, 1])
    def test_nan_rejected(self, side):
        pair = [[1.0, 2.0, 3.0, math.nan, 5.0], [2.0, 4.0, 6.0, 8.0, 10.0]]
        with pytest.raises(ValueError, match="NaN"):
            wilcoxon_signed_rank(pair[side], pair[1 - side])
