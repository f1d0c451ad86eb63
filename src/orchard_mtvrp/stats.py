"""Nonparametric comparison machinery for the benchmark harness.

Wilcoxon signed-rank follows the usual benchmarking conventions: zero
differences (equal infinities included) are dropped, NaN is rejected, tied
absolute differences get average ranks, and the normal approximation
carries the tie correction. Friedman ranks methods per problem (1 = best,
i.e. lowest value) and admits infinite entries, which share the worst ranks.
Both run on numpy and `math` alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def average_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks of a vector, equal values sharing the mean of their
    positions, and the size of each run of equal values in ascending order."""
    _, runs, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[runs], counts


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution at x >= 0 for an integer
    df >= 1: Q(df/2, x/2) = [erfc(sqrt(h)) for odd df] + sum of
    e^-h h^(a-1) / Gamma(a) over a = 1 or 3/2, ..., df/2, with h = x/2."""
    h = x / 2
    if h == 0:
        return 1.0
    total = math.erfc(math.sqrt(h)) if df % 2 else 0.0
    for a in (1 + df % 2 / 2 + i for i in range(df // 2)):
        total += math.exp((a - 1) * math.log(h) - h - math.lgamma(a))
    return total


@dataclass(frozen=True)
class WilcoxonResult:
    r_plus: float
    r_minus: float
    n_effective: int
    p_asymptotic: float


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float]) -> WilcoxonResult:
    """Two-sided paired test on d = a - b."""
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    if len(x) < 5:
        raise ValueError("need at least 5 pairs")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("NaN entries are not rankable")
    differs = x != y  # not x - y != 0: inf - inf is NaN, but equal infinities tie
    d = x[differs] - y[differs]
    n = len(d)
    if n == 0:
        return WilcoxonResult(0.0, 0.0, 0, 1.0)

    ranks, tie_counts = average_ranks(np.abs(d))
    r_plus = float(ranks[d > 0].sum())
    r_minus = float(ranks[d < 0].sum())

    mean = n * (n + 1) / 4
    var = n * (n + 1) * (2 * n + 1) / 24
    var -= float(((tie_counts ** 3 - tie_counts) / 48).sum())
    z = (r_plus - mean) / math.sqrt(var)
    p_asym = min(1.0, math.erfc(abs(z) / math.sqrt(2)))
    return WilcoxonResult(r_plus, r_minus, n, p_asym)


@dataclass(frozen=True)
class FriedmanResult:
    mean_ranks: tuple[float, ...]
    chi_square: float
    p_value: float


def friedman(results: Sequence[Sequence[float]]) -> FriedmanResult:
    """Friedman test over a problems x methods matrix (lower value = better)."""
    matrix = np.asarray(results, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-d problems x methods matrix")
    n_problems, k = matrix.shape
    if k < 2 or n_problems < 2:
        raise ValueError("need at least 2 methods and 2 problems")
    if np.isnan(matrix).any():
        raise ValueError("NaN entries are not rankable")

    ranks = np.array([average_ranks(row)[0] for row in matrix])
    mean_ranks = ranks.mean(axis=0)
    chi_sq = float(
        12 * n_problems / (k * (k + 1)) * ((mean_ranks - (k + 1) / 2) ** 2).sum()
    )
    return FriedmanResult(tuple(float(r) for r in mean_ranks), chi_sq, chi2_sf(chi_sq, k - 1))
