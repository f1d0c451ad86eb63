"""Nonparametric comparison machinery for the benchmark harness.

Wilcoxon signed-rank follows the usual benchmarking conventions: zero
differences (equal infinities included) are dropped, NaN is rejected, tied
absolute differences get average ranks, and the normal approximation
carries the tie correction. The exact p-value (small samples) enumerates
the conditional subset-sum distribution of the observed ranks. Friedman
ranks methods per problem (1 = best, i.e. lowest value) and admits
infinite entries, which share the worst ranks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.stats import chi2, rankdata

EXACT_LIMIT = 25


@dataclass(frozen=True)
class WilcoxonResult:
    r_plus: float
    r_minus: float
    n_effective: int
    p_asymptotic: float
    p_exact: float | None


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
        return WilcoxonResult(0.0, 0.0, 0, 1.0, 1.0)

    ranks = rankdata(np.abs(d))
    r_plus = float(ranks[d > 0].sum())
    r_minus = float(ranks[d < 0].sum())

    mean = n * (n + 1) / 4
    var = n * (n + 1) * (2 * n + 1) / 24
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    var -= float(((tie_counts ** 3 - tie_counts) / 48).sum())
    z = (r_plus - mean) / math.sqrt(var)
    p_asym = min(1.0, math.erfc(abs(z) / math.sqrt(2)))

    p_exact = _exact_two_sided(ranks, r_plus, r_minus) if n <= EXACT_LIMIT else None
    return WilcoxonResult(r_plus, r_minus, n, p_asym, p_exact)


def _exact_two_sided(ranks: np.ndarray, r_plus: float, r_minus: float) -> float:
    """Exact tail probability of the rank sum, conditional on the observed
    (possibly tied) ranks. Average ranks are half-integers, so doubling makes
    the subset-sum distribution integral."""
    doubled = np.rint(ranks * 2).astype(int)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=float)
    counts[0] = 1.0
    for r in doubled:
        counts[r:] += counts[: total + 1 - r]
    counts /= 2.0 ** len(doubled)
    lo = int(round(min(r_plus, r_minus) * 2))
    hi = int(round(max(r_plus, r_minus) * 2))
    p = counts[: lo + 1].sum() + counts[hi:].sum()
    return float(min(1.0, p))


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

    ranks = rankdata(matrix, axis=1)
    mean_ranks = ranks.mean(axis=0)
    chi_sq = float(
        12 * n_problems / (k * (k + 1)) * ((mean_ranks - (k + 1) / 2) ** 2).sum()
    )
    p = float(chi2.sf(chi_sq, k - 1))
    return FriedmanResult(tuple(float(r) for r in mean_ranks), chi_sq, p)
