"""Rank correlation, the SIX herd behavior index with its sharp bounds, the
population SIX of a Gaussian copula, and the closed-form two-asset lognormal
covariance-ratio index (RHIX).

SIX is the ``w_i w_j``-weighted average of pairwise Spearman's rhos.  It
depends on the data only through ranks, so it is invariant to strictly
increasing transformations of the marginals.  Its sharp range is::

    (12 * l(w) - S2) / (S1^2 - S2)  <=  SIX  <=  1

with the upper end reached by comonotonicity and the lower end by the
weighted-countermonotonic coupling on the shrunken weights.  The two-asset
RHIX is a covariance ratio that does depend on the marginals; its lognormal
closed form is provided as a contrast.  A lognormal model's copula is the
Gaussian copula of its log returns' correlation matrix, so that matrix alone
gives its SIX: the volatilities never enter.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Sequence

import numpy as np

from .copula import SampleMatrix, sample_values
from .errors import (
    DegenerateDataError,
    DimensionError,
    DomainError,
    InvalidWeightError,
    ModelError,
)
from .weights import WeightVector, as_weight_vector, unit_scaled

__all__ = [
    "midranks",
    "centred_correlation",
    "spearman_matrix",
    "gaussian_spearman",
    "six",
    "weighted_six",
    "pair_weight_matrix",
    "six_bounds",
    "six_lognormal",
    "rhix_lognormal_bivariate",
    "rhix_degeneracy_curve",
]


# A SIX value this close outside its sharp bounds still counts as within them.
BOUND_SLACK = 1e-12


def midranks(x: np.ndarray) -> np.ndarray:
    """Mid-ranks (1-based) along axis 0: tied values share the average of the
    first and last position of their run.  The same bits as
    ``scipy.stats.rankdata(x, method="average", axis=0)``."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    order = np.argsort(x, axis=0, kind="stable")
    s = np.take_along_axis(x, order, axis=0)
    pos = np.arange(n, dtype=float).reshape((n,) + (1,) * (x.ndim - 1))
    starts = np.ones(s.shape, dtype=bool)
    starts[1:] = s[1:] != s[:-1]
    ends = np.ones(s.shape, dtype=bool)
    ends[:-1] = starts[1:]
    first = np.maximum.accumulate(np.where(starts, pos, 0.0), axis=0)
    last = np.minimum.accumulate(np.where(ends, pos, n - 1.0)[::-1], axis=0)[::-1]
    ranks = np.empty_like(s)
    np.put_along_axis(ranks, order, 0.5 * (first + last) + 1.0, axis=0)
    return ranks


def centred_correlation(a: np.ndarray) -> np.ndarray:
    """Pairwise correlations of the columns of a centred ``(n, d)`` array from
    one Gram product: ``G = a.T @ a`` and ``rho_ij = G_ij / sqrt(G_ii G_jj)``
    clipped to [-1, 1].  A column of exact zeros, which a constant column of
    centred ranks always is, has ``G_ii == 0`` and ``G_ij == +/-0``, so its
    row and column are 0/0 = NaN.  The row order of ``a`` does not matter."""
    gram = a.T @ a
    diag = np.diag(gram)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.clip(gram / np.sqrt(np.outer(diag, diag)), -1.0, 1.0)


def spearman_matrix(data: "SampleMatrix | np.ndarray") -> np.ndarray:
    """The ``d x d`` matrix of rank-sample Spearman's rhos of the columns of a
    data matrix, by ``centred_correlation`` of the mid-ranks centred on
    ``(n + 1) / 2``.  These are multiples of 1/2, so for ``n`` below about 2e5
    the product is exact in any summation order and equal or reversed rank
    columns give exactly +/-1."""
    values = data.values if isinstance(data, SampleMatrix) else np.asarray(data, float)
    if values.ndim != 2 or values.shape[1] < 2:
        raise DimensionError("need an (n, d>=2) data matrix")
    if values.shape[0] < 2:
        raise DimensionError("need at least 2 observations")
    if not np.isfinite(values).all():
        raise DomainError("data must be finite to be ranked")
    rho = centred_correlation(midranks(values) - 0.5 * (values.shape[0] + 1))
    if np.isnan(rho).any():
        raise DegenerateDataError("constant column: rank correlation is undefined")
    return rho


def gaussian_spearman(rho: "float | np.ndarray") -> "float | np.ndarray":
    """Population Spearman's rho of a Gaussian copula: ``(6/pi) * asin(rho/2)``,
    elementwise for an array.

    The endpoints and zero are returned exactly.
    """
    r = np.asarray(rho, dtype=float)
    if not np.all((-1.0 <= r) & (r <= 1.0)):
        raise DomainError(f"correlation must lie in [-1, 1], got {rho!r}")
    value = np.clip((6.0 / math.pi) * np.arcsin(0.5 * r), -1.0, 1.0)
    value = np.where((r == 0.0) | (np.abs(r) == 1.0), r, value)
    return float(value) if value.ndim == 0 else value


def _scaled_weights(w: "WeightVector | Iterable[float]") -> tuple[float, ...]:
    """The ``unit_scaled`` weights.  A weight that scales to 0.0, as when the
    ratio of the weights exceeds the float range, is an
    :class:`InvalidWeightError` naming the weights as given."""
    wv = as_weight_vector(w)
    scaled = unit_scaled(wv)[0]
    if min(scaled) == 0.0:
        raise InvalidWeightError(
            f"the ratio of the largest to the smallest of the weights {wv.values} "
            "exceeds the float range")
    return scaled


def six_bounds(w: "WeightVector | Iterable[float]") -> tuple[float, float]:
    """Sharp SIX range ``((12*l(w) - S2) / (S1^2 - S2), 1)``.  The lower end is
    one correctly rounded division of integers: the weights are integers times
    one power of two, which cancels.  In floats ``S1^2 - S2`` cancels to 0.0
    when one weight dwarfs the others."""
    ratios = [v.as_integer_ratio() for v in _scaled_weights(w)]
    scale = max(den for _, den in ratios)  # every denominator is a power of two
    k = [num * (scale // den) for num, den in ratios]
    s1, s2 = sum(k), sum(x * x for x in k)
    excess = max(0, 2 * max(k) - s1)
    return (excess * excess - s2) / (s1 * s1 - s2), 1.0


def pair_weight_matrix(w: "WeightVector | Iterable[float]") -> np.ndarray:
    """The pair weights ``w_i w_j`` of ``i < j`` in the strict upper triangle of
    a ``d x d`` matrix, NaN on and below the diagonal, with ``w`` scaled by
    ``unit_scaled``."""
    v = np.array(_scaled_weights(w))
    return np.where(np.tri(len(v), dtype=bool), np.nan, np.outer(v, v))


def weighted_six(
    rho: np.ndarray, pair_w: np.ndarray, bounds: tuple[float, float]
) -> tuple[float, bool, int]:
    """SIX from a ``d x d`` rho matrix and the ``pair_weight_matrix``:
    ``fsum(w_i w_j rho_ij) / fsum(w_i w_j)`` over the pairs ``i < j`` whose rho
    is not NaN (NaN if no weight is left), whether it lies within the sharp
    ``bounds`` up to ``BOUND_SLACK``, and the number of pairs used.  Both sums
    are correctly rounded, so rhos that are all one give exactly 1.0.  One
    pair's average is its rho itself, which ``w * rho / w`` need not be."""
    terms = pair_w * rho
    used = ~np.isnan(terms)
    weights = pair_w[used].tolist()
    total = math.fsum(weights)
    if len(weights) == 1 and total:
        value = float(rho[used][0])
    else:
        value = math.fsum(terms[used].tolist()) / total if total else math.nan
    lower, upper = bounds
    return value, lower - BOUND_SLACK <= value <= upper + BOUND_SLACK, len(weights)


def six(data: "SampleMatrix | np.ndarray", w: "WeightVector | Iterable[float]") -> float:
    """Rank-based SIX of a data matrix (columns are variables)."""
    wv = as_weight_vector(w)
    rho = spearman_matrix(sample_values(data, wv.d))
    return weighted_six(rho, pair_weight_matrix(wv), six_bounds(wv))[0]


def six_lognormal(corr: "np.ndarray | Sequence[Sequence[float]]",
                  w: "WeightVector | Iterable[float]") -> float:
    """Population SIX of a Gaussian copula, and so of a lognormal model, from
    its ``d x d`` correlation matrix via the arcsine map ``gaussian_spearman``.

    The matrix must be finite with entries in [-1, 1], symmetric and with a
    unit diagonal within 1e-12 (``np.corrcoef`` can give 0.9999999999999998),
    and positive semidefinite within 1e-10; otherwise a :class:`ModelError`.
    A shape other than ``(d, d)`` for ``d`` weights is a :class:`DimensionError`.
    """
    wv = as_weight_vector(w)
    c = np.asarray(corr, dtype=float)
    if c.shape != (wv.d, wv.d):
        raise DimensionError(f"weights have d={wv.d} but the correlation matrix has shape {c.shape}")
    if not np.all(np.abs(c) <= 1.0):  # NaN fails too
        raise ModelError("correlations must be finite and lie in [-1, 1]")
    if np.abs(c - c.T).max() > 1e-12 or np.abs(np.diag(c) - 1.0).max() > 1e-12:
        raise ModelError("correlation matrix must be symmetric with a unit diagonal")
    if float(np.linalg.eigvalsh(c).min()) < -1e-10:
        raise ModelError("correlation matrix must be positive semidefinite")
    return weighted_six(gaussian_spearman(c), pair_weight_matrix(wv), six_bounds(wv))[0]


def rhix_lognormal_bivariate(rho: float, sigma1: float, sigma2: float) -> float:
    """Two-asset covariance-ratio index under lognormality:
    ``(exp(rho*s1*s2) - 1) / (exp(s1*s2) - 1)``."""
    if not -1.0 <= rho <= 1.0:
        raise ModelError(f"correlation must lie in [-1, 1], got {rho!r}")
    if sigma1 <= 0.0 or sigma2 <= 0.0:
        raise ModelError("volatilities must be positive")
    if sigma1 * sigma2 < sys.float_info.min:  # expm1(y) == y: take the ratio on the mantissas
        m = math.frexp(sigma1)[0] * math.frexp(sigma2)[0]
        return rho * m / m
    try:
        ceiling = math.expm1(sigma1 * sigma2)
    except OverflowError:
        ceiling = math.inf
    if not 0.0 < ceiling < math.inf:
        raise ModelError(f"exp(sigma1*sigma2) - 1 is not finite at sigmas {sigma1!r}, {sigma2!r}")
    return math.expm1(rho * sigma1 * sigma2) / ceiling


def rhix_degeneracy_curve(
    rho: float, sigma_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """The covariance-ratio index along a common-volatility sweep.

    For ``0 < rho < 1`` the curve is strictly decreasing and tends to zero as
    the volatility grows, even though the copula never changes: the index is
    driven by the marginals.  A grid on which the floats do not decrease
    strictly, as where the ratio rounds to ``rho`` near ``sigma = 0``, is a
    :class:`ModelError`.
    """
    if not -1.0 < rho < 1.0:
        raise ModelError(f"|rho| must be < 1 for the degeneracy sweep, got {rho!r}")
    sigmas = [float(s) for s in sigma_grid]
    if not sigmas or any(s <= 0.0 for s in sigmas):
        raise ModelError("sigma grid must be nonempty and positive")
    curve = [(s, rhix_lognormal_bivariate(rho, s, s)) for s in sigmas]
    if 0.0 < rho < 1.0:
        ordered = sorted(curve)
        for (s0, v0), (s1, v1) in zip(ordered, ordered[1:]):
            if not v1 < v0:
                raise ModelError(f"curve not strictly decreasing at sigma={s1} ({v0} -> {v1})")
    return curve
