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
from itertools import compress
from typing import Callable, Iterable, Sequence

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
    "six_bounds",
    "six_lognormal",
    "rhix_lognormal_bivariate",
    "rhix_degeneracy_curve",
]


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
    rho = centred_correlation(_centred_ranks(values))
    if np.isnan(rho).any():
        raise DegenerateDataError("constant column: rank correlation is undefined")
    return rho


def _centred_ranks(values: np.ndarray) -> np.ndarray:
    """The mid-ranks of an ``(n >= 2, d >= 2)`` matrix of finite values, centred
    on ``(n + 1) / 2``."""
    if values.ndim != 2 or values.shape[1] < 2:
        raise DimensionError("need an (n, d>=2) data matrix")
    if values.shape[0] < 2:
        raise DimensionError("need at least 2 observations")
    if not np.isfinite(values).all():
        raise DomainError("data must be finite to be ranked")
    return midranks(values) - 0.5 * (values.shape[0] + 1)


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


def _integer_weights(values: Sequence[float]) -> list[int]:
    """Integers ``k`` with ``k_i / k_j == v_i / v_j`` exactly, not all even: each
    float is an integer times a power of two."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(den for _, den in ratios)  # every denominator is a power of two
    k = [num * (scale // den) for num, den in ratios]
    shift = min((x & -x).bit_length() for x in k) - 1
    return [x >> shift for x in k]


def six_bounds(w: "WeightVector | Iterable[float]") -> tuple[float, float]:
    """Sharp SIX range ``((12*l(w) - S2) / (S1^2 - S2), 1)``.  The lower end is
    one correctly rounded division of integers: the weights are integers times
    one power of two, which cancels.  In floats ``S1^2 - S2`` cancels to 0.0
    when one weight dwarfs the others."""
    k = _integer_weights(_scaled_weights(w))
    s1, s2 = sum(k), sum(x * x for x in k)
    excess = max(0, 2 * max(k) - s1)
    return (excess * excess - s2) / (s1 * s1 - s2), 1.0


def rank_six(w: "WeightVector | Iterable[float]") -> Callable[[np.ndarray], tuple[float, int]]:
    """The rank SIX of the weights ``w`` as a function of one window's ``(n, d)``
    mid-ranks centred on ``(n + 1) / 2``, in any row order: the SIX of the
    columns that vary in it and the number of their pairs, or ``(nan, 0)``
    when fewer than two vary.  A ratio of the weights beyond the float range is
    an :class:`InvalidWeightError`.  Its callers are ``six`` and the ``rank``
    windows of ``rolling_six``, so it stays out of ``__all__``.

    SIX is one normalised variance.  With ``R`` twice the centred ranks (integers),
    ``g_i = R_i . R_i`` and ``S1``, ``S2`` the sums of the weights and their
    squares over the ``m`` varying columns (``g_i > 0``), ``sum_{i<j} w_i w_j
    rho_ij = (|R v|^2 - S2) / 2`` for ``v_i = w_i / sqrt(g_i)`` and ``sum_{i<j}
    w_i w_j = (S1^2 - S2) / 2``.  Where the varying columns share one ``g = G``
    (no ties, or comonotone columns), SIX is ``(|R k|^2 - G S2) / (G (S1^2 -
    S2))`` in the weights as integers ``k``, one correctly rounded division;
    two such columns give ``R_1 . R_2 / G``, the bits of ``centred_correlation``.
    ``k`` is cut into limbs of ``b`` bits, the most for which every entry of
    ``Y = R @ limbs`` and every dot ``Y_s . Y_t`` stays an integer below
    ``2**53`` (``n (m (n - 1))^2 2^(2b) < 2^53``, as ``|R| <= n - 1``), so
    ``|R k|^2 = sum_{s,t} 2^(b (s + t)) Y_s . Y_t`` takes two float products
    and a sum over the limb pairs, whatever ``n``; at 30 columns that holds
    for windows up to about 13,000 rows.  Any other window is the
    ``matrix_six`` of its ``centred_correlation``, whose NaN rows are the
    constant columns.
    """
    wv = as_weight_vector(w)
    float_six = matrix_six(wv)  # for its InvalidWeightError too
    k = _integer_weights(wv.values)  # every bit of the weights as given
    by_mask: dict[tuple[int, bytes], tuple] = {}

    def weights_of(varying: np.ndarray, n: int) -> tuple:
        """What the weights give a window of ``n`` rows: the sum of the varying
        columns' integer weights and of its squares, their limbs and each limb's
        power of two as a Python int (no limbs where the bound fails).  Windows
        of one row count and mask share them."""
        kv = list(compress(k, varying.tolist()))
        b = (53 - (n * (len(kv) * (n - 1)) ** 2).bit_length()) // 2
        shifts = range(0, max(kv).bit_length(), b) if b > 0 else range(0)
        limbs = np.array([[(x >> s) & ((1 << b) - 1) for s in shifts] for x in kv], dtype=float)
        scale = np.array([1 << s for s in shifts], dtype=object)
        return sum(kv), sum(x * x for x in kv), limbs, scale

    def window_six(ranks: np.ndarray) -> tuple[float, int]:
        r = ranks + ranks
        g = np.einsum("ij,ij->j", r, r)
        varying = g > 0.0
        g = g[varying]
        m = len(g)
        if m >= 2 and g.min() == g.max():
            key = (len(r), varying.tobytes())
            if key not in by_mask:
                by_mask[key] = weights_of(varying, len(r))
            k1, k2, limbs, scale = by_mask[key]
            if len(scale):
                if m < len(k):  # the limbs hold the varying columns' weights only
                    r = np.compress(varying, r, axis=1)
                y = r @ limbs
                ss = int(scale @ (y.T @ y).astype(np.int64).astype(object) @ scale)
                return (ss - int(g[0]) * k2) / (int(g[0]) * (k1 * k1 - k2)), m * (m - 1) // 2
        return float_six(centred_correlation(ranks))

    return window_six


def matrix_six(w: "WeightVector | Iterable[float]") -> Callable[[np.ndarray], tuple[float, int]]:
    """The SIX of the weights ``w`` as a function of a ``d x d`` rho matrix with
    NaN rows and columns for the constant columns: the SIX of the columns whose
    diagonal is not NaN and the number of their pairs, or ``(nan, 0)`` when
    fewer than two are.  A ratio of the weights beyond the float range is an
    :class:`InvalidWeightError`.  Its callers are ``six_lognormal``, the
    ``lognormal`` windows of ``rolling_six`` and ``rank_six`` for the rank
    windows it does not take exactly, so it stays out of ``__all__``.

    With ``D = 1 - S`` on those columns, 0 on the diagonal, SIX is ``1 - q / P``
    for ``q = sum_{i<j} w_i w_j D_ij`` and ``P = sum_{i<j} w_i w_j``.  The
    heaviest varying column ``h`` is held apart: with its mantissa ``w_h``, the
    other weights ``u`` at their own power of two (0 at ``h``) and ``t`` that
    power over ``h``'s, each ``w_i w_j`` is ``w_h u_j`` or ``t u_i u_j`` times
    one power of two, so none underflows, and ``q`` and ``P`` are ``w_h (D u)_h
    + t u . (D u) / 2`` and ``w_h S1' + t (S1'^2 - S2') / 2``, with ``S1'``,
    ``S2'`` the sums of ``u`` and of its squares, each taken with ``fsum`` once
    per mask: numpy's sums made most of SIX's rounding.  All-one rhos give
    ``D = 0``, so exactly 1.0, and two columns give their rho itself."""
    wv = as_weight_vector(w)
    _scaled_weights(wv)  # for its InvalidWeightError
    by_mask: dict[bytes, tuple] = {}

    def window_six(rho: np.ndarray) -> tuple[float, int]:
        varying = ~np.isnan(rho.diagonal())
        m = int(np.count_nonzero(varying))
        if m < 2:
            return math.nan, 0
        if m < len(varying):
            rho = rho[np.ix_(varying, varying)]
        if m == 2:
            return float(rho[0, 1]), 1
        key = varying.tobytes()
        if key not in by_mask:
            v = np.compress(varying, wv.values)
            h = int(np.argmax(v))
            w_h, e_h = math.frexp(v[h])
            v[h] = 0.0
            e_rest = math.frexp(v.max())[1]
            u = np.ldexp(v, -e_rest)
            t = math.ldexp(1.0, e_rest - e_h)
            s1, s2 = math.fsum(u.tolist()), math.fsum((u * u).tolist())
            by_mask[key] = h, w_h, t, u, w_h * s1 + t * (s1 * s1 - s2) / 2
        h, w_h, t, u, total = by_mask[key]
        dist = 1.0 - rho
        np.fill_diagonal(dist, 0.0)  # six_lognormal's unit diagonal is only within 1e-12
        y = dist @ u
        return 1.0 - float(w_h * y[h] + t * (u @ y) / 2) / total, m * (m - 1) // 2

    return window_six


def six(data: "SampleMatrix | np.ndarray", w: "WeightVector | Iterable[float]") -> float:
    """Rank-based SIX of a data matrix (columns are variables), by ``rank_six``;
    a constant column is a :class:`DegenerateDataError`."""
    wv = as_weight_vector(w)
    ranks = _centred_ranks(sample_values(data, wv.d))
    value, n_pairs = rank_six(wv)(ranks)
    if n_pairs < wv.d * (wv.d - 1) // 2:
        raise DegenerateDataError("constant column: rank correlation is undefined")
    return value


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
    return matrix_six(wv)(gaussian_spearman(c))[0]


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
