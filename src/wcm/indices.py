"""Rank correlation, the SIX herd behavior index with its sharp bounds, and
closed-form lognormal comparison indices (HIX, RHIX).

SIX is the ``w_i w_j``-weighted average of pairwise Spearman's rhos.  It
depends on the data only through ranks, so it is invariant to strictly
increasing transformations of the marginals.  Its sharp range is::

    (12 * l(w) - S2) / (S1^2 - S2)  <=  SIX  <=  1

with the upper end reached by comonotonicity and the lower end by the
weighted-countermonotonic coupling on the shrunken weights.  HIX and RHIX are
variance-ratio indices that do depend on the marginals; their lognormal
closed forms are provided as a contrast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "SixReport",
    "LognormalModel",
    "midranks",
    "centred_correlation",
    "spearman_rho",
    "spearman_matrix",
    "gaussian_spearman",
    "six",
    "six_from_matrix",
    "weighted_six",
    "pair_weight_matrix",
    "six_bounds",
    "six_lognormal",
    "rhix_lognormal_bivariate",
    "rhix_lognormal",
    "hix_lognormal",
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


def centred_correlation(a: np.ndarray, varying: np.ndarray | None = None) -> np.ndarray:
    """Pairwise correlations of the columns of a centred ``(n, d)`` array from
    one Gram product: ``G = a.T @ a`` and ``rho_ij = G_ij / sqrt(G_ii G_jj)``
    clipped to [-1, 1].  The rows and columns of the columns that do not vary
    are NaN; by default those are the columns with ``G_ii == 0``, which is
    exact for centred ranks.  The row order of ``a`` does not matter."""
    gram = a.T @ a
    diag = np.diag(gram)
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.clip(gram / np.sqrt(np.outer(diag, diag)), -1.0, 1.0)
    if varying is None:
        varying = diag > 0.0
    rho[~np.outer(varying, varying)] = np.nan
    return rho


def spearman_rho(x: Sequence[float], y: Sequence[float]) -> float:
    """Sample Spearman's rho: Pearson correlation of mid-ranks.

    Ties get average ranks.  Exactly 1 for strictly concordant tie-free data
    and exactly -1 for strictly discordant.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or ya.ndim != 1:
        raise DimensionError("spearman_rho expects 1-d columns")
    if len(xa) != len(ya):
        raise DimensionError(f"length mismatch: {len(xa)} vs {len(ya)}")
    return float(spearman_matrix(np.column_stack((xa, ya)))[0, 1])


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


@dataclass(frozen=True)
class SixReport:
    """SIX value with its sharp bounds and the pair mixing weights."""

    weights: tuple[float, ...]
    six: float
    lower_bound: float
    upper_bound: float
    pair_weights: tuple[tuple[tuple[int, int], float], ...]
    n: int | None
    within_bounds: bool


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
) -> tuple[float, bool, np.ndarray]:
    """SIX from a ``d x d`` rho matrix and the ``pair_weight_matrix``:
    ``fsum(w_i w_j rho_ij) / fsum(w_i w_j)`` over the pairs ``i < j`` whose rho
    is not NaN (NaN if no weight is left), whether it lies within the sharp
    ``bounds`` up to ``BOUND_SLACK``, and the mask of the pairs used.  Both
    sums are correctly rounded, so rhos that are all one give exactly 1.0.
    One pair's average is its rho itself, which ``w * rho / w`` need not be."""
    terms = pair_w * rho
    used = ~np.isnan(terms)
    weights = pair_w[used].tolist()
    total = math.fsum(weights)
    if len(weights) == 1 and total:
        value = float(rho[used][0])
    else:
        value = math.fsum(terms[used].tolist()) / total if total else math.nan
    lower, upper = bounds
    return value, lower - BOUND_SLACK <= value <= upper + BOUND_SLACK, used


def six_from_matrix(
    rho: np.ndarray, w: "WeightVector | Iterable[float]", n: int | None = None
) -> SixReport:
    """Weighted average of pairwise rhos: ``sum w_i w_j rho_ij / sum w_i w_j``
    over the upper triangle of the ``d x d`` matrix ``rho``, where NaN marks a
    pair that is left out."""
    wv = as_weight_vector(w)
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (wv.d, wv.d):
        raise DimensionError(f"weights have d={wv.d} but rho matrix has shape {rho.shape}")
    if (np.abs(rho) > 1.0).any():
        raise DomainError(f"rho outside [-1, 1] in {rho!r}")
    pair_w = pair_weight_matrix(wv)
    bounds = six_bounds(wv)
    value, within, used = weighted_six(rho, pair_w, bounds)
    if math.isnan(value):
        raise DegenerateDataError("every pair of the rho matrix is left out")
    weights = pair_w[used]
    return SixReport(
        weights=wv.values,
        six=value,
        lower_bound=bounds[0],
        upper_bound=bounds[1],
        pair_weights=tuple(zip(map(tuple, np.argwhere(used).tolist()),
                               (weights / math.fsum(weights.tolist())).tolist())),
        n=n,
        within_bounds=within,
    )


def six(data: "SampleMatrix | np.ndarray", w: "WeightVector | Iterable[float]") -> SixReport:
    """Rank-based SIX of a data matrix (columns are variables)."""
    wv = as_weight_vector(w)
    values = sample_values(data, wv.d)
    return six_from_matrix(spearman_matrix(values), wv, n=values.shape[0])


@dataclass(frozen=True)
class LognormalModel:
    """Multivariate lognormal: ``X = exp(Z)`` with ``Z ~ N(mu, cov)``.

    ``cov`` is the covolatility matrix of the log returns; its implied
    correlation matrix fully determines the (Gaussian) copula.
    """

    mu: tuple[float, ...]
    cov: np.ndarray

    def __post_init__(self) -> None:
        mu = tuple(float(v) for v in self.mu)
        cov = np.asarray(self.cov, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ModelError(f"covolatility matrix must be square, got shape {cov.shape}")
        if len(mu) != cov.shape[0]:
            raise ModelError(f"mu has length {len(mu)} but cov is {cov.shape[0]}x{cov.shape[0]}")
        if len(mu) < 2:
            raise ModelError("need at least 2 assets")
        scale = float(np.max(np.abs(cov))) or 1.0
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12 * scale):
            raise ModelError("covolatility matrix must be symmetric")
        diag = np.diag(cov)
        if np.any(diag <= 0.0):
            raise ModelError("covolatility diagonal must be strictly positive")
        if float(np.linalg.eigvalsh(cov).min()) < -1e-10 * scale:
            raise ModelError("covolatility matrix must be positive semidefinite")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "cov", cov)

    @property
    def d(self) -> int:
        return len(self.mu)

    @property
    def sigmas(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))

    @property
    def correlations(self) -> np.ndarray:
        s = self.sigmas
        corr = self.cov / np.outer(s, s)
        return np.clip(corr, -1.0, 1.0)

    @classmethod
    def bivariate(cls, rho: float, sigma1: float, sigma2: float,
                  mu: Sequence[float] = (0.0, 0.0)) -> "LognormalModel":
        if not -1.0 <= rho <= 1.0:
            raise ModelError(f"correlation must lie in [-1, 1], got {rho!r}")
        cov = np.array(
            [[sigma1 * sigma1, rho * sigma1 * sigma2],
             [rho * sigma1 * sigma2, sigma2 * sigma2]]
        )
        return cls(tuple(mu), cov)


def six_lognormal(w: "WeightVector | Iterable[float]", model: LognormalModel) -> float:
    """Population SIX of a lognormal model via the Gaussian-copula arcsine map.

    Depends on the model only through its copula correlations: the drift and
    the marginal volatilities cancel.
    """
    return six_from_matrix(gaussian_spearman(model.correlations), w).six


def _covariance_ratio(
    w: "WeightVector | Iterable[float]", model: LognormalModel, diagonal: bool
) -> float:
    """``sum w_i w_j Cov[X_i, X_j] / sum w_i w_j Cov^c[X_i, X_j]`` over the
    lognormal prices, where ``Cov^c`` keeps the marginals and sets every copula
    correlation to one; over all ``i, j`` or, without ``diagonal``, ``i != j``.
    The weights are scaled by ``unit_scaled``, which leaves the ratio as it
    is but keeps ``w_i w_j`` from underflowing or overflowing."""
    wv = WeightVector(_scaled_weights(w))
    if wv.d != model.d:
        raise DimensionError(f"weights have d={wv.d} but model has d={model.d}")
    mu, var, s = np.array(model.mu), np.diag(model.cov), model.sigmas
    scale = np.outer(wv.values, wv.values) * np.exp(
        mu[:, None] + mu[None, :] + 0.5 * (var[:, None] + var[None, :]))
    comonotone = np.outer(s, s)
    np.fill_diagonal(comonotone, var)
    terms = ~np.eye(wv.d, dtype=bool) | diagonal
    num = math.fsum((scale * np.expm1(model.cov))[terms].tolist())
    return num / math.fsum((scale * np.expm1(comonotone))[terms].tolist())


def rhix_lognormal_bivariate(rho: float, sigma1: float, sigma2: float) -> float:
    """Two-asset covariance-ratio index under lognormality:
    ``(exp(rho*s1*s2) - 1) / (exp(s1*s2) - 1)``."""
    if not -1.0 <= rho <= 1.0:
        raise ModelError(f"correlation must lie in [-1, 1], got {rho!r}")
    if sigma1 <= 0.0 or sigma2 <= 0.0:
        raise ModelError("volatilities must be positive")
    return math.expm1(rho * sigma1 * sigma2) / math.expm1(sigma1 * sigma2)


def rhix_lognormal(w: "WeightVector | Iterable[float]", model: LognormalModel) -> float:
    """Covariance-ratio index: off-diagonal covariance mass relative to its
    comonotonic ceiling.  Sensitive to the marginal volatilities."""
    return _covariance_ratio(w, model, diagonal=False)


def hix_lognormal(w: "WeightVector | Iterable[float]", model: LognormalModel) -> float:
    """Variance-ratio index ``Var[S] / Var[S^c]`` under lognormality, where the
    comonotonic version keeps the marginals and sets all copula correlations
    to one.  Diagonal variance terms stay in both numerator and denominator."""
    return _covariance_ratio(w, model, diagonal=True)


def rhix_degeneracy_curve(
    rho: float, sigma_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """The covariance-ratio index along a common-volatility sweep.

    For ``0 < rho < 1`` the curve is strictly decreasing and tends to zero as
    the volatility grows (asserted), even though the copula never changes:
    the index is driven by the marginals.
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
                raise AssertionError(
                    f"curve not strictly decreasing at sigma={s1} ({v0} -> {v1})"
                )
    return curve
