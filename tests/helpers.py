"""Shared test utilities: uniformity statistics, reference copulas and
samplers (the comonotonic, independence and Gaussian copulas among them), the
Frechet bounds, the covariance-identity and Lemma M sample checks, the
countermonotonic pair's CDF as first written, the brute-force rank-correlation
oracle, the
per-pair loops and the pairs-tuple SIX average that the matrix kernels of
``wcm.indices`` replaced, and the least-squares variant-B construction that
the closed form of ``wcm.copula`` replaced, and the row-wise sample draw,
gather and CSV writer that its column-wise path replaced, and the Monte Carlo
variance on unscaled weights and the batch moments with fresh temporaries,
kept as oracles."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.special import ndtr
from scipy.stats import rankdata

from wcm.bounds import MC_BATCH, _combine, _draw_dots
from wcm.copula import (SampleMatrix, _require_unit_cube, build_triangle, make_rng,
                        sample_values, spawn_rngs)
from wcm.errors import DegenerateDataError, DimensionError, DomainError, MassNormalizationError
from wcm.weights import as_weight_vector


def ks_uniform_statistic(x: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance to the uniform[0,1] CDF."""
    s = np.sort(np.asarray(x, float))
    n = len(s)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - s), np.max(s - (grid - 1.0 / n))))


def ks_critical_1pct(n: int) -> float:
    """Asymptotic 1% critical value for the one-sample KS statistic."""
    return 1.63 / math.sqrt(n)


def _require_dimension(d: int) -> None:
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise DimensionError(f"dimension must be an integer >= 2, got {d!r}")


def _reference_sample(n: int, seed: int, draw, construction: str) -> SampleMatrix:
    if n < 1:
        raise DimensionError(f"sample size must be >= 1, got {n}")
    return SampleMatrix(draw(make_rng(seed), n), seed=seed, meta={"construction": construction})


@dataclass(frozen=True)
class ComonotonicCopula:
    """All coordinates equal to one shared uniform draw."""

    d: int

    def __post_init__(self) -> None:
        _require_dimension(self.d)

    def cdf(self, u) -> float:
        return min(_require_unit_cube(u, self.d))

    def sample(self, n: int, seed: int) -> SampleMatrix:
        return _reference_sample(
            n, seed, lambda rng, n: np.tile(rng.random(n)[:, None], (1, self.d)), "comonotonic")


@dataclass(frozen=True)
class IndependenceCopula:
    """Coordinates drawn independently."""

    d: int

    def __post_init__(self) -> None:
        _require_dimension(self.d)

    def cdf(self, u) -> float:
        return float(np.prod(_require_unit_cube(u, self.d)))

    def sample(self, n: int, seed: int) -> SampleMatrix:
        return _reference_sample(n, seed, lambda rng, n: rng.random((n, self.d)), "independence")


def frechet_bounds(u) -> tuple[float, float]:
    """Pointwise lower and upper bounds ``(W(u), M(u))`` valid for every copula:
    ``W(u) = max(sum(u) - (d-1), 0)`` and ``M(u) = min(u)``."""
    point = tuple(float(v) for v in u)
    if len(point) < 2:
        raise DimensionError("need at least 2 coordinates")
    _require_unit_cube(point, len(point))
    lower = max(math.fsum(point) - (len(point) - 1), 0.0)
    return lower, min(point)


def countermonotonic_cdf_oracle(u) -> float:
    """The countermonotonic pair's CDF as first written: ``max(u1 + u2 - 1, 0)``."""
    u1, u2 = _require_unit_cube(u, 2)
    return max(u1 + u2 - 1.0, 0.0)


def covariance_identity_check(samples, w) -> float:
    """Residual of ``Var(w . u) == sum_i w_i^2 Var(u_i) + 2 sum_{i<j} w_i w_j Cov(u_i, u_j)``.

    Both sides use the unbiased (n-1) sample-moment convention, so the
    residual is zero up to floating point on any sample.
    """
    wv = as_weight_vector(w)
    values = sample_values(samples, wv.d)
    if values.shape[0] < 2:
        raise DimensionError("need at least 2 rows")
    weights = np.array(wv.values)
    lhs = float(np.var(values @ weights, ddof=1))
    cov = np.cov(values.T, ddof=1)
    rhs = float(weights @ cov @ weights)
    return abs(lhs - rhs)


def lemma_m_check(samples, w) -> float:
    """Sample covariance between the max-weight coordinate and ``w . u``.

    Requires ``2 * max(w) == sum(w)`` exactly.  The population value is
    nonnegative for every copula and zero exactly on the
    weighted-countermonotonic ones, so the sample value should sit within
    sampling error of zero for such samples.
    """
    wv = as_weight_vector(w)
    if 2.0 * wv.wmax != wv.s1:
        raise DomainError(
            f"requires 2*max(w) == sum(w); got 2*{wv.wmax} != {wv.s1}"
        )
    values = sample_values(samples, wv.d)
    if values.shape[0] < 2:
        raise DimensionError("need at least 2 rows")
    col = int(np.argmax(wv.values))
    weights = np.array(wv.values)
    u1 = values[:, col]
    s = values @ weights
    return float(np.cov(u1, s, ddof=1)[0, 1])


@dataclass(frozen=True)
class MixtureSampler:
    """Row-wise mixture: each observation comes from ``a`` with probability
    ``1 - lam`` and from ``b`` with probability ``lam``."""

    a: object
    b: object
    lam: float

    def sample(self, n: int, seed: int) -> SampleMatrix:
        rng = make_rng(seed)
        seed_a, seed_b = (int(v) for v in rng.integers(0, 2**63 - 1, size=2))
        pick_b = rng.random(n) < self.lam
        xa = self.a.sample(n, seed_a).values
        xb = self.b.sample(n, seed_b).values
        values = np.where(pick_b[:, None], xb, xa)
        return SampleMatrix(values, seed=seed, meta={"construction": "mixture"})


def gaussian_copula_sample(corr: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` observations from the Gaussian copula with the given
    correlation matrix (strictly positive definite)."""
    chol = np.linalg.cholesky(np.asarray(corr, dtype=float))
    z = make_rng(seed).standard_normal((n, chol.shape[0]))
    return ndtr(z @ chol.T)


@dataclass(frozen=True)
class ColumnPermutedSampler:
    """Wrap a sampler and permute its columns."""

    inner: object
    permutation: tuple[int, ...]

    def sample(self, n: int, seed: int) -> SampleMatrix:
        values = self.inner.sample(n, seed).values[:, list(self.permutation)]
        return SampleMatrix(values, seed=seed, meta={"construction": "permuted"})


def spearman_oracle(x: np.ndarray, y: np.ndarray) -> float:
    """Population-style Spearman's rho evaluated on the empirical distribution.

    Enumerates every triple (i, j, k): observation i against an independent
    copy j for the first coordinate and an independent copy k for the second,
    and returns 3 * (P[concordant] - P[discordant]).  Integer counting, so the
    only rounding is the final division.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = len(x)
    sx = np.sign(x[:, None] - x[None, :])  # sx[i, j] = sign(x_i - x_j)
    sy = np.sign(y[:, None] - y[None, :])
    prod = sx[:, :, None] * sy[:, None, :]  # over triples (i, j, k)
    concordant = int(np.count_nonzero(prod > 0))
    discordant = int(np.count_nonzero(prod < 0))
    return 3.0 * (concordant - discordant) / n**3


def empirical_cdf_on_grid(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Empirical CDF of a 3-column sample on a product grid, via a binned
    3-d histogram and an inclusive cumulative sum (O(n + g^3))."""
    counts = np.zeros((len(grid),) * 3)
    idx = [np.searchsorted(grid, values[:, k], side="left") for k in range(3)]
    # searchsorted(left) maps v <= grid[m] to index <= m, i.e. bin index of the
    # smallest grid point >= v; entries beyond the last grid point are dropped.
    inside = (idx[0] < len(grid)) & (idx[1] < len(grid)) & (idx[2] < len(grid))
    np.add.at(counts, (idx[0][inside], idx[1][inside], idx[2][inside]), 1.0)
    cum = counts.cumsum(axis=0).cumsum(axis=1).cumsum(axis=2)
    return cum / len(values)


def pearson_on_ranks_oracle(rx: np.ndarray, ry: np.ndarray) -> float:
    """Pearson correlation of two rank vectors with exact +/-1 fast paths."""
    n = len(rx)
    if np.ptp(rx) == 0.0 or np.ptp(ry) == 0.0:
        raise DegenerateDataError("constant column: rank correlation is undefined")
    if np.array_equal(rx, ry):
        return 1.0
    if np.array_equal(ry, (n + 1.0) - rx):
        return -1.0
    ax = rx - rx.mean()
    ay = ry - ry.mean()
    r = float((ax @ ay) / math.sqrt((ax @ ax) * (ay @ ay)))
    return min(1.0, max(-1.0, r))


def gaussian_spearman_oracle(rho: float) -> float:
    """Scalar ``(6/pi) * asin(rho/2)`` with exact endpoints and zero."""
    if rho in (-1.0, 0.0, 1.0):
        return float(rho)
    return min(1.0, max(-1.0, (6.0 / math.pi) * math.asin(0.5 * rho)))


def window_pair_rhos_oracle(block: np.ndarray, estimator: str):
    """One window's pairs, rhos and skipped (constant-column) pairs, computed
    one pair at a time: mid-rank Pearson, or ``corrcoef`` then the arcsine map."""
    d = block.shape[1]
    constant = [bool(np.ptp(block[:, k]) == 0.0) for k in range(d)]
    pairs, rhos, skipped = [], [], []
    ranks = rankdata(block, method="average", axis=0)
    for i in range(d):
        for j in range(i + 1, d):
            if constant[i] or constant[j]:
                skipped.append((i, j))
                continue
            pairs.append((i, j))
            if estimator == "rank":
                rhos.append(pearson_on_ranks_oracle(ranks[:, i], ranks[:, j]))
            elif estimator == "lognormal":
                corr = float(np.corrcoef(block[:, i], block[:, j])[0, 1])
                rhos.append(gaussian_spearman_oracle(min(1.0, max(-1.0, corr))))
            else:
                raise DomainError(f"unknown estimator {estimator!r}")
    return tuple(pairs), tuple(rhos), tuple(skipped)


def six_from_pairs_oracle(pairs, rhos, w) -> tuple[float, tuple]:
    """SIX and its normalized pair weights as first written: from tuples of
    pairs ``(i, j)`` and their rhos, with ``w_i w_j`` formed one pair at a time.
    The average of one pair is its rho, exactly."""
    terms = np.array([w[i] * w[j] for i, j in pairs])
    denominator = math.fsum(terms.tolist())
    value = math.fsum((terms * np.array(rhos)).tolist()) / denominator
    if len(pairs) == 1:
        value = float(rhos[0])
    return value, tuple(zip(pairs, (terms / denominator).tolist()))


def covariance_ratio_oracle(w, model, diagonal: bool) -> float:
    """HIX (``diagonal``) or RHIX of a lognormal model, one pair at a time."""
    mu, var, s = model.mu, np.diag(model.cov), model.sigmas
    num = den = 0.0
    for i in range(len(w)):
        for j in range(len(w)) if diagonal else range(i + 1, len(w)):
            ww = w[i] * w[j]
            growth = math.exp(mu[i] + mu[j] + 0.5 * (var[i] + var[j]))
            num += ww * (growth * math.expm1(model.cov[i, j]))
            den += ww * (growth * math.expm1(var[i] if i == j else s[i] * s[j]))
    return num / den


_EDGES = ((0, 1), (1, 2), (2, 0))


def edge_fraction_leq_oracle(a, b, k: int, q: float) -> float:
    """Length of ``{t in [0,1] : (1-t)*a[k] + t*b[k] <= q}``."""
    ak, bk = a[k], b[k]
    if ak == bk:
        return 1.0 if ak <= q else 0.0
    s = (q - ak) / (bk - ak)
    if bk > ak:
        return min(1.0, max(0.0, s))
    return min(1.0, max(0.0, 1.0 - s))


def solve_edge_masses_oracle(vertices) -> tuple[float, float, float]:
    """Solve the uniformity system for the edge masses of a triangle copula.

    Each coordinate's marginal CDF is piecewise linear with kinks only at
    vertex coordinate values, so requiring ``P(U_k <= q) == q`` at the middle
    vertex value, the midpoints of the adjacent linear pieces, and 1 pins the
    marginal to the identity.  The resulting overdetermined linear system
    (plus total mass one) is solved by least squares and verified.
    """
    rows: list[list[float]] = []
    rhs: list[float] = []
    for k in range(3):
        middle = sorted(v[k] for v in vertices)[1]
        for q in (0.5 * middle, middle, 0.5 * (1.0 + middle), 1.0):
            rows.append([edge_fraction_leq_oracle(vertices[i], vertices[j], k, q)
                         for i, j in _EDGES])
            rhs.append(q)
    rows.append([1.0, 1.0, 1.0])
    rhs.append(1.0)
    coeffs = np.array(rows)
    target = np.array(rhs)
    masses, *_ = np.linalg.lstsq(coeffs, target, rcond=None)
    residual = float(np.max(np.abs(coeffs @ masses - target)))
    if residual > 1e-10:
        raise MassNormalizationError(
            f"uniformity system unsolvable for vertices {vertices!r} (residual {residual:.3g})"
        )
    if float(masses.min()) < -1e-12:
        raise MassNormalizationError(f"negative edge mass {masses!r} for vertices {vertices!r}")
    masses = np.maximum(masses, 0.0)
    total = math.fsum(masses.tolist())
    if abs(total - 1.0) > 1e-12:
        raise MassNormalizationError(f"edge masses sum to {total:.17g}, not 1")
    return tuple(float(m) for m in masses)  # type: ignore[return-value]


def variant_b_oracle(w):
    """Variant B of an admissible triple as first built: its own z-formulae,
    the mirror vertex layout, and masses from ``solve_edge_masses_oracle``.
    Returns ``(z, vertices, masses)``."""
    w1, w2, w3 = (float(v) for v in w)
    raw = (
        math.fsum((w2, w3, -w1)) / (2.0 * w3),
        math.fsum((w3, w1, -w2)) / (2.0 * w1),
        math.fsum((w1, w2, -w3)) / (2.0 * w2),
    )
    z = tuple(min(1.0, max(0.0, v)) for v in raw)
    vertices = ((1.0, 0.0, z[0]), (z[1], 1.0, 0.0), (0.0, z[2], 1.0))
    return z, vertices, solve_edge_masses_oracle(vertices)


def triangle_draw_oracle(tri, rng: np.random.Generator, n: int) -> np.ndarray:
    """A triangle copula's ``(n, 3)`` draw as first written: ``searchsorted``
    on the cumulative edge masses, then one broadcast between edge ends."""
    cum = np.cumsum(tri.masses)
    edge_idx = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), 2)
    t = rng.random(n)
    verts = np.array(tri.vertices)
    start = verts[[e[0] for e in _EDGES]][edge_idx]
    end = verts[[e[1] for e in _EDGES]][edge_idx]
    return t[:, None] * start + (1.0 - t)[:, None] * end


def grouped_sample_oracle(g, n: int, seed: int) -> np.ndarray:
    """A grouped copula's sample as first written: the triangle draw, then one
    C-order ``take`` of its columns."""
    col_of = np.empty(g.d, dtype=np.intp)
    for col, group in enumerate(g.groups):
        col_of[list(group)] = col
    tri = build_triangle(g.aggregates)
    return triangle_draw_oracle(tri, make_rng(seed), n).take(col_of, axis=1, mode="clip")


def csv_oracle(values: np.ndarray) -> str:
    """A sample matrix's CSV text as first written: ``csv.writer`` over the
    ``repr`` of every cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"u{k + 1}" for k in range(values.shape[1])])
    for row in values:
        writer.writerow([repr(float(x)) for x in row])
    return buf.getvalue()


def mc_variance_unscaled_oracle(sampler, w, n: int, seed: int) -> tuple[float, float]:
    """``wcm.bounds.mc_variance`` as it was before it scaled the weights by a
    power of two: the same batches, streams and moment merge on one thread,
    with the dots taken on the weights as given."""
    weights = np.array(as_weight_vector(w).values)
    sizes = [MC_BATCH] * (n // MC_BATCH) + ([n % MC_BATCH] if n % MC_BATCH else [])
    parts = [batch_moments_oracle(_draw_dots(sampler, weights, size, rng))
             for size, rng in zip(sizes, spawn_rngs(seed, len(sizes)))]
    total, _, m2_sum, _, m4_sum = reduce(_combine, parts)
    m2 = m2_sum / total
    m4 = m4_sum / total
    se = math.sqrt(max(0.0, m4 - m2 * m2 * (total - 3) / (total - 1)) / total)
    return m2_sum / (total - 1), se


def batch_moments_oracle(x: np.ndarray) -> tuple[int, float, float, float, float]:
    """``wcm.bounds._batch_moments`` as first written: a fresh array for each
    power of the deviations."""
    n = len(x)
    mean = float(x.mean())
    d = x - mean
    d2 = d * d
    return n, mean, float(d2.sum()), float((d2 * d).sum()), float((d2 * d2).sum())
