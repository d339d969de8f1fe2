"""Construction, exact CDF evaluation, and sampling of weighted-countermonotonic
copulas.

For a weight triple ``(w1, w2, w3)`` forming (possibly degenerate) triangle
side lengths, the copula is supported on the three edges of a triangle inside
the unit cube whose vertices lie on the hyperplane ``w . u == sum(w) / 2``,
with mass uniformly distributed along each edge.  Two inequivalent vertex
layouts exist (variants "A" and "B"); both have exactly uniform marginals.
General dimension ``d >= 3`` is reached by partitioning the weights into three
groups, making coordinates within a group comonotonic, and coupling the three
group aggregates through a triangle copula.  For ``d == 2`` the construction
exists only for equal weights and reduces to the countermonotonic pair.

Randomness uses numpy's PCG64 generator seeded through ``SeedSequence``;
parallel batches draw from ``SeedSequence(seed).spawn(n_batches)`` so results
are reproducible bit-for-bit regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
import numpy.random  # numpy loads it lazily; load it with this module, not on the first draw

from .errors import (
    DimensionError,
    DomainError,
    ExistenceError,
    MassNormalizationError,
)
from .weights import (
    CONSTRUCTION_TOL,
    WeightVector,
    as_weight_vector,
    existence_deficit,
    partition_weights,
    validate_wcm_existence,
)

__all__ = [
    "GENERATOR_NAME",
    "SampleMatrix",
    "TriangleCopula",
    "GroupedWCMCopula",
    "CountermonotonicPair",
    "ComonotonicCopula",
    "IndependenceCopula",
    "triangle_params",
    "edge_masses",
    "build_triangle",
    "build_grouped_wcm",
    "check_wcm",
    "sample_values",
    "frechet_bounds",
    "make_rng",
    "spawn_rngs",
]

GENERATOR_NAME = "pcg64"

#: Sample-level support checks (accumulated rounding over linear combinations).
SUPPORT_TOL = 1e-9

_EDGES = ((0, 1), (1, 2), (2, 0))
_EDGE_LABELS = ("m12", "m23", "m31")
_CSV_BLOCK = 1 << 10  # rows per block of CSV text (~230 KB at d = 12): bounds the strings held at once
_DRAW_BLOCK = 1 << 14  # rows per block of a triangle draw: keeps its temporaries in L2


def _seed_sequence(seed: int) -> np.random.SeedSequence:
    """``SeedSequence(seed)``; a negative seed is a :class:`DomainError`."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence(seed)


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide generator: PCG64 seeded via ``SeedSequence(seed)``."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed)))


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Independent child generators for parallel batches (stream-splitting rule)."""
    return [np.random.Generator(np.random.PCG64(s)) for s in _seed_sequence(seed).spawn(n)]


@dataclass(frozen=True)
class SampleMatrix:
    """An ``n x d`` matrix of copula observations in the unit cube.

    Columns follow the original weight order.  The seed and generator name are
    recorded so any run can be reproduced exactly.
    """

    values: np.ndarray
    seed: int | None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise DimensionError(f"sample matrix must be 2-d with a column, got shape {arr.shape}")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def to_json_dict(self) -> dict:
        meta = {"n": self.n, "d": self.d, "seed": self.seed, "generator": GENERATOR_NAME}
        meta.update(self.meta)
        return meta

    def to_csv_string(self) -> str:
        return "".join(self.csv_blocks())

    def csv_blocks(self) -> Iterator[str]:
        """The header, then blocks of rows of ``repr`` cells.  Each bitwise-distinct
        column is formatted once per block; bits, unlike ``==``, tell -0.0 from 0.0."""
        yield ",".join(f"u{k + 1}" for k in range(self.d)) + "\n"
        bits = self.values.view(np.uint64)
        first = [next(k for k in range(j + 1) if np.array_equal(bits[:, k], bits[:, j]))
                 for j in range(self.d)]
        for start in range(0, self.n, _CSV_BLOCK):
            block = self.values[start:start + _CSV_BLOCK]
            text = {k: list(map(repr, block[:, k].tolist())) for k in set(first)}
            yield "\n".join(map(",".join, zip(*(text[k] for k in first)))) + "\n"


def sample_values(samples: "SampleMatrix | np.ndarray", d: int) -> np.ndarray:
    """The float values of a sample matrix or array; raises
    :class:`DimensionError` unless their shape is ``(n, d)``."""
    values = samples.values if isinstance(samples, SampleMatrix) else np.asarray(samples, float)
    if values.ndim != 2 or values.shape[1] != d:
        raise DimensionError(f"sample has shape {values.shape}, expected (n, {d})")
    return values


def _sampled(n: int, seed: int, draw: Callable, meta: dict) -> SampleMatrix:
    """The sample path every copula shares: ``draw(rng, n)`` on the generator
    seeded by ``seed``, wrapped with its seed and metadata."""
    if n < 1:
        raise DimensionError(f"sample size must be >= 1, got {n}")
    return SampleMatrix(draw(make_rng(seed), n), seed=seed, meta=meta)


def triangle_params(w: Sequence[float]) -> tuple[float, float, float]:
    """Interior vertex coordinates for the triangle supporting a weight triple.

    Returns ``z1 = (w2+w3-w1)/(2*w2)``, ``z2 = (w3+w1-w2)/(2*w3)``,
    ``z3 = (w1+w2-w3)/(2*w1)``; all lie in ``[0, 1]`` exactly when the triple
    forms triangle side lengths.  Values within 1e-12 of the boundary are
    clamped (degenerate triangles); anything further out raises.
    """
    wv = as_weight_vector(w)
    if wv.d != 3:
        raise DimensionError(f"triangle parameters need exactly 3 weights, got {wv.d}")
    w1, w2, w3 = wv.values
    # fsum keeps the numerator sign exact at the degenerate boundary
    raw = (
        math.fsum((w2, w3, -w1)) / (2.0 * w2),
        math.fsum((w3, w1, -w2)) / (2.0 * w3),
        math.fsum((w1, w2, -w3)) / (2.0 * w1),
    )
    return tuple(_clamp_unit(z, wv) for z in raw)  # type: ignore[return-value]


def _clamp_unit(z: float, wv: WeightVector) -> float:
    if z < 0.0 or z > 1.0:
        if -CONSTRUCTION_TOL <= z <= 1.0 + CONSTRUCTION_TOL:
            return min(1.0, max(0.0, z))
        raise ExistenceError(
            f"weights {wv.values} do not form triangle side lengths: "
            f"2*max - sum = {existence_deficit(wv):.17g} > 0"
        )
    return z


def edge_masses(z: Sequence[float]) -> tuple[float, float, float]:
    """Edge masses making the triangle's marginals uniform.

    With ``a = 1-z1``, ``b = 1-z2``, ``c = 1-z3``::

        m12 = (abc - ab + a) / (abc + 1)
        m23 = (abc - bc + b) / (abc + 1)
        m31 = (abc - ca + c) / (abc + 1)

    For a z-triple derived from triangle side lengths the masses sum to one;
    an arbitrary z-triple generally fails that, in which case this raises
    rather than silently accepting an invalid copula.
    """
    if len(z) != 3:
        raise DimensionError(f"expected 3 z-values, got {len(z)}")
    z1, z2, z3 = (float(v) for v in z)
    for v in (z1, z2, z3):
        if not (0.0 <= v <= 1.0):
            raise DomainError(f"z-values must lie in [0, 1], got {v!r}")
    a, b, c = 1.0 - z1, 1.0 - z2, 1.0 - z3
    abc = a * b * c
    denom = abc + 1.0
    masses = (
        (abc - a * b + a) / denom,
        (abc - b * c + b) / denom,
        (abc - c * a + c) / denom,
    )
    total = math.fsum(masses)
    if abs(total - 1.0) > CONSTRUCTION_TOL:
        raise MassNormalizationError(
            f"edge masses sum to {total:.17g}, not 1: z={z!r} is not an admissible triple"
        )
    if min(masses) < -CONSTRUCTION_TOL:
        raise MassNormalizationError(f"negative edge mass in {masses!r} for z={z!r}")
    return tuple(max(0.0, m) for m in masses)  # type: ignore[return-value]


@dataclass(frozen=True)
class TriangleCopula:
    """A three-dimensional copula supported on the edges of a triangle.

    ``vertices`` are the triangle corners ``p1, p2, p3``; ``masses`` are the
    probabilities ``(m12, m23, m31)`` of the edges ``p1p2, p2p3, p3p1``, with
    mass spread uniformly along each edge.  Every support point ``u``
    satisfies ``w . u == sum(w) / 2``.
    """

    weights: tuple[float, float, float]
    z_values: tuple[float, float, float]
    vertices: tuple[tuple[float, float, float], ...]
    masses: tuple[float, float, float]
    variant: str

    def __post_init__(self) -> None:
        s1 = math.fsum(self.weights)
        tol = CONSTRUCTION_TOL * max(1.0, s1)
        if abs(math.fsum(self.masses) - 1.0) > CONSTRUCTION_TOL or min(self.masses) < 0.0:
            raise MassNormalizationError(f"invalid edge masses {self.masses!r}")
        for z in self.z_values:
            if not (0.0 <= z <= 1.0):
                raise DomainError(f"z-value {z!r} outside [0, 1]")
        for p in self.vertices:
            dot = math.fsum(wi * pi for wi, pi in zip(self.weights, p))
            if abs(dot - 0.5 * s1) > tol:
                raise ExistenceError(
                    f"vertex {p!r} misses the support hyperplane by {dot - 0.5 * s1:.3g}"
                )

    @property
    def d(self) -> int:
        return 3

    def cdf(self, u: Sequence[float]) -> float:
        """Exact CDF at ``u``.

        Points on an edge are ``t*p_i + (1-t)*p_j`` with ``t`` uniform; each
        coordinate constraint is linear in ``t``, so the admissible set per
        edge is an interval whose length multiplies the edge mass.  Closed
        form, no quadrature.
        """
        point = _require_unit_cube(u, 3)
        total = 0.0
        for (i, j), mass in zip(_EDGES, self.masses):
            total += mass * _edge_interval_length(self.vertices[i], self.vertices[j], point)
        return min(1.0, total)

    def marginal_cdf(self, k: int, value: float) -> float:
        """CDF of coordinate ``k`` alone (others at 1)."""
        point = [1.0, 1.0, 1.0]
        point[k] = value
        return self.cdf(point)

    def sample(self, n: int, seed: int) -> SampleMatrix:
        """Draw ``n`` observations: pick an edge by mass, then a uniform
        position along it.  Deterministic given ``seed``."""
        meta = {"weights": list(self.weights), "variant": self.variant,
                "construction": "triangle"}
        return _sampled(n, seed, lambda rng, n: self._draw(rng, n, (0, 1, 2)), meta)

    def _draw(self, rng: np.random.Generator, n: int, cols: Sequence[int]) -> np.ndarray:
        """``n`` draws as a C-order ``(n, len(cols))`` matrix whose column ``i``
        is coordinate ``cols[i]``: all uniforms first, then the coordinates
        ``_DRAW_BLOCK`` rows at a time.  Each step is elementwise, so the bits
        do not depend on the block size."""
        cum = np.cumsum(self.masses)
        u = rng.random(n)
        t = rng.random(n)
        start, end = (np.array([self.vertices[e[side]] for e in _EDGES]).T for side in (0, 1))
        out = np.empty((n, len(cols)))
        for lo in range(0, n, _DRAW_BLOCK):
            ub, tb = u[lo:lo + _DRAW_BLOCK], t[lo:lo + _DRAW_BLOCK]
            # min(searchsorted(cum, u, "right"), 2), as masses >= 0 keep cum sorted
            edge = np.add(ub >= cum[0], ub >= cum[1], dtype=np.intp)
            sb = 1.0 - tb
            coords = [tb * a.take(edge) + sb * b.take(edge) for a, b in zip(start, end)]
            block = out[lo:lo + _DRAW_BLOCK]
            for i, col in enumerate(cols):
                block[:, i] = coords[col]
        return out

    def to_dict(self) -> dict:
        return {
            "weights": list(self.weights),
            "variant": self.variant,
            "z": list(self.z_values),
            "vertices": [list(p) for p in self.vertices],
            "masses": dict(zip(_EDGE_LABELS, self.masses)),
        }


def _require_unit_cube(u: Sequence[float], d: int) -> tuple[float, ...]:
    point = tuple(float(v) for v in u)
    if len(point) != d:
        raise DimensionError(f"expected a point with {d} coordinates, got {len(point)}")
    for v in point:
        if not (0.0 <= v <= 1.0):
            raise DomainError(f"coordinate {v!r} outside the unit cube")
    return point


def _edge_interval_length(a: Sequence[float], b: Sequence[float], u: Sequence[float]) -> float:
    """Length of the t-interval on edge ``t*a + (1-t)*b`` lying below ``u``.

    A zero-length edge (a == b) counts fully when the point is inside the box:
    a degenerate edge is an atom.
    """
    lo, hi = 0.0, 1.0
    for k in range(len(u)):
        v0, v1 = b[k], a[k]  # coordinate value at t=0 and at t=1
        if v0 == v1:
            if v0 > u[k]:
                return 0.0
            continue
        s = (u[k] - v0) / (v1 - v0)
        if v1 > v0:
            hi = min(hi, s)
        else:
            lo = max(lo, s)
        if lo >= hi:
            return 0.0
    return max(0.0, hi - lo)


def build_triangle(w: Sequence[float], variant: str = "A") -> TriangleCopula:
    """Construct the triangle copula for a weight triple.

    Variant "A" places vertices ``(1, z1, 0), (0, 1, z2), (z3, 0, 1)`` with
    closed-form edge masses.  Variant "B" is its mirror image, variant A on
    ``(w1, w3, w2)`` with coordinates 2 and 3 swapped: vertices
    ``(1, 0, z1*), (z2*, 1, 0), (0, z3*, 1)``, with the z-values and the edge
    masses of that triangle relabeled to match.  Both are valid and differ as
    functions: the construction is not unique.
    """
    wv = as_weight_vector(w)
    if wv.d != 3:
        raise DimensionError(f"triangle construction needs exactly 3 weights, got {wv.d}")
    if variant not in ("A", "B"):
        raise DomainError(f"variant must be 'A' or 'B', got {variant!r}")
    # Also the existence check for "B", so its error names the weights as given.
    z = triangle_params(wv)
    if variant == "A":
        vertices = ((1.0, z[0], 0.0), (0.0, 1.0, z[1]), (z[2], 0.0, 1.0))
        return TriangleCopula(wv.values, z, vertices, edge_masses(z), variant)
    w1, w2, w3 = wv.values
    a = build_triangle((w1, w3, w2), "A")
    p1, p2, p3 = ((p[0], p[2], p[1]) for p in a.vertices)
    (z1, z2, z3), (m12, m23, m31) = a.z_values, a.masses
    return TriangleCopula(wv.values, (z1, z3, z2), (p1, p3, p2), (m31, m23, m12), variant)


@dataclass(frozen=True)
class CountermonotonicPair:
    """The unique extreme-negative-dependence copula in two dimensions:
    ``U2 == 1 - U1`` exactly.  Exists for equal weights only."""

    weights: tuple[float, float]

    @property
    def d(self) -> int:
        return 2

    def cdf(self, u: Sequence[float]) -> float:
        u1, u2 = _require_unit_cube(u, 2)
        return max(u1 + u2 - 1.0, 0.0)

    def sample(self, n: int, seed: int) -> SampleMatrix:
        meta = {"weights": list(self.weights), "construction": "countermonotonic"}
        return _sampled(n, seed, self._draw, meta)

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        return np.column_stack([u, 1.0 - u])


@dataclass(frozen=True)
class GroupedWCMCopula:
    """General-dimension construction: comonotonic within three groups whose
    aggregate weights, ``inner.weights``, are coupled through an inner
    triangle copula."""

    weights: tuple[float, ...]
    groups: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    inner: TriangleCopula

    def __post_init__(self) -> None:
        if (len(self.groups) != 3 or not all(self.groups)
                or sorted(i for g in self.groups for i in g) != list(range(self.d))):
            raise DimensionError(
                f"groups {self.groups} do not split {self.d} weights into three nonempty groups")

    @property
    def d(self) -> int:
        return len(self.weights)

    def cdf(self, u: Sequence[float]) -> float:
        """Exact CDF: coordinates within a group are equal, so only each
        group's smallest coordinate binds, ``C_tri(min_A u, min_B u, min_C u)``."""
        point = _require_unit_cube(u, self.d)
        return self.inner.cdf(tuple(min(point[i] for i in g) for g in self.groups))

    def sample(self, n: int, seed: int) -> SampleMatrix:
        col_of = {i: col for col, group in enumerate(self.groups) for i in group}
        cols = [col_of[i] for i in range(self.d)]
        meta = {"weights": list(self.weights), "construction": "grouped",
                "groups": [list(group) for group in self.groups],
                "aggregates": list(self.inner.weights)}
        # C order: the bits of a downstream ``values @ w`` depend on it
        return _sampled(n, seed, lambda rng, n: self.inner._draw(rng, n, cols), meta)


def build_grouped_wcm(
    w: "WeightVector | Iterable[float]",
) -> "GroupedWCMCopula | CountermonotonicPair":
    """Build a weighted-countermonotonic copula for any admissible weights.

    Raises :class:`ExistenceError` (reporting ``2*max - sum``) when the
    criterion fails.  ``d == 2`` yields the countermonotonic pair; ``d >= 3``
    partitions the weights and couples the three aggregates through a
    variant-A triangle.
    """
    wv = as_weight_vector(w)
    if not validate_wcm_existence(wv):
        raise ExistenceError(
            f"no weighted-countermonotonic copula exists for {wv.values}: "
            f"2*max - sum = {existence_deficit(wv):.17g} > 0"
        )
    if wv.d == 2:
        return CountermonotonicPair(wv.values)  # type: ignore[arg-type]
    groups = partition_weights(wv)
    inner = build_triangle([math.fsum(wv.values[i] for i in g) for g in groups], variant="A")
    return GroupedWCMCopula(wv.values, groups, inner)


def _require_dimension(d: int) -> None:
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise DimensionError(f"dimension must be an integer >= 2, got {d!r}")


@dataclass(frozen=True)
class ComonotonicCopula:
    """All coordinates equal to one shared uniform draw."""

    d: int

    def __post_init__(self) -> None:
        _require_dimension(self.d)

    def cdf(self, u: Sequence[float]) -> float:
        return min(_require_unit_cube(u, self.d))

    def sample(self, n: int, seed: int) -> SampleMatrix:
        return _sampled(
            n, seed, lambda rng, n: np.tile(rng.random(n)[:, None], (1, self.d)),
            {"construction": "comonotonic"},
        )


@dataclass(frozen=True)
class IndependenceCopula:
    """Coordinates drawn independently."""

    d: int

    def __post_init__(self) -> None:
        _require_dimension(self.d)

    def cdf(self, u: Sequence[float]) -> float:
        return float(np.prod(_require_unit_cube(u, self.d)))

    def sample(self, n: int, seed: int) -> SampleMatrix:
        return _sampled(
            n, seed, lambda rng, n: rng.random((n, self.d)), {"construction": "independence"}
        )


def check_wcm(
    samples: "SampleMatrix | np.ndarray",
    w: "WeightVector | Iterable[float]",
) -> tuple[bool, float]:
    """Verify the support constraint ``|w . u - sum(w)/2| <= SUPPORT_TOL`` row by row.

    Returns ``(ok, max_deviation)``.
    """
    wv = as_weight_vector(w)
    values = sample_values(samples, wv.d)
    dots = values @ np.array(wv.values)
    max_dev = float(np.max(np.abs(dots - 0.5 * wv.s1))) if len(dots) else 0.0
    return max_dev <= SUPPORT_TOL, max_dev


def frechet_bounds(u: Sequence[float]) -> tuple[float, float]:
    """Pointwise lower and upper bounds ``(W(u), M(u))`` valid for every copula:
    ``W(u) = max(sum(u) - (d-1), 0)`` and ``M(u) = min(u)``."""
    point = tuple(float(v) for v in u)
    if len(point) < 2:
        raise DimensionError("need at least 2 coordinates")
    _require_unit_cube(point, len(point))
    lower = max(math.fsum(point) - (len(point) - 1), 0.0)
    return lower, min(point)
