"""Construction, exact CDF evaluation, and sampling of weighted-countermonotonic
copulas.

Every copula here is one type, :class:`GroupedWCMCopula`: a mixture of uniform
laws on segments between vertices in the cube of the weight groups, read
through a column map.  Every support point ``u`` satisfies
``w . u == sum(w) / 2``.  For a weight triple ``(w1, w2, w3)`` forming
(possibly degenerate) triangle side lengths, the segments are the three edges
of a triangle inside the unit cube, in two inequivalent vertex layouts
(variants "A" and "B"); both have exactly uniform marginals.  General
dimension ``d >= 3`` partitions the weights into three groups, makes the
coordinates within a group comonotonic, and couples the three group
aggregates through a triangle.  For ``d == 2`` the construction exists only
for equal weights: one segment from ``(1, 0)`` to ``(0, 1)``, the
countermonotonic pair.

Randomness uses numpy's PCG64 generator seeded through ``SeedSequence``;
parallel batches draw from ``SeedSequence(seed).spawn(n_batches)`` so results
are reproducible bit-for-bit regardless of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

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
    "GroupedWCMCopula",
    "triangle_params",
    "edge_masses",
    "build_triangle",
    "build_grouped_wcm",
    "check_wcm",
    "sample_values",
    "make_rng",
    "spawn_rngs",
]

GENERATOR_NAME = "pcg64"

#: Sample-level support checks (accumulated rounding over linear combinations).
SUPPORT_TOL = 1e-9

_EDGE_LABELS = ("m12", "m23", "m31")
_CSV_BLOCK = 1 << 10  # rows per block of CSV text (~230 KB at d = 12): bounds the strings held at once
_DRAW_BLOCK = 1 << 14  # rows per block of a draw: keeps its temporaries in L2


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
class GroupedWCMCopula:
    """A weighted-countermonotonic copula: uniform laws on segments in the
    cube of the weight groups, mixed by mass and read through a column map.

    Output column ``i`` in ``groups[g]`` reads coordinate ``g``, so the
    columns of a group are comonotonic.  Segment ``k`` joins ``vertices[k]``
    and ``vertices[k + 1]`` cyclically and carries the probability
    ``masses[k]``, spread uniformly along it: a triangle has three segments
    and the countermonotonic pair one.  Every vertex, and so every support
    point, satisfies ``aggregates . p == sum(w) / 2``.  ``construction`` is
    ``"triangle"``, ``"grouped"`` or ``"countermonotonic"``; ``z_values`` and
    ``variant`` are those of the triangle (see :func:`build_triangle`).
    """

    weights: tuple[float, ...]
    groups: tuple[tuple[int, ...], ...]
    vertices: tuple[tuple[float, ...], ...]
    masses: tuple[float, ...]
    construction: str
    z_values: tuple[float, ...] = ()
    variant: str | None = None

    def __post_init__(self) -> None:
        if (not all(self.groups)
                or sorted(i for g in self.groups for i in g) != list(range(self.d))):
            raise DimensionError(
                f"groups {self.groups} do not split {self.d} weights into nonempty groups")
        if (len(self.vertices), len(self.masses)) not in ((2, 1), (3, 3)) or any(
                len(p) != len(self.groups) for p in self.vertices):
            raise DimensionError(
                f"{len(self.masses)} segments on {len(self.vertices)} vertices in "
                f"{len(self.groups)} groups: need one segment on two vertices or a "
                "triangle of three, with a coordinate per group")
        if self.construction not in ("triangle", "grouped", "countermonotonic"):
            raise DomainError(f"unknown construction {self.construction!r}")
        if abs(math.fsum(self.masses) - 1.0) > CONSTRUCTION_TOL or min(self.masses) < 0.0:
            raise MassNormalizationError(f"invalid edge masses {self.masses!r}")
        for z in self.z_values:
            if not (0.0 <= z <= 1.0):
                raise DomainError(f"z-value {z!r} outside [0, 1]")
        aggregates = self.aggregates
        s1 = math.fsum(aggregates)
        tol = CONSTRUCTION_TOL * max(1.0, s1)
        for p in self.vertices:
            dot = math.fsum(wi * pi for wi, pi in zip(aggregates, p))
            if abs(dot - 0.5 * s1) > tol:
                raise ExistenceError(
                    f"vertex {p!r} misses the support hyperplane of the aggregate weights "
                    f"{aggregates} by {dot - 0.5 * s1:.3g}"
                )

    @property
    def d(self) -> int:
        return len(self.weights)

    @property
    def aggregates(self) -> tuple[float, ...]:
        """The weight of each group: the ``fsum`` of its members' weights."""
        return tuple(math.fsum(self.weights[i] for i in g) for g in self.groups)

    def _segments(self) -> Iterator[tuple[tuple[float, ...], tuple[float, ...]]]:
        """``(start, end)`` of each segment, in the order of ``masses``."""
        return ((self.vertices[k], self.vertices[(k + 1) % len(self.vertices)])
                for k in range(len(self.masses)))

    def cdf(self, u: Sequence[float]) -> float:
        """Exact CDF at ``u``.

        Columns within a group are equal, so only each group's smallest
        coordinate binds.  Points on a segment are ``t*start + (1-t)*end``
        with ``t`` uniform; each coordinate constraint is linear in ``t``, so
        the admissible set per segment is an interval whose length multiplies
        the segment's mass.  Closed form, no quadrature.
        """
        point = _require_unit_cube(u, self.d)
        corner = tuple(min(point[i] for i in g) for g in self.groups)
        total = 0.0
        for (start, end), mass in zip(self._segments(), self.masses):
            total += mass * _edge_interval_length(start, end, corner)
        return min(1.0, total)

    def marginal_cdf(self, k: int, value: float) -> float:
        """CDF of coordinate ``k`` alone (others at 1)."""
        point = [1.0] * self.d
        point[k] = value
        return self.cdf(point)

    def sample(self, n: int, seed: int) -> SampleMatrix:
        """Draw ``n`` observations: pick a segment by mass, then a uniform
        position along it.  Deterministic given ``seed``."""
        if n < 1:
            raise DimensionError(f"sample size must be >= 1, got {n}")
        meta = {"weights": list(self.weights)}
        if self.construction == "triangle":
            meta["variant"] = self.variant
        meta["construction"] = self.construction
        if self.construction == "grouped":
            meta.update(groups=[list(g) for g in self.groups], aggregates=list(self.aggregates))
        return SampleMatrix(self._draw(make_rng(seed), n), seed=seed, meta=meta)

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` draws as a C-order ``(n, d)`` matrix: all uniforms first, then
        the coordinates ``_DRAW_BLOCK`` rows at a time, each group's coordinate
        copied to its columns.  Each step is elementwise, so the bits do not
        depend on the block size.  C order: the bits of a downstream
        ``values @ w`` depend on it.

        A lone segment draws no segment uniforms.  With no cumulative mass
        inside (0, 1), all mass sits on one segment and ``u >= cum[k]`` is the
        same for every ``u`` in [0, 1): the segment uniforms are skipped with
        ``advance(n)``, as each PCG64 double is one 64-bit step, so ``t`` and
        the bits stay those of the full draw."""
        cum = np.cumsum(self.masses)[:-1]
        fixed = not ((cum > 0.0) & (cum < 1.0)).any()
        if fixed:
            if len(cum):
                rng.bit_generator.advance(n)
            edge = int((cum <= 0.0).sum())
        else:
            u = rng.random(n)
        t = rng.random(n)
        start, end = (np.array(ends).T for ends in zip(*self._segments()))
        out = np.empty((n, self.d))
        for lo in range(0, n, _DRAW_BLOCK):
            tb = t[lo:lo + _DRAW_BLOCK]
            if not fixed:
                ub = u[lo:lo + _DRAW_BLOCK]
                # searchsorted(cum, u, "right") for the triangle's two cut points,
                # as masses >= 0 keep cum sorted
                edge = np.add(ub >= cum[0], ub >= cum[1], dtype=np.intp)
            sb = 1.0 - tb
            coords = [tb * a.take(edge) + sb * b.take(edge) for a, b in zip(start, end)]
            block = out[lo:lo + _DRAW_BLOCK]
            for coord, group in zip(coords, self.groups):
                for i in group:
                    block[:, i] = coord
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


def build_triangle(w: Sequence[float], variant: str = "A") -> GroupedWCMCopula:
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
    groups = ((0,), (1,), (2,))
    if variant == "A":
        vertices = ((1.0, z[0], 0.0), (0.0, 1.0, z[1]), (z[2], 0.0, 1.0))
        return GroupedWCMCopula(wv.values, groups, vertices, edge_masses(z), "triangle", z, variant)
    w1, w2, w3 = wv.values
    a = build_triangle((w1, w3, w2), "A")
    p1, p2, p3 = ((p[0], p[2], p[1]) for p in a.vertices)
    (z1, z2, z3), (m12, m23, m31) = a.z_values, a.masses
    return GroupedWCMCopula(wv.values, groups, (p1, p3, p2), (m31, m23, m12), "triangle",
                            (z1, z3, z2), variant)


def build_grouped_wcm(w: "WeightVector | Iterable[float]") -> GroupedWCMCopula:
    """Build a weighted-countermonotonic copula for any admissible weights.

    Raises :class:`ExistenceError` (reporting ``2*max - sum``) when the
    criterion fails.  ``d == 2`` yields the countermonotonic pair, one segment
    from ``(1, 0)`` to ``(0, 1)``; ``d >= 3`` partitions the weights and
    couples the three aggregates through a variant-A triangle.
    """
    wv = as_weight_vector(w)
    if not validate_wcm_existence(wv):
        raise ExistenceError(
            f"no weighted-countermonotonic copula exists for {wv.values}: "
            f"2*max - sum = {existence_deficit(wv):.17g} > 0"
        )
    if wv.d == 2:
        return GroupedWCMCopula(wv.values, ((0,), (1,)), ((1.0, 0.0), (0.0, 1.0)), (1.0,),
                                "countermonotonic")
    groups = partition_weights(wv)
    triangle = build_triangle([math.fsum(wv.values[i] for i in g) for g in groups], variant="A")
    return replace(triangle, weights=wv.values, groups=groups, construction="grouped")


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

