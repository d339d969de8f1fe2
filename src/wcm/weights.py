"""Weight vectors, the existence criterion for weighted countermonotonicity,
shrunken weights, and exact variance extremes of weighted sums of uniforms.

A weight vector ``w`` admits a copula concentrated on the hyperplane
``sum(w_i * u_i) == sum(w) / 2`` exactly when the largest weight does not
exceed the sum of the others (degenerate boundary cases included).  When it
does exceed them, the sharp lower bound on ``Var(sum(w_i * U_i))`` over all
copulas is ``l(w) = (2*max(w) - sum(w))^2 / 12``; the upper bound is
``sum(w)^2 / 12``, attained by the comonotonic copula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import DimensionError, ExistenceError, InvalidWeightError

__all__ = [
    "WeightVector",
    "GroupPartition",
    "validate_wcm_existence",
    "existence_deficit",
    "shrink_weights",
    "variance_lower_bound",
    "variance_upper_bound",
    "partition_weights",
    "CONSTRUCTION_TOL",
]

#: Slack for consistency checks on derived quantities in the constructions;
#: the user-facing existence test itself is evaluated exactly as written.
CONSTRUCTION_TOL = 1e-12


@dataclass(frozen=True)
class WeightVector:
    """Strictly positive weights, dimension >= 2.

    Derived quantities:

    - ``s1``: sum of the weights (correctly rounded via ``math.fsum``)
    - ``s2``: sum of squared weights
    - ``wmax``: largest weight
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 2:
            raise InvalidWeightError(f"need at least 2 weights, got {len(vals)}")
        for v in vals:
            if not math.isfinite(v) or v <= 0.0:
                raise InvalidWeightError(f"weights must be finite and > 0, got {v!r}")
        object.__setattr__(self, "values", vals)

    @property
    def d(self) -> int:
        return len(self.values)

    @property
    def s1(self) -> float:
        return math.fsum(self.values)

    @property
    def s2(self) -> float:
        return math.fsum(v * v for v in self.values)

    @property
    def wmax(self) -> float:
        return max(self.values)


def as_weight_vector(w: "WeightVector | Iterable[float]") -> WeightVector:
    """Coerce a sequence of numbers into a :class:`WeightVector`."""
    if isinstance(w, WeightVector):
        return w
    return WeightVector(tuple(w))


@dataclass(frozen=True)
class GroupPartition:
    """Three disjoint index groups covering ``range(d)`` with aggregate weights.

    The aggregate triple forms the side lengths of a (possibly degenerate)
    triangle: twice its maximum never exceeds its sum.
    """

    group_a: tuple[int, ...]
    group_b: tuple[int, ...]
    group_c: tuple[int, ...]
    aggregates: tuple[float, float, float]

    def __post_init__(self) -> None:
        seen = [i for g in self.groups for i in g]
        if len(seen) != len(set(seen)):
            raise DimensionError("partition groups must be disjoint")
        if any(len(g) == 0 for g in self.groups):
            raise DimensionError("partition groups must all be nonempty")
        tol = CONSTRUCTION_TOL * max(1.0, math.fsum(self.aggregates))
        if 2.0 * max(self.aggregates) > math.fsum(self.aggregates) + tol:
            raise ExistenceError(
                f"aggregate weights {self.aggregates} violate the triangle condition"
            )

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        return (self.group_a, self.group_b, self.group_c)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.group_a + self.group_b + self.group_c))


def validate_wcm_existence(w: "WeightVector | Iterable[float]") -> bool:
    """True iff a copula concentrated on ``w . u == sum(w)/2`` exists.

    The criterion is ``max(w) <= sum(w) - max(w)``; equality counts as
    existent (degenerate triangle).  Evaluated exactly on the given binary
    floats, with no epsilon.
    """
    w = as_weight_vector(w)
    return 2.0 * w.wmax <= w.s1


def existence_deficit(w: "WeightVector | Iterable[float]") -> float:
    """``2*max(w) - sum(w)``; positive exactly when no such copula exists."""
    w = as_weight_vector(w)
    return 2.0 * w.wmax - w.s1


def shrink_weights(w: "WeightVector | Iterable[float]") -> WeightVector:
    """Replace an oversized weight by the sum of all the others.

    Entry ``w_i`` is kept when ``2*w_i <= sum(w)`` and replaced by
    ``sum(w) - w_i`` otherwise; at most one entry (the maximum) can be
    oversized.  Already-admissible vectors are returned unchanged, which makes
    the operation bitwise idempotent.  The replacement is the correctly
    rounded sum of the other entries, stepped down by at most a few ulps so
    the result passes the exact existence test.
    """
    w = as_weight_vector(w)
    if validate_wcm_existence(w):
        return w
    imax = w.values.index(w.wmax)
    replacement = math.fsum(v for i, v in enumerate(w.values) if i != imax)
    for _ in range(64):
        shrunk = WeightVector(
            tuple(replacement if i == imax else v for i, v in enumerate(w.values))
        )
        if validate_wcm_existence(shrunk):
            return shrunk
        replacement = math.nextafter(replacement, 0.0)
    raise AssertionError(  # pragma: no cover - deficit shrinks every step
        f"could not shrink {w.values} to an existent weight vector"
    )


def variance_lower_bound(w: "WeightVector | Iterable[float]") -> float:
    """Sharp lower bound ``(max(0, 2*max(w) - sum(w)))^2 / 12`` of
    ``Var(sum(w_i U_i))`` over all copulas with uniform marginals."""
    w = as_weight_vector(w)
    deficit = 2.0 * w.wmax - w.s1
    if deficit <= 0.0:
        return 0.0
    return deficit * deficit / 12.0


def variance_upper_bound(w: "WeightVector | Iterable[float]") -> float:
    """Sharp upper bound ``sum(w)^2 / 12``, attained by comonotonicity."""
    w = as_weight_vector(w)
    return w.s1 * w.s1 / 12.0


def partition_weights(w: "WeightVector | Iterable[float]") -> GroupPartition:
    """Split indices into three groups whose aggregate weights form a triangle.

    Weights are sorted descending (stable, so ties keep their original
    order).  Group A holds the largest weight, group B the weights at odd
    sorted positions after the first (third, fifth, ...), group C those at
    even sorted positions (second, fourth, ...).  Pairing consecutive sorted
    weights shows the aggregates always satisfy the two easy triangle
    inequalities; the third one is exactly the existence criterion.
    """
    w = as_weight_vector(w)
    if w.d < 3:
        raise DimensionError(
            "partition needs d >= 3; d == 2 is the countermonotonic special case"
        )
    if not validate_wcm_existence(w):
        raise ExistenceError(
            f"no weighted-countermonotonic copula exists: 2*max - sum = "
            f"{existence_deficit(w):.17g} > 0"
        )
    order = sorted(range(w.d), key=lambda i: -w.values[i])
    group_a = (order[0],)
    group_b = tuple(order[i] for i in range(2, w.d, 2))
    group_c = tuple(order[i] for i in range(1, w.d, 2))
    aggregates = (
        w.values[order[0]],
        math.fsum(w.values[i] for i in group_b),
        math.fsum(w.values[i] for i in group_c),
    )
    return GroupPartition(group_a, group_b, group_c, aggregates)
