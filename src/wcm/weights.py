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

from .errors import DimensionError, DomainError, ExistenceError, InvalidWeightError

__all__ = [
    "WeightVector",
    "validate_wcm_existence",
    "require_wcm_existence",
    "existence_deficit",
    "shrink_weights",
    "variance_lower_bound",
    "variance_upper_bound",
    "partition_weights",
    "unit_scaled",
]


@dataclass(frozen=True)
class WeightVector:
    """Strictly positive weights, dimension >= 2.

    Derived quantities:

    - ``s1``: sum of the weights (correctly rounded via ``math.fsum``)
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
        try:
            math.fsum(vals)
        except OverflowError:
            raise InvalidWeightError(f"the sum of the weights {vals} overflows") from None
        object.__setattr__(self, "values", vals)

    @property
    def d(self) -> int:
        return len(self.values)

    @property
    def s1(self) -> float:
        return math.fsum(self.values)

    @property
    def wmax(self) -> float:
        return max(self.values)


def as_weight_vector(w: "WeightVector | Iterable[float]") -> WeightVector:
    """Coerce a sequence of numbers into a :class:`WeightVector`."""
    if isinstance(w, WeightVector):
        return w
    return WeightVector(tuple(w))


def validate_wcm_existence(w: "WeightVector | Iterable[float]") -> bool:
    """True iff a copula concentrated on ``w . u == sum(w)/2`` exists.

    The criterion is ``max(w) <= sum(w) - max(w)``; equality counts as
    existent (degenerate triangle).  It is the sign of :func:`existence_deficit`,
    the exact ``2*max(w)`` less the correctly rounded ``fsum(w)``, with no epsilon:
    exact up to that one rounding, so ``(1.0000000000000002, 8.673617379884035e-19,
    1)`` exists though its exact ``2*max - sum`` is 2.2e-16.  Every copula builder
    follows this decision through :func:`require_wcm_existence`.
    """
    return existence_deficit(w) <= 0.0


def require_wcm_existence(w: "WeightVector | Iterable[float]") -> WeightVector:
    """``w`` as a :class:`WeightVector` when :func:`validate_wcm_existence`
    holds; otherwise an :class:`ExistenceError` naming the weights as given
    and their :func:`existence_deficit`."""
    w = as_weight_vector(w)
    if not validate_wcm_existence(w):
        raise ExistenceError(
            f"no weighted-countermonotonic copula exists for {w.values}: "
            f"2*max - sum = {existence_deficit(w):.17g} > 0"
        )
    return w


def existence_deficit(w: "WeightVector | Iterable[float]") -> float:
    """``2*max(w) - fsum(w)``; positive exactly when :func:`validate_wcm_existence`
    fails.  ``fsum`` gives the bits of ``2.0 * max(w) - fsum(w)`` without forming
    ``2.0 * max(w)``, which overflows above half the float range."""
    w = as_weight_vector(w)
    return math.fsum((w.wmax, -w.s1, w.wmax))


def unit_scaled(w: "WeightVector | Iterable[float]") -> tuple[tuple[float, ...], int]:
    """``(w * 2**shift, shift)`` for the ``shift`` that puts the largest weight
    in [1/2, 1).  The scaling is exact unless a weight falls below the normal
    floats (under ``2**-1021`` times the largest), so ratios such as SIX do not
    change, while products such as ``w_i w_j`` or ``(w . u)^4`` neither
    underflow nor overflow for weights such as 1e-200 or 1e200."""
    wv = as_weight_vector(w)
    shift = -math.frexp(wv.wmax)[1]
    return tuple(math.ldexp(v, shift) for v in wv.values), shift


def shrink_weights(w: "WeightVector | Iterable[float]") -> WeightVector:
    """Replace an oversized weight by the sum of all the others.

    Entry ``w_i`` is kept when ``2*w_i <= sum(w)`` and replaced by
    ``sum(w) - w_i`` otherwise; at most one entry (the maximum) can be
    oversized.  Already-admissible vectors are returned unchanged, which makes
    the operation bitwise idempotent.  The replacement ``r`` is the correctly
    rounded sum (``fsum``) of the other entries, so it is the new maximum, and
    the result always passes the exact existence test: ``r`` is within half an
    ulp of their exact sum ``S``, so ``S + r`` rounds to at least ``2*r``.
    """
    w = as_weight_vector(w)
    if validate_wcm_existence(w):
        return w
    imax = w.values.index(w.wmax)
    replacement = math.fsum(v for i, v in enumerate(w.values) if i != imax)
    return WeightVector(tuple(replacement if i == imax else v for i, v in enumerate(w.values)))


def variance_lower_bound(w: "WeightVector | Iterable[float]") -> float:
    """Sharp lower bound ``(max(0, 2*max(w) - sum(w)))^2 / 12`` of
    ``Var(sum(w_i U_i))`` over all copulas with uniform marginals."""
    w = as_weight_vector(w)
    deficit = existence_deficit(w)
    if deficit <= 0.0:
        return 0.0
    return _finite_bound(deficit * deficit / 12.0, w)


def variance_upper_bound(w: "WeightVector | Iterable[float]") -> float:
    """Sharp upper bound ``sum(w)^2 / 12``, attained by comonotonicity."""
    w = as_weight_vector(w)
    return _finite_bound(w.s1 * w.s1 / 12.0, w)


def _finite_bound(bound: float, w: WeightVector) -> float:
    """``bound``, or a :class:`DomainError` when it overflowed a float."""
    if math.isinf(bound):
        raise DomainError(f"the variance bound of the weights {w.values} overflows a float")
    return bound


def partition_weights(
    w: "WeightVector | Iterable[float]",
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Split indices into three groups whose aggregate weights form a triangle.

    Weights are sorted descending (stable, so ties keep their original
    order).  The first group holds the largest weight, the second the weights
    at odd sorted positions after the first (third, fifth, ...), the third
    those at even sorted positions (second, fourth, ...).  Pairing consecutive
    sorted weights shows the aggregates always satisfy the two easy triangle
    inequalities; the third one is exactly the existence criterion.
    """
    w = as_weight_vector(w)
    if w.d < 3:
        raise DimensionError(
            "partition needs d >= 3; d == 2 is the countermonotonic special case"
        )
    require_wcm_existence(w)
    order = sorted(range(w.d), key=lambda i: -w.values[i])
    return (order[0],), tuple(order[2::2]), tuple(order[1::2])
