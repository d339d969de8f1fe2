"""Exact variance extremes of weighted sums of uniforms, the coupling that
attains the lower bound, and a Monte Carlo verification harness.

The minimizing coupling shrinks an oversized weight down to the sum of the
others and samples the shrunken-weight copula; the sum then equals
``(wmax - wmax*) * U1 + const``, so its variance hits the bound
``(2*wmax - sum(w))^2 / 12`` with no extra randomness.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Iterable, Protocol

import numpy as np

from .copula import SampleMatrix, build_grouped_wcm, sample_values, spawn_rngs
from .errors import DimensionError, DomainError
from .weights import (
    WeightVector,
    as_weight_vector,
    shrink_weights,
    unit_scaled,
    validate_wcm_existence,
    variance_lower_bound,
    variance_upper_bound,
)

__all__ = [
    "McEstimate",
    "VarianceBoundReport",
    "optimal_coupling",
    "mc_variance",
    "variance_bound_report",
]

# Draws per Monte Carlo batch; each batch has its own child stream.
MC_BATCH = 1 << 18


class Sampler(Protocol):
    def sample(self, n: int, seed: int) -> SampleMatrix: ...


@dataclass(frozen=True)
class McEstimate:
    n: int
    estimate: float
    stderr: float
    seed: int


@dataclass(frozen=True)
class VarianceBoundReport:
    """Exact bounds plus an optional Monte Carlo check of the lower bound."""

    weights: tuple[float, ...]
    lower: float
    upper: float
    attained_by: str
    mc: McEstimate | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower <= self.upper:
            raise DomainError(f"bounds out of order: [{self.lower}, {self.upper}]")

    def to_json_dict(self) -> dict:
        """The fields as a dict, without ``mc`` when there was no Monte Carlo run."""
        return {k: v for k, v in asdict(self).items() if k != "mc" or v is not None}


def optimal_coupling(w: "WeightVector | Iterable[float]"):
    """The copula minimizing ``Var(sum(w_i U_i))`` and the variance it attains.

    Returns ``(copula, predicted_variance)`` where the copula couples the
    shrunken weights and the predicted variance is
    ``(wmax - wmax*)^2 / 12`` when shrinking occurred, else 0.
    """
    wv = as_weight_vector(w)
    shrunk = shrink_weights(wv)
    coupling = build_grouped_wcm(shrunk)
    return coupling, variance_lower_bound(wv)


def _draw_dots(sampler: Sampler, weights: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """One batch of ``w . u`` values from a sampler, using an already-split stream."""
    # Samplers take integer seeds; derive one from the batch's own stream so
    # batches stay independent and reproducible.
    seed = int(rng.integers(0, 2**63 - 1))
    return sample_values(sampler.sample(n, seed), len(weights)) @ weights


def _batch_moments(x: np.ndarray) -> tuple[int, float, float, float, float]:
    """``(n, mean, M2, M3, M4)`` of one batch; the cube and the fourth power
    overwrite the deviations and their squares once each is summed."""
    n = len(x)
    mean = float(x.mean())
    d = x - mean
    d2 = d * d
    m2 = float(d2.sum())
    m3 = float(np.multiply(d, d2, out=d).sum())
    return n, mean, m2, m3, float(np.multiply(d2, d2, out=d2).sum())


def _combine(a, b):
    """Merge two (n, mean, M2, M3, M4) central-moment accumulators exactly."""
    na, ma, m2a, m3a, m4a = a
    nb, mb, m2b, m3b, m4b = b
    n = na + nb
    delta = mb - ma
    mean = ma + delta * nb / n
    m2 = m2a + m2b + delta**2 * na * nb / n
    m3 = (
        m3a + m3b
        + delta**3 * na * nb * (na - nb) / n**2
        + 3.0 * delta * (na * m2b - nb * m2a) / n
    )
    m4 = (
        m4a + m4b
        + delta**4 * na * nb * (na * na - na * nb + nb * nb) / n**3
        + 6.0 * delta**2 * (na * na * m2b + nb * nb * m2a) / n**2
        + 4.0 * delta * (na * m3b - nb * m3a) / n
    )
    return n, mean, m2, m3, m4


def mc_variance(
    sampler: Sampler,
    w: "WeightVector | Iterable[float]",
    n: int,
    seed: int,
    threads: int = 1,
) -> tuple[float, float]:
    """Unbiased sample variance of ``w . u`` over ``n`` draws, with its
    standard error.

    Draws arrive in batches of ``MC_BATCH`` on independent child streams;
    per-batch central moments are merged in batch order, so the result does
    not depend on the thread count.  The standard error uses the fourth
    central moment: ``sqrt((m4 - m2^2 (n-3)/(n-1)) / n)``.  The dots use the
    ``unit_scaled`` weights and both results are scaled back: every step is
    exact under a power-of-two scaling, so ordinary weights keep their bits,
    and the moments of weights such as 1e154 or 1e-154 stay finite and nonzero.
    """
    if n < 2:
        raise DimensionError(f"variance needs n >= 2, got {n}")
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    values, shift = unit_scaled(w)
    weights = np.array(values)
    sizes = [MC_BATCH] * (n // MC_BATCH)
    if n % MC_BATCH:
        sizes.append(n % MC_BATCH)
    rngs = spawn_rngs(seed, len(sizes))

    def one(i: int):
        return _batch_moments(_draw_dots(sampler, weights, sizes[i], rngs[i]))

    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(one, range(len(sizes))))
    acc = parts[0]
    for part in parts[1:]:
        acc = _combine(acc, part)
    total, _, m2_sum, _, m4_sum = acc
    estimate = m2_sum / (total - 1)
    m2 = m2_sum / total
    m4 = m4_sum / total
    se = math.sqrt(max(0.0, m4 - m2 * m2 * (total - 3) / (total - 1)) / total)
    return math.ldexp(estimate, -2 * shift), math.ldexp(se, -2 * shift)


def variance_bound_report(
    w: "WeightVector | Iterable[float]",
    mc_n: int | None = None,
    seed: int | None = None,
    threads: int = 1,
) -> VarianceBoundReport:
    """Assemble exact bounds and, optionally, a Monte Carlo estimate of the
    variance of the optimal coupling.  A bad ``seed`` or ``threads`` is a
    :class:`DomainError` even with no estimate asked for."""
    wv = as_weight_vector(w)
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    if seed is not None and seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    shrunk = shrink_weights(wv)
    if validate_wcm_existence(wv):
        attained = f"weighted-countermonotonic coupling on {wv.values} (constant sum)"
    else:
        attained = (
            f"weighted-countermonotonic coupling on shrunken weights {shrunk.values}; "
            "the oversized coordinate's excess rides on U1"
        )
    mc = None
    if mc_n is not None:
        if seed is None:
            raise DomainError("a seed is required for the Monte Carlo check")
        coupling, _ = optimal_coupling(wv)
        estimate, se = mc_variance(coupling, wv, mc_n, seed, threads=threads)
        mc = McEstimate(n=mc_n, estimate=estimate, stderr=se, seed=seed)
    return VarianceBoundReport(
        weights=wv.values,
        lower=variance_lower_bound(wv),
        upper=variance_upper_bound(wv),
        attained_by=attained,
        mc=mc,
    )

