"""The coupling that attains the sharp lower bound on the variance of a
weighted sum of uniforms, and a Monte Carlo harness that checks it.  The
variance extremes themselves live in :mod:`wcm.weights`.

The minimizing coupling shrinks an oversized weight down to the sum of the
others and samples the shrunken-weight copula; the sum then equals
``(wmax - wmax*) * U1 + const``, so its variance hits the bound
``(2*wmax - sum(w))^2 / 12`` with no extra randomness.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Protocol

import numpy as np

from .copula import SampleMatrix, build_grouped_wcm, sample_values, spawn_rngs
from .errors import DimensionError, DomainError
from .weights import (
    WeightVector,
    as_weight_vector,
    shrink_weights,
    unit_scaled,
    variance_lower_bound,
)

__all__ = ["optimal_coupling", "mc_variance"]

# Draws per Monte Carlo batch; each batch has its own child stream.
MC_BATCH = 1 << 18


class Sampler(Protocol):
    def sample(self, n: int, seed: int) -> SampleMatrix: ...


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


def _batch_sums(dots: np.ndarray, mean: float) -> tuple[float, float]:
    """``(sum d^2, sum d^4)`` of one batch's deviations ``d = dots - mean``;
    the deviations, then their squares, overwrite ``dots``."""
    d2 = np.square(np.subtract(dots, mean, out=dots), out=dots)
    return float(d2.sum()), float(np.square(d2, out=d2).sum())


def mc_variance(
    sampler: Sampler,
    w: "WeightVector | Iterable[float]",
    n: int,
    seed: int,
    threads: int = 1,
) -> tuple[float, float]:
    """``(sum(d^2) / n, sqrt((sum(d^4) / n - estimate^2) / n))``: the unbiased
    variance of ``w . U`` over ``n`` draws and its standard error, where ``d``
    is the deviation from the known mean ``sum(w) / 2``.  ``sampler`` is a
    copula, and its uniform marginals make that mean exact for any dependence.

    Batches of ``MC_BATCH`` draws use independent child streams, and their
    sums are added with ``fsum``, so the thread count changes no bit.  The
    dots use the ``unit_scaled`` weights and both results are scaled back:
    exact for ordinary weights, and finite and nonzero for 1e154 or 1e-154.
    A result that overflows a float when scaled back is a :class:`DomainError`.
    """
    if n < 2:
        raise DimensionError(f"variance needs n >= 2, got {n}")
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    wv = as_weight_vector(w)
    values, shift = unit_scaled(wv)
    weights = np.array(values)
    mean = 0.5 * math.fsum(values)
    sizes = [MC_BATCH] * (n // MC_BATCH)
    if n % MC_BATCH:
        sizes.append(n % MC_BATCH)
    rngs = spawn_rngs(seed, len(sizes))

    def one(i: int):
        return _batch_sums(_draw_dots(sampler, weights, sizes[i], rngs[i]), mean)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(one, range(len(sizes))))
    s2, s4 = (math.fsum(column) for column in zip(*parts))
    estimate = s2 / n
    se = math.sqrt(max(0.0, s4 / n - estimate * estimate) / n)
    try:
        return math.ldexp(estimate, -2 * shift), math.ldexp(se, -2 * shift)
    except OverflowError:
        raise DomainError(
            f"the Monte Carlo variance of the weights {wv.values} overflows a float") from None
