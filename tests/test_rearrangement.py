"""The sharp lower bound ``l(w)`` on ``Var(w . U)`` against the rearrangement
algorithm, which minimizes the variance by sorting columns and knows nothing
of the weighted-countermonotonic construction.

On the ``N``-point midpoint grid every coupling has ``Var >= l(w) (1 - 1/N^2)``
(see ``helpers.rearrangement_variance``), and RA's result is an upper bound
on the least variance.  The constants below were fitted on 3000 hypothesis
examples per test at ``N`` = 50, 200 and 800: RA's variance for weights
oversized by a quarter or more was at most 1.011 times the discrete bound,
and for admissible weights with ``2 max(w) <= 0.9 sum(w)`` at most
``0.033 sum(w)^2 / N^2``; the discrete bound was never undercut by more than
``1.7e-17 sum(w)^2``."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import boundary_weights, rearrangement_variance
from wcm.weights import variance_lower_bound

OVERSIZED_FACTOR = 1.05  # RA's variance over l(w) (1 - 1/N^2); measured at most 1.011
ADMISSIBLE_C = 0.1  # RA's variance times N^2 / sum(w)^2; measured at most 0.033
ROUNDING = 1e-15  # times sum(w)^2: float rounding of the row sums and their variance

GRIDS = st.sampled_from([50, 200, 800])
_WEIGHT = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-60, 60))


@st.composite
def oversized_weights(draw, margin: float = 1.0) -> tuple[float, ...]:
    """2 to 12 weights whose largest, in any position, is more than ``margin``
    times the sum of the others."""
    rest = draw(st.lists(_WEIGHT, min_size=1, max_size=11))
    largest = math.fsum(rest) * draw(st.floats(margin, 4.0, exclude_min=True))
    return tuple(draw(st.permutations([*rest, largest])))


@st.composite
def admissible_weights(draw) -> tuple[float, ...]:
    """3 to 12 weights with ``2 max(w) <= 0.9 sum(w)``, at a scale from 2**-60 to 2**60."""
    w = draw(st.lists(st.floats(1.0, 4.0), min_size=3, max_size=12)
             .filter(lambda v: 2.0 * max(v) <= 0.9 * math.fsum(v)))
    scale = draw(st.integers(-60, 60))
    return tuple(math.ldexp(v, scale) for v in w)


def discrete_bound(w, n: int) -> float:
    return variance_lower_bound(w) * (1.0 - 1.0 / n**2)


@given(st.one_of(oversized_weights(), admissible_weights(), boundary_weights(st.integers(3, 12))),
       st.sampled_from([50, 200]))  # boundary weights converge slowly: 0.1 s at N = 800
@settings(max_examples=100, deadline=None)
def test_no_rearrangement_goes_below_the_bound(w, n):
    assert rearrangement_variance(w, n) >= discrete_bound(w, n) - ROUNDING * math.fsum(w) ** 2


@given(oversized_weights(margin=1.25), GRIDS)
@settings(max_examples=60, deadline=None)
def test_oversized_weights_reach_the_bound(w, n):
    assert rearrangement_variance(w, n) <= OVERSIZED_FACTOR * discrete_bound(w, n)


@given(admissible_weights(), GRIDS)
@settings(max_examples=60, deadline=None)
def test_admissible_weights_give_a_sum_constant_up_to_the_grid(w, n):
    assert rearrangement_variance(w, n) <= ADMISSIBLE_C * math.fsum(w) ** 2 / n**2
