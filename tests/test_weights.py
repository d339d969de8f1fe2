"""Weight validation, shrinking, variance extremes, and the 3-way partition."""

import itertools
import math

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from wcm.errors import DimensionError, DomainError, ExistenceError, InvalidWeightError
from wcm.weights import (
    WeightVector,
    existence_deficit,
    partition_weights,
    shrink_weights,
    validate_wcm_existence,
    variance_lower_bound,
    variance_upper_bound,
)

weights_strategy = st.lists(
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=6,
).map(tuple)


class TestWeightVector:
    def test_derived_quantities(self):
        w = WeightVector((5.0, 4.0, 3.0))
        assert w.d == 3
        assert w.s1 == 12.0
        assert w.wmax == 5.0

    @pytest.mark.parametrize("bad", [(), (1.0,), (1.0, 0.0), (1.0, -2.0), (1.0, float("nan")),
                                     (1e308, 1e308), (1.7e308, 1e308, 1e308)])
    def test_rejects_invalid(self, bad):
        with pytest.raises(InvalidWeightError):
            WeightVector(bad)


class TestExistence:
    def test_543_triple(self):
        assert validate_wcm_existence((5, 4, 3)) is True

    def test_unequal_pair(self):
        assert validate_wcm_existence((2, 1)) is False
        assert existence_deficit((2, 1)) == 1.0

    def test_equal_quadruple(self):
        assert validate_wcm_existence((1, 1, 1, 1)) is True

    def test_deficit_of_a_weight_above_half_the_float_range(self):
        # 2.0 * 1e308 overflows, but the deficit itself fits
        assert existence_deficit((1e308, 7e307)) == pytest.approx(3e307, rel=1e-15)
        assert existence_deficit((7e307, 1e308)) == existence_deficit((1e308, 7e307))

    @given(st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=2, max_size=6))
    def test_deficit_is_the_doubled_max_minus_the_sum_bit_for_bit(self, values):
        w = WeightVector(tuple(values))
        oracle = 2.0 * w.wmax - w.s1  # as first written; exact here, where 2*max fits
        assert math.copysign(1.0, existence_deficit(w)) == math.copysign(1.0, oracle)
        assert existence_deficit(w) == oracle
        assert (existence_deficit(w) <= 0.0) == validate_wcm_existence(w)

    def test_degenerate_boundary_counts_as_existent(self):
        assert validate_wcm_existence((2, 1, 1)) is True
        assert validate_wcm_existence((3, 3, 2, 2, 10)) is True

    def test_exhaustive_small_grid_against_partition_search(self):
        """Existence must agree with a brute-force search over all 3-way
        partitions for one whose aggregates form triangle side lengths
        (d == 2 has no 3-way partition; there the criterion is equal weights).
        """
        for d in (2, 3, 4):
            for values in itertools.product(range(1, 7), repeat=d):
                claimed = validate_wcm_existence(values)
                if d == 2:
                    assert claimed == (values[0] == values[1])
                    continue
                found = False
                for assignment in itertools.product(range(3), repeat=d):
                    if len(set(assignment)) < 3:
                        continue
                    sums = [0.0, 0.0, 0.0]
                    for v, g in zip(values, assignment):
                        sums[g] += v
                    if 2.0 * max(sums) <= sum(sums):
                        found = True
                        break
                assert claimed == found, values


class TestShrink:
    def test_oversized_entry(self):
        assert shrink_weights((5, 1, 1)).values == (2.0, 1.0, 1.0)

    def test_no_op_cases(self):
        assert shrink_weights((1, 1, 1)).values == (1.0, 1.0, 1.0)
        assert shrink_weights((5, 4, 3)).values == (5.0, 4.0, 3.0)

    @given(weights_strategy)
    def test_idempotent(self, values):
        once = shrink_weights(values)
        assert shrink_weights(once).values == once.values

    @given(st.lists(st.tuples(st.just(1.0) | st.floats(1.0, 2.0, exclude_max=True),
                              st.integers(-1070, 1000)),
                    min_size=2, max_size=13))
    def test_result_always_exists(self, parts):
        values = tuple(math.ldexp(m, e) for m, e in parts)
        shrunk = shrink_weights(values).values
        assert validate_wcm_existence(shrunk)
        if not validate_wcm_existence(values):
            imax = values.index(max(values))
            assert shrunk[imax] == math.fsum(values[:imax] + values[imax + 1:])

    @given(weights_strategy)
    def test_existent_weights_are_fixed_points(self, values):
        if validate_wcm_existence(values):
            assert shrink_weights(values).values == WeightVector(values).values
            assert variance_lower_bound(values) == 0.0


class TestVarianceBounds:
    def test_lower_values(self):
        assert variance_lower_bound((5, 1, 1)) == pytest.approx(0.75, abs=1e-15)
        assert variance_lower_bound((1, 1, 1)) == 0.0
        assert variance_lower_bound((2, 1)) == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_upper_values(self):
        assert variance_upper_bound((1, 1, 1)) == pytest.approx(0.75, abs=1e-15)
        assert variance_upper_bound((1, 1)) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert variance_upper_bound((2, 1)) == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("bound, values", [
        (variance_lower_bound, (1e308, 7e307)),
        (variance_upper_bound, (1e308, 7e307)),
        (variance_upper_bound, (1e160, 1e160)),
    ])
    def test_bound_that_overflows_a_float_is_a_domain_error(self, bound, values):
        with pytest.raises(DomainError, match="overflows"):
            bound(values)

    @given(weights_strategy)
    def test_order_strict(self, values):
        assert variance_lower_bound(values) < variance_upper_bound(values)

    @given(st.lists(st.tuples(st.floats(1.0, 2.0, exclude_max=True), st.integers(-1074, 1023)),
                    min_size=2, max_size=12))
    def test_bounds_are_ordered_at_every_scale(self, parts):
        # fsum(w) >= max(w), so the rounded 2*max - fsum(w) is at most max(w) <= fsum(w);
        # squaring and dividing by 12 are monotone in floats, so 0 <= lower <= upper,
        # with an overflowed bound, a DomainError, read as inf
        try:
            wv = WeightVector(tuple(math.ldexp(m, e) for m, e in parts))
        except InvalidWeightError:  # the sum overflows
            reject()

        def bound_or_inf(bound):
            try:
                return bound(wv)
            except DomainError:
                return math.inf

        assert 0.0 <= bound_or_inf(variance_lower_bound) <= bound_or_inf(variance_upper_bound)


def aggregates(values):
    """The aggregate weight of each group of ``partition_weights(values)``."""
    return tuple(math.fsum(values[i] for i in g) for g in partition_weights(values))


class TestPartition:
    def test_543_triple(self):
        assert partition_weights((5, 4, 3)) == ((0,), (2,), (1,))
        assert aggregates((5, 4, 3)) == (5.0, 3.0, 4.0)

    def test_degenerate_quadruple(self):
        assert aggregates((3, 3, 2, 2)) == (3.0, 2.0, 5.0)

    def test_equal_quadruple(self):
        assert partition_weights((1, 1, 1, 1)) == ((0,), (2,), (1, 3))
        assert aggregates((1, 1, 1, 1)) == (1.0, 1.0, 2.0)

    def test_ties_keep_original_order(self):
        assert partition_weights((2, 2, 2)) == ((0,), (2,), (1,))

    def test_rejects_nonexistent(self):
        with pytest.raises(ExistenceError):
            partition_weights((5, 1, 1))

    def test_rejects_pairs(self):
        with pytest.raises(DimensionError):
            partition_weights((1, 1))

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=3, max_size=8).map(tuple))
    @settings(max_examples=200)
    def test_aggregates_form_triangle(self, values):
        if not validate_wcm_existence(values):
            return
        agg = aggregates(values)
        assert 2.0 * max(agg) <= math.fsum(agg) * (1 + 1e-12)
        assert sorted(sum(partition_weights(values), ())) == list(range(len(values)))
