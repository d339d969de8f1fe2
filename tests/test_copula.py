"""Triangle construction, exact CDF, sampling, grouped lifting, and the
support/uniformity invariants."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    ComonotonicCopula,
    IndependenceCopula,
    boundary_weights,
    check_wcm_absolute_oracle,
    countermonotonic_cdf_oracle,
    csv_oracle,
    empirical_cdf_on_grid,
    frechet_bounds,
    grouped_sample_oracle,
    ks_critical_1pct,
    ks_uniform_statistic,
    triangle_draw_oracle,
    variant_b_oracle,
)
from wcm.bounds import MC_BATCH, optimal_coupling
from wcm.copula import (
    _CSV_BLOCK,
    _DRAW_BLOCK,
    SUPPORT_TOL,
    GroupedWCMCopula,
    SampleMatrix,
    _edge_masses,
    build_grouped_wcm,
    build_triangle,
    check_wcm,
    make_rng,
    spawn_rngs,
)
from wcm.errors import (
    DimensionError,
    DomainError,
    ExistenceError,
    MassNormalizationError,
)
from wcm.weights import existence_deficit, shrink_weights, validate_wcm_existence

positive_weight = st.floats(min_value=0.05, max_value=50.0, allow_nan=False, allow_infinity=False)
triple_strategy = st.lists(
    positive_weight,
    min_size=3,
    max_size=3,
).map(tuple).filter(validate_wcm_existence)
# Sample sizes inside one draw block and across its boundaries.
draw_sizes = st.one_of(
    st.integers(min_value=1, max_value=3000),
    st.sampled_from([_DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1, 2 * _DRAW_BLOCK + 3, MC_BATCH]),
)
# Copulas whose mass sits on one segment: triangles with all their mass on one
# edge, on each of the three edges between them (both variants of the
# degenerate triples, and the optimal couplings of weights with an oversized
# one), and countermonotonic pairs, which have one segment.
FIXED_EDGE_CASES = ([(w, v) for w in [(2, 1, 1), (1, 2, 1), (1, 1, 2)] for v in "AB"]
                    + [(w, "optimal") for w in [(5, 1, 1), (10, 2, 3, 1), (30, 1, 1, 1, 1),
                                                (1, 1), (2.5, 2.5)]])


# Positions along a segment at both ends of [0, 1) and between, and segment
# uniforms for them.
EXTREME_POSITIONS = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
EDGE_UNIFORMS = np.array([0.0, 0.25, 0.5, np.nextafter(1.0, 0.0)])


class Replay:
    """A generator stand-in that returns the given arrays, in order, as its
    draws; ``advance(n)`` skips the next one, as a skipped draw would."""

    def __init__(self, *draws):
        self.draws = list(draws)
        self.bit_generator = self

    def random(self, n):
        return self.draws.pop(0)[:n]

    def advance(self, n):
        self.random(n)


def fixed_edge_copula(case):
    """The copula of a ``FIXED_EDGE_CASES`` entry."""
    w, variant = case
    return optimal_coupling(w)[0] if variant == "optimal" else build_triangle(w, variant)


class TestTriangleParams:
    def test_543_triple(self):
        z = build_triangle((5, 4, 3)).z_values
        assert z == pytest.approx((0.25, 2 / 3, 0.6), abs=1e-15)

    def test_symmetric(self):
        assert build_triangle((1, 1, 1)).z_values == (0.5, 0.5, 0.5)

    def test_degenerate(self):
        assert build_triangle((2, 1, 1)).z_values == (0.0, 1.0, 0.5)

    @given(triple_strategy)
    @settings(max_examples=200)
    def test_in_unit_interval(self, w):
        assert all(0.0 <= z <= 1.0 for z in build_triangle(w).z_values)


class TestEdgeMasses:
    def test_543_masses(self):
        m = build_triangle((5, 4, 3)).masses
        assert m == pytest.approx((6 / 11, 3 / 11, 2 / 11), abs=1e-12)

    def test_symmetric(self):
        assert build_triangle((1, 1, 1)).masses == pytest.approx((1 / 3,) * 3, abs=1e-15)

    def test_degenerate(self):
        assert build_triangle((2, 1, 1)).masses == (1.0, 0.0, 0.0)

    def test_flags_inadmissible_triple(self):
        # An arbitrary z-triple solves the vertex equations with masses that
        # do not sum to one; the constructor must report that, not accept it.
        with pytest.raises(MassNormalizationError):
            replace(build_triangle((1, 1, 1)), masses=_edge_masses((0.5, 0.3, 0.2)))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            replace(build_triangle((1, 1, 1)), z_values=(1.2, 0.5, 0.5))

    @given(triple_strategy)
    @settings(max_examples=200)
    def test_admissible_triples_normalize(self, w):
        m = build_triangle(w).masses
        assert math.fsum(m) == pytest.approx(1.0, abs=1e-12)
        assert min(m) >= 0.0


class TestBuildTriangle:
    def test_variant_a_543(self):
        c = build_triangle((5, 4, 3), "A")
        assert c.vertices[0] == pytest.approx((1.0, 0.25, 0.0), abs=1e-15)
        assert c.vertices[1] == pytest.approx((0.0, 1.0, 2 / 3), abs=1e-15)
        assert c.vertices[2] == pytest.approx((0.6, 0.0, 1.0), abs=1e-15)
        assert c.masses == pytest.approx((6 / 11, 3 / 11, 2 / 11), abs=1e-12)

    def test_variant_a_equilateral(self):
        c = build_triangle((1, 1, 1), "A")
        assert c.masses == pytest.approx((1 / 3,) * 3, abs=1e-15)

    def test_variant_b_masses_mirror_variant_a(self):
        # Independent oracle: swapping the last two coordinates of the cube
        # maps variant B for (w1, w2, w3) onto variant A for (w1, w3, w2),
        # with edges 12/23/31 landing on 31/23/12 respectively.
        for w in ((5, 4, 3), (1, 1, 1), (3, 2, 2), (2.5, 2.0, 1.0)):
            b = build_triangle(w, "B")
            a = build_triangle((w[0], w[2], w[1]), "A")
            assert b.masses[0] == pytest.approx(a.masses[2], abs=1e-12)
            assert b.masses[1] == pytest.approx(a.masses[1], abs=1e-12)
            assert b.masses[2] == pytest.approx(a.masses[0], abs=1e-12)

    @given(
        st.one_of(
            triple_strategy,
            # degenerate boundary: one weight is the sum of the other two
            st.tuples(positive_weight, positive_weight).map(lambda ab: (ab[0] + ab[1], *ab)),
        ).flatmap(lambda w: st.permutations(w).map(tuple)).filter(
            lambda w: 2 * max(w) <= math.fsum(w)
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_variant_b_matches_least_squares_oracle(self, w):
        z, vertices, masses = variant_b_oracle(w)
        b = build_triangle(w, "B")
        assert b.z_values == z
        assert b.vertices == vertices
        assert max(abs(x - y) for x, y in zip(b.masses, masses)) <= 1e-13

    def test_variant_b_543_frozen(self):
        b = build_triangle((5, 4, 3), "B")
        assert b.z_values == pytest.approx((1 / 3, 2 / 5, 3 / 4), abs=1e-15)
        assert b.masses == pytest.approx((3 / 11, 2 / 11, 6 / 11), abs=1e-12)

    def test_variants_differ_on_cdf_grid(self):
        a = build_triangle((5, 4, 3), "A")
        b = build_triangle((5, 4, 3), "B")
        grid = np.linspace(0.0, 1.0, 21)
        best = max(
            abs(a.cdf((x, y, z)) - b.cdf((x, y, z)))
            for x in grid
            for y in grid
            for z in grid
        )
        assert best > 1e-6

    def test_rejects_nonexistent(self):
        with pytest.raises(ExistenceError):
            build_triangle((5, 1, 1), "A")
        with pytest.raises(ExistenceError):
            build_triangle((5, 1, 1), "B")

    def test_rejects_unknown_variant(self):
        with pytest.raises(DomainError):
            build_triangle((1, 1, 1), "C")

    @pytest.mark.parametrize("w", [(1, 1), (1, 1, 1, 1)])
    def test_rejects_other_than_three_weights(self, w):
        with pytest.raises(DimensionError, match="exactly 3 weights"):
            build_triangle(w)

    @given(triple_strategy, st.sampled_from(["A", "B"]))
    @settings(max_examples=100, deadline=None)
    def test_vertices_on_support_hyperplane(self, w, variant):
        c = build_triangle(w, variant)
        half = 0.5 * math.fsum(w)
        for p in c.vertices:
            dot = math.fsum(wi * pi for wi, pi in zip(w, p))
            assert abs(dot - half) <= 1e-12 * max(1.0, half)


class TestCdf:
    def test_543_point_value(self):
        c = build_triangle((5, 4, 3), "A")
        assert c.cdf((1.0, 0.25, 1 / 3)) == pytest.approx(2 / 33, abs=1e-12)

    def test_total_mass(self):
        for w, variant in (((5, 4, 3), "A"), ((5, 4, 3), "B"), ((1, 1, 1), "A")):
            assert build_triangle(w, variant).cdf((1, 1, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_center_of_equilateral_is_zero(self):
        c = build_triangle((1, 1, 1), "A")
        assert c.cdf((0.5, 0.5, 0.5)) == 0.0
        # brute-force Monte Carlo cross-check of the same event
        values = c.sample(10**6, seed=1234).values
        hits = np.count_nonzero(np.all(values <= 0.5, axis=1))
        assert hits == 0

    def test_domain_error(self):
        c = build_triangle((1, 1, 1), "A")
        with pytest.raises(DomainError):
            c.cdf((1.5, 0.5, 0.5))
        with pytest.raises(DimensionError):
            c.cdf((0.5, 0.5))

    def test_grounded(self):
        c = build_triangle((5, 4, 3), "A")
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.random(3)
            k = rng.integers(0, 3)
            u[k] = 0.0
            assert c.cdf(u) == 0.0

    @given(triple_strategy, st.sampled_from(["A", "B"]))
    @settings(max_examples=50, deadline=None)
    def test_coordinatewise_nondecreasing(self, w, variant):
        c = build_triangle(w, variant)
        rng = np.random.default_rng(7)
        for _ in range(20):
            lo = rng.random(3)
            hi = lo.copy()
            k = rng.integers(0, 3)
            hi[k] = lo[k] + (1.0 - lo[k]) * rng.random()
            assert c.cdf(hi) >= c.cdf(lo) - 1e-15

    def test_frechet_sandwich_on_grid(self):
        grid = np.linspace(0.0, 1.0, 11)
        copulas = [build_triangle(w, variant)
                   for w, variant in (((5, 4, 3), "A"), ((5, 4, 3), "B"), ((2, 1, 1), "A"))]
        for c in copulas + [ComonotonicCopula(3), IndependenceCopula(3)]:
            for x in grid:
                for y in grid:
                    for z in grid:
                        lower, upper = frechet_bounds((x, y, z))
                        value = c.cdf((x, y, z))
                        assert lower - 1e-12 <= value <= upper + 1e-12
                        if isinstance(c, ComonotonicCopula):
                            assert value == upper
                        elif isinstance(c, IndependenceCopula):
                            assert value == math.prod((x, y, z))


MARGINAL_CASES = [
    ("triangle (5,4,3) A", lambda: build_triangle((5, 4, 3), "A")),
    ("triangle (5,4,3) B", lambda: build_triangle((5, 4, 3), "B")),
    ("triangle (1,1,1) A", lambda: build_triangle((1, 1, 1), "A")),
    ("inner of (1,1,1,1)", lambda: build_triangle(build_grouped_wcm((1, 1, 1, 1)).aggregates)),
    ("inner of (3,3,2,2)", lambda: build_triangle(build_grouped_wcm((3, 3, 2, 2)).aggregates)),
    ("grouped (1,1,1,1)", lambda: build_grouped_wcm((1, 1, 1, 1))),
    ("grouped (3,3,2,2)", lambda: build_grouped_wcm((3, 3, 2, 2))),
]


@pytest.mark.parametrize("label,factory", MARGINAL_CASES)
def test_exact_uniform_marginals_on_grid(label, factory):
    """CDF with all other coordinates at 1 must equal the identity exactly."""
    copula = factory()
    grid = np.linspace(0.0, 1.0, 101)
    for k in range(copula.d):
        for u in grid:
            point = [1.0] * copula.d
            point[k] = float(u)
            assert abs(copula.cdf(point) - u) <= 1e-12, (label, k, u)


SUPPORT_WEIGHTS = [(1, 1, 1), (5, 4, 3), (1, 1, 1, 1), (3, 3, 2, 2)]


@pytest.mark.parametrize("w", SUPPORT_WEIGHTS)
def test_support_constraint_100k(w):
    copula = build_grouped_wcm(w)
    samples = copula.sample(100_000, seed=20240 + len(w))
    ok, max_dev = check_wcm(samples, w)
    assert ok, f"max deviation {max_dev}"


@pytest.mark.parametrize("w", SUPPORT_WEIGHTS)
def test_empirical_marginals_ks(w):
    copula = build_grouped_wcm(w)
    values = copula.sample(100_000, seed=515 + len(w)).values
    critical = ks_critical_1pct(values.shape[0])
    for k in range(values.shape[1]):
        assert ks_uniform_statistic(values[:, k]) < critical


@given(triple_strategy, st.sampled_from(["A", "B"]))
@settings(max_examples=25, deadline=None)
def test_cdf_matches_empirical_frequency_random_triples(w, variant):
    c = build_triangle(w, variant)
    values = c.sample(4000, seed=314).values
    rng = np.random.default_rng(159)
    for _ in range(5):
        u = rng.random(3)
        frequency = float(np.mean(np.all(values <= u, axis=1)))
        assert abs(c.cdf(u) - frequency) < 5.0 / math.sqrt(4000)


@pytest.mark.parametrize("variant", ["A", "B"])
def test_sampler_matches_exact_cdf(variant):
    """Empirical CDF of 10**6 draws within 3/sqrt(n) of the exact CDF on an
    11^3 grid."""
    c = build_triangle((5, 4, 3), variant)
    n = 10**6
    values = c.sample(n, seed=99 if variant == "A" else 100).values
    grid = np.linspace(0.0, 1.0, 11)
    empirical = empirical_cdf_on_grid(values, grid)
    worst = 0.0
    for a, x in enumerate(grid):
        for b, y in enumerate(grid):
            for cc, z in enumerate(grid):
                worst = max(worst, abs(empirical[a, b, cc] - c.cdf((x, y, z))))
    assert worst < 3.0 / math.sqrt(n), worst


class TestSampling:
    def test_support_examples(self):
        rows = build_triangle((1, 1, 1), "A").sample(1000, seed=3).values
        assert np.allclose(rows.sum(axis=1), 1.5, atol=1e-12)
        rows = build_triangle((5, 4, 3), "A").sample(1000, seed=4).values
        assert np.allclose(rows @ np.array([5.0, 4.0, 3.0]), 6.0, atol=1e-9)

    def test_deterministic_given_seed(self):
        c = build_triangle((5, 4, 3), "A")
        first = c.sample(500, seed=42).values
        second = c.sample(500, seed=42).values
        assert np.array_equal(first, second)
        third = c.sample(500, seed=43).values
        assert not np.array_equal(first, third)

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            build_triangle((1, 1, 1), "A").sample(0, seed=1)

    def test_negative_seed_is_a_domain_error(self):
        for draw in (lambda: make_rng(-1), lambda: spawn_rngs(-1, 2),
                     lambda: build_triangle((5, 4, 3), "A").sample(3, seed=-1)):
            with pytest.raises(DomainError, match="seed"):
                draw()

    @pytest.mark.parametrize("w", [(1, 1, 1, 1), (3, 3, 2, 2), (5, 4, 3), (6, 5, 4, 3, 3, 2, 2)])
    def test_grouped_gather_matches_column_copy(self, w):
        g = build_grouped_wcm(w)
        inner = triangle_draw_oracle(build_triangle(g.aggregates), make_rng(8), 1000)
        expected = np.empty((1000, g.d))
        for col, group in enumerate(g.groups):
            for i in group:
                expected[:, i] = inner[:, col]
        values = g.sample(1000, seed=8).values
        assert np.array_equal(values, expected)
        assert values.flags.c_contiguous

    def test_draw_holds_no_full_length_temporaries(self):
        # The output and the two uniform streams, plus the per-block temporaries.
        n = 1 << 18
        g = build_grouped_wcm((5, 4, 3, 2))
        tracemalloc.start()
        try:
            values = g.sample(n, 1).values
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= values.nbytes + 2 * n * values.itemsize + (2 << 20)

    def test_fixed_edge_draw_holds_no_edge_uniforms(self):
        # The output, the positions along the edge, and the per-block temporaries.
        n = 1 << 18
        coupling = optimal_coupling((5, 1, 1))[0]
        tracemalloc.start()
        try:
            values = coupling.sample(n, 1).values
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= values.nbytes + n * values.itemsize + (2 << 20)

    @pytest.mark.parametrize("case", FIXED_EDGE_CASES)
    @given(
        st.sampled_from([1, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1, 2 * _DRAW_BLOCK + 3,
                         MC_BATCH]),
        st.integers(min_value=0, max_value=2**63 - 1),
    )
    @settings(max_examples=8, deadline=None)
    def test_fixed_edge_draw_matches_oracle_and_stream(self, case, n, seed):
        # All mass on one segment: the segment uniforms are skipped, not drawn,
        # yet the bits and the generator's state after the draw are the
        # oracle's.  A lone segment neither draws nor advances them.
        copula = fixed_edge_copula(case)
        rng, oracle_rng = make_rng(seed), make_rng(seed)
        values = copula._draw(rng, n)
        if copula.construction == "countermonotonic":
            t = oracle_rng.random(n)
            expected = np.column_stack([t, 1.0 - t])
        else:
            tri = copula if copula.construction == "triangle" else build_triangle(copula.aggregates)
            assert sorted(tri.masses) == [0.0, 0.0, 1.0]
            cols = [g for i in range(copula.d)
                    for g, group in enumerate(copula.groups) if i in group]
            expected = triangle_draw_oracle(tri, oracle_rng, n)[:, cols]
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        if copula.construction == "grouped":
            grouped = grouped_sample_oracle(copula, n, seed)
            assert np.array_equal(copula.sample(n, seed).values.view(np.uint64),
                                  grouped.view(np.uint64))

    @given(
        st.one_of(triple_strategy, st.sampled_from([(2, 1, 1), (1, 2, 1), (1, 1, 2), (3, 1, 2)])),
        st.sampled_from(["A", "B"]),
        draw_sizes,
        st.integers(min_value=0, max_value=2**63 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_triangle_columns_match_row_wise_draw(self, w, variant, n, seed):
        # Degenerate triples put zero mass on edges, so the edge index meets
        # repeated cumulative masses.
        tri = build_triangle(w, variant)
        values = tri.sample(n, seed).values
        expected = triangle_draw_oracle(tri, make_rng(seed), n)
        assert values.flags.c_contiguous
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("w", [(2, 1, 1), (1, 2, 1), (1, 1, 2), (5, 4, 3), (1, 1, 1)])
    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_edge_index_at_cumulative_masses(self, w, variant):
        # Uniforms that hit the cumulative masses exactly, and their neighbours.
        tri = build_triangle(w, variant)
        cum = np.cumsum(tri.masses)
        u = np.array([0.0, *cum[:2], *np.nextafter(cum[:2], 0.0), *np.nextafter(cum[:2], 1.0)])
        u = np.minimum(u, np.nextafter(1.0, 0.0))
        t = np.linspace(0.0, 1.0, len(u), endpoint=False)

        class Replay:
            def __init__(self):
                self.draws = [u, t]
                self.bit_generator = self

            def random(self, n):
                return self.draws.pop(0)[:n]

            def advance(self, n):
                # A draw whose mass sits on one edge skips its edge uniforms.
                self.random(n)

        values = tri._draw(Replay(), len(u))
        expected = triangle_draw_oracle(tri, Replay(), len(u))
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("case", FIXED_EDGE_CASES)
    def test_fixed_edge_columns_are_the_position_or_its_complement(self, case):
        # A coordinate that runs from 1 to 0 is written as t and one from 0 to 1
        # as 1 - t, with the bits of t*start + (1-t)*end even at the ends of [0, 1).
        copula = fixed_edge_copula(case)
        t = EXTREME_POSITIONS
        if copula.construction == "countermonotonic":
            values = copula._draw(Replay(t), len(t))  # a lone segment draws no segment uniforms
            expected = np.column_stack([t, 1.0 - t])
        else:
            values = copula._draw(Replay(EDGE_UNIFORMS, t), len(t))
            tri = copula if copula.construction == "triangle" else build_triangle(copula.aggregates)
            cols = [g for i in range(copula.d)
                    for g, group in enumerate(copula.groups) if i in group]
            expected = triangle_draw_oracle(tri, Replay(EDGE_UNIFORMS, t), len(t))[:, cols]
        bits = values.view(np.uint64)
        assert np.array_equal(bits, expected.view(np.uint64))
        ends = {t.view(np.uint64).tobytes(), (1.0 - t).view(np.uint64).tobytes()}
        assert all(bits[:, i].tobytes() in ends for i in range(copula.d))

    @pytest.mark.parametrize("edge", range(3))
    def test_fixed_edge_coordinate_between_other_ends_keeps_the_general_form(self, edge):
        # All mass on one edge of a non-degenerate triangle: coordinates run
        # between a z-value and 0 or 1, and are neither t nor 1 - t.
        tri = build_triangle((5, 4, 3))
        tri = replace(tri, masses=tuple(float(k == edge) for k in range(3)))
        t = np.concatenate([EXTREME_POSITIONS, make_rng(3).random(1000)])
        u = make_rng(4).random(len(t))
        values = tri._draw(Replay(u, t), len(t))
        expected = triangle_draw_oracle(tri, Replay(u, t), len(t))
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))

    @given(
        st.lists(positive_weight, min_size=1, max_size=11),
        st.one_of(st.floats(min_value=2.0**-52, max_value=10.0), st.just(2.0**-52)),
        st.integers(min_value=0, max_value=11),
        draw_sizes,
        st.integers(min_value=0, max_value=2**63 - 1),
    )
    @example(rest=[1.2414656755054407, 1.99999, 2.375762310037082, 3.2414656755054407,
                   18.547770039474962, 18.547770039474962, 21.945525525498986,
                   22.212481852061494, 34.449016282625436, 34.30717384224629, 49.71773259741264],
             excess=2.0**-52, at=0, n=1, seed=0)
    @settings(max_examples=100, deadline=None)
    def test_optimal_coupling_draw_matches_oracle(self, rest, excess, at, n, seed):
        # An oversized weight, anywhere among d = 2..12, puts the optimal
        # coupling's mass on one segment.  The oracle draws on the copula's own
        # triangle: rebuilt from the aggregates, whose fsums can fail existence by
        # one rounding where the weights pass, it would raise.
        w = list(rest)
        w.insert(at % (len(rest) + 1), math.fsum(rest) * (1.0 + excess))
        assume(not validate_wcm_existence(w))
        copula = optimal_coupling(w)[0]
        values = copula.sample(n, seed).values
        if copula.construction == "countermonotonic":
            t = make_rng(seed).random(n)
            expected = np.column_stack([t, 1.0 - t])
        else:
            cols = [g for i in range(copula.d)
                    for g, group in enumerate(copula.groups) if i in group]
            expected = triangle_draw_oracle(copula, make_rng(seed), n).take(cols, axis=1)
        assert values.flags.c_contiguous
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))
        weights = np.array(copula.weights)
        assert np.array_equal((values @ weights).view(np.uint64),
                              (expected @ weights).view(np.uint64))

    def test_grouped_oracle_draws_where_the_aggregates_fail_existence(self):
        # The shrunken weights exist, but one aggregate's fsum rounds up by
        # 5.7e-14 past half the sum: the triangle cannot be rebuilt from them.
        rest = [1.2414656755054407, 1.99999, 2.375762310037082, 3.2414656755054407,
                18.547770039474962, 18.547770039474962, 21.945525525498986,
                22.212481852061494, 34.449016282625436, 34.30717384224629, 49.71773259741264]
        g = optimal_coupling([math.fsum(rest) * (1.0 + 2.0**-52), *rest])[0]
        assert g.construction == "grouped" and not validate_wcm_existence(g.aggregates)
        for n in (1, 4, 1000):
            expected = grouped_sample_oracle(g, n, 0)
            assert np.array_equal(g.sample(n, 0).values.view(np.uint64),
                                  expected.view(np.uint64))

    @given(
        st.one_of(
            st.lists(positive_weight, min_size=3, max_size=12).filter(
                lambda w: 2 * max(w) <= sum(w)
            ),
            st.sampled_from([
                (1, 1, 1, 1), (2, 1, 1), (4, 1, 1, 1, 1), (6, 5, 4, 3, 3, 2, 2, 2, 1, 1, 1, 1),
            ]),
        ),
        draw_sizes,
        st.integers(min_value=0, max_value=2**63 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_grouped_columns_match_take_gather(self, w, n, seed):
        g = build_grouped_wcm(w)
        values = g.sample(n, seed).values
        expected = grouped_sample_oracle(g, n, seed)
        assert values.flags.c_contiguous
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))
        weights = np.array(g.weights)
        assert np.array_equal((values @ weights).view(np.uint64),
                              (expected @ weights).view(np.uint64))

    @given(
        st.lists(st.floats(min_value=0.05, max_value=50.0), min_size=2, max_size=6).map(tuple)
    )
    @settings(max_examples=60, deadline=None)
    def test_support_random_weights(self, w):
        if 2 * max(w) > sum(w):
            with pytest.raises(ExistenceError):
                build_grouped_wcm(w)
            return
        copula = build_grouped_wcm(w)
        ok, max_dev = check_wcm(copula.sample(2000, seed=8), w)
        assert ok, max_dev


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize(
    "copula",
    [
        build_triangle((5, 4, 3), "B"),
        build_grouped_wcm((3, 3, 2, 2)),
        build_grouped_wcm((1, 1)),
        ComonotonicCopula(3),
        IndependenceCopula(3),
    ],
    ids=["TriangleCopula", "GroupedWCMCopula", "CountermonotonicPair", "ComonotonicCopula",
         "IndependenceCopula"],
)
def test_every_copula_rejects_nonpositive_sample_size(copula, n):
    with pytest.raises(DimensionError):
        copula.sample(n, seed=1)


class TestGrouped:
    def test_equal_quadruple_structure(self):
        g = build_grouped_wcm((1, 1, 1, 1))
        assert g.construction == "grouped"
        assert g.groups == ((0,), (2,), (1, 3))
        assert g.aggregates == (1.0, 1.0, 2.0)

    def test_partition_must_cover_every_coordinate(self):
        tri = build_triangle((1, 1, 1))
        for groups in (((0,), (1,), (2,)), ((0,), (1, 2), (2, 3)), ((0, 1), (2, 3), ()),
                       ((0, 1), (2, 3))):
            with pytest.raises(DimensionError):
                GroupedWCMCopula((1.0, 1.0, 1.0, 1.0), groups, tri.vertices, tri.masses, "grouped")

    def test_segments_vertices_and_groups_must_fit_together(self):
        tri = build_triangle((1, 1, 1))
        groups = ((0,), (1,), (2,))
        for vertices, masses in ((tri.vertices, tri.masses[:2] + (0.0, 0.0)),
                                 (tri.vertices, (1.0,)),
                                 (tri.vertices[:2], tri.masses),
                                 (tri.vertices[:2], (0.5, 0.5)),
                                 (tri.vertices + tri.vertices[:1], tri.masses + (0.0,)),
                                 (tuple(p[:2] for p in tri.vertices), tri.masses)):
            with pytest.raises(DimensionError):
                GroupedWCMCopula(tri.weights, groups, vertices, masses, "triangle")

    def test_vertices_off_the_aggregate_hyperplane_do_not_exist(self):
        # A (1, 1, 1) triangle under the aggregates (1, 1, 2), and a pair of
        # unequal weights: no sample of either lies on ``w . u == sum(w) / 2``.
        tri = build_triangle((1, 1, 1))
        with pytest.raises(ExistenceError, match="hyperplane"):
            GroupedWCMCopula((1.0, 1.0, 1.0, 1.0), ((0,), (1,), (2, 3)), tri.vertices, tri.masses,
                             "grouped")
        with pytest.raises(ExistenceError, match="hyperplane"):
            GroupedWCMCopula((1.0, 2.0), ((0,), (1,)), ((1.0, 0.0), (0.0, 1.0)), (1.0,),
                             "countermonotonic")

    def test_unknown_construction_is_a_domain_error(self):
        with pytest.raises(DomainError, match="unknown construction"):
            replace(build_triangle((1, 1, 1)), construction="other")

    def test_unequal_pair_summing_below_the_tolerance_does_not_exist(self):
        # the hyperplane check runs on the weights scaled by a power of two
        with pytest.raises(ExistenceError, match="hyperplane"):
            GroupedWCMCopula((1e-13, 2e-13), ((0,), (1,)), ((1.0, 0.0), (0.0, 1.0)), (1.0,),
                             "countermonotonic")

    @pytest.mark.parametrize("w", [(5e-320, 4e-320, 3e-320), (1e-310, 1e-310)])
    def test_subnormal_weights_build_and_pass_check_wcm(self, w):
        ok, dev = check_wcm(build_grouped_wcm(w).sample(2000, seed=9), w)
        assert ok and dev == 0.0

    def test_543_aggregates(self):
        g = build_grouped_wcm((5, 4, 3))
        assert g.aggregates == (5.0, 3.0, 4.0)

    def test_existence_error_reports_deficit(self):
        with pytest.raises(ExistenceError, match="2\\*max - sum = 3"):
            build_grouped_wcm((5, 1, 1))

    def test_within_group_comonotonic(self):
        g = build_grouped_wcm((1, 1, 1, 1))
        values = g.sample(1000, seed=77).values
        i, j = g.groups[2]
        assert np.array_equal(values[:, i], values[:, j])

    def test_pair_reduces_to_countermonotonic(self):
        pair = build_grouped_wcm((1, 1))
        assert pair.construction == "countermonotonic"
        values = pair.sample(1000, seed=5).values
        assert np.array_equal(values[:, 1], 1.0 - values[:, 0])
        assert pair.cdf((0.7, 0.6)) == pytest.approx(0.3, abs=1e-12)
        assert pair.cdf((0.2, 0.3)) == 0.0

    @given(st.sampled_from([(1, 1), (2.5, 2.5), (1e-300, 1e-300)]),
           st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    @settings(max_examples=300, deadline=None)
    def test_pair_cdf_is_within_2_pow_minus_52_of_the_oracle(self, w, u):
        # The segment form computes u1 - (1 - u2); it and max(u1 + u2 - 1, 0)
        # each land within 2^-53 of the exact value.
        assert abs(build_grouped_wcm(w).cdf(u) - countermonotonic_cdf_oracle(u)) <= 2.0**-52


@given(boundary_weights())
@example((1.0, 1.0, 2.0000000000001))
@example((1.0000000000000002, 8.673617379884035e-19, 1.0))
@example((4.1003319305359637e-13, 0.22539743365998377, 1.0406646288206348e-06,
          0.22539847432502264))
@settings(max_examples=300, deadline=None)
def test_builders_accept_exactly_the_weights_validate_accepts(w):
    # next to the boundary a builder's own arithmetic, or a check on the
    # rounded group aggregates, must not overrule the one existence decision
    exists = validate_wcm_existence(w)
    builders = [build_grouped_wcm]
    if len(w) == 3:
        builders += [lambda w: build_triangle(w, "A"), lambda w: build_triangle(w, "B")]
    for build in builders:
        try:
            copula = build(w)
        except ExistenceError:
            assert not exists and existence_deficit(w) > 0.0
        else:
            assert exists
            assert check_wcm(copula.sample(200, seed=0), w)[1] <= 1e-12 * math.fsum(w)


class TestCheckWcm:
    def test_grouped_passes(self):
        s = build_grouped_wcm((1, 1, 1, 1)).sample(10_000, seed=1)
        ok, dev = check_wcm(s, (1, 1, 1, 1))
        assert ok and dev < 1e-9

    def test_comonotonic_fails(self):
        s = ComonotonicCopula(3).sample(1000, seed=2)
        ok, dev = check_wcm(s, (1, 1, 1))
        assert not ok and dev > 0.1

    def test_independent_fails(self):
        s = IndependenceCopula(3).sample(1000, seed=3)
        ok, _ = check_wcm(s, (1, 1, 1))
        assert not ok

    def test_dimension_mismatch(self):
        s = IndependenceCopula(3).sample(10, seed=4)
        with pytest.raises(DimensionError):
            check_wcm(s, (1, 1))

    def test_tolerance_is_relative_below_a_unit_sum(self):
        # the countermonotonic pair's vertices miss (1e-13, 2e-13)'s hyperplane by 5e-14
        ok, dev = check_wcm(np.array([[1.0, 0.0], [0.0, 1.0]]), (1e-13, 2e-13))
        assert not ok and dev == pytest.approx(5e-14, rel=1e-12)

    @given(st.lists(st.floats(1e-3, 1e300), min_size=2, max_size=6), st.booleans(),
           st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_unit_or_larger_sums_give_the_absolute_check_bits(self, w, on_support, seed):
        # the deviation keeps the bits of the absolute form; the tolerance scales with S1
        if on_support:
            w = shrink_weights(w).values
        assume(math.fsum(w) >= 1.0)
        copula = build_grouped_wcm(w) if on_support else IndependenceCopula(len(w))
        s = copula.sample(500, seed)
        (ok, dev), want = check_wcm(s, w), check_wcm_absolute_oracle(s, w)
        assert dev.hex() == want[1].hex()
        assert ok == (dev <= SUPPORT_TOL * math.fsum(w))

    @pytest.mark.parametrize("w, build", [((5e8, 4e8, 3e8), build_triangle),
                                          ((6e9, 5e9, 4e9, 3e9), build_grouped_wcm)])
    def test_large_weights_pass_with_rounding_relative_to_the_sum(self, w, build):
        # deviations of 1.2e-7 and 1.9e-6 are ~1e-16 of S1, rounding of exact samples
        ok, dev = check_wcm(build(w).sample(10_000, seed=1), w)
        assert ok and 1e-9 < dev <= 1e-15 * math.fsum(w)


@pytest.mark.parametrize("cls", [ComonotonicCopula, IndependenceCopula])
@pytest.mark.parametrize("d", [-1, 0, 1, 2.5, 3.0, "3", None, True])
def test_reference_copulas_need_an_integer_dimension_of_at_least_two(cls, d):
    with pytest.raises(DimensionError):
        cls(d)
    assert cls(np.int64(2)).sample(3, seed=1).values.shape == (3, 2)


class TestFrechetBounds:
    def test_corner(self):
        assert frechet_bounds((1, 1, 1)) == (1.0, 1.0)

    def test_center(self):
        lower, upper = frechet_bounds((0.5, 0.5, 0.5))
        assert lower == 0.0
        assert upper == 0.5

    def test_pair(self):
        lower, upper = frechet_bounds((0.7, 0.6))
        assert lower == pytest.approx(0.3, abs=1e-12)
        assert upper == 0.6

    def test_domain(self):
        with pytest.raises(DomainError):
            frechet_bounds((1.2, 0.5))


cell_value = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 3.2e-05, 1.0, 0.1, 1e-300, math.inf, math.nan]),
    st.floats(),
)


class TestSampleMatrix:
    @pytest.mark.parametrize("copula", [
        ComonotonicCopula(4),
        IndependenceCopula(3),
        build_grouped_wcm((3, 3, 2, 2, 1)),
        build_triangle((5, 4, 3), "B"),
    ])
    def test_csv_matches_csv_writer(self, copula):
        # One row; whole blocks of CSV text; and a text that crosses a block boundary.
        for n in (1, 2 * _CSV_BLOCK, _CSV_BLOCK + 3):
            s = copula.sample(n, seed=5)
            expected = csv_oracle(s.values)
            assert s.to_csv_string() == expected
            assert "".join(s.csv_blocks()) == expected

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_csv_of_hand_built_matrix_matches_csv_writer(self, data):
        n = data.draw(st.integers(min_value=0, max_value=30))
        columns = data.draw(
            st.lists(st.lists(cell_value, min_size=n, max_size=n), min_size=1, max_size=4)
        )
        pick = data.draw(st.lists(st.integers(0, len(columns) - 1), min_size=1, max_size=8))
        values = np.array([columns[j] for j in pick], dtype=float).T  # Fortran order
        if data.draw(st.booleans()):
            values = np.ascontiguousarray(values)
        assert SampleMatrix(values, seed=None).to_csv_string() == csv_oracle(values)

    def test_rejects_matrix_without_columns(self):
        with pytest.raises(DimensionError):
            SampleMatrix(np.empty((3, 0)), seed=None)

    def test_csv_tells_negative_zero_from_zero(self):
        values = np.array([[0.0, -0.0, 0.0, 5e-324, 3.2e-05, 3.2e-05]])
        text = SampleMatrix(values, seed=None).to_csv_string()
        assert text == "u1,u2,u3,u4,u5,u6\n0.0,-0.0,0.0,5e-324,3.2e-05,3.2e-05\n"
        assert text == csv_oracle(values)

    def test_csv_round_trip(self):
        s = build_triangle((5, 4, 3), "A").sample(25, seed=11)
        text = s.to_csv_string()
        lines = text.strip().split("\n")
        assert lines[0] == "u1,u2,u3"
        parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.array_equal(parsed, s.values)

    def test_json_metadata(self):
        s = build_triangle((5, 4, 3), "B").sample(10, seed=12)
        meta = s.to_json_dict()
        assert meta["n"] == 10
        assert meta["d"] == 3
        assert meta["seed"] == 12
        assert meta["generator"] == "pcg64"
        assert meta["variant"] == "B"
        assert meta["weights"] == [5.0, 4.0, 3.0]
