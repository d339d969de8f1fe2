"""Acceptance gate: every criterion at its stated tolerance, one PASS/FAIL
line per criterion (visible with ``pytest -s`` or on failure), and beside
criteria 4, 5 and 10 the exact variance, Spearman matrix and survival
function of built couplings."""

import math
import time
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ComonotonicCopula,
    boundary_weights,
    coupling_spearman_exact,
    coupling_survival_exact,
    coupling_variance_exact,
    gaussian_copula_sample,
    ks_critical_1pct,
    ks_uniform_statistic,
    spearman_oracle,
)
from wcm.bounds import mc_variance, optimal_coupling
from wcm.copula import build_grouped_wcm, build_triangle, check_wcm, make_rng
from wcm.indices import (
    gaussian_spearman,
    rhix_degeneracy_curve,
    six,
    six_bounds,
    six_lognormal,
    spearman_matrix,
)
from wcm.weights import validate_wcm_existence, variance_upper_bound

SUPPORT_WEIGHTS = [(1, 1, 1), (5, 4, 3), (1, 1, 1, 1), (3, 3, 2, 2)]


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def best_time(fn, repeats: int = 5) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_exact_construction():
    copula = build_triangle((5, 4, 3), "A")
    errors = {
        "z": max(abs(a - b) for a, b in zip(copula.z_values, (0.25, 2 / 3, 0.6))),
        "vertices": max(
            abs(a - b)
            for p, q in zip(
                copula.vertices, ((1, 0.25, 0), (0, 1, 2 / 3), (0.6, 0, 1))
            )
            for a, b in zip(p, q)
        ),
        "masses": max(
            abs(a - b) for a, b in zip(copula.masses, (6 / 11, 3 / 11, 2 / 11))
        ),
        "cdf": abs(copula.cdf((1.0, 0.25, 1 / 3)) - 2 / 33),
    }
    elapsed = best_time(lambda: build_triangle((5, 4, 3), "A").cdf((1.0, 0.25, 1 / 3)))
    ok = max(errors.values()) <= 1e-12 and elapsed < 1e-3
    report(
        1,
        ok,
        f"construction errors {max(errors.values()):.2e} (tol 1e-12), "
        f"runtime {elapsed * 1e6:.0f} us (< 1 ms)",
    )


def test_criterion_2_support_constraint():
    details = []
    ok = True
    for w in SUPPORT_WEIGHTS:
        copula = build_grouped_wcm(w)
        start = time.perf_counter()
        samples = copula.sample(100_000, seed=1000 + len(w))
        passed, max_dev = check_wcm(samples, w)
        elapsed = time.perf_counter() - start
        ok = ok and passed and elapsed < 1.0
        details.append(f"{w}: dev {max_dev:.1e}, {elapsed:.2f}s")
    report(2, ok, "; ".join(details))


def _uniformity_cases():
    return [
        ("(5,4,3) A", build_triangle((5, 4, 3), "A")),
        ("(5,4,3) B", build_triangle((5, 4, 3), "B")),
        ("(1,1,1) A", build_triangle((1, 1, 1), "A")),
        ("inner (1,1,1,1)", build_triangle(build_grouped_wcm((1, 1, 1, 1)).aggregates)),
        ("inner (3,3,2,2)", build_triangle(build_grouped_wcm((3, 3, 2, 2)).aggregates)),
    ]


def test_criterion_3_uniform_marginals():
    grid = np.linspace(0.0, 1.0, 101)
    worst_exact = 0.0
    for _, copula in _uniformity_cases():
        for k in range(3):
            for u in grid:
                worst_exact = max(worst_exact, abs(copula.marginal_cdf(k, float(u)) - u))
    n = 100_000
    critical = ks_critical_1pct(n)
    worst_ks = 0.0
    for w in SUPPORT_WEIGHTS:
        values = build_grouped_wcm(w).sample(n, seed=2000 + len(w)).values
        for k in range(values.shape[1]):
            worst_ks = max(worst_ks, ks_uniform_statistic(values[:, k]))
    ok = worst_exact <= 1e-12 and worst_ks < critical
    report(
        3,
        ok,
        f"exact marginal error {worst_exact:.2e} (tol 1e-12), "
        f"KS {worst_ks:.4f} < {critical:.4f}",
    )


def test_criterion_4_variance_bounds():
    n = 10**6
    details = []
    ok = True

    start = time.perf_counter()
    coupling, _ = optimal_coupling((5, 1, 1))
    est, _ = mc_variance(coupling, (5, 1, 1), n, seed=4001)
    elapsed = time.perf_counter() - start
    case_ok = abs(est - 0.75) < 0.01 * 0.75 and elapsed < 5.0
    ok = ok and case_ok
    details.append(f"coupling (5,1,1): {est:.5f} vs 0.75, {elapsed:.1f}s")

    start = time.perf_counter()
    strict, _ = optimal_coupling((1, 1, 1))
    est0, _ = mc_variance(strict, (1, 1, 1), n, seed=4002)
    elapsed = time.perf_counter() - start
    case_ok = est0 <= 1e-18 and elapsed < 5.0
    ok = ok and case_ok
    details.append(f"strict (1,1,1): {est0:.1e} <= 1e-18")

    for w in ((5, 1, 1), (1, 1, 1)):
        upper = math.fsum(w) ** 2 / 12.0
        start = time.perf_counter()
        est_c, _ = mc_variance(ComonotonicCopula(len(w)), w, n, seed=4003)
        elapsed = time.perf_counter() - start
        case_ok = abs(est_c - upper) < 0.01 * upper and elapsed < 5.0
        ok = ok and case_ok
        details.append(f"comonotonic {w}: {est_c:.5f} vs {upper:.5f}")

    report(4, ok, "; ".join(details))


@st.composite
def coupled_weights(draw):
    """d = 2 to 12 weights in any order: admissible (the largest at most the
    sum of the others), oversized by 1% to 10x, or next to the boundary."""
    rest = draw(st.lists(st.floats(0.05, 50.0), min_size=1, max_size=11))
    factor = draw(st.one_of(st.floats(0.0, 1.0), st.floats(1.01, 10.0)))
    w = [*rest, max(max(rest), factor * math.fsum(rest))]
    return tuple(draw(st.one_of(st.permutations(w), boundary_weights(st.integers(3, 12)))))


# Measured over 3000 random vectors of these kinds: |Var - l(w)| reached
# 7.9e-16 of the upper bound sum(w)^2/12, and 1.5e-13 of l(w) itself with the
# largest weight oversized by at least 1%.
@settings(max_examples=200, deadline=None)
@given(coupled_weights())
def test_built_coupling_variance_is_the_lower_bound(w):
    coupling, lower = optimal_coupling(w)
    upper = variance_upper_bound(w)
    var = coupling_variance_exact(coupling, w)
    assert abs(var - Fraction(lower)) <= 4e-15 * upper
    if lower >= 1e-4 * upper:  # oversized by >= 1% of sum(w)
        assert abs(var / Fraction(lower) - 1) <= 1e-12


def test_criterion_5_six_attainment():
    n = 100_000
    comon = six(ComonotonicCopula(3).sample(n, seed=5001), (5, 4, 3))
    strict = six(build_triangle((1, 1, 1), "A").sample(n, seed=5002), (1, 1, 1))
    coupling, _ = optimal_coupling((5, 1, 1))
    shrunk = six(coupling.sample(n, seed=5003), (5, 1, 1))
    ok = comon == 1.0 and abs(strict - (-0.5)) < 0.02 and abs(shrunk - (-9 / 11)) < 0.02
    report(
        5,
        ok,
        f"comonotonic {comon} == 1 exactly; strict {strict:.4f} vs -0.5; "
        f"shrunken {shrunk:.4f} vs {-9 / 11:.4f}",
    )


# Measured over 3000 random vectors: the diagonal within 1.2e-15 of 1,
# max|rho_S w| at most 9.5e-16 of sum(w), and SIX within 5.6e-16 of its bound.
@settings(max_examples=200, deadline=None)
@given(coupled_weights())
def test_built_coupling_spearman_matrix_has_the_weights_as_null_vector(w):
    coupling, _ = optimal_coupling(w)
    rho = coupling_spearman_exact(coupling)
    assert max(abs(row[i] - 1) for i, row in enumerate(rho)) <= 1e-14
    built = [Fraction(v) for v in coupling.weights]
    assert max(abs(sum(r * v for r, v in zip(row, built))) for row in rho) <= 1e-14 * sum(built)
    if not validate_wcm_existence(w):
        exact = [Fraction(v) for v in w]
        pairs = [(i, j) for i in range(len(w)) for j in range(i + 1, len(w))]
        value = (sum(exact[i] * exact[j] * rho[i][j] for i, j in pairs)
                 / sum(exact[i] * exact[j] for i, j in pairs))
        assert abs(value - Fraction(six_bounds(w)[0])) <= 1e-14


def test_criterion_6_lognormal_identities():
    exact_one = six_lognormal([[1.0, 1.0], [1.0, 1.0]], (2, 3))

    n = 10**6
    u = gaussian_copula_sample(np.array([[1.0, 0.5], [0.5, 1.0]]), n, seed=6001)
    rank_six = six(u, (1, 1))
    arcsine = gaussian_spearman(0.5)

    cov = np.array([[1.0, 0.3], [0.3, 1.0]])
    z = np.linalg.cholesky(cov)
    x = np.exp(make_rng(6002).standard_normal((n, 2)) @ z.T)
    centered = (x[:, 0] - x[:, 0].mean()) * (x[:, 1] - x[:, 1].mean())
    sample_cov = float(np.sum(centered) / (n - 1))
    closed_form = math.exp(1.0) * math.expm1(0.3)
    se = float(np.std(centered, ddof=1) / math.sqrt(n))

    ok = (
        exact_one == 1.0
        and abs(rank_six - arcsine) < 0.005
        and abs(sample_cov - closed_form) < 3 * se
    )
    report(
        6,
        ok,
        f"rho=1 gives {exact_one}; rank {rank_six:.5f} vs {arcsine:.5f} "
        f"(tol 0.005); cov {sample_cov:.4f} vs {closed_form:.4f} "
        f"(3se {3 * se:.4f})",
    )


def test_criterion_7_rhix_degeneracy_vs_six_constancy():
    sweep = [round(0.1 * k, 10) for k in range(1, 51)]
    curve = rhix_degeneracy_curve(0.5, sweep)  # raises unless strictly decreasing
    tail = curve[-1][1]
    # One Gaussian Z per rho: exp(sigma * Z) is lognormal and only its
    # marginals move along the sweep, so its rank SIX must not move at all.
    normals = make_rng(7007).standard_normal((5000, 2))
    rank_values, closed_exact = [], True
    for rho in (0.25, 0.5, 0.75):
        corr = [[1.0, rho], [rho, 1.0]]
        z = normals @ np.linalg.cholesky(corr).T
        rank_values.append({six(np.exp(s * z), (1, 1)) for s in sweep})
        closed_exact &= six_lognormal(corr, (1, 1)) == gaussian_spearman(rho)
    ok = tail < 1e-5 and all(len(v) == 1 for v in rank_values) and closed_exact
    report(
        7,
        ok,
        f"curve strictly decreasing, tail {tail:.2e} < 1e-5; rank six of exp(sigma*Z) "
        f"takes {[len(v) for v in rank_values]} values across the sweep at rho 0.25/0.5/0.75; "
        f"six_lognormal == gaussian_spearman bit for bit: {closed_exact}",
    )


def test_criterion_8_marginal_freedom():
    rng = np.random.default_rng(8001)
    transforms = [
        lambda c: 3.0 * c + 2.0,
        np.exp,
        np.arctan,
        lambda c: c**3,
        lambda c: c / (1.0 + c),
        np.expm1,
    ]
    trials_ok = 0
    for _ in range(20):
        d = int(rng.integers(2, 5))
        data = rng.random((400, d))
        weights = tuple(rng.uniform(0.5, 5.0, size=d))
        base = six(data, weights)
        picks = rng.integers(0, len(transforms), size=d)
        transformed = np.column_stack(
            [transforms[picks[k]](data[:, k]) for k in range(d)]
        )
        trials_ok += six(transformed, weights) == base
    ok = trials_ok == 20
    report(8, ok, f"{trials_ok}/20 trials bit-identical under increasing transforms")


def test_criterion_9_spearman_oracle():
    rng = np.random.default_rng(9001)
    n = 50
    factor = (n * n - 1.0) / (n * n)  # triple enumeration vs mid-rank Pearson
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(n)
        y = rng.uniform(-1.0, 1.0) * x + rng.standard_normal(n)
        assert len(np.unique(x)) == n and len(np.unique(y)) == n
        rho = spearman_matrix(np.column_stack((x, y)))[0, 1]
        worst = max(worst, abs(spearman_oracle(x, y) - rho * factor))
    ok = worst < 1e-12
    report(9, ok, f"max |oracle - rank * (n^2-1)/n^2| = {worst:.2e} (tol 1e-12)")


def test_criterion_10_non_uniqueness():
    a = build_triangle((5, 4, 3), "A")
    b = build_triangle((5, 4, 3), "B")
    grid = np.linspace(0.0, 1.0, 21)
    gap = max(
        abs(a.cdf((x, y, z)) - b.cdf((x, y, z)))
        for x in grid
        for y in grid
        for z in grid
    )
    n = 100_000
    samples_b = b.sample(n, seed=10001)
    support_ok, _ = check_wcm(samples_b, (5, 4, 3))
    marginal_ok = all(
        abs(b.marginal_cdf(k, float(u)) - u) <= 1e-12
        for k in range(3)
        for u in np.linspace(0.0, 1.0, 101)
    )
    ks_ok = all(
        ks_uniform_statistic(samples_b.values[:, k]) < ks_critical_1pct(n)
        for k in range(3)
    )
    ok = gap > 1e-6 and support_ok and marginal_ok and ks_ok
    report(
        10,
        ok,
        f"max CDF gap {gap:.4f} > 1e-6; variant B passes support, exact "
        "marginals, and KS checks",
    )


def test_variants_a_and_b_cross_so_neither_lies_below_the_other():
    # the paper's "minimal, no minimum" in d = 3: two WCM copulas for (5, 4, 3)
    # whose CDF difference on the 21^3 grid spans [-0.172727, 0.172727]
    a = build_triangle((5, 4, 3), "A")
    b = build_triangle((5, 4, 3), "B")
    grid = np.linspace(0.0, 1.0, 21)
    diff = [a.cdf((x, y, z)) - b.cdf((x, y, z)) for x in grid for y in grid for z in grid]
    assert min(diff) < -0.17 and max(diff) > 0.17


def test_variants_a_and_b_survival_functions_cross_too():
    # the survival half: on the same grid P(U > u) of A less that of B spans
    # [-0.172727, 0.172727], in Fractions of the float vertices and masses, so
    # neither copula lies below the other in the upper orthant order either
    a = build_triangle((5, 4, 3), "A")
    b = build_triangle((5, 4, 3), "B")
    grid = np.linspace(0.0, 1.0, 21)
    points = [(x, y, z) for x in grid for y in grid for z in grid]
    diff = [coupling_survival_exact(a, u) - coupling_survival_exact(b, u) for u in points]
    assert min(diff) < -0.17 and max(diff) > 0.17
    # inclusion-exclusion on the exact CDF ties the survival function to it
    for copula in (a, b):
        for x, y, z in points[::37]:
            by_cdf = (1 - x - y - z + copula.cdf((x, y, 1)) + copula.cdf((x, 1, z))
                      + copula.cdf((1, y, z)) - copula.cdf((x, y, z)))
            assert abs(by_cdf - float(coupling_survival_exact(copula, (x, y, z)))) <= 1e-15
