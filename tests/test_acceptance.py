"""Acceptance gate: every criterion at its stated tolerance, one PASS/FAIL
line per criterion (visible with ``pytest -s`` or on failure)."""

import math
import time

import numpy as np

from helpers import gaussian_copula_sample, ks_critical_1pct, ks_uniform_statistic, spearman_oracle
from wcm.bounds import mc_variance, optimal_coupling
from wcm.copula import ComonotonicCopula, build_grouped_wcm, build_triangle, check_wcm
from wcm.indices import (
    LognormalModel,
    gaussian_spearman,
    rhix_degeneracy_curve,
    six,
    six_lognormal,
    spearman_rho,
)

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
        ("inner (1,1,1,1)", build_grouped_wcm((1, 1, 1, 1)).inner),
        ("inner (3,3,2,2)", build_grouped_wcm((3, 3, 2, 2)).inner),
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


def test_criterion_5_six_attainment():
    n = 100_000
    comon = six(ComonotonicCopula(3).sample(n, seed=5001), (5, 4, 3)).six
    strict = six(build_triangle((1, 1, 1), "A").sample(n, seed=5002), (1, 1, 1)).six
    coupling, _ = optimal_coupling((5, 1, 1))
    shrunk = six(coupling.sample(n, seed=5003), (5, 1, 1)).six
    ok = comon == 1.0 and abs(strict - (-0.5)) < 0.02 and abs(shrunk - (-9 / 11)) < 0.02
    report(
        5,
        ok,
        f"comonotonic {comon} == 1 exactly; strict {strict:.4f} vs -0.5; "
        f"shrunken {shrunk:.4f} vs {-9 / 11:.4f}",
    )


def test_criterion_6_lognormal_identities():
    exact_one = six_lognormal((2, 3), LognormalModel.bivariate(1.0, 0.7, 1.3))

    n = 10**6
    u = gaussian_copula_sample(np.array([[1.0, 0.5], [0.5, 1.0]]), n, seed=6001)
    rank_six = six(u, (1, 1)).six
    arcsine = gaussian_spearman(0.5)

    cov = np.array([[1.0, 0.3], [0.3, 1.0]])
    z = np.linalg.cholesky(cov)
    from wcm.copula import make_rng

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
    six_values = {six_lognormal((1, 1), LognormalModel.bivariate(0.5, s, s)) for s in sweep}
    ok = tail < 1e-5 and len(six_values) == 1
    report(
        7,
        ok,
        f"curve strictly decreasing, tail {tail:.2e} < 1e-5; "
        f"six constant at {six_values.pop():.6f} across the sweep",
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
        base = six(data, weights).six
        picks = rng.integers(0, len(transforms), size=d)
        transformed = np.column_stack(
            [transforms[picks[k]](data[:, k]) for k in range(d)]
        )
        trials_ok += six(transformed, weights).six == base
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
        worst = max(worst, abs(spearman_oracle(x, y) - spearman_rho(x, y) * factor))
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
