"""Determinant expansion terms against brute-force dense oracles."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_complex, random_symbol_and_zs
from toepspec import expansion, symbol
from toepspec import (
    anti_conc_experiment,
    bidiag_subdet,
    build_z,
    corner_delta,
    det_sum_decomposition,
    dominance_report,
    lu_det,
    perm_sign,
)


# ---------------------------------------------------------------------------
# Permutation signs


def permutation_matrix_sign(x, n):
    order = list(x) + [i for i in range(n) if i not in set(x)]
    p = np.zeros((n, n))
    p[np.arange(n), order] = 1.0
    return int(round(np.linalg.det(p)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_perm_sign_exhaustive(n):
    for k in range(n + 1):
        for x in combinations(range(n), k):
            assert perm_sign(x, n) == permutation_matrix_sign(x, n)


def test_perm_sign_validation():
    with pytest.raises(ValueError):
        perm_sign((1, 1), 4)
    with pytest.raises(ValueError):
        perm_sign((4,), 4)


# ---------------------------------------------------------------------------
# det(A + B) decomposition


def test_det_sum_random_sparse(rng):
    for _ in range(30):
        n = int(rng.integers(1, 7))
        a = random_complex(rng, n)
        b = random_complex(rng, n) * (rng.random((n, n)) < 0.4)
        got = det_sum_decomposition(a, b)
        want = np.linalg.det(a + b)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_det_sum_dense_and_trivial(rng):
    a = random_complex(rng, 4)
    b = random_complex(rng, 4)
    assert det_sum_decomposition(a, b) == pytest.approx(np.linalg.det(a + b), rel=1e-9)
    assert det_sum_decomposition(a, np.zeros((4, 4))) == pytest.approx(
        np.linalg.det(a), rel=1e-9
    )


def test_det_sum_guard(rng):
    a = random_complex(rng, 13)
    with pytest.raises(ValueError):
        det_sum_decomposition(a, a)
    with pytest.raises(ValueError):
        det_sum_decomposition(random_complex(rng, 3), random_complex(rng, 4))


# ---------------------------------------------------------------------------
# Bidiagonal sub-determinants


def dense_bidiag_minor(zfrak, x, y, n):
    b = zfrak * np.eye(n, dtype=complex) + np.diag(np.ones(n - 1, complex), 1)
    keep_r = [i for i in range(n) if i not in set(x)]
    keep_c = [j for j in range(n) if j not in set(y)]
    sub = b[np.ix_(keep_r, keep_c)]
    return np.linalg.det(sub) if sub.size else 1.0 + 0j


@pytest.mark.parametrize("zfrak", [1.3 - 0.7j, 2.0, 0.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bidiag_subdet_exhaustive(zfrak, n):
    for k in range(n + 1):
        for x in combinations(range(n), k):
            for y in combinations(range(n), k):
                got = bidiag_subdet(zfrak, x, y, n)
                want = dense_bidiag_minor(zfrak, x, y, n)
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_bidiag_subdet_validation():
    with pytest.raises(ValueError):
        bidiag_subdet(1.0, (0, 1), (0,), 4)
    with pytest.raises(ValueError):
        bidiag_subdet(1.0, (0, 0), (0, 1), 4)
    with pytest.raises(ValueError):
        bidiag_subdet(1.0, (4,), (0,), 4)


# ---------------------------------------------------------------------------
# Expansion terms P_k = sum_{|X|=|Y|=k} sign(X) sign(Y) det(T_N(z)[X^c, Y^c])
# det(Delta[X, Y]), reported as dominance_report(...).p_values for k = 0..d


def test_dominance_report_p0_is_determinant(quad):
    z = 1.0
    delta = corner_delta(quad, 10, 3.0, seed=3)
    assert dominance_report(quad, z, delta).p_values[0] == pytest.approx(
        lu_det(build_z(quad, z, 10)), rel=1e-12
    )


def test_dominance_report_terms_sum_to_full_determinant(quad):
    # The terms of the expansion must re-assemble det(T_N(z) + Delta).
    n, z = 10, 1.0
    delta = corner_delta(quad, n, 3.0, seed=4)
    total = sum(dominance_report(quad, z, delta).p_values)
    want = lu_det(build_z(quad, z, n) + delta)
    assert abs(total - want) <= 1e-9 * abs(want)


def test_det_sum_generic_sparse_toeplitz(quad, rng):
    # Same identity for an arbitrary sparse perturbation (not corner-shaped).
    n, z = 8, -0.4 + 0.9j
    delta = np.zeros((n, n), complex)
    idx = rng.integers(0, n, size=(3, 2))
    for i, j in idx:
        delta[i, j] = complex(rng.standard_normal(), rng.standard_normal())
    total = det_sum_decomposition(build_z(quad, z, n), delta)
    want = lu_det(build_z(quad, z, n) + delta)
    assert abs(total - want) <= 1e-9 * max(1.0, abs(want))


@settings(max_examples=60, deadline=None)
@given(d1=st.integers(0, 3), d2=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_dominance_report_terms_sum_to_slogdet_over_random_symbols(d1, d2, seed):
    # Independent oracle: LAPACK's det(T_N(z) + Delta), with both corners
    # filled when d2 > 0.  The error is measured against sum_k |P_k|, the
    # scale of the terms being added; 1500 seeds offline (9804 cases) gave
    # a worst of 1.7e-13 on that scale and 6.3e-13 relative to the det.
    assume(1 <= d1 + d2 <= 3)
    s, zs = random_symbol_and_zs(d1, d2, seed)
    for z in zs:
        for n in (max(d1, d2) + 1, 7, 12):
            delta = corner_delta(s, n, s.d + 1.0, seed=seed)
            p = dominance_report(s, z, delta).p_values
            sign, log_abs = np.linalg.slogdet(build_z(s, z, n) + delta)
            want = sign * np.exp(log_abs)
            assert abs(sum(p) - want) <= 1e-10 * sum(abs(v) for v in p), (z, n)


def test_dominance_report_guards_wide_support(quad, rng):
    with pytest.raises(ValueError, match="support too large"):
        dominance_report(quad, 1.0, random_complex(rng, 14))


# ---------------------------------------------------------------------------
# Dominance diagnostics


def test_dominance_report_fields(quad):
    delta = corner_delta(quad, 12, 3.0, seed=7)
    rep = dominance_report(quad, 3.0, delta)
    assert rep.n == 12 and rep.dd == 0 and rep.d0 == 2
    assert len(rep.p_values) == quad.d + 1
    assert rep.p_abs == tuple(abs(v) for v in rep.p_values)
    assert rep.log_normalizer == pytest.approx(12 * np.log(3.0), rel=1e-12)
    assert rep.normalized_pd > 0.0
    # Far outside the curve the zeroth term dominates overwhelmingly.
    assert abs(sum(rep.p_values[1:])) / abs(rep.p_values[0]) < 1e-3
    assert rep.ratio_above < 1e-3 and rep.ratio_below == 0.0


def test_dominance_report_middle_region(quad):
    delta = corner_delta(quad, 12, 3.0, seed=8)
    rep = dominance_report(quad, 1.0, delta)
    assert rep.dd == 1
    assert rep.normalized_pd == pytest.approx(
        rep.p_abs[1] / np.exp(rep.log_normalizer), rel=1e-9
    )


def test_dominance_report_solves_roots_once(quad, monkeypatch):
    calls = []
    real_profile = symbol.root_profile

    def counting_profile(*args, **kwargs):
        calls.append(args)
        return real_profile(*args, **kwargs)

    monkeypatch.setattr(symbol, "root_profile", counting_profile)
    monkeypatch.setattr(expansion, "root_profile", counting_profile)
    dominance_report(quad, -0.1, corner_delta(quad, 12, 3.0, seed=7))
    assert len(calls) == 1


def test_dominance_report_rejects_boundary(quad):
    delta = corner_delta(quad, 12, 3.0, seed=9)
    with pytest.raises(ValueError):
        dominance_report(quad, 2.0, delta)


# ---------------------------------------------------------------------------
# Anti-concentration


def test_anti_conc_single_variable_exact_law():
    # Q = U with U uniform on [0,1]: P(|Q| <= eps) = eps exactly.
    table = anti_conc_experiment(
        k=1, n=1, coeffs={(0,): 1.0}, eps_grid=[0.05, 0.1], trials=40000, seed=1
    )
    for row in table.rows:
        assert row.frequency == pytest.approx(row.epsilon, abs=0.01)
        assert row.wilson_low <= row.epsilon <= row.wilson_high
        assert row.frequency <= row.bound


def test_anti_conc_rows_sorted_and_bounded():
    # The second case, Q = U0 U1 - U2 U3, has density at 0, so its small-eps
    # rows have hits down to eps = 1e-5 (7 of 100000 draws).
    cases = [
        ({(0, 1): 1.0, (2, 3): 0.5 - 0.5j}, [0.1, 0.001, 0.01], 20000, 2),
        ({(0, 1): 1.0, (2, 3): -1.0}, [1e-2, 1e-5, 1e-1, 1e-4, 1e-3], 100000, 20240817),
    ]
    for coeffs, eps_grid, trials, seed in cases:
        table = anti_conc_experiment(
            k=2, n=4, coeffs=coeffs, eps_grid=eps_grid, trials=trials, seed=seed
        )
        eps = [row.epsilon for row in table.rows]
        assert eps == sorted(eps_grid)
        assert table.c_star == 1.0
        for row in table.rows:
            assert row.frequency <= row.bound
            assert 0.0 <= row.wilson_low <= row.frequency <= row.wilson_high <= 1.0


def test_anti_conc_validation():
    with pytest.raises(ValueError):
        anti_conc_experiment(1, 2, {(0, 1): 1.0}, [0.1], 10, 0)  # not a 1-set
    with pytest.raises(ValueError):
        anti_conc_experiment(2, 4, {(1, 1): 1.0}, [0.1], 10, 0)  # repeated index
    with pytest.raises(ValueError):
        anti_conc_experiment(1, 1, {(0,): 1.0}, [0.5], 10, 0)  # eps > 1/e
    with pytest.raises(ValueError):
        anti_conc_experiment(1, 1, {(0,): 0.0}, [0.1], 10, 0)  # zero polynomial
