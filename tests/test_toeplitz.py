"""Toeplitz construction, the bidiagonal factorization check, word traces,
moments, and the exact determinant sum.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_complex, random_symbol_and_zs
from toepspec import (
    Symbol,
    band_logdet,
    bidiagonal_factor_check,
    build,
    build_z,
    classify_region,
    corner_delta,
    corner_entries,
    interleaved_band,
    lu_logdet,
    moment_lhs,
    moment_rhs,
    ks_distance,
    root_profile,
    singular_values,
    trace_word,
    widom_sum,
)
from toepspec.linalg import LOG_SINGULAR
from toepspec.symbol import BOUNDARY


# ---------------------------------------------------------------------------
# Construction


def test_build_explicit_quad(quad):
    want = np.array(
        [
            [0, 1, 1, 0, 0],
            [0, 0, 1, 1, 0],
            [0, 0, 0, 1, 1],
            [0, 0, 0, 0, 1],
            [0, 0, 0, 0, 0],
        ],
        dtype=complex,
    )
    assert np.array_equal(build(quad, 5), want)


def test_build_explicit_tri(tri):
    want = np.array(
        [
            [0, 1, 0, 0],
            [1, 0, 1, 0],
            [0, 1, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=complex,
    )
    assert np.array_equal(build(tri, 4), want)


def test_build_dtype_and_small_sizes(quad):
    m = build(quad, 1)
    assert m.shape == (1, 1) and m.dtype == np.float64
    assert m[0, 0] == 0.0
    m = build(Symbol((0.5j, 1.0, 1.0), 2, 0), 1)
    assert m.shape == (1, 1) and m.dtype == np.complex128
    assert m[0, 0] == 0.5j


def test_build_z_is_real_exactly_when_its_diagonals_are(quad):
    # The dtype follows a_{-d2}, ..., a_0 - z, ..., a_{d1}: a complex z or
    # coefficient makes T_N(z) complex, unless a_0 - z cancels it.
    assert build_z(quad, 1.0, 4).dtype == np.float64
    assert build_z(quad, 1.0 + 0.5j, 4).dtype == np.complex128
    assert build_z(Symbol((0.5j, 1.0, 1.0), 2, 0), 1.0, 4).dtype == np.complex128
    m = build_z(Symbol((1.0 + 0.5j, 1.0, 1.0), 2, 0), 0.5j, 4)
    assert m.dtype == np.float64 and np.array_equal(np.diag(m), np.ones(4))
    for z in (1.0, 1.0 + 0.5j):
        want = build(quad, 4).astype(complex) - z * np.eye(4)
        assert np.array_equal(build_z(quad, z, 4), want)


def test_build_z_shifts_diagonal(quad, tri):
    z = 0.3 - 1.1j
    for s in (quad, tri):
        assert np.allclose(build_z(s, z, 6), build(s, 6) - z * np.eye(6))


def test_bidiagonal_factorization_defect(quad, tri, rng):
    for s in (quad, tri):
        for _ in range(5):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            for n in (3, 8, 17):
                assert bidiagonal_factor_check(s, z, n) < 1e-10


# ---------------------------------------------------------------------------
# Word traces


def shift_matrix(n):
    return np.diag(np.ones(n - 1), 1).astype(complex)


def dense_word_trace(ms, ns, n):
    j = shift_matrix(n)
    acc = np.eye(n, dtype=complex)
    for m, k in zip(ms, ns):
        acc = acc @ np.linalg.matrix_power(j, m)
        acc = acc @ np.linalg.matrix_power(j.conj().T, k)
    return acc.trace()


def test_trace_word_frozen_values():
    assert trace_word((1,), (1,), 10) == 9
    assert trace_word((2,), (2,), 10) == 8
    # S S* is the projection dropping the last row, so (S S*)^2 = S S*.
    assert trace_word((1, 1), (1, 1), 10) == 9
    assert trace_word((3,), (1,), 10) == 0  # unbalanced word
    assert trace_word((), (), 5) == 5  # empty word = identity


def test_trace_word_matches_dense_products(rng):
    for _ in range(40):
        n = int(rng.integers(2, 12))
        parts = int(rng.integers(1, 4))
        ms = tuple(int(v) for v in rng.integers(0, n + 1, parts))
        ns = tuple(int(v) for v in rng.integers(0, n + 1, parts))
        got = trace_word(ms, ns, n)
        want = dense_word_trace(ms, ns, n)
        assert abs(want.imag) < 1e-12
        assert got == round(want.real)


def test_trace_word_validation():
    with pytest.raises(ValueError):
        trace_word((1, 2), (1,), 5)
    with pytest.raises(ValueError):
        trace_word((-1,), (1,), 5)
    with pytest.raises(ValueError):
        trace_word((6,), (6,), 5)


# ---------------------------------------------------------------------------
# Moment identity


def test_moment_lhs_closed_form_quad(quad):
    # tr(T T*) counts the squared moduli of the filled bands.
    for n in (10, 50):
        assert moment_lhs(quad, 0.0, 1, n) == pytest.approx(
            (2 * n - 3) / n, rel=1e-12
        )


def test_moment_lhs_shift_symbol_all_k():
    # Pure shift a = lam: S^k has N-k unit entries, so the normalized trace
    # of S^k (S*)^k is exactly (N-k)/N.
    s = Symbol((0.0, 1.0), 1, 0)
    for k in (1, 2, 3, 5):
        assert moment_lhs(s, 0.0, k, 20) == pytest.approx((20 - k) / 20, rel=1e-12)


def test_moment_rhs_closed_forms(quad, tri):
    # |a(e^{i t})|^2 = 2 + 2 cos t for the quadratic symbol; circle averages
    # of powers are exact small integers.
    assert moment_rhs(quad, 0.0, 1) == pytest.approx(2.0, rel=1e-12)
    assert moment_rhs(quad, 0.0, 2) == pytest.approx(6.0, rel=1e-12)
    assert moment_rhs(tri, 0.0, 1) == pytest.approx(2.0, rel=1e-12)
    assert moment_rhs(tri, 0.0, 2) == pytest.approx(6.0, rel=1e-12)
    # k = 1 off the origin: |z - a_0|^2 + sum_{k != 0} |a_k|^2 = 2 + 2.
    assert moment_rhs(quad, 1 + 1j, 1) == pytest.approx(4.0, rel=1e-12)


def test_moment_gap_shrinks_with_n(quad):
    z, k = 1.0 + 1.0j, 2
    rhs = moment_rhs(quad, z, k)
    gaps = [abs(moment_lhs(quad, z, k, n) - rhs) for n in (40, 80, 160)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.5


def test_moment_validation(quad):
    with pytest.raises(ValueError):
        moment_lhs(quad, 0.0, 0, 10)
    with pytest.raises(ValueError):
        moment_rhs(quad, 0.0, -1)


# ---------------------------------------------------------------------------
# Exact determinant sum


def sample_clean_z(s, rng, margin=0.03):
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


@pytest.mark.parametrize("sym", ["quad", "tri"])
def test_widom_sum_matches_lu(request, rng, sym):
    s = request.getfixturevalue(sym)
    for _ in range(8):
        z = sample_clean_z(s, rng)
        for n in (1, 2, 5, 12, 25):
            got = widom_sum(s, z, n)
            want = lu_logdet(build_z(s, z, n))
            assert got.log_abs == pytest.approx(want.log_abs, abs=1e-9)
            # Compare full complex values through the unit phases.
            assert got.phase == pytest.approx(want.phase, abs=1e-7)


def test_widom_sum_rejects_near_double_roots(quad):
    with pytest.raises(ValueError):
        widom_sum(quad, -0.25, 10)


def test_widom_sum_complex_coefficients(rng):
    s = Symbol((0.5 - 0.2j, 1.0 + 0.3j, -0.7j, 2.0 + 1j), 2, 1)
    for _ in range(4):
        z = sample_clean_z(s, rng)
        got = widom_sum(s, z, 9)
        want = lu_logdet(build_z(s, z, 9))
        assert got.log_abs == pytest.approx(want.log_abs, abs=1e-8)


# ---------------------------------------------------------------------------
# Random-symbol oracles


RANDOM_SYMBOLS = given(
    d1=st.integers(0, 4),
    d2=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=60, deadline=None)
@RANDOM_SYMBOLS
def test_widom_sum_matches_slogdet_over_random_symbols(d1, d2, seed):
    # Independent oracle: LAPACK's log|det T_N(z)|.  z with a near-double
    # root (which widom_sum rejects) is skipped, and so is T_N(z) with
    # condition number above 1e8, where the two routes may differ by up to
    # ~40 eps cond and neither is accurate.  1500 seeds offline gave a worst
    # relative error of 4e-11 on the kept draws.
    assume(1 <= d1 + d2 <= 4)
    s, zs = random_symbol_and_zs(d1, d2, seed)
    for z in zs:
        if root_profile(s, z).near_double:
            continue
        for n in (1, 3, 8, 24):
            a = build_z(s, z, n)
            if np.linalg.cond(a) > 1e8:
                continue
            want = np.linalg.slogdet(a)[1]
            assert widom_sum(s, z, n).log_abs == pytest.approx(want, rel=1e-9, abs=1e-9), (z, n)


@settings(max_examples=60, deadline=None)
@RANDOM_SYMBOLS
def test_bidiagonal_factor_check_vanishes_over_random_symbols(d1, d2, seed):
    # 1500 seeds offline gave a worst defect of 2.8e-15.
    assume(1 <= d1 + d2 <= 4)
    s, zs = random_symbol_and_zs(d1, d2, seed)
    for z in zs:
        for n in (1, 3, 8, 24):
            assert bidiagonal_factor_check(s, z, n) < 1e-12, (z, n)


# ---------------------------------------------------------------------------
# The interleaved band of T_N(z) + Delta


def interleave(n):
    return [v for i in range((n + 1) // 2) for v in (i, n - 1 - i)][:n]


def band_to_dense(ab, kl):
    n = ab.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for c in range(ab.shape[1]):
            if 0 <= i + c - kl < n:
                out[i, i + c - kl] = ab[i, c]
    return out


@pytest.mark.parametrize("d1, d2", [(2, 0), (0, 2), (1, 1), (3, 2), (1, 3)])
@pytest.mark.parametrize("transpose", [False, True])
def test_interleaved_band_is_the_permuted_matrix(d1, d2, transpose):
    s, zs = random_symbol_and_zs(d1, d2, 11 * d1 + d2)
    for n in (max(d1, d2) + 1, 6, 9):
        rows, cols, vals = corner_entries(s, n, s.d + 1.0, seed=n)
        delta = corner_delta(s, n, s.d + 1.0, seed=n)
        if transpose:
            rows, cols, delta = cols, rows, delta.T
        ab, kl, ku = interleaved_band(s, zs, n, rows, cols, vals)
        assert ab.shape == (len(zs), n, kl + ku + 1)
        assert max(kl, ku) <= 2 * max(d1, d2)
        p = interleave(n)
        for z, band in zip(zs, ab):
            want = (build_z(s, z, n) + delta)[np.ix_(p, p)]
            np.testing.assert_array_equal(band_to_dense(band, kl), want)


def test_interleaved_band_stacks_draws_on_one_support(quad):
    # A (D, m) stack of values on shared entries gives each draw's bands,
    # draw-major, with the widths of one draw.
    zs = [3.0, 1.0, -0.1]
    draws = [corner_entries(quad, 12, 3.0, seed=t) for t in range(4)]
    rows, cols, _ = draws[0]
    ab, kl, ku = interleaved_band(quad, zs, 12, rows, cols, np.stack([v for *_, v in draws]))
    one = [interleaved_band(quad, zs, 12, *entries) for entries in draws]
    assert (kl, ku) == one[0][1:] and ab.shape == (12, 12, kl + ku + 1)
    np.testing.assert_array_equal(ab, np.concatenate([band for band, _, _ in one]))


def test_interleaved_band_of_quad_is_four_by_four(quad):
    # The wrap-around (2, 0) band becomes an ordinary (4, 4) band.
    entries = corner_entries(quad, 500, 3.0, seed=1)
    ab, kl, ku = interleaved_band(quad, [3.0, 1.0, -0.1], 500, *entries)
    assert (kl, ku) == (4, 4) and ab.shape == (3, 500, 9)


def test_interleaved_band_validation(quad):
    with pytest.raises(ValueError):
        interleaved_band(quad, [1.0], 0)
    with pytest.raises(ValueError):
        interleaved_band(quad, [1.0], 5, [0, 1], [4], [1.0, 1.0])
    with pytest.raises(ValueError):
        interleaved_band(quad, [1.0], 5, [5], [0], [1.0])


@settings(max_examples=60, deadline=None)
@given(
    d1=st.integers(0, 3),
    d2=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    transpose=st.booleans(),
)
def test_band_logdet_matches_lu_logdet_over_random_symbols(d1, d2, seed, n, transpose):
    # Independent oracle: LAPACK's LU of the dense T_N(z) + Delta_corner.
    # Two backward-stable LUs differ by about cond * eps, so draws with
    # condition number above 1e5 are skipped; 1500 random draws offline gave
    # a worst relative gap of 1.1e-13 on the kept ones.
    assume(1 <= d1 + d2 and n > max(d1, d2))
    s, zs = random_symbol_and_zs(d1, d2, seed)
    rows, cols, vals = corner_entries(s, n, s.d + 1.0, seed)
    delta = corner_delta(s, n, s.d + 1.0, seed)
    if transpose:
        rows, cols, delta = cols, rows, delta.T
    ab, kl, ku = interleaved_band(s, zs, n, rows, cols, vals)
    assert max(kl, ku) <= 2 * max(d1, d2)
    for z, got in zip(zs, band_logdet(ab, kl, ku)):
        a = build_z(s, z, n) + delta
        if np.linalg.cond(a) > 1e5:
            continue
        want = lu_logdet(a)
        tol = 1e-11 * max(1.0, abs(want.log_abs))
        assert not got.singular, (z, n)
        assert abs(got.log_abs - want.log_abs) <= tol, (z, n)
        assert abs(got.phase - want.phase) <= tol, (z, n)


@settings(max_examples=60, deadline=None)
@given(
    d1=st.integers(0, 3),
    d2=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 120),
    real_symbol=st.booleans(),
    real_z=st.booleans(),
)
def test_build_z_singular_values_interlace_with_the_circulant(
    d1, d2, seed, n, real_symbol, real_z
):
    # Independent oracle (Boettcher-Grudsky): T_N(z) differs from the
    # circulant C_N(z) of the same symbol by its wrapped corners, a matrix of
    # rank <= d = d1 + d2, and C_N(z) is normal with eigenvalues a(w_j) - z
    # over the N-th roots of unity w_j.  So the descending singular values
    # interlace with shift d, and their KS distance is at most d / N.  Both
    # dtypes of build_z are covered: real only for a real symbol and real z.
    assume(1 <= d1 + d2)
    g = np.random.default_rng(seed)
    coeffs = g.standard_normal(d1 + d2 + 1)
    if not real_symbol:
        coeffs = coeffs + 1j * g.standard_normal(d1 + d2 + 1)
    s = Symbol(tuple(coeffs), d1, d2)
    z = complex(g.uniform(-2.0, 2.0), 0.0 if real_z else g.uniform(-2.0, 2.0))
    t = build_z(s, z, n)
    assert t.dtype == (np.float64 if real_symbol and real_z else np.complex128)
    sig_t = singular_values(t)
    w = np.exp(2j * np.pi * np.arange(n) / n)
    sig_c = np.sort(np.abs(s.eval_many(w) - z))[::-1]
    d = d1 + d2
    tol = 1e-10 * sig_c[0]
    assert np.all(sig_c[d:] <= sig_t[: n - d] + tol)
    assert np.all(sig_t[d:] <= sig_c[: n - d] + tol)
    assert round(n * ks_distance(sig_t, sig_c)) <= d


@settings(max_examples=60, deadline=None)
@RANDOM_SYMBOLS
def test_band_logdet_at_zero_delta_matches_widom_sum(d1, d2, seed):
    # The closed form is an oracle that shares no LU at all.  z with a
    # near-double root is skipped, and so is T_N(z) with condition number
    # above 1e8; 1500 seeds offline gave a worst relative gap of 8e-14.
    assume(1 <= d1 + d2 <= 3)
    s, zs = random_symbol_and_zs(d1, d2, seed)
    for z in zs:
        if root_profile(s, z).near_double:
            continue
        for n in (1, 3, 8, 24, 80):
            if np.linalg.cond(build_z(s, z, n)) > 1e8:
                continue
            (got,) = band_logdet(*interleaved_band(s, [z], n))
            want = widom_sum(s, z, n)
            tol = 1e-11 * max(1.0, abs(want.log_abs))
            assert abs(got.log_abs - want.log_abs) <= tol, (z, n)
            assert abs(got.phase - want.phase) <= tol, (z, n)


@pytest.mark.parametrize("d1, d2", [(2, 0), (3, 0), (0, 1), (0, 3)])
def test_band_logdet_one_sided_symbol_at_its_diagonal_is_singular(d1, d2):
    # T_N(a_0) is strictly triangular: an exact zero pivot, whatever the order.
    s, _ = random_symbol_and_zs(d1, d2, 3)
    for n in (1, 2, 7, 30):
        (ld,) = band_logdet(*interleaved_band(s, [s.coeff(0)], n))
        assert ld.singular and ld.log_abs == LOG_SINGULAR, n
        assert lu_logdet(build_z(s, s.coeff(0), n)).singular
