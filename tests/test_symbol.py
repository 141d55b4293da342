"""Symbol arithmetic, characteristic roots, region labels, limit potentials.

Frozen constants below come from the quadratic formula applied to the
degree-2 characteristic polynomials of the two fixture symbols.
"""

import cmath
import inspect
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_complex, random_symbol_and_zs
import toepspec
from toepspec import _svg, harness, symbol
from toepspec import (
    BOUNDARY,
    ConfigError,
    MuASample,
    RootFindingError,
    Symbol,
    char_poly_coeffs,
    classify_region,
    limit_logpot,
    region_labels,
    root_profile,
    sample_mu_a,
)
from toepspec.toeplitz import build

SQRT13 = math.sqrt(13.0)
SQRT5 = math.sqrt(5.0)
SQRT06 = math.sqrt(0.6)

# Stored roots are the negatives of the zeros of lam^2 + lam - z, largest
# modulus first.
QUAD_ROOTS = {
    3.0: ((1.0 + SQRT13) / 2.0, (1.0 - SQRT13) / 2.0),
    1.0: ((1.0 + SQRT5) / 2.0, (1.0 - SQRT5) / 2.0),
    -0.1: ((1.0 + SQRT06) / 2.0, (1.0 - SQRT06) / 2.0),
}
QUAD_PROFILE = {3.0: (2, 0), 1.0: (1, 1), -0.1: (0, 2)}  # z -> (d0, dd)


# ---------------------------------------------------------------------------
# Construction and evaluation


def test_symbol_validation():
    with pytest.raises(ValueError):
        Symbol((1.0, 0.0), 1, 0)  # leading coefficient zero
    with pytest.raises(ValueError):
        Symbol((0.0, 1.0, 1.0), 1, 1)  # trailing coefficient zero with d2 > 0
    with pytest.raises(ValueError):
        Symbol((1.0, 1.0), 2, 0)  # wrong length
    with pytest.raises(ValueError):
        Symbol((np.nan, 1.0), 1, 0)
    with pytest.raises(ValueError):
        Symbol((1.0,), 0, 0)  # no band at all


def test_coeff_accessor(quad, tri):
    assert quad.coeff(2) == 1.0 and quad.coeff(0) == 0.0
    assert tri.coeff(-1) == 1.0
    with pytest.raises(IndexError):
        quad.coeff(-1)
    assert quad.d == 2 and tri.d == 2


@pytest.mark.parametrize("sym", ["quad", "tri"])
def test_eval_matches_direct_sum(request, rng, sym):
    s = request.getfixturevalue(sym)
    for lam in rng.standard_normal(8) + 1j * rng.standard_normal(8):
        want = sum(
            s.coeff(k) * lam**k for k in range(-s.d2, s.d1 + 1)
        )
        assert s.eval(lam) == pytest.approx(want, rel=1e-12)


def test_eval_many_matches_eval(tri, rng):
    lams = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    vals = tri.eval_many(lams)
    for lam, v in zip(lams, vals):
        assert v == pytest.approx(tri.eval(lam), rel=1e-12)


def test_eval_at_zero_needs_nonnegative_powers(quad, tri):
    assert quad.eval(0.0) == 0.0
    with pytest.raises(ValueError):
        tri.eval(0.0)


def test_curve_lies_on_unit_circle_image(quad):
    pts = quad.curve(64)
    angles = 2.0 * np.pi * np.arange(64) / 64
    want = np.array([quad.eval(cmath.exp(1j * t)) for t in angles])
    assert np.abs(pts - want).max() < 1e-12


def test_symbol_json_roundtrip(quad, tri):
    for s in (quad, tri):
        back = Symbol.from_json(s.to_json())
        assert back == s
    assert Symbol.from_json({**quad.to_json(), "d1": 2.0}) == quad
    with pytest.raises((KeyError, TypeError, ValueError)):
        Symbol.from_json({"d1": 1})


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"d1": 1.6}, "d1 must be an integer"),
        ({"d2": True}, "d2 must be an integer"),
        ({"name": "quad"}, r"unknown symbol fields: \['name'\]"),
        ({"coeffs": [[0, 0], [1, 0], [True, 0]]}, "coeff must be a number"),
        ({"coeffs": [[0, 0], [1, 0], ["1", 0]]}, "coeff must be a number"),
    ],
)
def test_symbol_json_rejects_truncation_and_unknown_fields(quad, edit, message):
    with pytest.raises(ValueError, match=message):
        Symbol.from_json({**quad.to_json(), **edit})


@pytest.mark.parametrize(
    "coeffs, d1, d2, message",
    [
        ((0, 1), True, 0, "d1 must be an integer, got True"),
        ((0, 1, 1), 2.5, 0, "d1 must be an integer, got 2.5"),
        ((1, 0, 1), 1, "1", "d2 must be an integer, got '1'"),
    ],
)
def test_symbol_rejects_bad_band_widths(coeffs, d1, d2, message):
    # The constructor checks what from_json checks, on every path.
    with pytest.raises(ConfigError, match=re.escape(message)):
        Symbol(coeffs, d1, d2)


def test_symbol_reads_integral_float_band_widths_as_ints(quad):
    s = Symbol((0, 1, 1), 2.0, np.int64(0))
    assert s == quad and type(s.d1) is int and type(s.d2) is int
    assert np.array_equal(build(s, 4), build(quad, 4))


# ---------------------------------------------------------------------------
# Characteristic polynomial and roots


def test_char_poly_coeffs_frozen(quad, tri):
    z = 1.5 - 0.5j
    assert np.allclose(char_poly_coeffs(quad, z), [-z, 1.0, 1.0])
    assert np.allclose(char_poly_coeffs(tri, z), [1.0, -z, 1.0])


@settings(max_examples=60, deadline=None)
@given(
    d1=st.integers(0, 3),
    d2=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_root_profile_roots_satisfy_vieta_and_residual(d1, d2, seed):
    # Oracles that take no eigenvalues.  Vieta's sum and product are the
    # trace and determinant of the companion matrix C, which the
    # eigensolver's backward error E (||E|| ~ eps ||C||) moves by about
    # d eps ||C|| and d eps ||C||^d.  The residual |P(lam)| relative to
    # sum |c_l| |lam|^l must stay well inside the 2^19 eps that the band
    # slack of region_labels allows.
    assume(d1 + d2 >= 1)
    s, zs = random_symbol_and_zs(d1, d2, seed)
    eps = np.finfo(float).eps
    for z in zs:
        c = char_poly_coeffs(s, z)
        lam = -np.array(root_profile(s, z).roots)  # the zeros of P
        a = c / c[-1]
        norm = math.sqrt(s.d - 1 + float(np.sum(np.abs(a[:-1]) ** 2)))  # ||C||_F
        assert abs(lam.sum() + a[-2]) <= 16 * s.d * eps * norm, z
        assert abs(np.prod(lam) - (-1) ** s.d * a[0]) <= 16 * s.d * eps * max(norm, 1.0) ** s.d, z
        residual = np.abs(np.polyval(c[::-1], lam))
        assert np.all(residual <= 2**12 * eps * np.polyval(np.abs(c[::-1]), np.abs(lam))), z


def test_root_profile_exact_zero_roots(rng):
    # lam^3 at z = 0: the triple root 0 is an ordinary eigenvalue, inside
    # the unit circle, so d0 = 0.
    cube = Symbol((0.0, 0.0, 0.0, 1.0), 3, 0)
    prof = root_profile(cube, 0.0)
    assert max(abs(r) for r in prof.roots) < 1.0
    assert (prof.d0, prof.dd) == (0, cube.d1)
    assert not prof.boundary
    # Simple roots from known factors: with d2 = 0, a(lam) = prod (lam - r)
    # is its own characteristic polynomial at z = 0.
    for _ in range(5):
        want = random_complex(rng, 1, 5)[0]
        s = Symbol(tuple(np.poly(want)[::-1]), 5, 0)
        got = -np.array(root_profile(s, 0.0).roots)
        assert np.abs(np.sort_complex(got) - np.sort_complex(want)).max() < 1e-8


def test_root_profile_frozen_quad(quad):
    for z, want in QUAD_ROOTS.items():
        prof = root_profile(quad, z)
        assert np.abs(np.array(prof.roots) - np.array(want)).max() < 1e-12
        d0, dd = QUAD_PROFILE[z]
        assert (prof.d0, prof.dd) == (d0, dd)
        assert not prof.boundary
        assert not prof.near_double


def test_root_profile_frozen_tri(tri):
    # z = 3: zeros of lam^2 - 3 lam + 1 are (3 +/- sqrt5)/2; negated and
    # sorted by modulus.
    prof = root_profile(tri, 3.0)
    want = (-(3.0 + SQRT5) / 2.0, -(3.0 - SQRT5) / 2.0)
    assert np.abs(np.array(prof.roots) - np.array(want)).max() < 1e-12
    assert (prof.d0, prof.dd) == (1, 0)


def test_root_ordering_is_nonincreasing_modulus(quad, tri):
    # tri at z = 1: the conjugate pair -1/2 +- i sqrt(3)/2, of equal modulus
    # up to rounding, in no set order.
    for prof in (root_profile(quad, 3.0), root_profile(tri, 1.0)):
        mods = [abs(r) for r in prof.roots]
        assert mods == sorted(mods, reverse=True)


def test_boundary_points(quad, tri):
    # z on the symbol curve: quad at lam=1 gives a(1) = 2; tri at lam=i gives 0.
    assert root_profile(quad, 2.0).boundary
    assert classify_region(quad, 2.0) == BOUNDARY
    assert root_profile(tri, 0.0).boundary
    assert classify_region(tri, 0.0) == BOUNDARY


def test_near_double_flag(quad):
    # Double root of lam^2 + lam - z at the critical value z = -1/4.
    assert root_profile(quad, -0.25).near_double
    assert not root_profile(quad, 3.0).near_double


def test_root_profile_degenerate_lead():
    s = Symbol((1.0, 0.5), 0, 1)  # a(lam) = lam^{-1} + 1/2
    with pytest.raises(RootFindingError):
        root_profile(s, 0.5)
    prof = root_profile(s, 2.0)  # away from a_0 the degree-1 poly is fine
    assert len(prof.roots) == 1


# ---------------------------------------------------------------------------
# Region classification


def test_classify_region_frozen(quad):
    assert classify_region(quad, 3.0) == 0
    assert classify_region(quad, 1.0) == 1
    assert classify_region(quad, -0.1) == 2


@pytest.mark.parametrize(
    "s, rect, extra",
    [
        (Symbol((0.0, 1.0, 1.0), 2, 0), (-2.5, 3.5, -3.0, 3.0), []),
        # lam^{-1} + lam/2: the nodes at +-1.5 on the real axis sit on the curve.
        (Symbol((1.0, 0.0, 0.5), 1, 1), (-1.5, 1.5, -1.0, 1.0), []),
        # d1 = 0, d2 = 2: at z = a_0 = 0.2 the polynomial degree collapses.
        (Symbol((1.0, 1.0, 0.2), 0, 2), (-2.3, 3.7, -3.0, 3.0), [0.2]),
        # d2 = 0: z = a_0 = 0.5 gives the zero root of lam^2 + 2 lam.
        (Symbol((0.5, 2.0, 1.0), 2, 0), (-1.0, 4.0, -2.5, 2.5), [0.5]),
        # lam^3: z = a_0 = 0 gives a triple zero root.
        (Symbol((0.0, 0.0, 0.0, 1.0), 3, 0), (-1.5, 1.5, -1.5, 1.5), [0.0]),
    ],
    ids=["quad", "ellipse", "degree_collapse", "zero_root", "triple_zero_root"],
)
def test_region_labels_match_scalar(s, rect, extra):
    xs = np.linspace(rect[0], rect[1], 7)
    ys = np.linspace(rect[2], rect[3], 7)
    zs = np.concatenate([(xs[None, :] + 1j * ys[:, None]).ravel(), extra])
    dd, bmask = region_labels(s, zs)
    for z, d, b in zip(zs, dd, bmask):
        one_dd, one_b = region_labels(s, [z])
        assert classify_region(s, complex(z)) == (BOUNDARY if one_b[0] else one_dd[0]), z
        try:
            prof = root_profile(s, complex(z))
        except RootFindingError:
            assert b
            assert classify_region(s, complex(z)) == BOUNDARY
            continue
        want = classify_region(s, complex(z))
        assert prof.boundary == b == (want == BOUNDARY), z
        if not b:
            assert want == d == prof.dd, z


def test_split_matches_outer_inner_rule():
    # Reference: on moduli sorted in nonincreasing order, the smallest modulus
    # >= 1 must exceed 1 + TOL_BOUNDARY and the largest one < 1 must fall
    # below 1 - TOL_BOUNDARY.
    tol = symbol.TOL_BOUNDARY

    def reference(d1, moduli):
        m = sorted(moduli, reverse=True)
        d0 = sum(v >= 1.0 for v in m)
        outer = m[d0 - 1] if d0 >= 1 else math.inf
        inner = m[d0] if d0 < len(m) else 0.0
        return d1 - d0, outer > 1.0 + tol and inner < 1.0 - tol

    edges = [1.0 - tol, 1.0, 1.0 + tol]
    probes = edges + [np.nextafter(e, v) for e in edges for v in (0.0, 2.0)] + [0.0, 0.5, 2.0]
    s = Symbol((0.3, 1.0, 1.0), 1, 1)
    rows = np.array(list(itertools.product(probes, repeat=2)))
    dd, clean = symbol._split(s, rows)
    for row, got_dd, got_clean in zip(rows.tolist(), dd, clean):
        assert (got_dd, got_clean) == reference(s.d1, row), row
    # Alone, a modulus in the closed band [1 - tol, 1 + tol] is not clean and
    # one ulp outside it is.
    assert [bool(symbol._split(s, np.array([v]))[1]) for v in sorted(probes)] == [
        True, True, True, False, False, False, False, False, False, False, True, True
    ]


def test_region_labels_flags_curve_points(quad):
    dd, bmask = region_labels(quad, np.array([2.0 + 0j, 3.0 + 0j]))
    assert bmask[0] and not bmask[1]
    assert dd[1] == 0


def _random_symbol(d1, d2, seed):
    g = np.random.default_rng(seed)
    coeffs = g.standard_normal(d1 + d2 + 1) + 1j * g.standard_normal(d1 + d2 + 1)
    return Symbol(tuple(coeffs), d1, d2), g


def _companion_moduli(s, z):
    """|lam| over the roots of (a(lam) - z) lam^d2, from companion-matrix
    eigenvalues."""
    c = char_poly_coeffs(s, z)
    comp = np.zeros((s.d, s.d), complex)
    comp[1:, :-1] = np.eye(s.d - 1)
    comp[:, -1] = -c[:-1] / c[-1]
    return np.abs(np.linalg.eigvals(comp))


@settings(max_examples=60, deadline=None)
@given(
    d1=st.integers(0, 4),
    d2=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_region_labels_match_companion_root_counts(d1, d2, seed):
    # Independent oracle: d1 - #{|lam| >= 1} with the roots of
    # (a(lam) - z) lam^d2 taken from companion-matrix eigenvalues.
    assume(1 <= d1 + d2 <= 4)
    s, _ = _random_symbol(d1, d2, seed)
    curve = s.curve(256)
    xs = np.linspace(curve.real.min() - 0.5, curve.real.max() + 0.5, 9)
    ys = np.linspace(curve.imag.min() - 0.5, curve.imag.max() + 0.5, 9)
    zs = (xs[None, :] + 1j * ys[:, None]).ravel()
    dd, bmask = region_labels(s, zs)
    for z, order in zip(zs[~bmask], dd[~bmask]):
        moduli = _companion_moduli(s, z)
        if np.abs(moduli - 1.0).min() < 1e-6:
            continue
        assert order == s.d1 - int((moduli >= 1.0).sum()), z


@settings(max_examples=60, deadline=None)
@given(
    d1=st.integers(0, 4),
    d2=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_winding_labels_match_companion_root_counts(d1, d2, seed):
    # Off the band the winding number of a(S^1) is the region order, on a
    # grid and on scattered nodes (and on one node, whose extent is zero).
    assume(1 <= d1 + d2 <= 4)
    s, g = _random_symbol(d1, d2, seed)
    curve = s.curve(256)
    re_lo, re_hi = curve.real.min() - 0.5, curve.real.max() + 0.5
    im_lo, im_hi = curve.imag.min() - 0.5, curve.imag.max() + 0.5
    xs, ys = np.linspace(re_lo, re_hi, 30), np.linspace(im_lo, im_hi, 30)
    grid = (xs[None, :] + 1j * ys[:, None]).ravel()
    scattered = g.uniform(re_lo, re_hi, 200) + 1j * g.uniform(im_lo, im_hi, 200)
    for zs in (grid, scattered, scattered[:1]):
        dd, band = symbol._winding_labels(s, zs)
        assert zs.size == 1 or (~band).sum() >= 0.25 * zs.size
        want = [s.d1 - int((_companion_moduli(s, z) >= 1.0).sum()) for z in zs[~band]]
        assert np.array_equal(dd[~band], want)


TENTPOLE_SYMBOLS = [
    (Symbol((0.0, 1.0, 1.0), 2, 0), (-2.5, 3.5, -3.0, 3.0)),
    # 0.5 lam^-1 + 0.3i + lam
    (Symbol((0.5, 0.3j, 1.0), 1, 1), (-2.0, 2.0, -2.0, 2.0)),
    # 0.2 lam^-2 - 0.4 lam^-1 + 0.1i + lam + 0.3 lam^2
    (Symbol((0.2, -0.4, 0.1j, 1.0, 0.3), 2, 2), (-3.0, 3.0, -3.0, 3.0)),
]


@pytest.mark.parametrize("s, rect", TENTPOLE_SYMBOLS, ids=["quad", "d1_d2_1", "d1_d2_2"])
def test_region_labels_match_root_labels_on_every_node(s, rect):
    xs = np.linspace(rect[0], rect[1], 120)
    ys = np.linspace(rect[2], rect[3], 120)
    zs = (xs[None, :] + 1j * ys[:, None]).ravel()
    dd, bmask = region_labels(s, zs)
    want_dd, want_bmask = symbol._root_labels(s, zs)
    assert np.array_equal(bmask, want_bmask)
    assert np.array_equal(dd[~bmask], want_dd[~want_bmask])
    assert symbol._winding_labels(s, zs)[1].sum() < 0.1 * zs.size


def test_eigensolver_failure_reads_boundary_at_that_node_only(quad, monkeypatch):
    # np.linalg.eigvals fails a whole stack when one matrix fails; the band
    # labels then solve row by row, so only the failing node reads boundary.
    xs = np.linspace(-2.5, 3.5, 61)
    ys = np.linspace(-3.0, 3.0, 61)
    zs = (xs[None, :] + 1j * ys[:, None]).ravel()
    want_dd, want_bmask = region_labels(quad, zs)
    band = symbol._winding_labels(quad, zs)[1]
    bad = np.nonzero(band & ~want_bmask)[0][0]
    real_eigvals = np.linalg.eigvals

    def failing_eigvals(m):
        # QUAD's companion matrix at z holds z in its top right entry.
        if np.any(m[..., 0, -1] == zs[bad]):
            raise np.linalg.LinAlgError("forced non-convergence")
        return real_eigvals(m)

    monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
    dd, bmask = region_labels(quad, zs)
    assert np.nonzero(bmask != want_bmask)[0].tolist() == [bad]
    assert np.array_equal(dd[~bmask], want_dd[~bmask])
    with pytest.raises(RootFindingError):
        root_profile(quad, zs[bad])


def test_region_svg_runs_by_hand():
    # 3 rows x 4 columns, d1 = d = 2, so codes are the orders; cell (1, 1) is
    # boundary (code d + 1 = 3) between two order-0 cells.
    codes = np.array([[0, 0, 1, 1], [0, 3, 0, 2], [2, 2, 2, 2]])
    runs = harness._row_runs(codes)
    assert runs == [
        [0, 0, 1, 1, 1, 1, 2],
        [0, 2, 0, 1, 2, 3, 0],
        [2, 4, 1, 2, 3, 4, 4],
        [0, 1, 0, 3, 0, 2, 2],
    ]
    markup = _svg.region_svg(runs, codes.shape, 2, "t")
    rects = [line for line in markup.splitlines() if line.startswith("<rect x=")]
    h = 'height="186.67"'
    assert rects == [
        f'<rect x="40" y="413.33" width="280" {h} fill="#ffffff"/>',
        f'<rect x="320" y="413.33" width="280" {h} fill="#808080"/>',
        f'<rect x="40" y="226.67" width="140" {h} fill="#ffffff"/>',
        f'<rect x="180" y="226.67" width="140" {h} fill="#cc2222"/>',
        f'<rect x="320" y="226.67" width="140" {h} fill="#ffffff"/>',
        f'<rect x="460" y="226.67" width="140" {h} fill="#000000"/>',
        f'<rect x="40" y="40" width="560" {h} fill="#000000"/>',
    ]


# ---------------------------------------------------------------------------
# Limiting log-potential


def circle_average_logdist(s, z, nodes=1 << 14):
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    vals = s.eval_many(np.exp(1j * theta))
    return float(np.mean(np.log(np.abs(vals - z))))


def test_limit_logpot_frozen_values(quad):
    assert limit_logpot(quad, 3.0) == pytest.approx(math.log(3.0), abs=1e-12)
    assert limit_logpot(quad, 1.0) == pytest.approx(
        math.log((1.0 + SQRT5) / 2.0), abs=1e-12
    )
    assert limit_logpot(quad, -0.1) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "z", [3.0, 1.0, -0.1, 2.5 + 1.5j, -1.0 - 0.8j, 0.4 + 0.2j]
)
def test_limit_logpot_matches_circle_average(quad, z):
    # Independent oracle: the mean of log|a(e^{i theta}) - z| over the circle.
    want = circle_average_logdist(quad, z)
    assert limit_logpot(quad, z) == pytest.approx(want, abs=1e-9)


def test_limit_logpot_matches_circle_average_tri(tri):
    for z in (3.0, 0.5 + 1.2j, -2.2 + 0.3j):
        assert limit_logpot(tri, z) == pytest.approx(
            circle_average_logdist(tri, z), abs=1e-9
        )


@settings(max_examples=60, deadline=None)
@given(
    d1=st.integers(0, 4),
    d2=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_limit_logpot_matches_jensen_average_over_random_symbols(d1, d2, seed):
    # Independent oracle (Jensen's formula): the circle average of
    # log|a(e^{i theta}) - z| by the trapezoid rule, which on 2^18 nodes is
    # accurate far below the tolerance for z at least 1e-3 from the curve.
    assume(1 <= d1 + d2 <= 4)
    g = np.random.default_rng(seed)
    coeffs = g.standard_normal(d1 + d2 + 1) + 1j * g.standard_normal(d1 + d2 + 1)
    s = Symbol(tuple(coeffs), d1, d2)
    nodes = 1 << 18
    vals = s.eval_many(np.exp(2j * np.pi * np.arange(nodes) / nodes))
    far = g.uniform(vals.real.min() - 0.5, vals.real.max() + 0.5, 6) + 1j * g.uniform(
        vals.imag.min() - 0.5, vals.imag.max() + 0.5, 6
    )
    near = vals[g.integers(0, nodes, 4)] + 2e-3 * np.exp(2j * np.pi * g.uniform(size=4))
    for z in np.concatenate([far, near]):
        logdist = np.log(np.abs(vals - z))
        if logdist.min() < math.log(1e-3):
            continue
        assert limit_logpot(s, complex(z)) == pytest.approx(logdist.mean(), abs=1e-9), z


# ---------------------------------------------------------------------------
# Curve-measure sampling


def test_sample_mu_a_deterministic(quad):
    a = sample_mu_a(quad, 100, seed=7)
    b = sample_mu_a(quad, 100, seed=7)
    assert isinstance(a, MuASample)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, sample_mu_a(quad, 100, seed=8).points)


def test_sample_mu_a_lands_on_curve(quad):
    pts = sample_mu_a(quad, 200, seed=1).points
    curve = quad.curve(4096)
    dist = np.abs(pts[:, None] - curve[None, :]).min(axis=1)
    assert dist.max() < 1e-2


# The boundary tolerance, expansion guard, quadrature size and tail exponents
# are module constants, and the root finder has no iteration cap or residual:
# none of them is a parameter.
REMOVED_PARAMETERS = {
    "root_profile": ("tol_boundary", "max_iter", "tol_residual"),
    "classify_region": ("tol_boundary",),
    "region_labels": ("tol_boundary", "max_iter"),
    "det_sum_decomposition": ("max_n",),
    "moment_rhs": ("nodes",),
    "smin_tail_check": ("betas",),
}


@pytest.mark.parametrize("name", sorted(REMOVED_PARAMETERS))
def test_numerical_constants_are_not_parameters(name):
    params = inspect.signature(getattr(toepspec, name)).parameters
    assert not set(REMOVED_PARAMETERS[name]) & set(params)
