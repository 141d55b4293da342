"""Self-contained oracle suite: cross-checks every kernel against an
independent route (closed forms, exhaustive enumeration, or a second
algorithm).  Used by the ``toepspec validate`` command; the pytest suite
covers the same ground with more granularity.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ._rng import generator
from .expansion import (
    anti_conc_experiment,
    bidiag_subdet,
    det_sum_decomposition,
    perm_sign,
)
from .linalg import eigenvalues, haar_unitary, lu_logdet
from .noise import NoiseModel, corner_support, sample
from .symbol import Symbol, region_labels, root_profile
from .toeplitz import build, build_z, moment_lhs, moment_rhs, trace_word, widom_sum

Check = tuple[str, bool, str]


def _cofactor_det(m: np.ndarray) -> complex:
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0j
    if n == 1:
        return complex(m[0, 0])
    total = 0j
    sign = 1.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += sign * m[0, j] * _cofactor_det(minor)
        sign = -sign
    return total


def _match_multisets(a: np.ndarray, b: np.ndarray) -> float:
    key = lambda w: (round(w.real, 6), round(w.imag, 6))
    aa = sorted(a, key=key)
    bb = sorted(b, key=key)
    return max(abs(x - y) for x, y in zip(aa, bb))


def run_checks() -> list[Check]:
    checks: list[Check] = []
    rg = generator(20240817)
    quad = Symbol((0, 1, 1), d1=2, d2=0)
    tri = Symbol((1, 0, 1), d1=1, d2=1)

    # --- LU vs exhaustive cofactor determinant
    m = rg.standard_normal((5, 5)) + 1j * rg.standard_normal((5, 5))
    got = lu_logdet(m).det
    want = _cofactor_det(m)
    err = abs(got - want) / abs(want)
    checks.append(("lu vs cofactor determinant (5x5)", err < 1e-10, f"rel err {err:.2e}"))

    # --- eigenvalues vs closed-form tridiagonal spectrum
    n = 30
    t = build(tri, n)
    got_eigs = np.sort(eigenvalues(t).eigenvalues.real)
    want_eigs = np.sort(2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    err = float(np.max(np.abs(got_eigs - want_eigs)))
    checks.append(("eigenvalues vs 2cos(k pi/(n+1)) (n=30)", err < 1e-10, f"max err {err:.2e}"))

    # --- root_profile vs the known roots a polynomial is built from; as a
    # symbol with d2 = 0, its characteristic polynomial at z = 0 is c itself
    worst = 0.0
    for _ in range(5):
        roots = rg.standard_normal(5) + 1j * rg.standard_normal(5)
        c = np.array([1.0 + 0j])
        for r in roots:
            c = np.convolve(c, np.array([-r, 1.0]))
        got_r = -np.array(root_profile(Symbol(tuple(c), d1=5, d2=0), 0.0).roots)
        worst = max(worst, _match_multisets(got_r, roots))
    checks.append(("root_profile vs known roots", worst < 1e-8, f"max err {worst:.2e}"))

    # --- region labels vs d1 - #{|lam| >= 1} from root_profile's roots
    srg = generator(7)
    s = Symbol(tuple(srg.standard_normal(4) + 1j * srg.standard_normal(4)), d1=2, d2=1)
    curve = s.curve(256)
    xs = np.linspace(curve.real.min() - 0.5, curve.real.max() + 0.5, 12)
    ys = np.linspace(curve.imag.min() - 0.5, curve.imag.max() + 0.5, 12)
    zs = (xs[None, :] + 1j * ys[:, None]).ravel()
    dd, bmask = region_labels(s, zs)
    checked = mismatched = 0
    for z, order in zip(zs[~bmask], dd[~bmask]):
        moduli = np.abs(root_profile(s, z).roots)
        if np.abs(moduli - 1.0).min() < 1e-6:
            continue
        checked += 1
        mismatched += int(order != s.d1 - int((moduli >= 1.0).sum()))
    checks.append(
        (
            "region_labels vs companion root counts",
            checked > 0 and mismatched == 0,
            f"{mismatched}/{checked} nodes differ",
        )
    )

    # --- haar unitarity
    u = haar_unitary(40, 7)
    err = float(np.max(np.abs(u @ u.conj().T - np.eye(40))))
    checks.append(("haar unitary U U* = I", err < 1e-10, f"max err {err:.2e}"))

    # --- additive determinant decomposition vs direct determinant
    worst = 0.0
    for _ in range(20):
        nn = int(rg.integers(1, 6))
        a = rg.standard_normal((nn, nn)) + 1j * rg.standard_normal((nn, nn))
        b = np.zeros((nn, nn), complex)
        for _ in range(int(rg.integers(0, nn + 1))):
            b[rg.integers(0, nn), rg.integers(0, nn)] = complex(
                rg.standard_normal(), rg.standard_normal()
            )
        got = det_sum_decomposition(a, b)
        want = lu_logdet(a + b).det
        worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
    checks.append(("det(A+B) index-set decomposition", worst < 1e-9, f"rel err {worst:.2e}"))

    # --- bidiagonal complement minors, exhaustive n=5
    worst = 0.0
    nn = 5
    zf = complex(rg.standard_normal(), rg.standard_normal())
    jz = np.diag(np.ones(nn - 1), 1).astype(complex) + zf * np.eye(nn)
    every = np.arange(nn)
    for k in range(nn + 1):
        for x in combinations(range(nn), k):
            xc = np.delete(every, x)
            for y in combinations(range(nn), k):
                yc = np.delete(every, y)
                want = _cofactor_det(jz[np.ix_(xc, yc)])
                got = bidiag_subdet(zf, x, y, nn)
                worst = max(worst, abs(got - want))
    checks.append(("bidiagonal complement minors (exhaustive n=5)", worst < 1e-9, f"max err {worst:.2e}"))

    # --- permutation signs vs permutation-matrix determinants
    ok = True
    for _ in range(20):
        nn = int(rg.integers(1, 8))
        k = int(rg.integers(0, nn + 1))
        x = tuple(sorted(rg.choice(nn, size=k, replace=False).tolist()))
        perm = list(x) + [i for i in range(nn) if i not in x]
        pm = np.zeros((nn, nn), complex)
        for row, col in enumerate(perm):
            pm[row, col] = 1.0
        ok = ok and abs(lu_logdet(pm).det - perm_sign(x, nn)) < 1e-12
    checks.append(("permutation signs vs matrix determinants", ok, ""))

    # --- determinant subset formula vs LU, phases included
    worst = 0.0
    for s in (quad, tri):
        for _ in range(6):
            z = complex(2.5 * rg.standard_normal(), 2.5 * rg.standard_normal())
            for n in range(1, 9):
                try:
                    ws = widom_sum(s, z, n)
                except ValueError:
                    continue
                want = lu_logdet(build_z(s, z, n))
                if want.singular or ws.singular:
                    continue
                got_det = ws.det
                want_det = want.det
                worst = max(worst, abs(got_det - want_det) / max(abs(want_det), 1e-12))
    checks.append(("determinant subset formula vs LU (n=1..8)", worst < 1e-8, f"rel err {worst:.2e}"))

    # --- trace words vs dense products
    worst_i = 0
    for _ in range(30):
        ln = int(rg.integers(1, 4))
        ms = [int(v) for v in rg.integers(0, 4, ln)]
        ns = [int(v) for v in rg.integers(0, 4, ln)]
        nn = int(rg.integers(4, 12))
        j = np.diag(np.ones(nn - 1), 1).astype(complex)
        js = j.conj().T
        prod = np.eye(nn, dtype=complex)
        for m_t, n_t in zip(ms, ns):
            prod = prod @ np.linalg.matrix_power(j, m_t) @ np.linalg.matrix_power(js, n_t)
        want = int(round(np.trace(prod).real))
        worst_i = max(worst_i, abs(trace_word(ms, ns, nn) - want))
    checks.append(("shift-word traces vs dense products", worst_i == 0, f"max err {worst_i}"))

    # --- moment identity, closed form k=1
    z = 1 + 1j
    rhs = moment_rhs(quad, z, 1)
    closed = abs(z) ** 2 - 2 * (np.conj(z) * quad.coeff(0)).real + sum(
        abs(quad.coeff(k)) ** 2 for k in range(-quad.d2, quad.d1 + 1) if k != 0
    )
    err = abs(rhs - closed)
    lhs = moment_lhs(quad, z, 1, 200)
    ok = err < 1e-10 and abs(lhs - rhs) < 10 * 1 * quad.d / 200
    checks.append(("moment identity k=1 (closed form)", ok, f"quad err {err:.2e}"))

    # --- anti-concentration bound on a grid including small epsilon
    table = anti_conc_experiment(
        2,
        4,
        {(0, 1): 1.0, (2, 3): -1.0},
        (1e-5, 1e-4, 1e-3, 1e-2, 1e-1),
        100000,
        20240817,
    )
    ok = all(row.frequency <= row.bound for row in table.rows)
    checks.append(
        (
            "anti-concentration bound (k=2 grid)",
            ok,
            "; ".join(f"{r.epsilon:g}:{r.frequency:.2g}<={r.bound:.2g}" for r in table.rows),
        )
    )

    # --- corner support size and norm bound
    supp = corner_support(10, 2, 0)
    ok = supp == [(8, 0), (9, 0), (9, 1)]
    gn = sample(NoiseModel("gaussian_complex"), 50, 3)
    ok = ok and abs(float(np.mean(np.abs(gn) ** 2)) - 1.0) < 5 / 50
    checks.append(("corner support / noise normalization", ok, ""))

    return checks
