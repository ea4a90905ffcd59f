"""Acceptance criteria, one test per criterion, each printing a pass/fail
line.  Everything runs in exact arithmetic; every tolerance is exact
equality, and every test runs under the conftest guard `forbid_capped`.
Run with `pytest -s tests/test_acceptance.py` to see the lines."""

import random
import time
from fractions import Fraction

import pytest

from atlas.errors import CayleyUndefinedError
from atlas.germs import gamma_n_mu, phi_closed
from atlas.integrate import iwasawa_orbit_u0, phi_from_xi
from atlas.keating import l_int_closed, l_int_keating
from atlas.orbits import (INF, XI_CHOICES, BPoint, U1LieElt, cayley,
                          cayley_inv, make_bpoint_rs1, section_sigma,
                          u0_nilpotent_family_member, u0_ss_case0,
                          u0_ss_case1)
from atlas.padic import PadicScalar, QuadElt, QuatElt
from atlas.svalue import LogQVal
from atlas.values import (CClassFn, eta_minus1, ext_fourier,
                          nil_family_orb_s_fn, nil_family_orb_u0_fn,
                          orb_nil_reg_s, orb_u0_ss_case0, orb_u0_ss_case1,
                          orb_u0_zero, phi_eval)
from atlas.verify import (base_point_library, expected_constant_at_zero, phi1,
                          verify_x0)
from test_orbits import s_conj_by

pytestmark = pytest.mark.usefixtures("forbid_capped")

LPLUS_GRID = list(range(1, 20, 2)) + [INF]


def _announce(num, name, ok, t0):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({time.time() - t0:.2f}s)")
    assert ok, f"criterion {num} failed"


def test_criterion_1_closed_vs_oracle_lint():
    t0 = time.time()
    ok = True
    for p in (3, 5, 7):
        for m in range(0, 9):
            for lm in range(20):
                for lp in LPLUS_GRID:
                    if l_int_closed(m, lm, lp, p) != l_int_keating(m, lm, lp, p):
                        ok = False
    _announce(1, "closed-form intersection length = level-sum oracle "
                 "(m<=8, l-<=19, l+ odd<=19 or inf, p=3,5,7)", ok, t0)


def test_criterion_2_constancy_at_zero():
    t0 = time.time()
    ok = True
    spot = {3: LogQVal({1: Fraction(-8)}, 3),
            5: LogQVal({1: Fraction(-7, 2)}, 5)}
    for p in (3, 5, 7):
        want = expected_constant_at_zero(p)
        if p in spot and want != spot[p]:
            ok = False
        for m in range(0, 9):
            for lm in range(20):
                for lp in LPLUS_GRID:
                    x = make_bpoint_rs1(m, lm, lp, p)
                    if phi1(x) != want:
                        ok = False
    _announce(2, "phi1 == 4t(t-3)/(1-t)^2 log q on the full realizable "
                 "side-1 grid (p=3,5,7)", ok, t0)


def test_criterion_3_constancy_at_nonzero_base_points():
    t0 = time.time()
    ok = True
    for p in (3, 5):
        for name, x0 in base_point_library(p):
            r = verify_x0(x0, count=5)
            if not (r.constant and len(r.samples) >= 5):
                ok = False
                print(f"  base point {name} (p={p}): {r.notes}")
    _announce(3, "difference-vanishing of phi1 around the nonzero base-point "
                 "library (cases 0i, 0ii, 1; p=3,5)", ok, t0)


def test_criterion_4_orbital_integral_oracle():
    t0 = time.time()
    ok = True
    for p in (3, 5):
        # nilpotent family over v(mu) in -4..4
        fn = nil_family_orb_u0_fn(p)
        for vmu in range(-4, 5):
            mu = Fraction(p) ** vmu
            got = iwasawa_orbit_u0(u0_nilpotent_family_member(mu, p))
            want = phi_eval(fn, PadicScalar.exact(mu, p)).grade(0)
            if got != want:
                ok = False
        # rank-zero semisimple points, v(lam0) in 0..6
        for v in range(0, 7):
            lam0 = None
            for c in range(1, p):
                cand = Fraction(c) * p ** v
                if not PadicScalar.exact(-cand, p).is_square():
                    lam0 = cand
                    break
            got = iwasawa_orbit_u0(u0_ss_case0(lam0, p))
            if got != orb_u0_ss_case0(lam0, p):
                ok = False
        # rank-one semisimple points, v(u0) in 0..4, both size branches
        for vu in range(0, 5):
            u0 = Fraction(p) ** vu
            x0 = BPoint.exact(0, u0, 0, p)
            if iwasawa_orbit_u0(u0_ss_case1(x0)) != orb_u0_ss_case1(0, u0, p):
                ok = False
            branches = [2 * vu + 1] + ([vu] if vu >= 1 else [])
            for vw in branches:
                wt0 = Fraction(p) ** vw
                lam0 = -wt0 * wt0 * p / (u0 * u0)
                x0 = BPoint.exact(lam0, u0, wt0, p)
                if iwasawa_orbit_u0(u0_ss_case1(x0)) != orb_u0_ss_case1(lam0, u0, p):
                    ok = False
    _announce(4, "Iwasawa shell-sum oracle = closed forms (nilpotent family "
                 "and both semisimple shapes; p=3,5)", ok, t0)


def test_criterion_5_germ_oracle():
    t0 = time.time()
    ok = True
    p = 3
    cases = {
        "I1": [(0, 1, INF), (1, 3, 5), (0, 2, 3)],
        "I2": [(1, 1, 3), (2, 3, 5), (2, 1, 7)],
        "I3": [(1, 2, 3), (2, 4, 5), (2, 2, 9)],
        "II1": [(1, 5, 3), (0, 2, 1), (1, 7, 5)],
        "II2": [(1, 3, 1), (2, 5, 3), (2, 7, 1)],
    }
    for name, pts in cases.items():
        for mlp in pts:
            x = make_bpoint_rs1(*mlp, p)
            if phi_closed(x) != phi_from_xi(x, window=14):
                ok = False
                print(f"  case {name} at {mlp}")
    _announce(5, "shell-sum family contribution = closed form on >= 3 points "
                 "in each of the five cases (p=3)", ok, t0)


def test_criterion_6_fourier_involution_and_matching():
    t0 = time.time()
    ok = True
    for p in (3, 5):
        e = eta_minus1(p)
        for tag in ("phi0", "phi1", "phi2", "phi3"):
            f = CClassFn.basis(tag, p)
            if ext_fourier(ext_fourier(f)) != f.scale(Fraction(e, p)):
                ok = False
        # matching through the extended transform, with the ramified constant
        lhs = nil_family_orb_u0_fn(p)
        rhs = ext_fourier(nil_family_orb_s_fn(p)).scale(Fraction(2 * e * p, 2))
        if lhs != rhs:
            ok = False
        # boundary identities for the zero orbit and regular nilpotents
        if -orb_u0_zero(p) != e * orb_nil_reg_s("plus", p) + orb_nil_reg_s("minus", p):
            ok = False
        if 0 != e * orb_nil_reg_s("plus", p) - orb_nil_reg_s("minus", p):
            ok = False
    _announce(6, "extended Fourier involution, transform matching, and "
                 "boundary identities (p=3,5)", ok, t0)


def _rand_quat(p, traceless=False):
    a = 0 if traceless else random.randint(-9, 9)
    return QuatElt(QuadElt.exact(a, random.randint(-9, 9), p),
                   QuadElt.exact(random.randint(-9, 9), random.randint(-9, 9), p))


def test_criterion_7_structural_properties():
    t0 = time.time()
    random.seed(101)
    ok = True
    p = 5
    # Cayley round trips and coverage on 200 random integral elements: the
    # chart screen must select an admissible chart whose inverse transform is
    # again integral
    from atlas.orbits import admissible_xi
    for _ in range(200):
        x = U1LieElt(_rand_quat(p, True), PadicScalar.exact(random.randint(-9, 9), p),
                     _rand_quat(p), QuadElt.exact(0, random.randint(-9, 9), p))
        xi = random.choice(XI_CHOICES)
        g = cayley(x, xi)
        y = cayley_inv(g, xi)
        m1, m2 = x.to_matrix(), y.to_matrix()
        if not all((a - b).is_zero() for r1, r2 in zip(m1, m2) for a, b in zip(r1, r2)):
            ok = False
        admissible = [xj for xj in XI_CHOICES if admissible_xi(g, xj)]
        if not admissible:
            ok = False
        else:
            xj = admissible[0]
            if xj != xi:
                try:
                    if not cayley_inv(g, xj).is_integral():
                        ok = False
                except CayleyUndefinedError:
                    ok = False
    # conjugation invariance of the invariants on 100 random conjugates
    done = 0
    while done < 100:
        x = BPoint.exact(random.randint(-20, 20), random.randint(-20, 20),
                         random.randint(-20, 20), p)
        if not x.is_rs():
            continue
        y = section_sigma(x)
        h = [[random.randint(-5, 5) for _ in range(2)] for _ in range(2)]
        if h[0][0] * h[1][1] - h[0][1] * h[1][0] == 0:
            continue
        iv = s_conj_by(y, h).invariants()
        if not (iv.lam.same_value(x.lam) and iv.u.same_value(x.u)
                and iv.wtilde.same_value(x.wtilde)):
            ok = False
        done += 1
    # family germ coefficients vanish at the center on 100 side-1 samples
    done = 0
    while done < 100:
        m = random.randint(0, 2)
        lm = random.randint(1, 5)
        lp = random.choice([1, 3, 5, INF])
        x = make_bpoint_rs1(m, lm, lp, random.choice((3, 5)))
        mu = Fraction(random.randint(-20, 20), x.p ** random.randint(0, 2))
        if gamma_n_mu(x, mu).value_at_0 != 0:
            ok = False
        done += 1
    _announce(7, "Cayley round trips + coverage (200), conjugation "
                 "invariance (100), family coefficient vanishing (100)", ok, t0)
