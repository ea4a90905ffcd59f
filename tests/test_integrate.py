import random
from fractions import Fraction

import pytest

from atlas import integrate
from atlas.errors import ConductorError, PrecisionError
from atlas.integrate import (Ball0, _n_conj, _sum_balls, auto_window,
                             f0_shell, f_shell, integral_status,
                             iwasawa_orbit_u0, phi_from_xi, quad_val_at_least,
                             shell_integrate, xi_integral)
from atlas.orbits import (INF, BPoint, make_bpoint_rs1,
                          u0_nilpotent_family_member, u0_ss_case0,
                          u0_ss_case1)
from atlas.padic import PadicScalar, QuadElt
from atlas.svalue import LogQVal
from atlas.values import (nil_family_orb_u0_fn, orb_u0_ss_case0,
                          orb_u0_ss_case1, phi_eval)


def indicator(condition):
    """The weight 1 where condition holds, 0 where it fails, None (split the
    ball) where it is undecided."""
    def weight(t):
        c = condition(t)
        return None if c is None else Fraction(1 if c else 0)
    return weight


def split_once(monkeypatch):
    """Make every f0_shell cover one residue level finer."""
    coarse = integrate.f0_shell
    monkeypatch.setattr(integrate, "f0_shell",
                        lambda k, p: [c for b in coarse(k, p) for c in b.split(p)])


# The per-z-ball sweep that z_shell_value replaces, kept as its reference:
# capped torus points from the f_shell balls, the conjugation by
# diag(z^-1, conj(z), 1) rebuilt from them, undecided z-balls split.


def _integral(s):
    if s.is_exact:
        return s.is_exact_zero() or s.val() >= 0
    if s.rel_precision == 0:
        return True if s.abs_precision >= 0 else None
    return s.val() >= 0


def _quad_integral(e):
    sa, sb = _integral(e.a), _integral(e.b)
    if sa is False or sb is False:
        return False
    if sa is None or sb is None:
        return None
    return True


def _matrix_integral(M):
    out = True
    for row in M:
        for e in row:
            s = _quad_integral(e)
            if s is False:
                return False
            if s is None:
                out = None
    return out


def _torus(z):
    n = z.norm()
    zi = z.inv()
    return z, n, n.inv(), z.conj(), zi, zi.conj()


def _a_conj(M, torus):
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = M
    z, n, ni, zb, zi, zbi = torus
    return [[m00, m01 * n, z * m02],
            [m10 * ni, m11, zbi * m12],
            [m20 * zi, m21 * zb, m22]]


def _indicator(st):
    return None if st is None else Fraction(1 if st else 0)


def _ref_t_integral(M, torus, p, window):
    def ev(ball):
        return _indicator(_matrix_integral(_a_conj(_n_conj(M, ball.point(p)), torus)))

    total = _sum_balls(p, [Ball0(Fraction(0), 0)], ev, Fraction(0))
    zeros = 0 if total != 0 else 1
    for j in range(-1, -window - 1, -1):
        s = _sum_balls(p, f0_shell(j, p), ev, Fraction(0))
        total += s
        zeros = zeros + 1 if s == 0 else 0
        if zeros >= 4:
            break
    return total


def ref_z_shell_value(M, k, p, window, nilfam):
    def ev(zball):
        try:
            torus = _torus(zball.point(p))
            if nilfam:
                return _indicator(_matrix_integral(_a_conj(M, torus)))
            return _ref_t_integral(M, torus, p, window)
        except (ConductorError, PrecisionError):
            return None
    return _sum_balls(p, f_shell(k, p), ev, Fraction(0))


class TestShellIntegrate:
    def test_volume_of_integers(self):
        assert shell_integrate(3, indicator(integral_status), Fraction(0), 9) == 1

    def test_down_tail(self):
        # v(t)/|t|^2 over |t| > 1 lives on the shells v -> -infinity: their sum
        # -(1 - t) sum_{j >= 1} j t^j = -t/(1 - t), t = 1/q, is closed from
        # the last shells of the down side, in Fraction and in LogQVal weights
        p = 3
        t = Fraction(1, p)

        def w(x):
            s = integral_status(x)
            if s is None:
                return None
            return Fraction(0) if s else x.val() * Fraction(p) ** (2 * x.val())

        def wlog(x):
            v = w(x)
            return None if v is None else LogQVal({1: v}, p)

        want = -t / (1 - t)
        assert shell_integrate(p, w, Fraction(0), 10) == want
        got = shell_integrate(p, wlog, LogQVal.const(0, p), 10)
        assert got == LogQVal({1: want}, p)

    def test_additive_over_disjoint_predicates(self):
        p = 3

        def cond_a(t):
            s = integral_status(t)
            if s is not True:
                return s
            return t.val() == 0 if not t.is_zero_at_precision() else None

        def cond_b(t):
            s = integral_status(t)
            if s is not True:
                return s
            if t.is_zero_at_precision():
                return t.abs_precision >= 1 or None
            return t.val() >= 1

        zero = Fraction(0)
        assert (shell_integrate(p, indicator(cond_a), zero, 9)
                + shell_integrate(p, indicator(cond_b), zero, 9)
                == shell_integrate(p, indicator(integral_status), zero, 9))

    def test_refinement_stability(self, monkeypatch):
        p = 3
        w = indicator(integral_status)
        coarse = shell_integrate(p, w, Fraction(0), 9)
        split_once(monkeypatch)
        assert shell_integrate(p, w, Fraction(0), 9) == coarse


class TestIwasawa:
    @pytest.mark.parametrize("p", [3, 5])
    def test_nilpotent_family(self, p):
        for vmu in (-2, -1, 0, 1):
            mu = Fraction(p) ** vmu
            got = iwasawa_orbit_u0(u0_nilpotent_family_member(mu, p))
            want = phi_eval(nil_family_orb_u0_fn(p),
                            PadicScalar.exact(mu, p)).grade(0)
            assert got == want

    def test_ss_case0_spot(self):
        p = 3
        assert iwasawa_orbit_u0(u0_ss_case0(1, p)) == orb_u0_ss_case0(1, p) == 1
        assert iwasawa_orbit_u0(u0_ss_case0(3, p)) == orb_u0_ss_case0(3, p) == 2

    def test_ss_case0_orbit_choice_independent(self):
        p = 5
        lam0 = Fraction(-5)          # 0ii-type: two orbits upstairs
        a = iwasawa_orbit_u0(u0_ss_case0(lam0, p))
        b = iwasawa_orbit_u0(u0_ss_case0(lam0, p, eps_unit=2))
        assert a == b == orb_u0_ss_case0(lam0, p)

    def test_ss_case1_spot(self):
        p = 3
        x0 = BPoint.exact(0, 1, 0, p)
        assert iwasawa_orbit_u0(u0_ss_case1(x0)) == orb_u0_ss_case1(0, 1, p)

    @pytest.mark.parametrize("p", [3, 5])
    def test_shell_values_match_z_ball_sweep(self, p, monkeypatch):
        shortcut = integrate.z_shell_value
        visited = []

        def record(M, k, q, window, nilfam):
            v = shortcut(M, k, q, window, nilfam)
            visited.append((M, k, window, nilfam, v))
            return v

        monkeypatch.setattr(integrate, "z_shell_value", record)
        lam0 = 2 if p == 5 else 1      # -lam0 a non-square unit
        for y in (u0_ss_case0(lam0, p), u0_ss_case0(lam0 * p, p),
                  u0_ss_case1(BPoint.exact(0, 1, 0, p)),
                  u0_ss_case1(BPoint.exact(0, p, 0, p)),
                  u0_ss_case1(BPoint.exact(-p ** 3, 1, p, p)),
                  u0_nilpotent_family_member(Fraction(1, p), p),
                  u0_nilpotent_family_member(p, p)):
            iwasawa_orbit_u0(y)
        assert sum(1 for *_, v in visited if v != 0) >= 10
        for M, k, window, nilfam, v in visited:
            assert ref_z_shell_value(M, k, p, window, nilfam) == v, (k, nilfam)

    def test_auto_window_positive(self):
        y = u0_ss_case0(27, 3)
        assert auto_window(y) >= 8


class TestBounds:
    def test_quad_val_at_least_is_integrality_of_shift(self):
        # v_F(x) >= m exactly when x pi^-m is integral, at every precision
        rng = random.Random(3)
        for p in (3, 5):
            pi = QuadElt.pi(p)
            pi_inv = QuadElt.exact(0, Fraction(1, p), p)

            def scalar():
                kind = rng.randrange(4)
                if kind == 0:
                    return PadicScalar.exact(0, p)
                if kind == 1:
                    return PadicScalar.exact(
                        Fraction(rng.randint(-90, 90), rng.randint(1, 90)), p)
                if kind == 2:
                    return PadicScalar.capped(p, rng.randint(-3, 3),
                                              rng.randint(1, p ** 3), rng.randint(1, 3))
                return PadicScalar.zero_at(p, rng.randint(-3, 3))

            for _ in range(150):
                x = QuadElt(scalar(), scalar())
                up = down = x
                for m in range(0, 7):
                    assert quad_val_at_least(x, m) == _quad_integral(up)
                    assert quad_val_at_least(x, -m) == _quad_integral(down)
                    up, down = up * pi_inv, down * pi


class TestXi:
    def test_spot_value(self):
        x = make_bpoint_rs1(0, 1, INF, 3)
        assert phi_from_xi(x, window=12) == LogQVal({1: Fraction(-6)}, 3)

    def test_wtilde_sign_symmetry(self):
        p = 3
        x = make_bpoint_rs1(1, 1, 3, p)
        xm = BPoint(x.lam, x.u, -x.wtilde)
        assert xi_integral(x, 12) == xi_integral(xm, 12)

    def test_pure_square_grade(self):
        x = make_bpoint_rs1(1, 2, 3, 3)
        v = xi_integral(x, 12)
        assert set(v.coeffs) <= {2}

    def test_refinement_stability(self, monkeypatch):
        x = make_bpoint_rs1(0, 1, INF, 3)
        coarse = xi_integral(x, 12)
        split_once(monkeypatch)
        assert xi_integral(x, 12) == coarse

    def test_side0_rejected(self):
        with pytest.raises(ValueError):
            xi_integral(BPoint.exact(1, 1, 0, 5), 10)
