import random
from fractions import Fraction

import pytest

from atlas import integrate, padic
from atlas.errors import ConductorError, InputError, PrecisionError, StabilizationError
from atlas.integrate import (Ball0, BallF, _conj_polys, _eta,
                             _iwasawa_t_integral, _shell_bounds, _sum_balls,
                             _taylor, auto_window, f0_shell, iwasawa_orbit_u0,
                             phi_from_xi, shell_integrate, xi_integral)
from atlas.orbits import (INF, BPoint, make_bpoint_rs1,
                          u0_nilpotent_family_member, u0_ss_case0,
                          u0_ss_case1)
from atlas.padic import PadicScalar, QuadElt
from atlas.svalue import LogQVal
from atlas.values import (nil_family_orb_u0_fn, orb_u0_ss_case0,
                          orb_u0_ss_case1, phi_eval)

# the criterion-5 points (m, l-, l+) at p = 3
XI_POINTS = ((0, 1, INF), (1, 3, 5), (0, 2, 3), (1, 1, 3), (2, 3, 5), (2, 1, 7),
             (1, 2, 3), (2, 4, 5), (2, 2, 9), (1, 5, 3), (0, 2, 1), (1, 7, 5),
             (1, 3, 1), (2, 5, 3), (2, 7, 1))


def val(x, p):
    return PadicScalar.exact(x, p).val()


def split_once(monkeypatch):
    """Make every f0_shell cover one residue level finer."""
    coarse = integrate.f0_shell
    monkeypatch.setattr(integrate, "f0_shell",
                        lambda k, p: [c for b in coarse(k, p) for c in b.split(p)])


def criterion4_elements():
    """(element, closed-form value) for the elements of acceptance criterion 4."""
    out = []
    for p in (3, 5):
        fn = nil_family_orb_u0_fn(p)
        for vmu in range(-4, 5):
            mu = Fraction(p) ** vmu
            out.append((u0_nilpotent_family_member(mu, p),
                        phi_eval(fn, PadicScalar.exact(mu, p)).grade(0)))
        for v in range(0, 7):
            lam0 = next(Fraction(c) * p ** v for c in range(1, p)
                        if not PadicScalar.exact(-c * p ** v, p).is_square())
            out.append((u0_ss_case0(lam0, p), orb_u0_ss_case0(lam0, p)))
        for vu in range(0, 5):
            u0 = Fraction(p) ** vu
            out.append((u0_ss_case1(BPoint.exact(0, u0, 0, p)), orb_u0_ss_case1(0, u0, p)))
            for vw in [2 * vu + 1] + ([vu] if vu >= 1 else []):
                wt0 = Fraction(p) ** vw
                lam0 = -wt0 * wt0 * p / (u0 * u0)
                out.append((u0_ss_case1(BPoint.exact(lam0, u0, wt0, p)),
                            orb_u0_ss_case1(lam0, u0, p)))
    return out


# The capped-interval path that the exact Taylor decisions replace, kept as
# their reference: ball centers capped at the ball's precision, the unipotent
# conjugate and the xi integrand evaluated in capped arithmetic, and ternary
# valuation tests that split a ball when its precision cannot decide.


def capped_point(ball, p):
    return PadicScalar.from_rational_absprec(ball.center, p, ball.depth)


def val_at_least(s, m):
    """Ternary v(s) >= m for a scalar: True / False / None (undecided)."""
    if s.is_exact:
        return s.is_exact_zero() or s.val() >= m
    if s.rel_precision == 0:
        return True if s.abs_precision >= m else None
    return s.val() >= m


def quad_val_at_least(x, m):
    """Ternary v_F(x) >= m: v(a) >= ceil(m/2) and v(b) >= ceil((m-1)/2)."""
    sa = val_at_least(x.a, -(-m // 2))
    sb = val_at_least(x.b, -((1 - m) // 2))
    if sa is False or sb is False:
        return False
    if sa is None or sb is None:
        return None
    return True


def matrix_val_at_least(M, bounds):
    out = True
    for row, brow in zip(M, bounds):
        for e, m in zip(row, brow):
            s = quad_val_at_least(e, m)
            if s is False:
                return False
            if s is None:
                out = None
    return out


def known(s, f):
    """f(s) when the capped value s is distinguishable from zero, else None."""
    if s.is_exact_zero() or s.is_zero_at_precision():
        return None
    return f(s)


def _indicator(st):
    return None if st is None else Fraction(1 if st else 0)


def _n_conj(M, t):
    """Conjugate by the unipotent diag([[1, t], [0, 1]], 1), entrywise."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = M
    r00 = m00 - m10 * t
    return [[r00, r00 * t + m01 - m11 * t, m02 - m12 * t],
            [m10, m11 + m10 * t, m12],
            [m20, m21 + m20 * t, m22]]


def f_shell(k, p):
    """Cover of the shell v_F = k in the quadratic extension."""
    r = k // 2
    if k % 2 == 0:
        return [BallF(Fraction(u) * Fraction(p) ** r, r + 1, Fraction(0), r)
                for u in range(1, p)]
    return [BallF(Fraction(0), r + 1, Fraction(u) * Fraction(p) ** r, r + 1)
            for u in range(1, p)]


def _t_scan(ev, p, window):
    total = _sum_balls(p, [Ball0(Fraction(0), 0)], ev, Fraction(0))
    zeros = 0 if total != 0 else 1
    for j in range(-1, -window - 1, -1):
        s = _sum_balls(p, f0_shell(j, p), ev, Fraction(0))
        total += s
        zeros = zeros + 1 if s == 0 else 0
        if zeros >= 4:
            break
    return total


def capped_t_integral(M, k, p, window):
    bounds = _shell_bounds(k)
    return _t_scan(lambda ball: _indicator(matrix_val_at_least(
        _n_conj(M, capped_point(ball, p)), bounds)), p, window)


def capped_xi_integral(x, window):
    p = x.p
    dp_over_p = x.delta() / (x.u ** 4) / p
    two_wp = 2 * (x.wtilde / (x.u * x.u))
    zero = LogQVal.const(0, p)

    def weight(ball):
        t = capped_point(ball, p)
        a = t + dp_over_p / t + two_wp
        if val_at_least(a, 0):
            return zero
        va, ea, et = known(a, PadicScalar.val), known(a, PadicScalar.eta), known(t, PadicScalar.eta)
        if va is None or ea is None or et is None:
            return None
        vt = t.val()
        return LogQVal({2: ea * et * Fraction(p) ** (va + vt) * va * vt}, p)

    return shell_integrate(p, weight, zero, window)


# The per-z-ball sweep that z_shell_value replaces, kept as its reference:
# capped torus points from the f_shell balls, the conjugation by
# diag(z^-1, conj(z), 1) rebuilt from them, undecided z-balls split.

ZERO_BOUNDS = ((0, 0, 0),) * 3


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


def ref_z_shell_value(M, k, p, window, nilfam):
    def ev(zball):
        try:
            torus = _torus(zball.point(p))
            if nilfam:
                return _indicator(matrix_val_at_least(_a_conj(M, torus), ZERO_BOUNDS))
            return _t_scan(lambda ball: _indicator(matrix_val_at_least(
                _a_conj(_n_conj(M, capped_point(ball, p)), torus), ZERO_BOUNDS)),
                p, window)
        except (ConductorError, PrecisionError):
            return None
    return _sum_balls(p, f_shell(k, p), ev, Fraction(0))


def near(r, n, p):
    """The weight of {t : v(t - r) >= n} for a unit r and n >= 1, on balls
    inside one shell: decided once the ball lies inside or outside the set,
    split (None) while it straddles it."""
    def weight(ball):
        c = ball.point()
        if val(c, p) != 0:
            return Fraction(0)
        v = val(c - r, p)
        if v < ball.depth:          # every point has v(t - r) = v
            return Fraction(v >= n)
        return Fraction(1) if ball.depth >= n else None
    return weight


class TestShellIntegrate:
    def test_volume_of_integers(self):
        p = 3
        assert shell_integrate(p, lambda b: Fraction(val(b.point(), p) >= 0),
                               Fraction(0), 9) == 1

    def test_down_tail(self):
        # v(t)/|t|^2 over |t| > 1 lives on the shells v -> -infinity: their sum
        # -(1 - t) sum_{j >= 1} j t^j = -t/(1 - t), t = 1/q, is closed from
        # the last shells of the down side, in Fraction and in LogQVal weights
        p = 3
        t = Fraction(1, p)

        def w(ball):
            v = val(ball.point(), p)
            return Fraction(0) if v >= 0 else v * Fraction(p) ** (2 * v)

        want = -t / (1 - t)
        assert shell_integrate(p, w, Fraction(0), 10) == want
        got = shell_integrate(p, lambda b: LogQVal({1: w(b)}, p), LogQVal.const(0, p), 10)
        assert got == LogQVal({1: want}, p)

    def test_additive_over_disjoint_predicates(self):
        # {v(t - 1) >= 2} is the disjoint union of {v(t - 1 - i p^2) >= 3}
        p = 3
        zero = Fraction(0)
        parts = sum(shell_integrate(p, near(1 + i * p * p, 3, p), zero, 9)
                    for i in range(p))
        assert parts == shell_integrate(p, near(1, 2, p), zero, 9) == Fraction(1, p * p)

    def test_refinement_stability(self, monkeypatch):
        p = 3
        w = near(-1, 4, p)
        coarse = shell_integrate(p, w, Fraction(0), 9)
        assert coarse == Fraction(1, p ** 4)
        split_once(monkeypatch)
        assert shell_integrate(p, w, Fraction(0), 9) == coarse

    def test_small_window_is_an_input_error(self):
        with pytest.raises(InputError):
            shell_integrate(3, lambda b: Fraction(0), Fraction(0), 3)


class TestTaylor:
    def test_gauss_norm_decides_every_ball(self):
        # on c + p^d Z_p the minimum of v(P) is min(v(P(c)), rest), reached at
        # some residue s mod p since deg P < p, and v(P) = v(P(c)) throughout
        # when v(P(c)) < rest
        rng = random.Random(5)
        for p in (3, 5, 7):
            def coeff():
                if rng.randrange(4) == 0:
                    return Fraction(0)
                return Fraction(rng.randint(-60, 60), p ** rng.randint(0, 2))

            for _ in range(400):
                poly = (coeff(), coeff(), coeff())
                if not any(poly):
                    continue
                c = Fraction(rng.randint(-90, 90), p ** rng.randint(0, 2))
                d = rng.randint(-1, 3)
                at_c, v0, rest = _taylor(poly, c, d, p)
                assert at_c == poly[0] + poly[1] * c + poly[2] * c * c
                vals = []
                for s in range(p):
                    t = c + s * Fraction(p) ** d
                    vals.append(val(poly[0] + poly[1] * t + poly[2] * t * t, p))
                assert min(vals) == min(v0, rest)
                if v0 < rest:
                    assert set(vals) == {v0}

    def test_eta_is_the_scalar_character(self):
        rng = random.Random(7)
        for p in (3, 5, 7, 11):
            for _ in range(200):
                x = Fraction(rng.choice((-1, 1)) * rng.randint(1, 500),
                             rng.randint(1, 500))
                assert _eta(x, p) == PadicScalar.exact(x, p).eta()


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

        def record(M, k, q, window, polys):
            v = shortcut(M, k, q, window, polys)
            visited.append((M, k, window, polys is None, v))
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

    def test_t_integrals_match_the_capped_reference(self, monkeypatch):
        exact = integrate.z_shell_value
        pairs = []

        def record(M, k, p, window, polys):
            v = exact(M, k, p, window, polys)
            if polys is not None:
                pairs.append((M, k, p, window, v / ((p - 1) * Fraction(p) ** -(k + 1))))
            return v

        monkeypatch.setattr(integrate, "z_shell_value", record)
        # the criterion-4 elements and two heavier points at p = 5
        heavy0 = 2 * Fraction(5) ** 6
        x0 = BPoint.exact(0, 5 ** 4, 0, 5)
        for y, want in criterion4_elements() + [
                (u0_ss_case0(heavy0, 5), orb_u0_ss_case0(heavy0, 5)),
                (u0_ss_case1(x0), orb_u0_ss_case1(0, 5 ** 4, 5))]:
            assert iwasawa_orbit_u0(y) == want
        assert len(pairs) >= 900
        assert sum(1 for *_, t in pairs if t != 0) >= 100
        for M, k, p, window, t in pairs:
            assert capped_t_integral(M, k, p, window) == t, (k, p)

    def test_random_matrices_match_the_capped_reference(self):
        # seeded integral matrices, whose polynomials have roots at every
        # depth, on the torus shells where the constant entries can pass
        rng = random.Random(13)
        compared = nonzero = 0
        for p in (3, 5):
            def scalar():
                if rng.randrange(3) == 0:
                    return Fraction(0)
                return Fraction(rng.randint(-9, 9) * p ** rng.randint(0, 2))

            for _ in range(40):
                M = [[QuadElt.exact(scalar(), scalar(), p) for _ in range(3)]
                     for _ in range(3)]
                polys = _conj_polys(M)
                for k in range(-3, 1):
                    try:
                        t = _iwasawa_t_integral(polys, k, p, 10)
                    except StabilizationError:
                        continue
                    assert capped_t_integral(M, k, p, 10) == t, (M, k)
                    compared += 1
                    nonzero += t != 0
        assert compared >= 300 and nonzero >= 100

    def test_support_at_the_window_edge_raises(self):
        # the support of lam0 = 81 at p = 3 starts at the torus shell -4
        p = 3
        y = u0_ss_case0(81, p)
        assert iwasawa_orbit_u0(y) == orb_u0_ss_case0(81, p) == 17
        with pytest.raises(StabilizationError):
            iwasawa_orbit_u0(y, window=3)

    def test_unipotent_scan_at_the_window_edge_raises(self):
        # a window too short for the t-scan to see four empty shells
        p = 3
        polys = _conj_polys(u0_ss_case1(BPoint.exact(0, 1, 0, p)).matrix())
        assert _iwasawa_t_integral(polys, 0, p, 8) == 1
        with pytest.raises(StabilizationError):
            _iwasawa_t_integral(polys, 0, p, 3)

    @pytest.mark.parametrize("p", [3, 5])
    def test_short_windows_raise_or_agree(self, p):
        # every window from 2 up gives the closed form or raises; none gives
        # a truncated sum
        for v in range(0, 7):
            for c in range(1, p):
                lam0 = Fraction(c) * p ** v
                if PadicScalar.exact(-lam0, p).is_square():
                    continue
                y, want = u0_ss_case0(lam0, p), orb_u0_ss_case0(lam0, p)
                for window in range(2, auto_window(y) + 1):
                    try:
                        got = iwasawa_orbit_u0(y, window=window)
                    except StabilizationError:
                        continue
                    assert got == want, (lam0, window)

    def test_zero_lam0_has_no_representative(self):
        with pytest.raises(InputError):
            u0_ss_case0(0, 3)

    def test_auto_window_positive(self):
        y = u0_ss_case0(27, 3)
        assert auto_window(y) >= 8


class TestExactness:
    def test_integrators_build_no_capped_scalar(self, monkeypatch):
        elements = criterion4_elements()
        points = [make_bpoint_rs1(*mlp, 3) for mlp in XI_POINTS]

        def capped(*args, **kwargs):
            raise AssertionError("capped arithmetic reached")

        monkeypatch.setattr(padic, "_capped", capped)
        monkeypatch.setattr(PadicScalar, "zero_at", classmethod(capped))
        monkeypatch.setattr(PadicScalar, "from_rational_absprec", classmethod(capped))
        for y, want in elements:
            assert iwasawa_orbit_u0(y) == want
        for x in points:
            xi_integral(x, 14)


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

    def test_matches_the_capped_reference(self):
        points = [make_bpoint_rs1(*mlp, 3) for mlp in XI_POINTS]
        rng = random.Random(11)
        for p in (3, 5, 7):
            for _ in range(20):
                lp = rng.choice((INF, 1, 3, 5, 7))
                points.append(make_bpoint_rs1(rng.randint(0, 2), rng.randint(1, 7), lp, p))
        nonzero = 0
        for x in points:
            got = xi_integral(x, 12)
            assert got == capped_xi_integral(x, 12), x
            nonzero += not got.is_zero()
        assert len(points) == 75 and nonzero >= 40

    def test_side0_rejected(self):
        with pytest.raises(ValueError):
            xi_integral(BPoint.exact(1, 1, 0, 5), 10)
