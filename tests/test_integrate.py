import ast
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from atlas import integrate, padic
from atlas.errors import ConductorError, InputError, PrecisionError, StabilizationError
from atlas.integrate import (Ball0, BallF, _conj_polys, _iwasawa_t_integral,
                             _k_interval, _lattice_bounds, _shell_bounds, _sweep,
                             _t_floor, _taylor, _xi_support, auto_window,
                             iwasawa_orbit_u0, phi_from_xi, unit_cover,
                             xi_integral)
from atlas.cli import main
from atlas.germs import dorb1, is_in_neighborhood, phi_closed
from atlas.orbits import (INF, XI_CHOICES, BPoint, U0RedElt, U1LieElt,
                          admissible_xi, cayley, cayley_inv, make_bpoint_rs1,
                          u0_nilpotent_family_member, u0_ss_case0,
                          u0_ss_case1)
from atlas.padic import PadicScalar, QuadElt, QuatElt, eta
from atlas.svalue import LogQVal, zeta1
from atlas.values import (nil_family_orb_u0_fn, orb_u0_ss_case0,
                          orb_u0_ss_case1, phi_eval)
from test_padic import abs_precision, quad_inv, rel_precision

# the criterion-5 points (m, l-, l+) at p = 3
XI_POINTS = ((0, 1, INF), (1, 3, 5), (0, 2, 3), (1, 1, 3), (2, 3, 5), (2, 1, 7),
             (1, 2, 3), (2, 4, 5), (2, 2, 9), (1, 5, 3), (0, 2, 1), (1, 7, 5),
             (1, 3, 1), (2, 5, 3), (2, 7, 1))


def val(x, p):
    return PadicScalar.exact(x, p).val()


def ball_sum(p, balls, evaluate):
    """Sum vol * evaluate(ball) over Ball0 or BallF balls, splitting the
    undecided ones (None); an undecided ball at depth >= DEPTH_CAP raises
    ConductorError."""
    total = Fraction(0)
    stack = list(balls)
    while stack:
        ball = stack.pop()
        w = evaluate(ball)
        if isinstance(ball, Ball0):
            center, depth, size = ball.center, ball.depth, ball.depth
        else:
            center, depth, size = (ball.ca, ball.cb), max(ball.da, ball.db), ball.da + ball.db
        if w is None:
            if depth >= integrate.DEPTH_CAP:
                raise ConductorError(integrate.DEPTH_CAP, 0, center, depth, p)
            stack.extend(ball.split(p))
            continue
        total += Fraction(p) ** -size * w
    return total


TAIL_SAMPLES = 7


def close_poly_geometric_tail(values, p: int) -> Fraction:
    """Sum over i >= 0 of a sequence recognized as P(i) p^-i with deg P <= 2;
    values must supply at least TAIL_SAMPLES shells (three determine P, the
    rest confirm the law).  A fit, kept as the reference tail closure of
    shell_sum: it knows no threshold, so it refuses, or on shells that are
    all 0 returns 0, when its samples do not yet follow the law."""
    if all(v == 0 for v in values):
        return Fraction(0)
    if len(values) < TAIL_SAMPLES:
        raise StabilizationError("no stabilization: window too small")
    r = Fraction(1, p)
    u = [v * p ** i for i, v in enumerate(values)]
    if any(u[i + 3] - 3 * u[i + 2] + 3 * u[i + 1] - u[i] for i in range(len(u) - 3)):
        raise StabilizationError("no stabilization: no geometric ratio matches")
    # Newton form P(i) = c0 + c1 i + c2 i(i-1), summed against
    # sum r^i, sum i r^i and sum i(i-1) r^i / 2
    c1 = u[1] - u[0]
    c2 = (u[2] - 2 * u[1] + u[0]) / 2
    return u[0] / (1 - r) + c1 * r / (1 - r) ** 2 + 2 * c2 * r * r / (1 - r) ** 3


def shell_sum(p, weight, window):
    """Integrate weight over the multiplicative group: shells |k| <= window
    exact, each infinite tail closed from its TAIL_SAMPLES outermost shells."""
    values = {k: ball_sum(p, f0_shell(k, p), weight) for k in range(-window, window + 1)}
    inner = window - TAIL_SAMPLES
    total = sum(values[k] for k in range(-inner, inner + 1))
    for side in (1, -1):
        total += close_poly_geometric_tail(
            [values[side * (inner + 1 + i)] for i in range(TAIL_SAMPLES)], p)
    return total


def f0_shell(k, p):
    """Cover of the shell v = k by unit balls."""
    return [Ball0(Fraction(u) * Fraction(p) ** k, k + 1) for u in range(1, p)]


def fraction_xi_weight(x):
    """The integrand of xi_integral in the t coordinate itself, on the
    Fraction t-balls of f0_shell: each decided by the exact Taylor test of
    v(g) >= k on g(t) = t^2 + 2 w' t + D'/p, the depth cap on the t-depth."""
    p = x.p
    dprime = (x.delta() / (x.u ** 4)).rational
    wprime = (x.wtilde / (x.u * x.u)).rational
    g = (dprime / p, 2 * wprime, Fraction(1))

    def weight(ball):
        c = ball.point()
        k = val(c, p)           # every center of the shell v = k has v = k
        at_c, vg, rest = _taylor(g, 0, c, ball.depth, p)      # v(c2) = v(1)
        if min(vg, rest) >= k:
            return Fraction(0)
        if vg >= rest:
            return None
        return eta(at_c, p) * Fraction(p) ** vg * (vg - k) * k

    return weight


def fraction_xi_integral(x, window):
    """xi_integral swept in the t coordinate (fraction_xi_weight), its tails
    fitted by shell_sum."""
    return LogQVal({2: shell_sum(x.p, fraction_xi_weight(x), window)}, x.p)


def xi_tail_laws(x):
    """(K-, K+, law) stated from v0 = v(D'/p) and v(w'), without integrate:
    the shell k > K+ = max(v0, floor(v0/2), v0 - v(w')) of the xi integrand
    is law(k) = eta(D'/p) p^v0 (v0 - k) k (1 - 1/p) p^-k, where D'/p
    dominates g, and the shell k < K- = min(ceil(v0/2), v(w'), 0) is
    law(k) = (1 - 1/p) k^2 p^k, where t^2 does; the v(w') terms drop when
    w' = 0."""
    p = x.p
    dp = (x.delta() / (x.u ** 4)).rational / p
    wprime = (x.wtilde / (x.u * x.u)).rational
    v0 = val(dp, p)
    vw = [val(wprime, p)] if wprime else []
    lo = min(-(-v0 // 2), *vw, 0)
    hi = max(v0, v0 // 2, *(v0 - v for v in vw))
    unit = 1 - Fraction(1, p)

    def law(k):
        if k > hi:
            return eta(dp, p) * Fraction(p) ** (v0 - k) * (v0 - k) * k * unit
        assert k < lo
        return unit * k * k * Fraction(p) ** k

    return lo, hi, law


def seeded_xi_points():
    """42 seeded side-1 points at p = 3, 5, 7: integral ones from the
    criterion-5 family and rational ones whose g has roots of negative
    valuation."""
    rng = random.Random(29)

    def r(p):
        return Fraction(rng.randint(-20, 20)) * Fraction(p) ** rng.randint(-3, 3)

    points = []
    for p in (3, 5, 7):
        for _ in range(8):
            lp = rng.choice((INF, 1, 3, 5, 7))
            points.append(make_bpoint_rs1(rng.randint(0, 3), rng.randint(1, 7), lp, p))
        while len(points) % 14:
            x = BPoint.exact(r(p), Fraction(p) ** rng.randint(-2, 2), r(p), p)
            if x.is_rs() and x.side() == 1:
                points.append(x)
    assert len(points) == 42
    return points


def split_once(monkeypatch):
    """Make the unit cover that roots every integer-coordinate shell one
    residue level finer."""
    coarse = integrate.unit_cover
    monkeypatch.setattr(integrate, "unit_cover",
                        lambda p: [c for b in coarse(p) for c in b.split(p)])


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
    if rel_precision(s) == 0:
        return True if abs_precision(s) >= m else None
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
    """Z_p and every t-shell -1, -2, ..., -window."""
    shells = [[Ball0(Fraction(0), 0)]] + [f0_shell(j, p) for j in range(-1, -window - 1, -1)]
    return sum((ball_sum(p, balls, ev) for balls in shells), Fraction(0))


def fraction_conj_polys(M):
    """The rational coordinate polynomials of the unipotent conjugate, as
    (i, j, part, (c0, c1, c2)) with Fraction coefficients."""
    out = []
    for part in (0, 1):
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = (
            [(e.b if part else e.a).rational for e in row] for row in M)
        z = Fraction(0)
        for i, j, poly in ((0, 0, (m00, -m10, z)), (0, 1, (m01, m00 - m11, -m10)),
                           (0, 2, (m02, -m12, z)), (1, 0, (m10, z, z)),
                           (1, 1, (m11, m10, z)), (1, 2, (m12, z, z)),
                           (2, 0, (m20, z, z)), (2, 1, (m21, m20, z)),
                           (2, 2, (m22, z, z))):
            out.append((i, j, part, poly))
    return out


def fraction_t_integral(M, k, p, window):
    """The t-integral swept in the t coordinate itself over the t-shells of
    _t_scan: Fraction polynomials and t-balls, each decided by the exact
    Taylor test, the depth cap on the t-depth."""
    bounds = _shell_bounds(k)
    conds = [(poly, -((part - bounds[i][j]) // 2))
             for i, j, part, poly in fraction_conj_polys(M)]

    def ev(ball):
        out = Fraction(1)
        for poly, b in conds:
            _, v0, rest = _taylor(poly, val(poly[2], p), ball.point(),
                                  ball.depth, p)
            if min(v0, rest) >= b:
                continue
            if v0 < rest:
                return Fraction(0)
            out = None
        return out

    return _t_scan(ev, p, window)


def swept_orbit(y, window=None):
    """iwasawa_orbit_u0 of an element outside the nilpotent family with
    each t-integral a full sweep of the t-shells 0..-window, with no floor,
    and every torus shell summed, with no stop: the volume-weighted sum over
    the torus shells max(lo, -window)..hi of its `_k_interval`, times
    zeta(1)."""
    M, p = y.matrix(), y.p
    window = auto_window(y) if window is None else window
    lo, hi = _k_interval(_conj_polys(M), p, False)
    start = -window if lo is None else max(lo, -window)
    total = sum(((p - 1) * Fraction(p) ** -(k + 1) * fraction_t_integral(M, k, p, window)
                 for k in range(start, hi + 1)), Fraction(0))
    return total * zeta1(p)


def in_span(span, k):
    """Whether the torus shell k lies in the interval of `_k_interval`."""
    lo, hi = span
    return (lo is None or lo <= k) and (hi is None or k <= hi)


def capped_t_integrals(M, ks, p, window):
    """The capped t-integral on each torus shell k of ks, by k: each t-ball's
    capped conjugate is built once and tested against the bounds of every
    k."""
    conj = {}

    def integral(k):
        bounds = _shell_bounds(k)

        def ev(ball):
            if ball not in conj:
                conj[ball] = _n_conj(M, capped_point(ball, p))
            return _indicator(matrix_val_at_least(conj[ball], bounds))
        return _t_scan(ev, p, window)
    return {k: integral(k) for k in ks}


def capped_xi_integral(x, window):
    p = x.p
    dp_over_p = x.delta() / (x.u ** 4) / p
    two_wp = 2 * (x.wtilde / (x.u * x.u))

    def weight(ball):
        t = capped_point(ball, p)
        a = t + dp_over_p / t + two_wp
        if val_at_least(a, 0):
            return Fraction(0)
        va, ea, et = known(a, PadicScalar.val), known(a, PadicScalar.eta), known(t, PadicScalar.eta)
        if va is None or ea is None or et is None:
            return None
        vt = t.val()
        return ea * et * Fraction(p) ** (va + vt) * va * vt

    return LogQVal({2: shell_sum(p, weight, window)}, p)


# The per-z-ball sweep that the torus shells replace, kept as their reference:
# capped torus points from the f_shell balls, the conjugation by
# diag(z^-1, conj(z), 1) rebuilt from them, undecided z-balls split.

ZERO_BOUNDS = ((0, 0, 0),) * 3


def _torus(z):
    n = z.norm()
    zi = quad_inv(z)
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
    return ball_sum(p, f_shell(k, p), ev)


# U0RedElt.exact arguments and the value with every t-shell swept to the
# window (`swept_orbit`), whose t-supports lie past four empty t-shells: a
# t-scan that stopped there gave 4373, 937 and, on the third element, from a
# seeded search, 0 on every torus shell of its interval -6..3
TRUNCATED = [((0, 3, 0, 4, 4374, 3), 6560),
             ((0, 25, 0, 1, 625, 5), 4687),
             ((-324, Fraction(-63, 2), 0, QuadElt.exact(-54, Fraction(4, 27), 3),
               QuadElt.exact(0, -24, 3), 3), 8)]


# U0RedElt.exact arguments of seeded elements (seeded_u0, seeds 9, 10, 19, 24
# and 31) whose sum a t-scan that stopped after four empty t-shells
# truncated (to 1, 1, 1, 3 and 9), and the value with every t-shell swept to
# the window
SEEDED_TRUNCATED = [
    ((0, -5625, 0, QuadElt.exact(Fraction(-3, 25), Fraction(-35, 2), 5),
      QuadElt.exact(Fraction(225, 2), -200, 5), 5), 2),
    ((Fraction(-45, 2), Fraction(243, 2), -729, QuadElt.exact(Fraction(2, 9), 54, 3),
      QuadElt.exact(-9, Fraction(243, 2), 3), 3), 5),
    ((-15, 18, 0, QuadElt.exact(Fraction(-5, 18), Fraction(-3, 2), 3),
      QuadElt.exact(9, 0, 3), 3), 2),
    ((Fraction(9, 2), Fraction(-7, 2), 12005, QuadElt.exact(12005, Fraction(-9, 49), 7),
      QuadElt.exact(Fraction(-2401, 2), 441, 7), 7), 5),
    ((0, 1029, 0, QuadElt.exact(19208, Fraction(6, 49), 7),
      QuadElt.exact(0, 441, 7), 7), 3201)]


def seeded_u0(rng, p):
    """A U0RedElt whose coordinates are r p^i, with r = n/1 or n/2 for
    |n| <= 9 and i in -2..4."""
    def scalar():
        r = Fraction(rng.randint(-9, 9), rng.choice((1, 2)))
        return r * Fraction(p) ** rng.randint(-2, 4)

    return U0RedElt.exact(scalar(), scalar(), scalar(),
                          QuadElt.exact(scalar(), scalar(), p),
                          QuadElt.exact(scalar(), scalar(), p), p)


class TestTailLaw:
    def test_closes_every_polynomial_geometric_law(self):
        # P(i) r^i for deg P <= 2 and r = p^-a: for a = 1 against
        # sum r^i = 1/(1 - r), sum i r^i = r/(1 - r)^2 and
        # sum i^2 r^i = r (1 + r)/(1 - r)^3; every tail closed has r = 1/p,
        # so a >= 2 raises
        rng = random.Random(3)
        for p in (3, 5, 7):
            for a in range(1, 9):
                r = Fraction(1, p ** a)
                for deg in (0, 1, 2):
                    c = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                         for _ in range(deg + 1)] + [Fraction(0)] * (2 - deg)
                    c[deg] = c[deg] or Fraction(1)
                    values = [(c[0] + c[1] * i + c[2] * i * i) * r ** i for i in range(7)]
                    if a >= 2:
                        with pytest.raises(StabilizationError, match="no geometric ratio"):
                            close_poly_geometric_tail(values, p)
                        continue
                    want = (c[0] / (1 - r) + c[1] * r / (1 - r) ** 2
                            + c[2] * r * (1 + r) / (1 - r) ** 3)
                    assert close_poly_geometric_tail(values, p) == want, (p, a, c)

    def test_down_tail(self):
        # the shells v = -1, -2, ... of v(t)/|t|^2, whose sum
        # -(1 - t) sum_{j >= 1} j t^j = -t/(1 - t), t = 1/q
        p = 3
        t = Fraction(1, p)
        values = [-(1 - t) * j * t ** j for j in range(1, 8)]
        assert close_poly_geometric_tail(values, p) == -t / (1 - t)

    def test_fewer_than_seven_values_raise(self):
        with pytest.raises(StabilizationError, match="window too small"):
            close_poly_geometric_tail([Fraction(1, 3 ** i) for i in range(6)], 3)

    def test_no_geometric_law_raises(self):
        # ratio 2, and ratio p^-9
        for values in ([Fraction(2) ** i for i in range(7)],
                       [Fraction(1, 3 ** (9 * i)) for i in range(7)]):
            with pytest.raises(StabilizationError, match="no geometric ratio"):
                close_poly_geometric_tail(values, 3)

    def test_all_zero_is_zero(self):
        assert close_poly_geometric_tail([Fraction(0)] * 7, 3) == 0
        assert close_poly_geometric_tail([0] * 3, 5) == 0


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
                at_c, v0, rest = _taylor(poly, val(poly[2], p), c, d, p)
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
                assert eta(x, p) == PadicScalar.exact(x, p).eta()


class TestSweep:
    def test_decided_balls_partition_the_roots_and_hold_their_verdict(self, monkeypatch):
        # seeded conditions v(P) >= b on integer polynomials of degree <= 2,
        # one or two per sweep: the decided balls are disjoint and fill the
        # roots, a passing ball has v(P(t)) >= b for every P and a failing
        # one v(P(t)) = v(P(c)) < b for the P it names, at p sample points
        # t of the ball; a cap one level below the deepest split raises
        read = []                       # every ball read, the decided one last
        point = Ball0.point
        monkeypatch.setattr(Ball0, "point", lambda ball: read.append(ball) or point(ball))

        def ev(poly, t):
            return poly[0] + poly[1] * t + poly[2] * t * t

        def decided(conds, roots, shift, p):
            return [(read[-1], e, failed) for e, failed in _sweep(conds, roots, shift, p)]

        def by_value(balls):
            # a Ball0 compares by identity, and a rerun builds new ones
            return [(ball.center, ball.depth, e, failed) for ball, e, failed in balls]

        cap = integrate.DEPTH_CAP
        rng = random.Random(36)
        seen = Counter()
        for p in (3, 5, 7):
            for _ in range(40):
                conds = []
                for _ in range(rng.randint(1, 2)):
                    poly = tuple(rng.choice((0, rng.randint(-30, 30) * p ** rng.randint(0, 3)))
                                 for _ in range(3))
                    conds.append((poly, val(poly[2], p), rng.randint(-1, 6)))
                roots = rng.choice(([Ball0(0, 0)], unit_cover(p)))
                shift = rng.randint(-3, 3)
                balls = decided(conds, roots, shift, p)
                keys = {(ball.depth, ball.center % p ** ball.depth) for ball, _, _ in balls}
                assert len(keys) == len(balls)
                for ball, e, failed in balls:
                    c = ball.center
                    assert e == ball.depth, ball
                    assert [d for d in range(e) if (d, c % p ** d) in keys] == [], ball
                    assert any(c % p ** r.depth == r.center % p ** r.depth for r in roots)
                    ts = [c + p ** e * rng.randrange(p ** 4) for _ in range(p)]
                    if failed is None:
                        assert all(val(ev(poly, t), p) >= b
                                   for poly, _, b in conds for t in ts), (conds, ball)
                    else:
                        at_c, v0 = failed
                        assert any(ev(poly, c) == at_c and val(at_c, p) == v0 < b
                                   and all(val(ev(poly, t), p) == v0 for t in ts)
                                   for poly, _, b in conds), (conds, ball)
                    seen["fail" if failed else "pass"] += 1
                assert (sum(Fraction(1, p ** ball.depth) for ball, _, _ in balls)
                        == sum(Fraction(1, p ** r.depth) for r in roots))
                deepest = max(e for _, e, _ in balls)
                if deepest > roots[0].depth:
                    seen["split"] += 1
                    monkeypatch.setattr(integrate, "DEPTH_CAP", deepest + shift)
                    assert by_value(decided(conds, roots, shift, p)) == by_value(balls)
                    monkeypatch.setattr(integrate, "DEPTH_CAP", deepest - 1 + shift)
                    with pytest.raises(ConductorError, match=re.escape(
                            f"depth cap {deepest - 1 + shift} reached on the shell "
                            f"v(t) = {shift}, at the tau-ball ")) as err:
                        decided(conds, roots, shift, p)
                    raised = err.value
                    assert (raised.cap, raised.shift, raised.depth, raised.p) == (
                        deepest - 1 + shift, shift, deepest - 1, p)
                    assert str(raised).endswith(
                        f"at the tau-ball {raised.center} + {p}^{deepest - 1} Z_p")
                    monkeypatch.setattr(integrate, "DEPTH_CAP", cap)
        assert seen["pass"] >= 100 and seen["fail"] >= 400 and seen["split"] >= 30, seen

    def test_the_sweep_splits_no_int_and_reads_each_ball_once(self, monkeypatch):
        # two seeded criterion-4 elements and one criterion-5 point, with
        # padic._frac_split and the Ball0.point and Ball0.split hooks that
        # bench/tracer.py wraps counted: no int reaches the Fraction split,
        # point is read once per ball decided or split and split once per
        # split, so the balls swept are the roots and the children of splits
        counts = Counter()
        frac_split = padic._frac_split

        def counted_frac_split(x, p):
            counts[type(x)] += 1
            return frac_split(x, p)

        def counted(name, method):
            def wrapper(ball, *args):
                counts[name] += 1
                out = method(ball, *args)
                if name == "split":
                    counts["children"] += len(out)
                return out
            return wrapper

        sweep = integrate._sweep

        def counted_sweep(conds, roots, shift, p):
            counts["roots"] += len(roots)
            for out in sweep(conds, roots, shift, p):
                counts["decided"] += 1
                yield out

        monkeypatch.setattr(padic, "_frac_split", counted_frac_split)
        for name in ("point", "split"):
            monkeypatch.setattr(Ball0, name, counted(name, vars(Ball0)[name]))
        monkeypatch.setattr(integrate, "_sweep", counted_sweep)
        rng = random.Random(37)
        # the nilpotent family (lam = u = 0) is a closed volume: no sweep
        swept = [(y, want) for y, want in criterion4_elements()
                 if not (y.invariants().lam.is_exact_zero()
                         and y.invariants().u.is_exact_zero())]
        for y, want in rng.sample(swept, 2):
            assert iwasawa_orbit_u0(y) == want
        x = make_bpoint_rs1(*rng.choice(XI_POINTS[1:]), 3)
        assert phi_from_xi(x) == phi_closed(x)
        assert counts[int] == counts[bool] == 0, counts
        assert counts[Fraction] > 0
        assert counts["split"] > 0 and counts["decided"] > counts["roots"], counts
        assert counts["point"] == counts["decided"] + counts["split"], counts
        assert counts["point"] == counts["roots"] + counts["children"], counts


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
        b = iwasawa_orbit_u0(U0RedElt.exact(0, -lam0 / 2, 2, 0, 0, p))
        assert a == b == orb_u0_ss_case0(lam0, p)

    def test_orbits_that_miss_the_lattice_are_zero(self):
        # lam and u are integral on the lattice and constant on an orbit, so
        # the oracle is 0 where v(lam) < 0 or v(u) < 0, as the closed forms
        # are; the torus scan refused such case-0 points, and u0_ss_case1
        # the case-1 points with v(u0) > v(wt0)
        rng = random.Random(25)

        def coord(p, lo, hi):
            unit = Fraction(rng.choice((-1, 1)) * rng.randrange(1, p), rng.randrange(1, p))
            return unit * Fraction(p) ** rng.randint(lo, hi)

        case0 = [(Fraction(1, 9), 3)]
        case1 = [(BPoint.exact(Fraction(-1, 3), 1, Fraction(1, 3), 3), 3)]
        while len(case0) < 40 or len(case1) < 120:
            p = rng.choice((3, 5, 7))
            lam0 = coord(p, -4, -1)
            if not PadicScalar.exact(-lam0, p).is_square():
                case0.append((lam0, p))
            u0, wt0 = coord(p, -2, 4), rng.choice((0, coord(p, -3, 6)))
            x0 = BPoint.exact(-wt0 * wt0 * p / (u0 * u0), u0, wt0, p)
            if x0.lam.val() < 0 or x0.u.val() < 0:
                case1.append((x0, p))
        for lam0, p in case0:
            assert iwasawa_orbit_u0(u0_ss_case0(lam0, p)) == orb_u0_ss_case0(lam0, p)
        for x0, p in case1:
            want = orb_u0_ss_case1(x0.lam.rational, x0.u.rational, p)
            assert iwasawa_orbit_u0(u0_ss_case1(x0)) == want, x0
        assert sum(1 for x0, _ in case1 if x0.wtilde.rational
                   and x0.u.val() > x0.wtilde.val()) >= 30

    def test_nilpotent_shell_is_the_val_f_rule(self):
        # the nilpotent-family shells are the volume on the k-interval of
        # v(c0) >= b on the coordinate polynomials at t = 0, and 0 outside
        # it: on seeded matrices that is v_F(entry) >= m for the bounds m of
        # _shell_bounds on the entries themselves
        rng = random.Random(29)
        seen = Counter()
        for p in (3, 5, 7):
            def scalar():
                if rng.randrange(3):
                    return Fraction(0)
                return Fraction(rng.randint(-9, 9)) * Fraction(p) ** rng.randint(-1, 3)

            for _ in range(40):
                M = [[QuadElt.exact(scalar(), scalar(), p) for _ in range(3)]
                     for _ in range(3)]
                polys = _conj_polys(M)
                span = _k_interval(polys, p, True)
                for k in range(-3, 4):
                    inside = all(e.val_f() >= m
                                 for row, brow in zip(M, _shell_bounds(k))
                                 for e, m in zip(row, brow))
                    vol = (p - 1) * Fraction(p) ** -(k + 1)
                    got = vol if in_span(span, k) else 0
                    assert got == (vol if inside else 0), (M, k)
                    seen[inside] += 1
        assert seen[True] >= 100 and seen[False] >= 100, seen

    def test_ss_case1_spot(self):
        p = 3
        x0 = BPoint.exact(0, 1, 0, p)
        assert iwasawa_orbit_u0(u0_ss_case1(x0)) == orb_u0_ss_case1(0, 1, p)

    @pytest.mark.parametrize("p", [3, 5])
    def test_shell_values_match_z_ball_sweep(self, p, monkeypatch):
        # each shell the scan evaluates, volume times t-integral, and every
        # nilpotent-family shell of the window, the volume on the k-interval
        # and 0 outside it, against the capped z-ball sweep
        inner = integrate._iwasawa_t_integral
        visited = []

        def record(polys, k, q):
            t = inner(polys, k, q)
            vol = (q - 1) * Fraction(q) ** -(k + 1)
            visited.append((M, k, auto_window(y), False, vol * t))
            return t

        monkeypatch.setattr(integrate, "_iwasawa_t_integral", record)
        lam0 = 2 if p == 5 else 1      # -lam0 a non-square unit
        for y in (u0_ss_case0(lam0, p), u0_ss_case0(lam0 * p, p),
                  u0_ss_case1(BPoint.exact(0, 1, 0, p)),
                  u0_ss_case1(BPoint.exact(0, p, 0, p)),
                  u0_ss_case1(BPoint.exact(-p ** 3, 1, p, p)),
                  u0_nilpotent_family_member(Fraction(1, p), p),
                  u0_nilpotent_family_member(p, p)):
            M = y.matrix()
            iwasawa_orbit_u0(y)
            inv = y.invariants()
            if all(c.is_exact_zero() for c in (inv.lam, inv.u, inv.wtilde)):
                window = auto_window(y)
                span = _k_interval(_conj_polys(M), p, True)
                visited += [(M, k, window, True, (p - 1) * Fraction(p) ** -(k + 1)
                             if in_span(span, k) else 0)
                            for k in range(-window, window + 1)]
        assert sum(1 for *_, v in visited if v != 0) >= 10
        for M, k, window, nilfam, v in visited:
            assert ref_z_shell_value(M, k, p, window, nilfam) == v, (k, nilfam)

    def test_t_integrals_match_the_capped_reference(self, monkeypatch):
        # every torus shell of the window: the t-integral where the scan
        # evaluates it, inside the element's k-interval, and an exact 0 on
        # every other shell, inside the interval below the scan's stop or
        # outside it
        exact = integrate._iwasawa_t_integral
        calls = {}

        def record(polys, k, p):
            calls[k] = exact(polys, k, p)
            return calls[k]

        monkeypatch.setattr(integrate, "_iwasawa_t_integral", record)
        # the criterion-4 elements and two heavier points at p = 5
        heavy0 = 2 * Fraction(5) ** 6
        x0 = BPoint.exact(0, 5 ** 4, 0, 5)
        pairs = nonzero = 0
        for y, want in criterion4_elements() + [
                (u0_ss_case0(heavy0, 5), orb_u0_ss_case0(heavy0, 5)),
                (u0_ss_case1(x0), orb_u0_ss_case1(0, 5 ** 4, 5))]:
            M, p = y.matrix(), y.p
            calls.clear()
            assert iwasawa_orbit_u0(y) == want
            if not calls:           # the nilpotent family: no t-integral
                continue
            span = _k_interval(_conj_polys(M), p, False)
            window = auto_window(y)
            assert all(in_span(span, k) for k in calls), (M, calls)
            ks = range(-window, window + 1)
            for k, t in capped_t_integrals(M, ks, p, window).items():
                assert calls.get(k, Fraction(0)) == t, (M, k)
            pairs += len(ks)
            nonzero += sum(1 for t in calls.values() if t != 0)
        assert pairs >= 900 and nonzero >= 100, (pairs, nonzero)

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
                span = _k_interval(polys, p, False)
                for k, ref in capped_t_integrals(M, range(-3, 1), p, 10).items():
                    try:
                        t = _iwasawa_t_integral(polys, k, p) if in_span(span, k) else 0
                    except StabilizationError:
                        continue
                    assert ref == t, (M, k)
                    compared += 1
                    nonzero += t != 0
        assert compared >= 300 and nonzero >= 100

    def test_k_interval_is_the_per_shell_rule(self):
        # the interval holds exactly the torus shells k where v(c0) >= b for
        # every bound of _lattice_bounds on the t-constant polynomials, or on
        # all of them at t = 0
        rng = random.Random(27)
        kinds = Counter()
        for p in (3, 5, 7):
            def scalar():
                if rng.randrange(3) == 0:
                    return Fraction(0)
                return (Fraction(rng.randint(-9, 9), rng.choice((1, p - 1)))
                        * Fraction(p) ** rng.randint(-3, 3))

            for _ in range(60):
                M = [[QuadElt.exact(scalar(), scalar(), p) for _ in range(3)]
                     for _ in range(3)]
                polys = _conj_polys(M)
                for at_zero in (False, True):
                    span = _k_interval(polys, p, at_zero)
                    kinds["open" if None in span else "empty" if span[0] > span[1]
                          else "closed"] += 1
                    for k in range(-12, 13):
                        rule = all(val(poly[0], p) >= b
                                   for poly, b in _lattice_bounds(polys, k)
                                   if at_zero or not (poly[1] or poly[2]))
                        assert in_span(span, k) == rule, (M, k, at_zero, span)
        assert min(kinds["empty"], kinds["open"], kinds["closed"]) >= 10, kinds

    def test_one_t_integral_per_shell_of_the_interval(self, monkeypatch):
        # the heavy case-1 point's interval is 0..9: one t-integral per shell
        # there, from hi down, where the torus scan called one on 37 shells
        x0 = BPoint.exact(0, 5 ** 4, 0, 5)
        y = u0_ss_case1(x0)
        assert _k_interval(_conj_polys(y.matrix()), 5, False) == (0, 9)
        inner = integrate._iwasawa_t_integral
        ks = []

        def counted(polys, k, *args):
            ks.append(k)
            return inner(polys, k, *args)

        monkeypatch.setattr(integrate, "_iwasawa_t_integral", counted)
        assert iwasawa_orbit_u0(y) == orb_u0_ss_case1(0, 5 ** 4, 5) == 1562
        assert ks == list(range(9, -1, -1))

    def test_an_empty_interval_is_an_exact_zero(self, monkeypatch):
        # v(wtilde) = -2 with lam and u integral: the interval is (3, 2), so
        # every torus shell is 0; the scan used to refuse it
        def no_t_integral(*args):
            raise AssertionError("a t-integral was evaluated")

        monkeypatch.setattr(integrate, "_iwasawa_t_integral", no_t_integral)
        y = U0RedElt.exact(-189, Fraction(-45, 2), Fraction(-9, 2),
                           QuadElt.exact(Fraction(27, 2), Fraction(-4, 9), 3), 0, 3)
        assert _k_interval(_conj_polys(y.matrix()), 3, False) == (3, 2)
        assert iwasawa_orbit_u0(y) == 0
        monkeypatch.setattr(integrate, "auto_window", lambda y: 1)
        assert iwasawa_orbit_u0(y) == 0

    def test_hi_is_finite_when_delta_is_nonzero(self):
        # the positive-slope entries a3, b2 and conj(b2) pi are constant in
        # t, so hi is None only when a3 = b2 = 0, and then u = wtilde = 0,
        # so Delta = 0, and lam = -a1^2: the zero element, the nilpotent
        # family or the split case, the last of which raises
        rng = random.Random(31)
        seen = Counter()
        for p in (3, 5, 7):
            def scalar():
                if rng.randrange(3) == 0:
                    return Fraction(0)
                return (Fraction(rng.randint(-9, 9), rng.choice((1, 2, p - 1)))
                        * Fraction(p) ** rng.randint(-3, 4))

            for _ in range(300):
                y = U0RedElt.exact(scalar(), scalar(), scalar(),
                                   QuadElt.exact(scalar(), scalar(), p),
                                   QuadElt.exact(scalar(), scalar(), p), p)
                inv = y.invariants()
                _, hi = _k_interval(_conj_polys(y.matrix()), p, False)
                seen["rs" if inv.is_rs() else "not rs"] += 1
                if hi is not None:
                    continue
                seen["open"] += 1
                assert not inv.is_rs(), y
                assert y.a3.is_exact_zero() and y.b2.is_zero()
                assert inv.u.is_exact_zero() and inv.wtilde.is_exact_zero()
                assert inv.lam == -(y.a1 * y.a1)
                if not inv.lam.is_exact_zero() and inv.lam.val() >= 0:
                    seen["split"] += 1
                    with pytest.raises(StabilizationError):
                        iwasawa_orbit_u0(y)
        assert seen["rs"] >= 600 and seen["open"] >= 20 and seen["split"] >= 5, seen

    def test_nilpotent_family_is_the_closed_volume(self):
        # seeded nilpotent matrices, with hi None and with hi finite: the
        # closed volume is the sum over a full window of the shells where
        # v_F(entry) >= m for the bounds m of _shell_bounds, plus the volume
        # p^-(W+1) of the shells above the window when hi is None
        rng = random.Random(37)
        seen = Counter()
        for p in (3, 5, 7):
            def scalar():
                return (Fraction(rng.choice((-1, 1)) * rng.randrange(1, p * p))
                        * Fraction(p) ** rng.randint(-3, 3))

            def quad():
                return QuadElt.exact(scalar(), scalar(), p)

            zero = QuadElt.exact(0, 0, p)
            for _ in range(40):
                # the nilpotent family member's shape, and the conjugate of
                # (0, 0, a3, 0, b2) by the unipotent of parameter c
                a3, b2 = rng.choice((0, scalar())), quad()
                c = rng.randrange(1, p * p) * Fraction(p) ** rng.randint(-1, 1)
                for y in (U0RedElt.exact(0, scalar(), 0, quad(), zero, p),
                          U0RedElt.exact(a3 * c, -a3 * c * c, a3,
                                         QuadElt.exact(c, 0, p) * b2, b2, p)):
                    inv = y.invariants()
                    assert all(x.is_exact_zero() for x in (inv.lam, inv.u, inv.wtilde))
                    M, W = y.matrix(), 40
                    shells = sum(((p - 1) * Fraction(p) ** -(k + 1)
                                  for k in range(-W, W + 1)
                                  if all(e.val_f() >= m
                                         for row, brow in zip(M, _shell_bounds(k))
                                         for e, m in zip(row, brow))), Fraction(0))
                    _, hi = _k_interval(_conj_polys(M), p, True)
                    if hi is None:
                        shells += Fraction(p) ** -(W + 1)
                    seen["open" if hi is None else "closed" if shells else "empty"] += 1
                    assert iwasawa_orbit_u0(y) == shells * zeta1(p), y
        assert min(seen["open"], seen["closed"], seen["empty"]) >= 30, seen

    def test_nilpotent_family_evaluates_no_t_integral_and_no_tail(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("called")

        monkeypatch.setattr(integrate, "_iwasawa_t_integral", forbidden)
        monkeypatch.setattr(integrate, "_poly_geometric_sum", forbidden)
        for y, want in criterion4_elements():
            if y.invariants().lam.is_exact_zero() and y.invariants().u.is_exact_zero():
                assert iwasawa_orbit_u0(y) == want

    @pytest.mark.parametrize("args, swept", TRUNCATED)
    def test_the_full_sweep_sees_past_four_empty_t_shells(self, args, swept):
        # the oracle's floor reaches the t-supports that a stop after four
        # empty t-shells cut off: the reference sweeps every t-shell to the
        # window
        y = U0RedElt.exact(*args)
        assert iwasawa_orbit_u0(y) == swept_orbit(y) == swept

    def test_the_synthetic_column_reaches_its_t_support(self):
        # column 2 is (1, 3^e, 0): on the torus shell k = -6e the entry
        # 1 - 3^e t needs v >= 3e, the t-ball 3^-e + 3^2e Z_p of the t-shell
        # -e, of volume 3^-2e, past e - 1 empty t-shells
        p, zero = 3, QuadElt.exact(0, 0, 3)
        for e in range(2, 8):
            M = [[zero, zero, QuadElt.exact(1, 0, p)],
                 [zero, zero, QuadElt.exact(p ** e, 0, p)],
                 [zero, zero, zero]]
            t = _iwasawa_t_integral(_conj_polys(M), -6 * e, p)
            assert t == Fraction(1, p ** (2 * e)), e

    def test_no_t_shell_below_the_floor_passes(self):
        # seeded conditions v(c0 + c1 t + c2 t^2) >= b, one at a time: the
        # four t-shells below the floor, swept in the t coordinate, pass
        # nothing, and the floor is often the lowest shell that passes
        rng = random.Random(41)
        seen = Counter()
        for p in (3, 5, 7):
            def coeff():
                return rng.choice((0, rng.randint(-9, 9) * p ** rng.randint(0, 5)))

            for _ in range(60):
                poly = (coeff(), coeff(), coeff())
                if not (poly[1] or poly[2]):
                    continue
                b = rng.randint(-4, 8)
                floor = _t_floor([(poly, b)], p)

                def ev(ball):
                    _, v0, rest = _taylor(poly, val(poly[2], p), ball.point(),
                                          ball.depth, p)
                    return (Fraction(1) if min(v0, rest) >= b
                            else Fraction(0) if v0 < rest else None)

                for j in range(floor - 1, floor - 5, -1):
                    assert ball_sum(p, f0_shell(j, p), ev) == 0, (poly, b, j)
                seen[floor < 0 and ball_sum(p, f0_shell(floor, p), ev) != 0] += 1
        assert seen[True] >= 50, seen

    def test_seeded_zero_scans_and_truncations_are_the_sweep(self, monkeypatch):
        # seeded elements (seed 7) whose scan is 0 on a non-empty interval,
        # four per prime, which the oracle refused while its t-scan stopped
        # after four empty t-shells, and the elements of SEEDED_TRUNCATED,
        # whose sum that stop truncated; a scan empty at hi stops there
        inner = integrate._iwasawa_t_integral
        ks = []

        def counted(polys, k, p):
            ks.append(k)
            return inner(polys, k, p)

        monkeypatch.setattr(integrate, "_iwasawa_t_integral", counted)
        rng = random.Random(7)
        zeros = {3: [], 5: [], 7: []}
        while min(map(len, zeros.values())) < 4:
            p = rng.choice((3, 5, 7))
            y = seeded_u0(rng, p)
            inv = y.invariants()
            lo, hi = _k_interval(_conj_polys(y.matrix()), p, False)
            if (len(zeros[p]) == 4 or inv.lam.val() < 0 or inv.u.val() < 0
                    or hi is None or lo is not None and lo > hi):
                continue
            ks.clear()
            try:
                if iwasawa_orbit_u0(y) == 0:
                    zeros[p].append(y)
                    assert ks == [hi], (y, ks)
            except StabilizationError:
                continue
        for ys in zeros.values():
            for y in ys:
                assert swept_orbit(y) == 0, y
        for args, swept in SEEDED_TRUNCATED:
            y = U0RedElt.exact(*args)
            assert iwasawa_orbit_u0(y) == swept_orbit(y) == swept, args

    @pytest.mark.parametrize("p", [3, 5])
    def test_depth_cap_bounds_the_t_depth_on_negative_shells(self, p, monkeypatch):
        # on the torus shell k = -12 the entry 1 - p^2 t must have v >= 6:
        # the t-ball 1/p^2 + p^4 Z_p inside the shell v(t) = -2, where the
        # integer coordinate tau = p^2 t is two levels deeper than t, so a
        # cap read on tau would raise at caps 4 and 5 where the t-sweep passes
        zero = QuadElt.exact(0, 0, p)
        M = [[zero, zero, QuadElt.exact(1, 0, p)],
             [zero, zero, QuadElt.exact(p * p, 0, p)],
             [zero, zero, zero]]
        polys = _conj_polys(M)

        def outcome(fn, *args):
            try:
                return fn(*args)
            except ConductorError:
                return "cap"

        got = {}
        for cap in range(1, 8):
            monkeypatch.setattr(integrate, "DEPTH_CAP", cap)
            got[cap] = outcome(_iwasawa_t_integral, polys, -12, p)
            assert got[cap] == outcome(fraction_t_integral, M, -12, p, 10), cap
        assert got == {1: "cap", 2: "cap", 3: "cap", 4: Fraction(1, p ** 4),
                       5: Fraction(1, p ** 4), 6: Fraction(1, p ** 4),
                       7: Fraction(1, p ** 4)}
        # the error names the shell v(t) = -2 and the tau-ball 1 + p^5 Z_p,
        # and carries them
        monkeypatch.setattr(integrate, "DEPTH_CAP", 3)
        with pytest.raises(ConductorError, match=re.escape(
                f"depth cap 3 reached on the shell v(t) = -2, at the tau-ball 1 + {p}^5 Z_p")
                ) as err:
            _iwasawa_t_integral(polys, -12, p)
        raised = err.value
        assert (raised.cap, raised.shift, raised.center, raised.depth, raised.p) == (3, -2, 1, 5, p)

    def test_support_at_the_window_edge_raises(self, monkeypatch):
        # the support of lam0 = 81 at p = 3 starts at the torus shell -4,
        # and its interval is open below: a guard of 3 cuts it
        p = 3
        y = u0_ss_case0(81, p)
        assert _k_interval(_conj_polys(y.matrix()), p, False) == (None, 0)
        assert iwasawa_orbit_u0(y) == orb_u0_ss_case0(81, p) == 17
        monkeypatch.setattr(integrate, "auto_window", lambda y: 3)
        with pytest.raises(StabilizationError, match="guard shell -3 of a scan open below"):
            iwasawa_orbit_u0(y)

    def test_a_finite_interval_is_summed_past_the_guard(self, monkeypatch):
        # the guard bounds only a scan open below: the case-1 element's
        # interval 0..3 and the nilpotent family's lo = -1 are summed
        # exactly under a guard of 1, which the window they replace refused
        monkeypatch.setattr(integrate, "auto_window", lambda y: 1)
        y = u0_ss_case1(BPoint.exact(-27, 3, 9, 3))
        assert _k_interval(_conj_polys(y.matrix()), 3, False) == (0, 3)
        assert iwasawa_orbit_u0(y) == orb_u0_ss_case1(-27, 3, 3) == 8
        y = u0_nilpotent_family_member(9, 5)
        assert _k_interval(_conj_polys(y.matrix()), 5, True) == (-1, None)
        assert iwasawa_orbit_u0(y) == Fraction(25, 4)

    def test_a_short_window_does_not_cut_the_t_scan(self, monkeypatch):
        # the t-scan ends at its floor, not at a window: lam0 = 9 at p = 3,
        # whose support starts at the torus shell -2, is 5 from guard 3 up,
        # where a t-scan that needed room for four empty t-shells raised
        p = 3
        polys = _conj_polys(u0_ss_case1(BPoint.exact(0, 1, 0, p)).matrix())
        assert _iwasawa_t_integral(polys, 0, p) == 1
        y = u0_ss_case0(9, p)
        for guard in range(1, auto_window(y) + 1):
            monkeypatch.setattr(integrate, "auto_window", lambda y: guard)
            if guard < 3:
                with pytest.raises(StabilizationError, match=f"guard shell -{guard} "):
                    iwasawa_orbit_u0(y)
            else:
                assert iwasawa_orbit_u0(y) == orb_u0_ss_case0(9, p) == 5

    @pytest.mark.parametrize("p", [3, 5])
    def test_short_windows_raise_or_agree(self, p, monkeypatch):
        # every guard from 2 up gives the closed form or raises; none gives
        # a truncated sum
        for v in range(0, 7):
            for c in range(1, p):
                lam0 = Fraction(c) * p ** v
                if PadicScalar.exact(-lam0, p).is_square():
                    continue
                y, want = u0_ss_case0(lam0, p), orb_u0_ss_case0(lam0, p)
                for guard in range(2, auto_window(y) + 1):
                    monkeypatch.setattr(integrate, "auto_window", lambda y: guard)
                    try:
                        got = iwasawa_orbit_u0(y)
                    except StabilizationError:
                        continue
                    assert got == want, (lam0, guard)

    def test_zero_lam0_has_no_representative(self):
        with pytest.raises(InputError):
            u0_ss_case0(0, 3)

    def test_auto_window_positive(self):
        y = u0_ss_case0(27, 3)
        assert auto_window(y) >= 8


def side1_neighborhood_samples(x0, count, rng):
    """count side-1 points in the neighborhood of a base point (lam0, 0, 0)
    with v(lam0) = 1: lam0 perturbed by r p^k for k in 5..8, u and wt of the
    form r p^k, each kept when is_in_neighborhood accepts it."""
    p = x0.p
    lam0 = x0.lam.rational
    out = []
    for _ in range(1000):
        r = rng.choice((-1, 1)) * rng.randint(1, p - 1)
        lam = lam0 + r * Fraction(p) ** rng.randint(5, 8)
        u = rng.randint(1, p - 1) * Fraction(p) ** rng.randint(0, 4)
        wt = rng.randint(0, p - 1) * Fraction(p) ** rng.randint(0, 4)
        x = BPoint.exact(lam, u, wt, p)
        if x.is_rs() and is_in_neighborhood(x0, x) and x.side() == 1:
            out.append(x)
            if len(out) == count:
                return out
    raise AssertionError(f"fewer than {count} samples around {x0!r}")


class TestExactness:
    """Verdict paths under the conftest guard `forbid_capped`, as is every
    test in tests/test_acceptance.py."""

    def test_case_0ii_with_an_irrational_root_builds_no_capped_scalar(
            self, forbid_capped, capsys):
        # -lam0/p is 7, 6 and 11: a square in Q_p but not in Q
        rng = random.Random(7)
        samples = [(x0, side1_neighborhood_samples(x0, 30, rng))
                   for x0 in (BPoint.exact(-21, 0, 0, 3), BPoint.exact(-30, 0, 0, 5),
                              BPoint.exact(-77, 0, 0, 7))]
        for x0, xs in samples:
            for x in xs:
                assert dorb1(x0, x).const_tag is not None
        assert main(["values", "--what", "forced-s", "--params", "-30", "0", "0",
                     "--p", "5"]) == 0
        assert '"y_mm": "1"' in capsys.readouterr().out

    def test_integrators_build_no_capped_scalar(self, forbid_capped):
        elements = criterion4_elements()
        points = [make_bpoint_rs1(*mlp, 3) for mlp in XI_POINTS]
        for y, want in elements:
            assert iwasawa_orbit_u0(y) == want
        for x in points:
            xi_integral(x, 14)

    def test_the_guard_stops_every_capped_constructor(self, forbid_capped):
        # the three constructors that set a finite precision, and the BallF
        # point that bench/tracer.py hooks, which calls one of them
        x = PadicScalar.exact(Fraction(3, 5), 5)
        for build in (lambda: x.to_capped(4), lambda: PadicScalar.zero_at(5, 2),
                      lambda: PadicScalar.from_rational_absprec(Fraction(3, 5), 5, 4),
                      lambda: BallF(Fraction(1), 1, Fraction(2), 1).point(5)):
            with pytest.raises(AssertionError, match="capped arithmetic reached"):
                build()

    def test_no_precision_is_passed_outside_padic(self):
        # no PadicScalar(...) call outside padic.py passes a precision, as a
        # third positional argument or as _prec=, so the constructors that
        # the guard patches are the only way a capped value enters
        root = Path(__file__).resolve().parents[1]
        paths = [path for d in ("src/atlas", "tests", "bench")
                 for path in sorted((root / d).glob("*.py")) if path.name != "padic.py"]
        calls, found = 0, []
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                f = getattr(node, "func", None)
                if getattr(f, "id", getattr(f, "attr", None)) != "PadicScalar":
                    continue
                calls += 1
                if len(node.args) > 2 or any(k.arg == "_prec" for k in node.keywords):
                    found.append(f"{path.name}:{node.lineno}")
        assert calls >= 5 and found == []

    def test_cayley_and_verify_build_no_capped_scalar(self, forbid_capped, capsys):
        # criterion 7's Cayley round trips and chart screen on seeded
        # integral elements, then both `atlas verify` commands
        rng = random.Random(101)
        p = 5

        def quat(traceless=False):
            a = 0 if traceless else rng.randint(-9, 9)
            return QuatElt(QuadElt.exact(a, rng.randint(-9, 9), p),
                           QuadElt.exact(rng.randint(-9, 9), rng.randint(-9, 9), p))
        elements = [U1LieElt(quat(True), PadicScalar.exact(rng.randint(-9, 9), p), quat(),
                             QuadElt.exact(0, rng.randint(-9, 9), p)) for _ in range(30)]
        for x in elements:
            xi = rng.choice(XI_CHOICES)
            g = cayley(x, xi)
            assert cayley_inv(g, xi).to_matrix() == x.to_matrix()
            admissible = [xj for xj in XI_CHOICES if admissible_xi(g, xj)]
            assert admissible and cayley_inv(g, admissible[0]).is_integral()
        assert main(["verify", "zero", "--p", "3", "--m-max", "1", "--l-max", "3"]) == 0
        assert main(["verify", "x0", "--p", "5"]) == 0
        assert "constant" in capsys.readouterr().out


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
        # the second point splits balls on the shells -2 and 1
        points = [make_bpoint_rs1(0, 1, INF, 3), make_bpoint_rs1(2, 4, 1, 3)]
        coarse = [xi_integral(x, 12) for x in points]
        split_once(monkeypatch)
        assert [xi_integral(x, 12) for x in points] == coarse

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

    def test_matches_the_t_coordinate_reference(self):
        # one value at every window that holds the support, equal to the
        # t-coordinate reference wherever its fitted tails find their law:
        # on 16 (point, window) pairs the fit's outermost shells do not yet
        # follow it and the reference refuses
        seen = Counter()
        for x in seeded_xi_points():
            want = xi_integral(x)
            for window in (8, 12, 14):
                assert xi_integral(x, window) == want, (x, window)
                try:
                    assert fraction_xi_integral(x, window) == want, (x, window)
                except StabilizationError:
                    seen["refused"] += 1
                    continue
                seen[not want.is_zero()] += 1
        assert seen == {True: 110, "refused": 16}

    def test_the_t_coordinate_shells_follow_the_tail_laws(self):
        # the laws that close both tails, checked on the t-coordinate sweep
        # of 11 shells past K+ and 11 before K-, against xi_tail_laws
        grid = [make_bpoint_rs1(m, lm, lp, p) for p in (3, 5, 7) for m in range(3)
                for lm in range(1, 6) for lp in (1, 3, INF)]
        for x in seeded_xi_points() + grid:
            lo, hi, law = xi_tail_laws(x)
            assert _xi_support(x)[3:] == (lo, hi)
            weight = fraction_xi_weight(x)
            for i in range(1, 12):
                for k in (hi + i, lo - i):
                    assert ball_sum(x.p, f0_shell(k, x.p), weight) == law(k), (x, k)

    def test_deep_supports_match_the_closed_form(self):
        # supports past the old fixed window of 30: v(D'/p) = l- - 1 on
        # (0, l-, inf), where fitted tails returned wrong values or refused
        points = [(0, lm, INF) for lm in range(29, 62)] + [(0, 45, 45), (0, 61, 61),
                                                          (2, 49, INF)]
        for mlp in points:
            x = make_bpoint_rs1(*mlp, 3)
            assert phi_from_xi(x) == phi_closed(x), mlp

    def test_depth_cap_bounds_the_t_depth(self, monkeypatch):
        # the first three points split balls on a negative and a positive
        # shell, the fourth only on the shell -4, down to tau-depth 3
        # (t-depth -1): a cap read on the tau-depth would pass the first
        # three at caps where the t-sweep fails, and fail the fourth at
        # caps 1..3 where it passes; the error names the positive shell
        points = {make_bpoint_rs1(2, 4, 1, 3): ({1, 2}, 1),
                  make_bpoint_rs1(3, 5, 1, 5): ({1, 2, 3}, 1),
                  make_bpoint_rs1(3, 7, 1, 7): ({1, 2, 3, 4, 5}, 3),
                  BPoint.exact(Fraction(-7, 27), 9, -126, 3): (set(), None)}

        def outcome(fn, x):
            try:
                return fn(x, 12)
            except ConductorError:
                return "cap"

        for x, (capped, shell) in points.items():
            got = {}
            for cap in range(1, 9):
                monkeypatch.setattr(integrate, "DEPTH_CAP", cap)
                got[cap] = outcome(xi_integral, x)
                assert got[cap] == outcome(fraction_xi_integral, x), (x, cap)
            assert {cap for cap, v in got.items() if v == "cap"} == capped, x
            assert not got[8].is_zero()
            for cap in capped:
                monkeypatch.setattr(integrate, "DEPTH_CAP", cap)
                with pytest.raises(ConductorError, match=re.escape(
                        f"depth cap {cap} reached on the shell v(t) = {shell},")):
                    xi_integral(x, 12)

    def test_side0_rejected(self):
        with pytest.raises(ValueError):
            xi_integral(BPoint.exact(1, 1, 0, 5), 10)

    def test_small_window_is_an_input_error(self):
        x = make_bpoint_rs1(0, 1, INF, 3)
        with pytest.raises(InputError, match="shell window must be at least 0, got -1"):
            xi_integral(x, window=-1)

    def test_window_below_the_support_is_refused(self):
        # v(D'/p) = 30 puts K+ at 30: window 29 would cut the support
        x = make_bpoint_rs1(0, 31, INF, 3)
        *_, lo, hi = _xi_support(x)
        assert max(hi, -lo) == 30
        with pytest.raises(StabilizationError, match="support 0..30 leaves the shell "
                                                     "window 29"):
            xi_integral(x, window=29)

    def test_one_logqval_per_call(self, monkeypatch):
        # the shells sum Fraction coefficients; the graded value is built once
        init = LogQVal.__init__
        built = []

        def counted(self, coeffs, p):
            built.append(dict(coeffs))
            init(self, coeffs, p)

        monkeypatch.setattr(LogQVal, "__init__", counted)
        for mlp in XI_POINTS[:4]:
            built.clear()
            v = xi_integral(make_bpoint_rs1(*mlp, 3), 12)
            assert len(built) == 1 and set(v.coeffs) <= {2}
