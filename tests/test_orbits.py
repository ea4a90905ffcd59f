import copy
import json
import math
import random
from fractions import Fraction

import pytest

from atlas import orbits, padic
from atlas.cli import main
from atlas.errors import (AtlasError, CayleyUndefinedError,
                          ExcludedCaseError, InputError,
                          NotRegularSemisimpleError, PrecisionError,
                          UnrealizableError)
from atlas.germs import BasePointPlan
from atlas.orbits import (INF, XI_CHOICES, BPoint, SRedElt, U0RedElt,
                          U1GroupElt, U1LieElt, U1RedElt, _ps, admissible_xi,
                          case_of, cayley, cayley_inv, det2, in_side1_closure,
                          make_bpoint_rs1, mat_add, mat_sub, orbit_reps,
                          quat_identity, quat_mat_solve, section_sigma,
                          u0_nilpotent_family_member, u0_ss_case1)
from atlas.padic import PadicScalar, QuadElt, QuatElt, smallest_nonresidue, val
from atlas.serialize import encode_element
from test_padic import (capped, minus_part, padic_sqrt, quad_inv, quat_inv,
                         quat_nrd, v_d)


def rand_quat(p, traceless=False, lo=-9, hi=9):
    a = 0 if traceless else random.randint(lo, hi)
    return QuatElt(QuadElt.exact(a, random.randint(lo, hi), p),
                   QuadElt.exact(random.randint(lo, hi), random.randint(lo, hi), p))


def rand_k1_lie(p):
    return U1LieElt(rand_quat(p, traceless=True),
                    PadicScalar.exact(random.randint(-9, 9), p),
                    rand_quat(p),
                    QuadElt.exact(0, random.randint(-9, 9), p))


def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    return [[sum_entries([A[i][t] * B[t][j] for t in range(k)]) for j in range(m)]
            for i in range(n)]


def sum_entries(xs):
    out = xs[0]
    for x in xs[1:]:
        out = out + x
    return out


def s_red_exact(rows, p):
    """The SRedElt with the given rational entries."""
    return SRedElt([[_ps(Fraction(x), p) for x in row] for row in rows])


def lie_is_rs(x: U1LieElt) -> bool:
    """Whether the Lie element is regular semisimple: its reduced part is."""
    return U1RedElt(x.alpha, x.b).is_rs()


def s_conj_by(y: SRedElt, h) -> SRedElt:
    """Conjugate y by diag(h, 1) for h a 2x2 matrix over F0 (entries coerced)."""
    p = y.p
    h = [[_ps(Fraction(x), p) if not isinstance(x, PadicScalar) else x for x in row]
         for row in h]
    dh = det2(h)
    hinv = [[h[1][1] / dh, -h[0][1] / dh], [-h[1][0] / dh, h[0][0] / dh]]
    one = _ps(1, p)
    zero = _ps(0, p)
    H = [[h[0][0], h[0][1], zero], [h[1][0], h[1][1], zero], [zero, zero, one]]
    Hi = [[hinv[0][0], hinv[0][1], zero], [hinv[1][0], hinv[1][1], zero],
          [zero, zero, one]]
    return SRedElt(mat_mul(Hi, mat_mul(y.z, H)))


def alpha_prime(x: U1RedElt) -> QuatElt:
    """The conjugate b^-1 alpha b through quat_inv and two products: the
    reference for the integer-coordinate conjugate of U1RedElt."""
    return quat_inv(x.b) * x.alpha * x.b


def u0_matrix(y: U0RedElt):
    """The QuadElt matrix [[a1, a2, b1], [a3, -a1, b2],
    [conj(b2) pi, -conj(b1) pi, 0]] of y: the reference for the two
    rational parts of `U0RedElt.parts`."""
    p = y.p
    pi = QuadElt.pi(p)

    def f(s):
        return QuadElt(s, _ps(0, p))
    return [[f(y.a1), f(y.a2), y.b1],
            [f(y.a3), f(-y.a1), y.b2],
            [y.b2.conj() * pi, -(y.b1.conj() * pi), QuadElt.zero(p)]]


def reference_u0_invariants(y: U0RedElt) -> BPoint:
    """The invariants of y by QuadElt products: lam = -(a1^2 + a2 a3),
    u = 2 pi-part(conj(b2) b1) and
    wtilde = (2 a1 (conj(b2) b1).a + a2 N(b2) - a3 N(b1)) / p; the
    reference for `orbits.u0_invariants`."""
    lam = -(y.a1 * y.a1) - y.a2 * y.a3
    t = y.b2.conj() * y.b1
    u = t.pi_coeff() + t.pi_coeff()
    s = y.a1 * (t.a + t.a) + y.a2 * y.b2.norm() - y.a3 * y.b1.norm()
    return BPoint(lam, u, s / y.p)


def conj_by_h(y, h) -> U0RedElt:
    """Conjugate y by diag(h, 1) for h a 2x2 matrix over F lying in the
    hermitian stabilizer; the result is reassembled from the new matrix."""
    M = u0_matrix(y)
    p = y.p
    one, zero = QuadElt.one(p), QuadElt.zero(p)
    di = quad_inv(h[0][0] * h[1][1] - h[0][1] * h[1][0])
    hinv = [[h[1][1] * di, -(h[0][1] * di)], [-(h[1][0] * di), h[0][0] * di]]
    H = [[h[0][0], h[0][1], zero], [h[1][0], h[1][1], zero], [zero, zero, one]]
    Hi = [[hinv[0][0], hinv[0][1], zero], [hinv[1][0], hinv[1][1], zero],
          [zero, zero, one]]
    N = mat_mul(Hi, mat_mul(M, H))
    return U0RedElt(N[0][0].a, N[0][1].a, N[1][0].a, N[0][2], N[1][2])


def u1_dagger(M):
    """The adjoint involution on 3x3 quaternion matrices in this presentation:
    entry (i,j) of the adjoint is (J_j/J_i) * conj(M[j][i]) for J = (1, -p, 1)."""
    p = M[0][0].p
    J = [Fraction(1), Fraction(-p), Fraction(1)]
    return [[M[j][i].conj() * (J[j] / J[i]) for j in range(3)] for i in range(3)]


def u1_is_unitary(g: U1GroupElt) -> bool:
    p = g.p
    prod = mat_mul(g.M, u1_dagger(g.M))
    I = quat_identity(p)
    return all((prod[i][j] - I[i][j]).is_zero() for i in range(3) for j in range(3))


class TestBPoint:
    def test_delta(self):
        assert BPoint.exact(0, 0, 0, 5).delta().rational == 0
        assert BPoint.exact(1, 1, 0, 5).delta().rational == 1
        assert BPoint.exact(-1, 1, 1, 5).delta().rational == 4

    def test_side(self):
        # Delta = -15 at p=5: eta(15) = -1, side 1
        assert BPoint.exact(-5, 2, 1, 5).side() == 1
        assert BPoint.exact(1, 1, 0, 5).side() == 0
        with pytest.raises(NotRegularSemisimpleError):
            BPoint.exact(0, 0, 0, 5).side()

    def test_side_square_times_minus_one(self):
        # -Delta a square forces side 0
        x = BPoint.exact(-4, 1, 0, 7)
        assert x.side() == 0

    def test_ml_params(self):
        x = make_bpoint_rs1(0, 1, INF, 3)
        assert x.ml_params() == (0, 1, INF)
        assert make_bpoint_rs1(1, 1, 3, 3).ml_params() == (1, 1, 3)
        assert make_bpoint_rs1(1, 3, 1, 3).ml_params() == (1, 3, 1)

    def test_lam_valuation_follows_from_the_invariants(self):
        # v(lam) = min(l_minus, l_plus) whenever l_minus != l_plus, on seeded
        # integral side-1 points: random coordinates, and points with a unit
        # u and Delta = c p^e for e > v(wt^2 p), where v(lam) = l_plus < l_minus
        rng = random.Random(1607)
        branches = {"v(lam) = l_minus": 0, "v(lam) = l_plus": 0}
        for k in range(4000):
            p = rng.choice((3, 5, 7, 11))

            def coord(lo, hi):
                return rng.choice([c for c in range(1, p * p) if c % p]) \
                    * p ** rng.randint(lo, hi)
            if k % 2:
                x = BPoint.exact(rng.choice((0, -coord(0, 6), coord(0, 6))),
                                 coord(0, 3), rng.choice((0, coord(0, 5))), p)
            else:
                u, wt = coord(0, 0), coord(0, 4)
                e = 2 * val(wt, p) + 1 + rng.randint(1, 4)
                x = BPoint.exact(Fraction(coord(e, e) - wt * wt * p, u * u), u, wt, p)
            if x.delta().is_exact_zero() or x.side() != 1:
                continue
            m, lm, lp = x.ml_params()
            if lm != lp:
                assert x.lam.val() == min(lm, lp), x
                branches["v(lam) = l_minus" if lm < lp else "v(lam) = l_plus"] += 1
        assert min(branches.values()) >= 300, branches

    def test_exact_matches_one_padic_scalar_per_coordinate(self):
        rng = random.Random(1603)
        for _ in range(400):
            p = rng.choice([3, 5, 7, 11])
            coords = [rng.choice([0, rng.randint(-99, 99),
                                  Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                                  f"{rng.randint(-99, 99)}/{rng.randint(1, 99)}"])
                      for _ in range(3)]
            x = BPoint.exact(*coords, p)
            for s, v in zip((x.lam, x.u, x.wtilde), coords):
                want = PadicScalar.exact(Fraction(v), p)
                assert s.p == p and s.is_exact and type(s.rational) is Fraction
                assert s.rational == want.rational and s == want

    @pytest.mark.parametrize("p", [1, -3, 2, 4, 9, 3.0, "3"])
    def test_exact_rejects_a_non_prime(self, p):
        with pytest.raises(InputError, match="odd prime"):
            BPoint.exact(1, 2, 3, p)

    def test_exact_reads_lam_before_p_and_p_before_u(self):
        with pytest.raises(ValueError) as lam_first:
            BPoint.exact("1/x", 1, 0, 4)
        assert not isinstance(lam_first.value, InputError)
        with pytest.raises(InputError, match="odd prime"):
            BPoint.exact(1, "1/x", 0, 4)

    def test_ml_params_r0_error(self):
        x = BPoint.exact(3, 0, 0, 3)
        with pytest.raises(UnrealizableError):
            # side is undefined (Delta = 0) before m is even considered
            x.ml_params()


def _search_bpoint_rs1(m, lminus, lplus, p):
    """Reference for make_bpoint_rs1: search the units xi and delta in
    1..p-1 for wt = xi p^((2m + lplus - 1)/2) (0 when lplus is infinite) and
    Delta = delta p^(2m + lminus) until the point is on side 1 and its
    invariants round-trip."""
    u = Fraction(p) ** m
    for xi_unit in range(1, p):
        if lplus is INF:
            wt = Fraction(0)
        else:
            wt = xi_unit * Fraction(p) ** ((2 * m + lplus - 1) // 2)
        for delta_unit in range(1, p):
            dlt = delta_unit * Fraction(p) ** (2 * m + lminus)
            lam = (dlt - wt * wt * p) / (u * u)
            x = BPoint.exact(lam, u, wt, p)
            try:
                if x.side() != 1:
                    continue
                if x.ml_params() == (m, lminus, lplus):
                    return x
            except (UnrealizableError, NotRegularSemisimpleError):
                continue
        if lplus is INF:
            break
    raise UnrealizableError(f"unrealizable invariants (m={m}, l-={lminus}, l+={lplus})")


def _coords(x):
    return x.lam.rational, x.u.rational, x.wtilde.rational


class TestMakeBPoint:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_the_unit_search_on_the_criterion_2_grid(self, p):
        # m <= 8, l- <= 19, l+ odd <= 19 or infinite, as criterion 2 sweeps
        for m in range(9):
            for lm in range(20):
                for lp in list(range(1, 20, 2)) + [INF]:
                    assert (_coords(make_bpoint_rs1(m, lm, lp, p))
                            == _coords(_search_bpoint_rs1(m, lm, lp, p)))

    @pytest.mark.parametrize("p", [11, 13])
    def test_matches_the_unit_search_on_a_sparse_grid(self, p):
        for m in (0, 1, 4):
            for lm in (0, 1, 2, 5, 8):
                for lp in (1, 3, 5, 9, INF):
                    assert (_coords(make_bpoint_rs1(m, lm, lp, p))
                            == _coords(_search_bpoint_rs1(m, lm, lp, p)))

    @pytest.mark.parametrize("p", [1, -3, 2, 4, 9])
    def test_rejects_a_non_prime(self, p):
        with pytest.raises(InputError, match="odd prime"):
            make_bpoint_rs1(1, 1, 3, p)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_round_trip_grid(self, p):
        for m in range(0, 3):
            for lm in range(0, 6):
                for lp in (1, 3, 5, INF):
                    x = make_bpoint_rs1(m, lm, lp, p)
                    assert x.ml_params() == (m, lm, lp)
                    assert x.side() == 1
                    assert x.is_integral()

    def test_equal_l_values(self):
        # l- = l+: both terms of lam have valuation l-, and v(lam) is not checked
        for p in (3, 5):
            x = make_bpoint_rs1(2, 3, 3, p)
            assert x.ml_params() == (2, 3, 3)


class TestSections:
    def test_sigma_matrix_shape(self):
        x = BPoint.exact(1, 1, 0, 5)
        y = section_sigma(x)
        assert y.z[0][1].rational == Fraction(-1, 5)
        assert y.z[0][2].rational == 1
        assert y.z[1][0].rational == 1
        assert y.z[2][0].rational == 1

    def test_sigma_section_property(self):
        random.seed(11)
        for p in (3, 5):
            done = 0
            while done < 50:
                x = BPoint.exact(random.randint(-40, 40), random.randint(-40, 40),
                                 random.randint(-40, 40), p)
                if not x.is_rs():
                    continue
                ix = section_sigma(x).invariants()
                assert ix.lam.same_value(x.lam)
                assert ix.u.same_value(x.u)
                assert ix.wtilde.same_value(x.wtilde)
                done += 1

class TestInvariantsU1:
    def test_alpha_pi_example(self):
        p = 5
        x = U1RedElt(QuatElt.from_f(QuadElt.pi(p)), QuatElt.one(p))
        iv = x.invariants()
        assert iv.lam.rational == -5
        assert iv.u.rational == 2
        # w = 2 N(b) alpha'_+ = 2 pi, so the pi-coefficient is 2
        assert iv.wtilde.rational == 2
        assert not x.is_rs()

    def test_b_zero(self):
        p = 5
        x = U1RedElt(QuatElt.j(p), QuatElt.zero(p))
        iv = x.invariants()
        assert iv.lam.rational == -2 and iv.u.rational == 0 and iv.wtilde.rational == 0
        assert not x.is_rs()

    def test_alpha_j_rs_and_delta_formula(self):
        random.seed(19)
        p = 5
        x = U1RedElt(QuatElt.j(p), QuatElt.one(p))
        assert x.is_rs()
        for _ in range(40):
            alpha = rand_quat(p, traceless=True)
            b = rand_quat(p)
            if b.is_zero():
                continue
            x = U1RedElt(alpha, b)
            d = x.invariants().delta()
            m = minus_part(alpha_prime(x))
            want = 4 * quat_nrd(b) * quat_nrd(b) * quat_nrd(m)
            assert (d - want).is_exact_zero()
            if x.is_rs():
                assert x.invariants().side() == 1

    def test_u1_conjugation_invariance(self):
        # conjugating (alpha, b) by the stabilizer model: alpha -> c alpha c^-1,
        # b -> c b e for units c in D and e in F keeps all three invariants
        # when Nrd(c) = N(e) = 1 is not required: lambda, u, w scale predictably,
        # so instead check the exactly invariant combination via alpha' only
        random.seed(23)
        p = 3
        for _ in range(30):
            alpha = rand_quat(p, traceless=True)
            b = rand_quat(p)
            c = rand_quat(p)
            if b.is_zero() or c.is_zero():
                continue
            x = U1RedElt(alpha, b)
            y = U1RedElt(c * alpha * quat_inv(c), c * b)
            ix, iy = x.invariants(), y.invariants()
            assert (ix.lam - iy.lam).is_exact_zero()
            # u and w scale by Nrd(c)
            n = quat_nrd(c)
            assert (iy.u - n * ix.u).is_exact_zero()
            assert (iy.wtilde - n * ix.wtilde).is_exact_zero()


class TestInvariantsU0:
    def test_side_zero(self):
        random.seed(29)
        p = 5
        done = 0
        while done < 40:
            y = U0RedElt.exact(random.randint(-9, 9), random.randint(-9, 9),
                               random.randint(-9, 9),
                               QuadElt.exact(random.randint(-9, 9), random.randint(-9, 9), p),
                               QuadElt.exact(random.randint(-9, 9), random.randint(-9, 9), p), p)
            if not y.invariants().is_rs():
                continue
            assert y.invariants().side() == 0
            done += 1

    def test_h0_conjugation_invariance(self):
        random.seed(31)
        p = 3
        done = 0
        while done < 25:
            y = U0RedElt.exact(random.randint(-9, 9), random.randint(-9, 9),
                               random.randint(-9, 9),
                               QuadElt.exact(random.randint(-9, 9), random.randint(-9, 9), p),
                               QuadElt.exact(random.randint(-9, 9), random.randint(-9, 9), p), p)
            # torus-unipotent word in the stabilizer of the hermitian form
            z = QuadElt.exact(random.randint(-9, 9), random.randint(-9, 9), p)
            if z.is_zero() or z.norm().is_exact_zero():
                continue
            t = QuadElt.exact(random.randint(-9, 9), 0, p)
            zero, one = QuadElt.zero(p), QuadElt.one(p)
            h = [[quad_inv(z), t * z.conj()], [zero, z.conj()]]
            yh = conj_by_h(y, h)
            ix, iy = y.invariants(), yh.invariants()
            assert ix.lam.same_value(iy.lam)
            assert ix.u.same_value(iy.u)
            assert ix.wtilde.same_value(iy.wtilde)
            done += 1


class TestReduce:
    def test_rs_equivalence(self):
        random.seed(41)
        p = 3
        for _ in range(100):
            x = rand_k1_lie(p)
            assert lie_is_rs(x) == reference_is_rs(U1RedElt(x.alpha, x.b))

    @pytest.mark.parametrize("k, match", [(0, "tr A != 0"), (2, "d != 0")])
    def test_not_reduced_refused(self, k, match):
        with pytest.raises(InputError, match=match):
            s_red_exact([[int(i == j == k) for j in range(3)] for i in range(3)], 5)

    def test_alpha_not_traceless_refused(self):
        with pytest.raises(InputError, match="traceless"):
            U1RedElt(QuatElt.one(5), QuatElt.j(5))

    @pytest.mark.parametrize("entry, match", [((1, 0), "beta not in F0"),
                                              ((2, 2), "d not in F")])
    def test_lie_coordinates_refused(self, entry, match):
        # j lies neither in F0 nor in F
        M = quat_identity(5)
        M[entry[0]][entry[1]] = QuatElt.j(5)
        with pytest.raises(InputError, match=match):
            u1_lie_from_matrix(M)

class TestCayley:
    def test_fixed_point_of_zero(self):
        p = 5
        x = U1LieElt(QuatElt.zero(p), PadicScalar.exact(0, p), QuatElt.zero(p),
                     QuadElt.zero(p))
        for xi in XI_CHOICES:
            g = cayley(x, xi)
            alpha, beta, b, c, d = group_coords(g)
            assert (alpha - xi[0]).is_zero() and (d - xi[1]).is_zero()
            assert beta.is_zero() and b.is_zero() and c.is_zero()

    def test_round_trip_and_unitary(self):
        random.seed(43)
        p = 5
        for _ in range(50):
            x = rand_k1_lie(p)
            xi = random.choice(XI_CHOICES)
            g = cayley(x, xi)
            assert u1_is_unitary(g)
            assert g.is_integral()
            x2 = cayley_inv(g, xi)
            m1, m2 = x.to_matrix(), x2.to_matrix()
            assert all((a - b).is_zero() for r1, r2 in zip(m1, m2)
                       for a, b in zip(r1, r2))

    def test_lie_shape(self):
        random.seed(47)
        p = 3
        x = rand_k1_lie(p)
        M = x.to_matrix()
        D = mat_add(M, u1_dagger(M))
        assert all(e.is_zero() for row in D for e in row)

    def test_k1_coverage(self):
        random.seed(53)
        p = 5
        for _ in range(60):
            g = cayley(rand_k1_lie(p), random.choice(XI_CHOICES))
            assert any(_admissible(g, xi) for xi in XI_CHOICES)

    def test_rs_preserved(self):
        random.seed(59)
        p = 3
        done = 0
        while done < 30:
            x = rand_k1_lie(p)
            g = cayley(x, (1, 1))
            y = cayley_inv(g, (1, 1))
            assert lie_is_rs(x) == lie_is_rs(y)
            done += 1


def reference_invariants(x: U1RedElt) -> BPoint:
    """The invariants through QuatElt arithmetic: lambda = Nrd(alpha),
    u = 2 Nrd(b) and wtilde = u times the pi-coefficient of alpha_prime(x)."""
    p = x.p
    lam = quat_nrd(x.alpha)
    if x.b.is_zero():
        return BPoint(lam, _ps(0, p), _ps(0, p))
    u = quat_nrd(x.b) + quat_nrd(x.b)
    return BPoint(lam, u, u * alpha_prime(x).x.pi_coeff())


def reference_is_rs(x: U1RedElt) -> bool:
    if x.b.is_zero():
        return False
    return not minus_part(alpha_prime(x)).is_zero()


def reference_admissible_xi(g: U1GroupElt, xi) -> bool:
    """1 + s1 alpha and 1 + s2 d nonzero with v_D = 0, built as QuatElt."""
    s1, s2 = xi
    e1 = QuatElt.one(g.p) + g.M[0][0] * s1
    e2 = QuatElt.one(g.p) + g.M[2][2] * s2
    return (not e1.is_zero() and v_d(e1) == 0
            and not e2.is_zero() and v_d(e2) == 0)


def group_coords(g: U1GroupElt):
    """(alpha, beta, b, c, d) read off the QuatElt entries of g, d in F."""
    M = g.M
    return M[0][0], M[1][0], M[1][2], M[2][0], M[2][2].x


def entry_is_integral(g: U1GroupElt) -> bool:
    """Integrality of alpha, beta, b, c and d, read off the entries."""
    alpha, beta, b, c, d = group_coords(g)
    return (alpha.is_integral() and beta.is_integral() and b.is_integral()
            and c.is_integral() and d.is_integral())


def entry_admissible_xi(g: U1GroupElt, xi) -> bool:
    """The chart test on the integer coordinates of the entries alpha = M00
    and d = M22 (`padic._int_coords`), each over its own least denominator."""
    s1, s2 = xi
    M = g.M
    return (orbits._one_plus_is_unit(padic._int_coords(M[0][0]), s1, g.p)
            and orbits._one_plus_is_unit(padic._int_coords(M[2][2]), s2, g.p))


def rand_coord(rng, p):
    """Often zero, often integral, often with p (or p^2, p^3) in the
    denominator or the numerator."""
    r = rng.random()
    if r < 0.2:
        return Fraction(0)
    num = rng.randint(-9, 9) * p ** rng.choice((0, 0, 1, 2))
    return Fraction(num, rng.choice((1, 1, 1, 2, p, p * p, p ** 3, 3 * p)))


def rand_coord_quat(rng, p, traceless=False):
    a = Fraction(0) if traceless else rand_coord(rng, p)
    return QuatElt(QuadElt.exact(a, rand_coord(rng, p), p),
                   QuadElt.exact(rand_coord(rng, p), rand_coord(rng, p), p))


def _scalars(x: BPoint):
    return tuple((s.p, s.rational) for s in (x.lam, x.u, x.wtilde))


def _count_scalars(monkeypatch):
    """A counter of PadicScalar constructions."""
    made = [0]
    init = PadicScalar.__init__

    def counted(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(PadicScalar, "__init__", counted)
    return made


def _count_calls(monkeypatch, owner, name):
    """A counter of the calls of owner.name."""
    calls = [0]
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


class TestConjugateOnIntegerCoordinates:
    """U1RedElt reads b^-1 alpha b from integer coordinates, and
    admissible_xi reads v_D of 1 + s alpha from them: both must agree with
    the QuatElt references."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_invariants_and_rs_match_the_quaternion_path(self, p):
        rng = random.Random(2000 + p)
        zero_b = rs = non_rs = nonintegral = p_den = 0
        for _ in range(500):
            alpha = rand_coord_quat(rng, p, traceless=True)
            b = QuatElt.zero(p) if rng.random() < 0.1 else rand_coord_quat(rng, p)
            x = U1RedElt(alpha, b)
            iv = x.invariants()
            assert _scalars(iv) == _scalars(reference_invariants(x))
            assert x.is_rs() == reference_is_rs(x)
            # a second read takes the stored conjugate
            assert _scalars(x.invariants()) == _scalars(iv) and x.is_rs() == reference_is_rs(x)
            zero_b += b.is_zero()
            rs += x.is_rs()
            non_rs += not x.is_rs() and not b.is_zero()
            nonintegral += not x.is_integral()
            p_den += any(s.rational.denominator % p == 0
                         for q in (alpha, b) for s in (q.x.a, q.x.b, q.y.a, q.y.b))
        assert zero_b >= 25 and rs >= 250 and non_rs >= 5
        assert nonintegral >= 250 and p_den >= 250

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_admissible_xi_matches_the_v_d_chart_test(self, p):
        rng = random.Random(3000 + p)
        outcomes = {True: 0, False: 0}
        zero_shift = 0
        for k in range(500):
            M = quat_identity(p)
            if k % 5 == 0:
                # a Cayley image, as int_group screens it
                x = U1RedElt(rand_coord_quat(rng, p, traceless=True),
                             rand_coord_quat(rng, p))
                M = cayley(x, rng.choice(XI_CHOICES)).M
            else:
                M[0][0] = rand_coord_quat(rng, p)
                M[2][2] = rng.choice((QuatElt(QuadElt.exact(rand_coord(rng, p), 0, p),
                                              QuadElt.exact(0, 0, p)),
                                      rand_coord_quat(rng, p), QuatElt.one(p),
                                      -QuatElt.one(p)))
            g = U1GroupElt.from_matrix(M)
            for xi in XI_CHOICES:
                want = reference_admissible_xi(g, xi)
                assert admissible_xi(g, xi) == want
                outcomes[want] += 1
                zero_shift += (QuatElt.one(p) + M[2][2] * xi[1]).is_zero()
        assert outcomes[True] >= 300 and outcomes[False] >= 300 and zero_shift >= 50

    def test_capped_coordinate_raises_precision_error(self):
        p = 5
        c = capped(p, 0, 2, 6)
        capped_q = QuatElt(QuadElt(c, PadicScalar.exact(0, p)), QuadElt.exact(1, 1, p))
        traceless = QuatElt(QuadElt(PadicScalar.exact(0, p), c), QuadElt.exact(1, 0, p))
        for alpha, b in ((QuatElt.j(p), capped_q), (traceless, QuatElt.one(p))):
            # the element computes its conjugate when it is built
            with pytest.raises(PrecisionError):
                U1RedElt(alpha, b)
        for entry in ((0, 0), (2, 2)):
            M = quat_identity(p)
            M[entry[0]][entry[1]] = capped_q
            for xi in XI_CHOICES:
                with pytest.raises(PrecisionError):
                    admissible_xi(U1GroupElt.from_matrix(M), xi)

    def test_counts_of_scalars_built(self, monkeypatch):
        p = 5
        x = U1RedElt(QuatElt(QuadElt.exact(0, Fraction(1, 5), p), QuadElt.exact(2, -3, p)),
                     QuatElt(QuadElt.exact(Fraction(1, 2), 3, p), QuadElt.exact(1, -1, p)))
        made = _count_scalars(monkeypatch)
        products = _count_calls(monkeypatch, QuatElt, "__mul__")
        read = _count_calls(monkeypatch, padic, "_int_rows")
        read_here = _count_calls(monkeypatch, orbits, "_int_rows")
        # the forward transform hands its integer solution to the element and
        # builds no scalar, no product and no rows from entries
        g = cayley(x, (1, 1))
        assert made[0] == 0 and products[0] == 0
        assert read[0] == read_here[0] == 0
        made[0] = 0
        assert x.is_rs() and made[0] == 0
        fresh = U1RedElt(x.alpha, x.b)
        made[0] = 0
        fresh.invariants()
        assert made[0] == 3
        for xi in XI_CHOICES:
            made[0] = 0
            admissible_xi(g, xi)
            assert made[0] == 0
        g.is_integral()
        assert made[0] == 0
        # the inverse transform solves from the rows the element holds
        inverses = 0
        for xi in XI_CHOICES:
            try:
                cayley_inv(g, xi)
            except CayleyUndefinedError:
                continue
            inverses += 1
        assert inverses and read[0] == read_here[0] == 0


def rand_group_matrix(rng, p):
    """A QuatElt matrix whose entries read as alpha, beta, b and c are often
    integral and often have p in a denominator, whose d has a j-part that is
    often not integral (the entry tests read only its F-part), and whose
    other entries are random."""
    def entry():
        if rng.random() < 0.6:
            return QuatElt(QuadElt.exact(rng.randint(-9, 9), rng.randint(-9, 9), p),
                           QuadElt.exact(rng.randint(-9, 9), rng.randint(-9, 9), p))
        return rand_coord_quat(rng, p)
    M = rand_system_matrix(rng, p)
    for i, j in ((0, 0), (1, 0), (1, 2), (2, 0), (2, 2)):
        M[i][j] = entry()
    M[2][2] = QuatElt(M[2][2].x, rand_coord_quat(rng, p).y)
    return M


def cayley_solution(x: U1LieElt, xi):
    """The integer solution of the Cayley system of x in the chart xi, each
    row over its signed norm, as `padic.cayley_solve` returns it."""
    p, rows = x.rows()
    s1, s2 = xi
    return padic.cayley_solve(p, rows, (1, 1, 1), (s1, s1, s2))


class TestGroupRows:
    """A group element is its integer rows, each over a positive denominator:
    its entries, integrality and chart test must agree with those read off
    the QuatElt entries."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_rows_answer_as_the_entries_do(self, p):
        rng = random.Random(5000 + p)
        seen = {"integral": 0, "not integral": 0, "admissible": 0, "not admissible": 0,
                "negative norm": 0, "integral, d j-part not": 0}
        for k in range(160):
            if k % 2:
                x = rand_lie(rng, p, (1,) if k % 4 == 1 else (1, 2, p, p * p))
                xi = XI_CHOICES[k // 2 % 4]
                g = cayley(x, xi)
                Z = cayley_solution(x, xi)
                # the entries built straight from the signed solution
                want = padic._quat_matrix(Z, p)
                seen["negative norm"] += any(n < 0 for n, _ in Z)
            else:
                want = rand_group_matrix(rng, p)
                g = U1GroupElt.from_matrix(want)
                seen["integral, d j-part not"] += (g.is_integral()
                                                   and not want[2][2].y.is_integral())
            assert g.p == p and all(den > 0 for den, _ in g._rows[1])
            assert coords(g.M) == coords(want)
            assert g.is_integral() == entry_is_integral(g)
            seen["integral" if g.is_integral() else "not integral"] += 1
            for xj in XI_CHOICES:
                got = admissible_xi(g, xj)
                assert got == entry_admissible_xi(g, xj) == reference_admissible_xi(g, xj)
                seen["admissible" if got else "not admissible"] += 1
        assert min(seen.values()) >= 5, seen

    def test_entries_are_built_on_each_read(self):
        g = U1GroupElt.from_matrix(rand_group_matrix(random.Random(109), 5))
        assert g.M is not g.M and coords(g.M) == coords(g.M)
        assert repr(g) == f"U1GroupElt({g.M!r})"
        with pytest.raises(AttributeError):
            g.M = g.M


class TestReprs:
    """Each element's repr names every coordinate it was built from."""

    def test_s_red_element(self):
        p = 5
        z = [[PadicScalar.exact(x, p) for x in row]
             for row in ((Fraction(2, 7), 3, Fraction(-4, 5)), (11, Fraction(-2, 7), 13),
                         (Fraction(1, 9), -17, 0))]
        assert repr(SRedElt(z)) == "SRedElt([[2/7, 3, -4/5], [11, -2/7, 13], [1/9, -17, 0]])"

    def test_u0_red_element_prints_its_constructor_coordinates(self):
        # the element keeps its rational parts, and prints what it was given
        p = 5
        y = U0RedElt.exact(Fraction(2, 7), 5, -3, QuadElt.exact(Fraction(1, 2), 4, p),
                           QuadElt.exact(0, Fraction(-1, 3), p), p)
        assert repr(y) == ("U0RedElt(a1=2/7, a2=5, a3=-3, b1=(1/2 + 4*pi), "
                           "b2=(0 + -1/3*pi))")

    def test_u1_lie_element(self):
        p = 5
        x = U1LieElt(QuatElt(QuadElt.exact(0, Fraction(1, 5), p), QuadElt.exact(2, -3, p)),
                     PadicScalar.exact(Fraction(7, 2), p),
                     QuatElt(QuadElt.exact(Fraction(1, 2), 3, p), QuadElt.exact(1, -1, p)),
                     QuadElt.exact(0, 9, p))
        assert repr(x) == ("U1LieElt(alpha=[(0 + 1/5*pi) + (2 + -3*pi)*j], beta=7/2, "
                           "b=[(1/2 + 3*pi) + (1 + -1*pi)*j], d=(0 + 9*pi))")


INVARIANTS_RS = """{
  "invariants": {
    "lambda": {
      "num": "12115",
      "den": "81"
    },
    "u": {
      "num": "-755",
      "den": "18"
    },
    "wtilde": {
      "num": "17861",
      "den": "54"
    },
    "p": 3
  },
  "rs": true,
  "side": 1
}
"""

INVARIANTS_B0 = """{
  "invariants": {
    "lambda": {
      "num": "12115",
      "den": "81"
    },
    "u": {
      "num": "0",
      "den": "1"
    },
    "wtilde": {
      "num": "0",
      "den": "1"
    },
    "p": 3
  },
  "rs": false
}
"""


# `atlas invariants` of two u0_red elements, with pi parts and p-power
# denominators, as the QuadElt formula printed them
U0_INVARIANTS_P3 = """{
  "invariants": {
    "lambda": {
      "num": "131",
      "den": "36"
    },
    "u": {
      "num": "-442",
      "den": "135"
    },
    "wtilde": {
      "num": "-47098",
      "den": "18225"
    },
    "p": 3
  },
  "rs": true,
  "side": 0
}
"""

U0_INVARIANTS_P7 = """{
  "invariants": {
    "lambda": {
      "num": "677",
      "den": "2401"
    },
    "u": {
      "num": "18",
      "den": "1"
    },
    "wtilde": {
      "num": "-369",
      "den": "98"
    },
    "p": 7
  },
  "rs": true,
  "side": 0
}
"""


@pytest.mark.parametrize("coords, p, golden", [
    ((Fraction(1, 2), Fraction(-5, 9), 7, (Fraction(1, 3), Fraction(2, 5)),
      (-4, Fraction(1, 9))), 3, U0_INVARIANTS_P3),
    ((Fraction(3, 49), 2, Fraction(-1, 7), (6, 0), (0, Fraction(-3, 2))), 7,
     U0_INVARIANTS_P7)], ids=["p3", "p7"])
def test_atlas_invariants_of_a_u0_red_element(coords, p, golden, tmp_path, capsys):
    a1, a2, a3, b1, b2 = coords
    y = U0RedElt.exact(a1, a2, a3, QuadElt.exact(*b1, p), QuadElt.exact(*b2, p), p)
    f = tmp_path / "elem.json"
    f.write_text(json.dumps(encode_element(y)))
    assert main(["invariants", "--elem", str(f)]) == 0
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("b, golden", [
    (QuatElt(QuadElt.exact(Fraction(1, 2), 3, 3), QuadElt.exact(Fraction(1, 3), -1, 3)),
     INVARIANTS_RS),
    (QuatElt.zero(3), INVARIANTS_B0)], ids=["rs", "b-zero"])
def test_atlas_invariants_of_a_u1_red_element(b, golden, tmp_path, capsys):
    alpha = QuatElt(QuadElt.exact(0, Fraction(1, 3), 3),
                    QuadElt.exact(Fraction(2, 9), -5, 3))
    f = tmp_path / "elem.json"
    f.write_text(json.dumps(encode_element(U1RedElt(alpha, b))))
    assert main(["invariants", "--elem", str(f)]) == 0
    assert capsys.readouterr().out == golden


def reference_in_chart(M, xi):
    """xi M for the chart xi = diag(s1, s1, s2): the rows with sign -1
    negated, as QuatElt."""
    s1, s2 = xi
    return [row if s > 0 else [-q for q in row] for row, s in zip(M, (s1, s1, s2))]


def reference_to_matrix(x: U1LieElt):
    """The Lie matrix [[alpha, beta p, b pi], [beta, alpha, b],
    [pi conj(b), conj(b) p, d]] through QuatElt products."""
    p = x.p
    pi = QuatElt.from_f(QuadElt.pi(p))
    beta = QuatElt.from_f(QuadElt(x.beta, _ps(0, p)))
    bbar = x.b.conj()
    return [[x.alpha, beta * p, x.b * pi],
            [beta, x.alpha, x.b],
            [pi * bbar, bbar * p, QuatElt.from_f(x.d)]]


def reference_cayley(x, xi):
    """xi (1 + M)(1 - M)^{-1} through 1 -+ M built as QuatElt matrices."""
    M = reference_to_matrix(x)
    I = quat_identity(x.p)
    return reference_in_chart(quat_mat_solve(mat_sub(I, M), mat_add(I, M)), xi)


def u1_lie_from_matrix(M) -> U1LieElt:
    """The Lie coordinates (alpha, beta, b, d) read off a QuatElt matrix;
    InputError when beta is not in F0 or d not in F."""
    alpha, beta, b, d = M[0][0], M[1][0], M[1][2], M[2][2]
    if not (beta.y.is_zero() and beta.x.b.is_zero_at_precision()):
        raise InputError("matrix not in Lie coordinates: beta not in F0")
    if not d.y.is_zero():
        raise InputError("matrix not in Lie coordinates: d not in F")
    return U1LieElt(alpha, beta.x.a, b, d.x)


def reference_cayley_inv(g, xi):
    """-(1 - h)(1 + h)^{-1}, h = xi g, through 1 + h and h - 1 as QuatElt."""
    h = reference_in_chart(g.M, xi)
    I = quat_identity(g.p)
    return u1_lie_from_matrix(quat_mat_solve(mat_add(I, h), mat_sub(h, I)))


def lie_coords(x):
    return [s.rational for s in (x.alpha.x.a, x.alpha.x.b, x.alpha.y.a, x.alpha.y.b,
                                 x.beta, x.b.x.a, x.b.x.b, x.b.y.a, x.b.y.b,
                                 x.d.a, x.d.b)]


def rand_lie(rng, p, dens):
    def c():
        return Fraction(rng.randint(-9, 9), rng.choice(dens))

    def q(traceless=False):
        return QuatElt(QuadElt.exact(0 if traceless else c(), c(), p),
                       QuadElt.exact(c(), c(), p))
    return U1LieElt(q(traceless=True), PadicScalar.exact(c(), p), q(),
                    QuadElt.exact(0, c(), p))


def rand_nonzero_coord(rng, p):
    while True:
        c = rand_coord(rng, p)
        if c:
            return c


class TestLieRows:
    """U1LieElt writes its matrix once, on integer coordinates; it must equal
    the product form entry by entry, and refuse a capped coordinate or a
    second prime in any of alpha, beta, b and d."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_to_matrix_matches_the_product_form(self, p):
        rng = random.Random(4000 + p)
        p_den = 0
        for k in range(60):
            d0 = rand_nonzero_coord(rng, p) if k % 2 else 0
            x = U1LieElt(rand_coord_quat(rng, p, traceless=True),
                         PadicScalar.exact(rand_nonzero_coord(rng, p), p),
                         rand_coord_quat(rng, p),
                         QuadElt.exact(d0, rand_nonzero_coord(rng, p), p))
            assert coords(x.to_matrix()) == coords(reference_to_matrix(x))
            p_den += any(c.denominator % p == 0 for row in coords(x.to_matrix())
                         for z in row for c in z)
        assert p_den >= 50

    def test_capped_coordinate_raises_precision_error(self):
        p = 5
        c = PadicScalar.exact(Fraction(3, 5), p).to_capped(6)
        zero = PadicScalar.exact(0, p)
        capped_parts = {"alpha": QuatElt(QuadElt(zero, c), QuadElt.exact(1, 0, p)),
                        "beta": c,
                        "b": QuatElt(QuadElt(c, zero), QuadElt.exact(1, 1, p)),
                        "d": QuadElt(zero, c)}
        for name, part in capped_parts.items():
            parts = {"alpha": QuatElt.j(p), "beta": PadicScalar.exact(2, p),
                     "b": QuatElt.one(p), "d": QuadElt.exact(0, 1, p), name: part}
            x = U1LieElt(**parts)
            with pytest.raises(PrecisionError):
                x.to_matrix()
            with pytest.raises(PrecisionError):
                cayley(x, (1, 1))

    def test_mixed_primes_refused(self):
        p, q = 3, 5

        def parts(r):
            return {"alpha": QuatElt.j(r), "beta": PadicScalar.exact(2, r),
                    "b": QuatElt.one(r), "d": QuadElt.exact(0, 1, r)}
        for name in ("alpha", "beta", "b", "d"):
            x = U1LieElt(**{**parts(p), name: parts(q)[name]})
            with pytest.raises(InputError, match="mixed primes"):
                x.to_matrix()
            with pytest.raises(InputError, match="mixed primes"):
                cayley(x, (1, 1))


class TestCayleySolve:
    """cayley and cayley_inv write the rows of [1 - s xi M | 1 + s xi M] from
    the integer coordinates of M; they must equal the composition through
    QuatElt matrices coordinate for coordinate."""

    def test_matches_the_quaternion_matrix_composition(self):
        rng = random.Random(97)
        forward = inverse = undefined = 0
        for p in (3, 5, 7):
            for dens in ((1,), (1, 2, p, p * p, 3 * p)):
                for _ in range(6):
                    x = rand_lie(rng, p, dens)
                    for xi in XI_CHOICES:
                        g = cayley(x, xi)
                        want = reference_cayley(x, xi)
                        assert coords(g.M) == coords(want)
                        forward += 1
                        for xj in XI_CHOICES:
                            try:
                                want = reference_cayley_inv(g, xj)
                            except CayleyUndefinedError:
                                with pytest.raises(CayleyUndefinedError):
                                    cayley_inv(g, xj)
                                undefined += 1
                                continue
                            assert lie_coords(cayley_inv(g, xj)) == lie_coords(want)
                            inverse += 1
        assert forward == 144 and inverse >= 500 and undefined >= 1

    def test_lie_shape_refusals_match_the_reference(self):
        """cayley_inv reads its two refusals off the integer solution.  The
        group elements are seeded and not unitary: a random matrix, and
        forward transforms (1 + Z)(1 - Z)^{-1} of matrices Z with beta = Z10
        in F0 and d = Z22 with or without a j-part, whose inverse in the
        chart (1, 1) is Z."""
        rng = random.Random(101)
        outcomes = {"beta not in F0": 0, "d not in F": 0, "lie": 0}
        for k in range(90):
            p = (3, 5, 7)[k % 3]
            Z = rand_system_matrix(rng, p)
            if k % 3:
                Z[1][0] = QuatElt(QuadElt.exact(rand_coord(rng, p), 0, p), QuadElt.zero(p))
                if k % 3 == 2:
                    Z[2][2] = QuatElt(Z[2][2].x, QuadElt.zero(p))
                I = quat_identity(p)
                try:
                    M = quat_mat_solve(mat_sub(I, Z), mat_add(I, Z))
                except CayleyUndefinedError:
                    continue
            else:
                M = Z
            g = U1GroupElt.from_matrix(M)
            for xi in XI_CHOICES:
                try:
                    want = lie_coords(reference_cayley_inv(g, xi))
                except CayleyUndefinedError:
                    with pytest.raises(CayleyUndefinedError):
                        cayley_inv(g, xi)
                    continue
                except InputError as err:
                    with pytest.raises(InputError) as got:
                        cayley_inv(g, xi)
                    assert str(got.value) == str(err)
                    outcomes[str(err).split(": ")[1]] += 1
                    continue
                assert lie_coords(cayley_inv(g, xi)) == want
                outcomes["lie"] += 1
        assert min(outcomes.values()) >= 30

    def test_inverse_builds_only_the_lie_coordinates(self, monkeypatch):
        """One cayley_inv builds 11 scalars: alpha 4, beta 1, b 4 and d 2."""
        rng = random.Random(103)
        groups = [cayley(rand_lie(rng, p, (1, 2, p)), xi)
                  for p in (3, 5, 7) for xi in XI_CHOICES]
        made = _count_scalars(monkeypatch)
        inverses = 0
        for g in groups:
            for xi in XI_CHOICES:
                made[0] = 0
                try:
                    cayley_inv(g, xi)
                except CayleyUndefinedError:
                    continue
                assert made[0] == 11
                inverses += 1
        assert inverses >= 40

    def test_inverse_leaves_the_rows_of_the_element_as_they_are(self):
        # the solve writes the diagonal 1 into new rows, never into the rows
        # the element holds, so a second inverse reads what the first did
        rng = random.Random(107)
        for p in (3, 5, 7):
            x = rand_lie(rng, p, (1, 2, p))
            for xi in XI_CHOICES:
                g = cayley(x, xi)
                rows = copy.deepcopy(g._rows)
                first = lie_coords(cayley_inv(g, xi))
                assert lie_coords(cayley_inv(g, xi)) == first == lie_coords(x)
                assert g._rows == rows

    def test_singular_chart_raises(self):
        # cayley(0) in the chart (1, 1) is the identity, and 1 + xi^{-1} g
        # vanishes in the chart (-1, -1)
        p = 5
        zero = U1LieElt(QuatElt.zero(p), PadicScalar.exact(0, p), QuatElt.zero(p),
                        QuadElt.zero(p))
        g = cayley(zero, (1, 1))
        with pytest.raises(CayleyUndefinedError):
            cayley_inv(g, (-1, -1))
        with pytest.raises(CayleyUndefinedError):
            reference_cayley_inv(g, (-1, -1))

    def test_capped_entry_raises_precision_error(self):
        p = 5
        c = PadicScalar.exact(Fraction(3, 5), p).to_capped(6)
        b = QuatElt(QuadElt(c, PadicScalar.exact(0, p)), QuadElt.zero(p))
        x = U1LieElt(QuatElt.zero(p), PadicScalar.exact(1, p), b, QuadElt.zero(p))
        with pytest.raises(PrecisionError):
            cayley(x, (1, 1))
        M = cayley(U1LieElt(QuatElt.zero(p), PadicScalar.exact(1, p), QuatElt.one(p),
                            QuadElt.zero(p)), (1, 1)).M
        M[1][2] = b
        with pytest.raises(PrecisionError):
            cayley_inv(U1GroupElt.from_matrix(M), (1, 1))

    def test_mixed_primes_refused(self):
        # j^2 = 2 at p = 3 and p = 5, so only the prime tells the entries apart
        M = quat_identity(3)
        M[2][1] = QuatElt(QuadElt.exact(1, 1, 5), QuadElt.exact(0, 1, 5))
        for xi in XI_CHOICES:
            with pytest.raises(InputError):
                cayley_inv(U1GroupElt.from_matrix(M), xi)


def _admissible(g, xi):
    try:
        return cayley_inv(g, xi).is_integral()
    except CayleyUndefinedError:
        return False


def reference_solve(A, B):
    """Generic Gauss-Jordan over D: left-multiplying row operations, the
    pivot of least v_D, QuatElt arithmetic throughout.  quat_mat_solve must
    agree with it exactly on exact entries."""
    n = len(A)
    M = [row[:] for row in A]
    R = [row[:] for row in B]
    for col in range(n):
        piv = None
        best = None
        for r in range(col, n):
            if not M[r][col].is_zero():
                v = v_d(M[r][col])
                if piv is None or v < best:
                    piv, best = r, v
        if piv is None:
            raise CayleyUndefinedError("singular matrix over D")
        M[col], M[piv] = M[piv], M[col]
        R[col], R[piv] = R[piv], R[col]
        inv = quat_inv(M[col][col])
        M[col] = [inv * x for x in M[col]]
        R[col] = [inv * x for x in R[col]]
        for r in range(n):
            if r == col or M[r][col].is_zero():
                continue
            f = M[r][col]
            M[r] = [a - f * b for a, b in zip(M[r], M[col])]
            R[r] = [a - f * b for a, b in zip(R[r], R[col])]
    return R


def rand_system_quat(rng, p):
    """Exact entries: often zero, often a coordinate with p in the
    denominator."""
    if rng.random() < 0.15:
        return QuatElt.zero(p)

    def coord():
        if rng.random() < 0.3:
            return 0
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, p, p * p, 3 * p)))
    return QuatElt(QuadElt.exact(coord(), coord(), p),
                   QuadElt.exact(coord(), coord(), p))


def rand_system_matrix(rng, p):
    return [[rand_system_quat(rng, p) for _ in range(3)] for _ in range(3)]


def coords(M):
    return [[[s.rational for s in (z.x.a, z.x.b, z.y.a, z.y.b)] for z in row]
            for row in M]


class TestQuatMatSolve:
    def test_matches_reference(self):
        rng = random.Random(71)
        solved = swapped = 0
        for k in range(240):
            p = (3, 5, 7)[k % 3]
            A = rand_system_matrix(rng, p)
            if k % 4 == 0:
                A[0][0] = QuatElt.zero(p)
                swapped += 1
            B = quat_identity(p) if k % 5 == 0 else rand_system_matrix(rng, p)
            try:
                want = reference_solve(A, B)
            except CayleyUndefinedError:
                with pytest.raises(CayleyUndefinedError):
                    quat_mat_solve(A, B)
                continue
            assert coords(quat_mat_solve(A, B)) == coords(want)
            solved += 1
        assert solved >= 200 and swapped >= 50

    def test_singular_raises_in_both(self):
        rng = random.Random(73)
        for k in range(30):
            p = (3, 5, 7)[k % 3]
            rows = rand_system_matrix(rng, p)[:2]
            q, s = rand_system_quat(rng, p), rand_system_quat(rng, p)
            # a left combination of the other two rows
            rows.append([q * a + s * b for a, b in zip(*rows)])
            A = rows[k % 3:] + rows[:k % 3]
            if k % 5 == 0:
                for row in A:
                    row[k % 3] = QuatElt.zero(p)
            B = rand_system_matrix(rng, p)
            for solve in (reference_solve, quat_mat_solve):
                with pytest.raises(CayleyUndefinedError):
                    solve(A, B)

    def test_capped_entry_raises_typed_error(self):
        p = 5
        c = PadicScalar.exact(Fraction(3, 5), p).to_capped(6)
        capped = QuatElt(QuadElt(c, PadicScalar.exact(0, p)), QuadElt.zero(p))
        for side in (0, 1):
            A, B = quat_identity(p), quat_identity(p)
            (A, B)[side][1][2] = capped
            with pytest.raises(PrecisionError) as err:
                quat_mat_solve(A, B)
            assert isinstance(err.value, AtlasError)

    def test_eliminate_matches_the_full_row_update(self):
        """_eliminate multiplies only the pivot row's nonzero columns past
        the pivot; the rows must be those of the full-row update, on systems
        with zero entries and zero columns, with a row swap, and singular."""
        rng = random.Random(83)
        solved = singular = swapped = zero_cols = 0
        for k in range(360):
            p = (3, 5, 7)[k % 3]
            e = smallest_nonresidue(p)

            def entry():
                if rng.random() < 0.15:
                    return (0, 0, 0, 0)
                return tuple(rng.choice((0, rng.randint(-9, 9), rng.randint(-9, 9)))
                             for _ in range(4))
            rows = [[entry() for _ in range(6)] for _ in range(3)]
            if k % 4 == 0:
                rows[0][0] = (0, 0, 0, 0)
            if k % 5 == 0:
                j = rng.randrange(1, 6)
                for row in rows:
                    row[j] = (0, 0, 0, 0)
            if k % 6 == 0:
                # a left combination of the other two rows
                q, s = entry(), entry()
                rows[2] = [tuple(a + b for a, b in zip(padic._int_quat_mul(q, x, p, e),
                                                      padic._int_quat_mul(s, y, p, e)))
                           for x, y in zip(rows[0], rows[1])]
            rows = [padic._primitive(row) for row in rows]
            got = padic._eliminate(rows, p, e)
            assert got == reference_eliminate(rows, p, e)
            zero_cols += any(not any(any(row[j]) for row in rows) for j in range(1, 6))
            if got is None:
                singular += 1
                continue
            solved += 1
            swapped += not any(rows[0][0])
        assert solved >= 200 and singular >= 60 and swapped >= 60 and zero_cols >= 60

    def test_elimination_leaves_primitive_diagonal_rows(self):
        """Every eliminated row is divided by its content; without that each
        row would carry the pivot norms as a common factor."""
        rng = random.Random(79)
        for k in range(60):
            p = (3, 5, 7)[k % 3]
            e = smallest_nonresidue(p)
            rows = [[tuple(rng.randint(-9, 9) for _ in range(4)) for _ in range(6)]
                    for _ in range(3)]
            rows = padic._eliminate(rows, p, e)
            if rows is None:
                continue
            for i, row in enumerate(rows):
                assert all(not any(row[j]) for j in range(3) if j != i)
                assert any(row[i])
                assert math.gcd(*(t for q in row for t in q)) == 1


def reference_eliminate(aug, p, e):
    """The fraction-free Gauss-Jordan of `padic._eliminate` with the
    full-row update: every entry of row r becomes
    N(P) x - (f conj(P)) y, the cleared columns included."""
    rows = list(aug)
    n = len(rows)
    for col in range(n):
        piv = next((r for r in range(col, n) if any(rows[r][col])), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        prow = rows[col]
        a, b, c, d = prow[col]
        norm = padic._int_nrd(prow[col], p, e)
        pconj = (a, -b, -c, -d)
        for r in range(n):
            f = rows[r][col]
            if r == col or not any(f):
                continue
            g = padic._int_quat_mul(f, pconj, p, e)
            rows[r] = padic._primitive([
                tuple(norm * s - t for s, t in zip(x, padic._int_quat_mul(g, y, p, e)))
                for x, y in zip(rows[r], prow)])
    return rows


# the representative matrices in the reduced anti-hermitian space, of which
# orbit_reps keeps only the tags: the reference that each tag names an orbit
# over its base point

def nilpotent_family_member(mu, p: int) -> SRedElt:
    """n(mu) = pi [[0, mu, 1], [0, 0, 0], [0, 1, 0]]."""
    mu = _ps(Fraction(mu), p) if not isinstance(mu, PadicScalar) else mu
    zero, one = _ps(0, p), _ps(1, p)
    return SRedElt([[zero, mu, one], [zero, zero, zero], [zero, one, zero]])


def regular_nilpotent(sign: int, p: int) -> SRedElt:
    z = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    if sign < 0:
        z = [list(r) for r in zip(*z)]
    return s_red_exact(z, p)


def reference_orbit_reps(x0: BPoint) -> dict:
    """{tag: representative} over a degenerate base point; the family n_mu
    maps to None, and case 0ii takes the root alpha = padic_sqrt(-lam0/p)."""
    p = x0.p
    c = case_of(x0)

    if c == "zero":
        return {"n_mu": None, "n0_plus": regular_nilpotent(+1, p),
                "n0_minus": regular_nilpotent(-1, p)}

    if c == "1":
        lam0, u0, wt0 = x0.lam, x0.u, x0.wtilde
        alpha = wt0 / u0
        zero, one = _ps(0, p), _ps(1, p)
        y_plus = SRedElt([[alpha, zero, one], [one, -alpha, zero], [u0, zero, zero]])
        y_minus = SRedElt([[alpha, one, one], [zero, -alpha, zero], [u0, zero, zero]])
        return {"y_plus": y_plus, "y_minus": y_minus}

    lam0 = x0.lam
    zero, one = _ps(0, p), _ps(1, p)
    if c in ("0i", "split"):
        mlam = -(lam0 / p)
        y0 = SRedElt([[zero, mlam, zero], [one, zero, zero], [zero, zero, zero]])
        y_plus = SRedElt([[zero, mlam, one], [one, zero, zero], [zero, zero, zero]])
        y_minus = SRedElt([[zero, mlam, zero], [one, zero, zero], [one, zero, zero]])
        return {"y0": y0, "y_plus": y_plus, "y_minus": y_minus}

    # case 0ii: diagonalizable shapes with alpha^2 = -lam0/p
    alpha = padic_sqrt(-(lam0 / p))
    y0 = SRedElt([[alpha, zero, zero], [zero, -alpha, zero], [zero, zero, zero]])
    y_pp = SRedElt([[alpha, zero, one], [zero, -alpha, one], [zero, zero, zero]])
    y_pm = SRedElt([[alpha, zero, one], [zero, -alpha, zero], [zero, one, zero]])
    y_mm = SRedElt([[alpha, zero, zero], [zero, -alpha, zero], [one, one, zero]])
    y_mp = SRedElt([[alpha, zero, zero], [zero, -alpha, one], [one, zero, zero]])
    return {"y0": y0, "y_pp": y_pp, "y_pm": y_pm, "y_mm": y_mm, "y_mp": y_mp}


def _lies_over(y: SRedElt, x0: BPoint) -> bool:
    """Whether y has the invariants of x0, compared exactly."""
    iv = y.invariants()
    return (iv.lam.rational, iv.u.rational, iv.wtilde.rational) == (
        x0.lam.rational, x0.u.rational, x0.wtilde.rational)


class TestOrbitReps:
    @pytest.mark.parametrize("case, tags", [
        ("zero", ("n_mu", "n0_plus", "n0_minus")),
        ("0i", ("y0", "y_plus", "y_minus")),
        ("split", ("y0", "y_plus", "y_minus")),
        ("0ii", ("y0", "y_pp", "y_pm", "y_mm", "y_mp")),
        ("1", ("y_plus", "y_minus")),
    ])
    def test_tags_of_each_case(self, case, tags):
        assert orbit_reps(case) == tags

    def test_unknown_case_is_an_input_error(self):
        with pytest.raises(InputError, match="unknown case"):
            orbit_reps("0iii")

    @pytest.mark.parametrize("x0", [(0, 0, 0, 3), (1, 0, 0, 3), (-4, 0, 0, 5),
                                    (-20, 0, 0, 5), (-30, 0, 0, 5), (-21, 0, 0, 3),
                                    (-3, 1, 1, 3), (-27, 1, 3, 3)])
    def test_tags_name_the_reference_representatives(self, x0):
        x0 = BPoint.exact(*x0)
        assert tuple(reference_orbit_reps(x0)) == orbit_reps(case_of(x0))

    def test_zero_base_point(self):
        x0 = BPoint.exact(0, 0, 0, 3)
        reps = reference_orbit_reps(x0)
        assert tuple(reps) == orbit_reps(case_of(x0)) == ("n_mu", "n0_plus", "n0_minus")
        for tag in ("n0_plus", "n0_minus"):
            assert _lies_over(reps[tag], x0)
        for mu in (0, 1, Fraction(1, 3)):
            n = nilpotent_family_member(mu, 3)
            iv = n.invariants()
            assert iv.lam.is_exact_zero() and iv.u.is_exact_zero() \
                and iv.wtilde.is_exact_zero()

    def test_case_0ii_four_reps(self):
        p = 5
        x0 = BPoint.exact(-5 * 4, 0, 0, p)   # -lam/p = 4 a square
        assert case_of(x0) == "0ii"
        reps = reference_orbit_reps(x0)
        assert tuple(reps) == orbit_reps("0ii") == ("y0", "y_pp", "y_pm", "y_mm", "y_mp")
        for y in reps.values():
            assert _lies_over(y, x0)

    @pytest.mark.parametrize("x0", [(-30, 0, 0, 5), (-21, 0, 0, 3), (-77, 0, 0, 7)])
    def test_case_0ii_irrational_root(self, x0):
        # alpha is a capped root, so lam agrees to its precision and u, wt
        # are exact zeros
        x0 = BPoint.exact(*x0)
        assert case_of(x0) == "0ii"
        for y in reference_orbit_reps(x0).values():
            assert not y.z[0][0].is_exact
            iv = y.invariants()
            assert iv.lam.same_value(x0.lam)
            assert iv.u.is_exact_zero() or iv.u.is_zero_at_precision()
            assert iv.wtilde.is_exact_zero() or iv.wtilde.is_zero_at_precision()

    def test_case_0i_reps(self):
        for x0 in (BPoint.exact(1, 0, 0, 3), BPoint.exact(Fraction(5, 7), 0, 0, 5)):
            assert case_of(x0) == "0i"
            for y in reference_orbit_reps(x0).values():
                assert _lies_over(y, x0)

    def test_case_1_two_reps(self):
        p = 3
        x0 = BPoint.exact(-3, 1, 1, p)
        assert case_of(x0) == "1"
        reps = reference_orbit_reps(x0)
        assert tuple(reps) == orbit_reps("1") == ("y_plus", "y_minus")
        for y in reps.values():
            assert _lies_over(y, x0)

    def test_split_flagged(self):
        # the split case keeps the tags of case 0i; the exclusion is checked
        # by in_side1_closure and by the plan, which every comparison reads
        p = 5
        x0 = BPoint.exact(-4, 0, 0, p)
        assert case_of(x0) == "split"
        assert orbit_reps("split") == orbit_reps("0i")
        assert not in_side1_closure(x0, "split")
        plan = BasePointPlan(x0)      # built whole, with no forced value
        assert plan.case == "split" and plan.forced == {}
        with pytest.raises(ExcludedCaseError):
            plan.usable_case()

    def test_rs_base_point_rejected(self):
        # a point with Delta != 0 has no case, hence no orbit tags
        with pytest.raises(NotRegularSemisimpleError):
            case_of(BPoint.exact(1, 1, 0, 5))

    def test_u0_reps(self):
        p = 3
        n = u0_nilpotent_family_member(2, p)
        iv = n.invariants()
        assert iv.lam.is_exact_zero() and iv.u.is_exact_zero() \
            and iv.wtilde.is_exact_zero()
        x1 = BPoint.exact(-3, 1, 1, p)
        y = u0_ss_case1(x1)
        assert all(s.val() >= 0 for s in (y.a1, y.a2, y.a3))
        assert y.b1.is_integral() and y.b2.is_integral()
        iv = y.invariants()
        assert iv.lam.same_value(x1.lam) and iv.u.same_value(x1.u) \
            and iv.wtilde.same_value(x1.wtilde)

    def test_case1_representative_hits_its_base_point(self):
        # seeded degenerate points (lam0, u0, wt0), u0 != 0 and Delta = 0,
        # integral or not: the invariants of every representative are x0
        rng = random.Random(2401)
        for _ in range(1200):
            p = rng.choice((3, 5, 7, 11))

            def coord():
                return Fraction(rng.choice((-1, 1)) * rng.randrange(1, p * p),
                                rng.randrange(1, p * p)) * Fraction(p) ** rng.randint(-2, 5)
            u0, wt0 = coord(), rng.choice((0, coord(), coord()))
            x0 = BPoint.exact(-wt0 * wt0 * p / (u0 * u0), u0, wt0, p)
            iv = u0_ss_case1(x0).invariants()
            assert (iv.lam, iv.u, iv.wtilde) == (x0.lam, x0.u, x0.wtilde), x0

    @pytest.mark.parametrize("coords, error", [
        ((1, 1, 0), "Delta = 1, not 0"), ((9, 1, 0), "Delta = 9, not 0"),
        ((0, 1, 1), "Delta = 3, not 0"), ((3, 0, 0), "u0 must be nonzero")])
    def test_case1_refuses_a_point_off_the_degenerate_locus(self, coords, error):
        with pytest.raises(InputError, match=error):
            u0_ss_case1(BPoint.exact(*coords, 3))


class TestClosure:
    def test_case_0i_parity_by_prime(self):
        # odd-valuation non-split base points only accumulate side-1 points
        # when -1 is a square
        x3 = BPoint.exact(2 * 3, 0, 0, 3)
        if case_of(x3) == "0i":
            assert not in_side1_closure(x3, "0i")
        found = False
        for c in range(1, 5):
            x5 = BPoint.exact(c * 5, 0, 0, 5)
            if case_of(x5) == "0i" and in_side1_closure(x5, "0i"):
                found = True
        assert found
