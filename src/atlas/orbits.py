"""Elements of the three reduced spaces (anti-hermitian matrices, and the two
unitary Lie algebras), their common invariants (lambda, u, w), sections of the
invariant map, Cayley transforms, and the cases of degenerate base points of
the quotient with the tags of the orbits over each."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (CayleyUndefinedError, ExcludedCaseError, InputError,
                     NotRegularSemisimpleError, UnrealizableError)
from .padic import (_FR_ZERO, INF, PadicScalar, QuadElt, QuatElt,
                    _check_odd_prime, _int_coords, _int_nrd, _int_quat_mul,
                    _int_rows, _int_val, _one_prime, _over_lcm, _primitive,
                    _quat_matrix, _quat_of_ints, _rationals, _solve_rows,
                    cayley_solve, legendre, smallest_nonresidue, val)


def _ps(x, p: int) -> PadicScalar:
    if isinstance(x, PadicScalar):
        return x
    return PadicScalar.exact(x, p)


def _rational_sqrt(x: Fraction):
    """Exact square root of a rational, or None."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# generic small-matrix helpers (entries: PadicScalar, QuadElt, or QuatElt)

def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def det2(A):
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def quat_identity(p: int, n: int = 3):
    one, zero = QuatElt.one(p), QuatElt.zero(p)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def quat_mat_solve(A, B):
    """Z with A Z = B over the quaternion division algebra, for a square A and
    exact QuatElt entries; CayleyUndefinedError when A is singular.  Each row
    of [A | B] is multiplied by the lcm of its denominators, a central factor
    that leaves Z unchanged, to integer coordinates (`padic._int_rows`) and
    divided by their content; `padic._solve_rows` eliminates, and every
    entry of Z is built from its integer solution.  A capped entry raises
    PrecisionError."""
    p, rows = _int_rows([(*ra, *rb) for ra, rb in zip(A, B)])
    Z = _solve_rows([_primitive(row) for _, row in rows], p, [1] * len(rows))
    if Z is None:
        raise CayleyUndefinedError("singular matrix over D")
    return _quat_matrix(Z, p)


# ---------------------------------------------------------------------------
# the invariant quotient


@dataclass(frozen=True, slots=True)
class BPoint:
    """A point (lambda, u, wtilde) of the reduced quotient, where the third
    invariant is w = wtilde * pi and the rescaled discriminant is
    Delta = lambda u^2 + wtilde^2 p."""

    lam: PadicScalar
    u: PadicScalar
    wtilde: PadicScalar

    @classmethod
    def exact(cls, lam, u, wtilde, p: int) -> "BPoint":
        """The point with the given rational coordinates: one Fraction per
        coordinate and one check of p, made after lam is parsed and before u
        and wtilde are, as one PadicScalar.exact per coordinate would."""
        lam = Fraction(lam)
        _check_odd_prime(p)
        return cls(PadicScalar(p, _fr=lam), PadicScalar(p, _fr=Fraction(u)),
                   PadicScalar(p, _fr=Fraction(wtilde)))

    @property
    def p(self) -> int:
        return self.lam.p

    def delta(self) -> PadicScalar:
        return self.lam * self.u * self.u + self.wtilde * self.wtilde * self.p

    def is_rs(self) -> bool:
        return not self.delta().is_zero_at_precision()

    def side(self) -> int:
        """0 or 1 according to the sign of eta(-Delta)."""
        d = self.delta()
        if d.is_zero_at_precision():
            raise NotRegularSemisimpleError("not regular semisimple: Delta = 0")
        return 0 if (-d).eta() == 1 else 1

    def is_integral(self) -> bool:
        return self.lam.val() >= 0 and self.u.val() >= 0 and self.wtilde.val() >= 0

    def ml_params(self):
        """(m, l_minus, l_plus) with m = v(u), l_plus = v_F(w) - 2m, and
        l_minus = v(Delta) - 2m; requires an integral side-1 point.

        v(lam) is not returned: it is min(l_minus, l_plus) whenever
        l_minus != l_plus.  The terms of Delta = lam u^2 + wt^2 p have
        valuations v(lam) + 2m and l_plus + 2m, so l_minus = min(v(lam),
        l_plus) unless v(lam) = l_plus, and then l_minus >= l_plus."""
        if not self.is_integral():
            raise UnrealizableError("ml_params requires an integral point")
        if self.u.is_exact_zero():
            raise UnrealizableError("m undefined (r=0 locus)")
        if self.side() != 1:
            raise UnrealizableError("ml_params requires a side-1 point")
        m = self.u.val()
        if self.wtilde.is_exact_zero():
            lp = INF
        else:
            lp = 2 * self.wtilde.val() + 1 - 2 * m
        return m, self.delta().val() - 2 * m, lp

    def __repr__(self):
        return f"BPoint(lam={self.lam!r}, u={self.u!r}, wt={self.wtilde!r})"


# ---------------------------------------------------------------------------
# anti-hermitian matrices y = pi * z, z over F0


class SRedElt:
    """Reduced element y = pi*z with z a 3x3 matrix over F0, tr(A-block) = 0
    and lower-right entry 0."""

    __slots__ = ("z",)

    def __init__(self, z):
        p = z[0][0].p
        tr = z[0][0] + z[1][1]
        if not tr.is_zero_at_precision():
            raise InputError("not reduced: tr A != 0")
        if not z[2][2].is_zero_at_precision():
            raise InputError("not reduced: d != 0")
        self.z = z

    @property
    def p(self) -> int:
        return self.z[0][0].p

    def a_block(self):
        z = self.z
        return [[z[0][0], z[0][1]], [z[1][0], z[1][1]]]

    def b_col(self):
        return [self.z[0][2], self.z[1][2]]

    def c_row(self):
        return [self.z[2][0], self.z[2][1]]

    def invariants(self) -> BPoint:
        A, b, c = self.a_block(), self.b_col(), self.c_row()
        lam = det2(A) * self.p
        u = c[0] * b[0] + c[1] * b[1]
        wt = ((c[0] * A[0][0] + c[1] * A[1][0]) * b[0]
              + (c[0] * A[0][1] + c[1] * A[1][1]) * b[1])
        return BPoint(lam, u, wt)

    def __repr__(self):
        return f"SRedElt({self.z!r})"


# ---------------------------------------------------------------------------
# the quasi-split unitary Lie algebra (5 coordinates)


class U0RedElt:
    """Reduced element of the quasi-split unitary Lie algebra:
    [[a1, a2, b1], [a3, -a1, b2], [conj(b2) pi, -conj(b1) pi, 0]]
    with a1, a2, a3 in F0 and b1, b2 in F.

    The element reads its seven rational coordinates when it is built, and
    the invariants and the Iwasawa oracle read the matrix as the two
    rational parts it keeps (`parts`), so neither reads a coordinate again
    or builds a QuadElt.  Mixed primes raise InputError (`_one_prime`), a
    capped coordinate PrecisionError (`PadicScalar.rational`)."""

    __slots__ = ("a1", "a2", "a3", "b1", "b2", "_parts")

    def __init__(self, a1, a2, a3, b1: QuadElt, b2: QuadElt):
        coords = (a1, a2, a3, b1.a, b1.b, b2.a, b2.b)
        p = _one_prime(coords)
        r1, r2, r3, x1, y1, x2, y2 = (s.rational for s in coords)
        self.a1 = a1
        self.a2 = a2
        self.a3 = a3
        self.b1 = b1
        self.b2 = b2
        self._parts = (p, ((r1, r2, x1), (r3, -r1, x2), (-p * y2, p * y1, 0)),
                       ((0, 0, y1), (0, 0, y2), (x2, -x1, 0)))

    @classmethod
    def exact(cls, a1, a2, a3, b1, b2, p: int) -> "U0RedElt":
        def q(x):
            if isinstance(x, QuadElt):
                return x
            return QuadElt.exact(Fraction(x), 0, p)
        return cls(_ps(Fraction(a1), p), _ps(Fraction(a2), p), _ps(Fraction(a3), p),
                   q(b1), q(b2))

    @property
    def p(self) -> int:
        return self._parts[0]

    def parts(self):
        """(p, R, S): the matrix is R + S pi, with b_i = x_i + y_i pi and the
        rational matrices R = [[a1, a2, x1], [a3, -a1, x2], [-p y2, p y1, 0]]
        and S = [[0, 0, y1], [0, 0, y2], [x2, -x1, 0]], as read when the
        element was built."""
        return self._parts

    def invariants(self) -> BPoint:
        return u0_invariants(*self.parts())

    def __repr__(self):
        return (f"U0RedElt(a1={self.a1!r}, a2={self.a2!r}, a3={self.a3!r}, "
                f"b1={self.b1!r}, b2={self.b2!r})")


def u0_invariants(p: int, R, S) -> BPoint:
    """The invariants of the U0RedElt whose parts (`U0RedElt.parts`) are
    (p, R, S), from its rational coordinates: lam = -(a1^2 + a2 a3),
    u = 2 pi-part(conj(b2) b1) = 2 (x2 y1 - y2 x1) and
    wtilde = (2 a1 (conj(b2) b1).a + a2 N(b2) - a3 N(b1)) / p
    = (2 a1 (x1 x2 - p y1 y2) + a2 (x2^2 - p y2^2) - a3 (x1^2 - p y1^2)) / p."""
    (a1, a2, x1), (a3, _, x2), _ = R
    y1, y2 = S[0][2], S[1][2]
    wt = (2 * a1 * (x1 * x2 - p * y1 * y2) + a2 * (x2 * x2 - p * y2 * y2)
          - a3 * (x1 * x1 - p * y1 * y1)) / p
    return BPoint(PadicScalar(p, _fr=-(a1 * a1 + a2 * a3)),
                  PadicScalar(p, _fr=2 * (x2 * y1 - y2 * x1)), PadicScalar(p, _fr=wt))


# ---------------------------------------------------------------------------
# the non-split unitary Lie algebra (quaternion coordinates)


class U1RedElt:
    """Reduced element stored in (alpha, b) coordinates: alpha a traceless
    quaternion, b a quaternion.

    The invariants and the rs test read the conjugate b^-1 alpha b, which
    the element computes when it is built, on integer coordinates: with
    alpha = A / den_a and b = B / den_b (`padic._int_coords`),
    b^-1 alpha b = P / (N(B) den_a) for P = conj(B) A B, so no quaternion
    inverse and no Fraction product is built.  A non-traceless alpha or
    mixed primes (`_one_prime`) raise InputError, a capped coordinate
    PrecisionError (`PadicScalar.rational`)."""

    __slots__ = ("alpha", "b", "_conj")

    def __init__(self, alpha: QuatElt, b: QuatElt):
        tr = alpha.trd()
        if not tr.is_zero_at_precision():
            raise InputError("alpha must be traceless")
        p = _one_prime((alpha, b))
        (den_a, A), (den_b, B) = _int_coords(alpha), _int_coords(b)
        e = smallest_nonresidue(p)
        a0, b0, c0, d0 = B
        P = _int_quat_mul(_int_quat_mul((a0, -b0, -c0, -d0), A, p, e), B, p, e)
        self.alpha = alpha
        self.b = b
        # (den_a, N(A), den_b, N(B), P)
        self._conj = (den_a, _int_nrd(A, p, e), den_b, _int_nrd(B, p, e), P)

    @property
    def p(self) -> int:
        return self.alpha.p

    def invariants(self) -> BPoint:
        """lambda = Nrd(alpha) = N(A) / den_a^2, u = 2 Nrd(b) = 2 N(B) / den_b^2
        and w = u * plus(b^-1 alpha b), whose pi-coefficient is
        wtilde = 2 P_b / (den_b^2 den_a); u = wtilde = 0 when b = 0."""
        p = self.p
        den_a, na, den_b, nb, P = self._conj
        lam = PadicScalar(p, _fr=Fraction(na, den_a * den_a))
        if not nb:
            return BPoint(lam, PadicScalar(p, _fr=_FR_ZERO), PadicScalar(p, _fr=_FR_ZERO))
        dd = den_b * den_b
        return BPoint(lam, PadicScalar(p, _fr=Fraction(2 * nb, dd)),
                      PadicScalar(p, _fr=Fraction(2 * P[1], dd * den_a)))

    def is_rs(self) -> bool:
        """b != 0 and b^-1 alpha b has a nonzero j-part (P_c, P_d)."""
        _, _, _, nb, P = self._conj
        return nb != 0 and (P[2] != 0 or P[3] != 0)

    def is_integral(self) -> bool:
        return self.alpha.is_integral() and self.b.is_integral()

    def __repr__(self):
        return f"U1RedElt(alpha={self.alpha!r}, b={self.b!r})"


def _lie_rows(p: int, alpha, beta, b, d0, d1):
    """(p, rows): the integer rows of the Lie matrix
    [[alpha, beta p, b pi], [beta, alpha, b], [pi conj(b), conj(b) p, d]]
    with d = d0 + d1 pi, in the shape of `padic._int_rows`, from the
    rational coordinates (`padic._rationals`) of alpha and b and the
    rationals beta, d0 and d1, over one denominator (`padic._over_lcm`).
    No quaternion product is taken: with b = (b0, b1, b2, b3),
    b pi = (p b1, b0, -p b3, -b2), pi conj(b) = (-p b1, b0, -p b3, -b2) and
    conj(b) p = p (b0, -b1, -b2, -b3)."""
    den, c = _over_lcm((*alpha, beta, *b, d0, d1))
    al, be, (b0, b1, b2, b3) = c[:4], c[4], c[5:9]
    return p, [(den, [al, (p * be, 0, 0, 0), (p * b1, b0, -p * b3, -b2)]),
               (den, [(be, 0, 0, 0), al, (b0, b1, b2, b3)]),
               (den, [(-p * b1, b0, -p * b3, -b2), (p * b0, -p * b1, -p * b2, -p * b3),
                      (c[9], c[10], 0, 0)])]


class U1LieElt:
    """Full element of the non-split unitary Lie algebra, in coordinates
    (alpha, beta, b, d): the matrix
    [[alpha, beta p, b pi], [beta, alpha, b], [pi conj(b), conj(b) p, d]]
    with alpha traceless in D, beta in F0, b in D, d traceless in F.  The
    matrix is written once, in integer coordinates (`rows`)."""

    __slots__ = ("alpha", "beta", "b", "d")

    def __init__(self, alpha: QuatElt, beta: PadicScalar, b: QuatElt, d: QuadElt):
        self.alpha = alpha
        self.beta = beta
        self.b = b
        self.d = d

    @property
    def p(self) -> int:
        return self.alpha.p

    def rows(self):
        """The integer rows (p, rows) of the matrix (`_lie_rows`); mixed
        primes raise InputError (`_one_prime`), a capped coordinate
        PrecisionError (`PadicScalar.rational`)."""
        alpha, beta, b, d = self.alpha, self.beta, self.b, self.d
        return _lie_rows(_one_prime((alpha, beta, b, d)), _rationals(alpha),
                         beta.rational, _rationals(b), d.a.rational, d.b.rational)

    def to_matrix(self):
        """The matrix as QuatElt, built from `rows`."""
        p, rows = self.rows()
        return _quat_matrix(rows, p)

    def is_integral(self) -> bool:
        return (self.alpha.is_integral() and self.b.is_integral()
                and self.beta.val() >= 0
                and self.d.is_integral())

    def __repr__(self):
        return (f"U1LieElt(alpha={self.alpha!r}, beta={self.beta!r}, "
                f"b={self.b!r}, d={self.d!r})")


class U1GroupElt:
    """Element of the non-split unitary group in the same matrix presentation,
    with coordinates (alpha, beta, b, c, d): the matrix
    [[alpha, beta p, b pi], [beta, alpha, b], [c, pi c, d]].

    The element is its integer rows (p, rows), rows[i] = (den, [q0, q1, q2])
    with M_ij = q_j / den and den > 0, as `padic.cayley_solve` reads them;
    the entry tests read them, and the nine QuatElt entries are built only
    when `M` is read.  `from_matrix` takes QuatElt entries."""

    __slots__ = ("_rows",)

    def __init__(self, p: int, rows):
        self._rows = (p, rows)

    @classmethod
    def from_matrix(cls, M) -> "U1GroupElt":
        """The element of a QuatElt matrix (`padic._int_rows`): a capped
        entry raises PrecisionError and mixed primes InputError."""
        return cls(*_int_rows(M))

    @property
    def p(self) -> int:
        return self._rows[0]

    @property
    def M(self):
        """The nine entries as QuatElt, built from the rows on each read."""
        p, rows = self._rows
        return _quat_matrix(rows, p)

    def is_integral(self) -> bool:
        """Whether alpha, beta, b, c and the F-part of d are integral: q / den
        is integral when p^v(den) divides the coordinates of q."""
        p, ((n0, (alpha, _, _)), (n1, (beta, _, b)), (n2, (c, _, d))) = self._rows
        k0, k1, k2 = (p ** _int_val(n, p) for n in (n0, n1, n2))
        return not any(x % k for k, xs in ((k0, alpha), (k1, (*beta, *b)),
                                           (k2, (*c, *d[:2]))) for x in xs)

    def __repr__(self):
        return f"U1GroupElt({self.M!r})"


XI_CHOICES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def cayley(x, xi=(1, 1)) -> U1GroupElt:
    """The transform x -> xi (1+x)(1-x)^{-1} into the unitary group, for the
    chart xi = diag(s1, s1, s2), signs s1, s2 = +-1; the two factors commute,
    so one solve (1 - x) Z = 1 + x computes the product, and xi negates the
    rows of Z with sign -1.  The solve reads the integer rows of x
    (`_lie_rows`, with beta = d = 0 for a U1RedElt), and the group element
    is its integer solution, a row of negative norm negated: no scalar."""
    if isinstance(x, U1RedElt):
        p, rows = _lie_rows(x.p, _rationals(x.alpha), 0, _rationals(x.b), 0, 0)
    else:
        p, rows = x.rows()
    s1, s2 = xi
    Z = cayley_solve(p, rows, (1, 1, 1), (s1, s1, s2))
    if Z is None:
        raise CayleyUndefinedError("singular matrix over D")
    return U1GroupElt(p, [(n, ts) if n > 0 else
                          (-n, [(-a, -b, -c, -d) for a, b, c, d in ts]) for n, ts in Z])


def cayley_inv(g: U1GroupElt, xi=(1, 1)) -> U1LieElt:
    """Inverse transform -(1 - h)(1 + h)^{-1}, h = xi^{-1} g = xi g: the
    solve (1 + h) Z = -(1 - h) is the Cayley system of g with row signs
    -xi and every row of the solution negated.  Only the Lie coordinates
    alpha = Z00, beta = Z10, b = Z12 and d = Z22 are built, from their
    integer solution, and the solve reads the rows g holds; InputError when
    beta is not in F0 or d not in F."""
    s1, s2 = xi
    p, rows = g._rows
    Z = cayley_solve(p, rows, (-s1, -s1, -s2), (-1, -1, -1), ((0,), (0, 2), (2,)))
    if Z is None:
        raise CayleyUndefinedError("singular matrix over D")
    (n0, (alpha,)), (n1, (beta, b)), (n2, (d,)) = Z
    if any(beta[1:]):
        raise InputError("matrix not in Lie coordinates: beta not in F0")
    if d[2] or d[3]:
        raise InputError("matrix not in Lie coordinates: d not in F")
    return U1LieElt(_quat_of_ints(p, alpha, n0), PadicScalar(p, _fr=Fraction(beta[0], n1)),
                    _quat_of_ints(p, b, n1),
                    QuadElt(PadicScalar(p, _fr=Fraction(d[0], n2)),
                            PadicScalar(p, _fr=Fraction(d[1], n2))))


def admissible_xi(g: U1GroupElt, xi) -> bool:
    """Whether the chart xi has an integral inverse transform at an integral
    group element: mod the uniformizer the element is block-triangular with
    diagonal (alpha, alpha, d), so 1 + xi^{-1} g is invertible over the
    maximal order exactly when 1 + s1 alpha and 1 + s2 d are units, that is
    nonzero with v_D = 0 (`_one_plus_is_unit`, read off the rows of g)."""
    s1, s2 = xi
    p, ((n0, (alpha, _, _)), _, (n2, (_, _, d))) = g._rows
    return _one_plus_is_unit((n0, alpha), s1, p) and _one_plus_is_unit((n2, d), s2, p)


def _one_plus_is_unit(coords, s: int, p: int) -> bool:
    """Whether 1 + s q is a unit of the maximal order of D, for q with integer
    coordinates (den, (a, b, c, d)) and s = +-1.  1 + s q has the coordinates
    (den + s a, s b, s c, s d) over den, so its
    v_D = min(2 v(a'), 2 v(b') + 1, 2 v(c'), 2 v(d') + 1) - 2 v(den), which is
    0 exactly when p^v(den) divides all four and p^(v(den) + 1) does not
    divide both a' and c' (2 v(b') + 1 and 2 v(d') + 1 are odd)."""
    den, (a, b, c, d) = coords
    a = den + s * a
    pk = p ** _int_val(den, p)
    if a % pk or b % pk or c % pk or d % pk:
        return False
    return (a // pk) % p != 0 or (c // pk) % p != 0


# ---------------------------------------------------------------------------
# sections of the invariant map


def section_sigma(x: BPoint) -> SRedElt:
    """The standard section: z = [[0, -lam/p, 1], [1, 0, 0], [u, wt, 0]]."""
    p = x.p
    zero, one = _ps(0, p), _ps(1, p)
    z = [[zero, -(x.lam / p), one],
         [one, zero, zero],
         [x.u, x.wtilde, zero]]
    return SRedElt(z)


# ---------------------------------------------------------------------------
# classification of degenerate base points and orbit representatives


def case_of(x0: BPoint) -> str:
    """One of 'zero', '0i', '0ii', 'split', '1' for a degenerate base point."""
    d = x0.delta()
    if not d.is_zero_at_precision():
        raise NotRegularSemisimpleError("not a degenerate base point")
    lz = x0.lam.is_exact_zero()
    uz = x0.u.is_exact_zero()
    wz = x0.wtilde.is_exact_zero()
    if lz and uz and wz:
        return "zero"
    if not uz:
        return "1"
    if not wz:
        raise UnrealizableError("u = 0, w != 0 is not a degenerate point")
    if (-x0.lam).is_square():
        return "split"
    if (-(x0.lam / x0.p)).is_square():
        return "0ii"
    return "0i"


def in_side1_closure(x0: BPoint, case: str) -> bool:
    """Whether regular semisimple side-1 points accumulate at x0, whose case
    is case_of(x0)."""
    if not x0.is_integral():
        return False
    if case == "split":
        return False
    if case == "0i":
        return (-x0.lam).eta() == -1
    return True


def orbit_reps(case: str) -> tuple:
    """The tags of the relevant orbits in the fiber over a degenerate base
    point of the given case, in the order the comparison reads them.

    The verdict reads an orbit only through its germ coefficient and its
    transfer-forced value, both dispatched on the tag, so no representative
    is built: n_mu is the nilpotent family at zero, n0_plus and n0_minus
    the two regular nilpotent orbits, and over (lam0, 0, 0) y0 is the
    semisimple orbit.  The split case has the tags of case 0i, and every
    comparison routine rejects it."""
    if case == "zero":
        return ("n_mu", "n0_plus", "n0_minus")
    if case == "1":
        return ("y_plus", "y_minus")
    if case in ("0i", "split"):
        return ("y0", "y_plus", "y_minus")
    if case == "0ii":
        return ("y0", "y_pp", "y_pm", "y_mm", "y_mp")
    raise InputError(f"unknown case {case!r}")


def u0_nilpotent_family_member(beta, p: int) -> U0RedElt:
    """n(beta) = pi [[0, beta pi, 1], [0, 0, 0], [0, pi, 0]] on the
    quasi-split side."""
    beta = Fraction(beta)
    return U0RedElt.exact(0, beta * p, 0, QuadElt.pi(p), 0, p)


def _nonsplit_lam0(lam0, p: int) -> Fraction:
    """lam0 as a Fraction, for a base point (lam0, 0, 0) the semisimple
    values take: InputError for lam0 = 0, the zero orbit, and
    ExcludedCaseError when -lam0 is a square (the split case)."""
    lam0 = Fraction(lam0)
    if lam0 == 0:
        raise InputError("lam0 must be nonzero")
    if PadicScalar.exact(-lam0, p).is_square():
        raise ExcludedCaseError("excluded case: -lam0 is a square")
    return lam0


def check_case1_point(x0: BPoint) -> None:
    """InputError unless x0 = (lam0, u0, wt0) is a base point the case-1
    semisimple values take: u0 != 0 and Delta = lam0 u0^2 + wt0^2 p = 0."""
    if x0.u.is_exact_zero():
        raise InputError("u0 must be nonzero")
    d = x0.delta()
    if not d.is_exact_zero():
        raise InputError(f"not a degenerate base point: Delta = {d}, not 0")


def u0_ss_case0(lam0, p: int) -> U0RedElt:
    """Semisimple representative over (lam0, 0, 0) on the quasi-split side,
    for the lam0 that `_nonsplit_lam0` accepts."""
    return U0RedElt.exact(0, -_nonsplit_lam0(lam0, p), 1, 0, 0, p)


def u0_ss_case1(x0: BPoint) -> U0RedElt:
    """Semisimple representative over a degenerate (lam0, u0, wt0) with
    u0 != 0, built from an eigenvector pair b = (x1, y2*pi) for the symplectic
    invariant and solving the traceless matrix block exactly; InputError
    off that locus (`check_case1_point`).  On it wt0 = 0 forces lam0 = 0."""
    check_case1_point(x0)
    p = x0.p
    u0 = x0.u.rational
    wt0 = x0.wtilde.rational
    # x1 = p^i, 2i the least even number >= lo = 2 v(u0) - v(wt0) (0 if wt0 = 0):
    # the window lo <= 2i <= v(wt0) + 1 of integral a2, a3 is empty only when
    # v(u0) > v(wt0), and then v(lam0) < 0 and the orbit misses the lattice
    lo = 2 * val(u0, p) - val(wt0, p) if wt0 else 0
    x1 = Fraction(p) ** ((lo + lo % 2) // 2)
    y2 = -u0 / (2 * x1)
    a2 = -2 * wt0 * x1 * x1 / (u0 * u0)
    a3 = -p * wt0 / (2 * x1 * x1)
    return U0RedElt.exact(0, a2, a3, QuadElt.exact(x1, 0, p),
                          QuadElt.exact(0, y2, p), p)


# ---------------------------------------------------------------------------
# explicit side-1 points with prescribed (m, l_minus, l_plus)


def check_ml(m: int, lminus: int, lplus) -> None:
    """InputError unless (m, l_minus, l_plus) are side-1 invariants: m >= 0,
    l_minus >= 0, and l_plus odd and positive or infinite.  Every triple that
    passes is realized by make_bpoint_rs1 and read back by ml_params."""
    if m < 0:
        raise InputError(f"conductor level m must be >= 0, got {m}")
    if lminus < 0:
        raise InputError(f"l_minus must be >= 0, got {lminus}")
    if lplus is not INF and (lplus < 1 or lplus % 2 == 0):
        raise InputError(f"l_plus must be odd and positive or infinite, got {lplus}")


def make_bpoint_rs1(m: int, lminus: int, lplus, p: int) -> BPoint:
    """The integral side-1 point with invariants (m, l_minus, l_plus):
    u = p^m, wt = p^((2m + lplus - 1)/2) and lam = d p^lminus - p^lplus
    (wt = 0 and lam = d p^lminus when lplus is infinite), with d the least
    unit in 1..p-1 such that legendre(-d, p) legendre(-1, p)^lminus = -1.

    Then Delta = lam u^2 + wt^2 p = d p^(2m + lminus) exactly, so the side is
    eta(-Delta) = -1 for this d, and half the units qualify.  The point
    round-trips through ml_params: v(u) = m, 2 v(wt) + 1 - 2m = lplus,
    v(Delta) - 2m = lminus, and when lminus != lplus the two terms of lam
    have different valuations, so v(lam) = min(lminus, lplus).  Any other
    triple is an InputError from check_ml."""
    _check_odd_prime(p)
    check_ml(m, lminus, lplus)
    sign = legendre(-1, p) ** (lminus % 2)
    d = next(d for d in range(1, p) if legendre(-d, p) * sign == -1)
    if lplus is INF:
        return BPoint.exact(d * p ** lminus, p ** m, 0, p)
    return BPoint.exact(d * p ** lminus - p ** lplus, p ** m,
                        p ** ((2 * m + lplus - 1) // 2), p)
