"""Elements of the three reduced spaces (anti-hermitian matrices, and the two
unitary Lie algebras), their common invariants (lambda, u, w), sections of the
invariant map, Cayley transforms, and orbit representatives over degenerate
base points of the quotient."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (CayleyUndefinedError, InputError,
                     NotRegularSemisimpleError, UnrealizableError)
from .padic import (INF, PadicScalar, QuadElt, QuatElt, hensel_sqrt,
                    quat_solve, smallest_nonresidue)


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


def padic_sqrt(x: PadicScalar) -> PadicScalar:
    """Square root in Q_p: exact when the rational is a perfect square,
    otherwise a capped Hensel lift."""
    if x.is_exact:
        r = _rational_sqrt(x.rational)
        if r is not None:
            return PadicScalar.exact(r, x.p)
    return hensel_sqrt(x)


# ---------------------------------------------------------------------------
# generic small-matrix helpers (entries: PadicScalar, QuadElt, or QuatElt)

def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    return [[sum_entries([A[i][t] * B[t][j] for t in range(k)]) for j in range(m)]
            for i in range(n)]


def sum_entries(xs):
    out = xs[0]
    for x in xs[1:]:
        out = out + x
    return out


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
    """Solve A Z = B over the quaternion division algebra for exact entries
    (fraction-free, padic.quat_solve); a capped entry raises PrecisionError."""
    Z = quat_solve(A, B)
    if Z is None:
        raise CayleyUndefinedError("singular matrix over D")
    return Z


# ---------------------------------------------------------------------------
# the invariant quotient


@dataclass(frozen=True)
class BPoint:
    """A point (lambda, u, wtilde) of the reduced quotient, where the third
    invariant is w = wtilde * pi and the rescaled discriminant is
    Delta = lambda u^2 + wtilde^2 p."""

    lam: PadicScalar
    u: PadicScalar
    wtilde: PadicScalar

    @classmethod
    def exact(cls, lam, u, wtilde, p: int) -> "BPoint":
        return cls(_ps(Fraction(lam), p), _ps(Fraction(u), p), _ps(Fraction(wtilde), p))

    @property
    def p(self) -> int:
        return self.lam.p

    def delta(self) -> PadicScalar:
        return self.lam * self.u * self.u + self.wtilde * self.wtilde * self.p

    def is_rs(self) -> bool:
        d = self.delta()
        if d.is_exact:
            return not d.is_exact_zero()
        return not d.is_zero_at_precision()

    def side(self) -> int:
        """0 or 1 according to the sign of eta(-Delta)."""
        d = self.delta()
        if d.is_exact_zero() or d.is_zero_at_precision():
            raise NotRegularSemisimpleError("not regular semisimple: Delta = 0")
        return 0 if (-d).eta() == 1 else 1

    def is_integral(self) -> bool:
        def ok(s):
            return s.is_exact_zero() or s.val() >= 0
        return ok(self.lam) and ok(self.u) and ok(self.wtilde)

    def ml_params(self):
        """(m, l_minus, l_plus) with m = v(u), l_plus = v_F(w) - 2m, and
        l_minus = v(Delta) - 2m; requires an integral side-1 point."""
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
        lm = self.delta().val() - 2 * m
        vl = INF if self.lam.is_exact_zero() else self.lam.val()
        if lp is not INF and lp != lm:
            expected = min(lm, lp)
            if vl != expected:
                raise UnrealizableError(
                    f"inconsistent invariants: v(lambda) = {vl}, expected {expected}")
        return m, lm, lp

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
        if not (tr.is_exact_zero() or tr.is_zero_at_precision()):
            raise ValueError("not reduced: tr A != 0")
        if not (z[2][2].is_exact_zero() or z[2][2].is_zero_at_precision()):
            raise ValueError("not reduced: d != 0")
        self.z = z

    @classmethod
    def exact(cls, rows, p: int) -> "SRedElt":
        return cls([[_ps(Fraction(x), p) for x in row] for row in rows])

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

    def is_rs(self) -> bool:
        return self.invariants().is_rs()

    def is_integral(self) -> bool:
        return all(e.is_exact_zero() or e.val() >= 0 for row in self.z for e in row)

    def conj_by(self, h) -> "SRedElt":
        """Conjugate by diag(h, 1) for h a 2x2 matrix over F0 (entries coerced)."""
        p = self.p
        h = [[_ps(Fraction(x), p) if not isinstance(x, PadicScalar) else x for x in row]
             for row in h]
        dh = det2(h)
        hinv = [[h[1][1] / dh, -h[0][1] / dh], [-h[1][0] / dh, h[0][0] / dh]]
        one = _ps(1, p)
        zero = _ps(0, p)
        H = [[h[0][0], h[0][1], zero], [h[1][0], h[1][1], zero], [zero, zero, one]]
        Hi = [[hinv[0][0], hinv[0][1], zero], [hinv[1][0], hinv[1][1], zero],
              [zero, zero, one]]
        return SRedElt(mat_mul(Hi, mat_mul(self.z, H)))

    def __repr__(self):
        return f"SRedElt({self.z!r})"


# ---------------------------------------------------------------------------
# the quasi-split unitary Lie algebra (5 coordinates)


class U0RedElt:
    """Reduced element of the quasi-split unitary Lie algebra:
    [[a1, a2, b1], [a3, -a1, b2], [conj(b2) pi, -conj(b1) pi, 0]]
    with a1, a2, a3 in F0 and b1, b2 in F."""

    __slots__ = ("a1", "a2", "a3", "b1", "b2")

    def __init__(self, a1, a2, a3, b1: QuadElt, b2: QuadElt):
        self.a1 = a1
        self.a2 = a2
        self.a3 = a3
        self.b1 = b1
        self.b2 = b2

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
        return self.a1.p

    def matrix(self):
        """The 3x3 matrix over F."""
        p = self.p
        pi = QuadElt.pi(p)

        def f(s):
            return QuadElt(s, _ps(0, p))
        return [[f(self.a1), f(self.a2), self.b1],
                [f(self.a3), f(-self.a1), self.b2],
                [self.b2.conj() * pi, -(self.b1.conj() * pi), QuadElt.zero(p)]]

    def invariants(self) -> BPoint:
        lam = -(self.a1 * self.a1) - self.a2 * self.a3
        t = self.b2.conj() * self.b1
        u = t.pi_coeff() + t.pi_coeff()
        s = (self.a1 * (t.a + t.a) + self.a2 * self.b2.norm()
             - self.a3 * self.b1.norm())
        wt = s / self.p
        return BPoint(lam, u, wt)

    def is_rs(self) -> bool:
        return self.invariants().is_rs()

    def is_integral(self) -> bool:
        def ok(s):
            return s.is_exact_zero() or s.val() >= 0
        return (ok(self.a1) and ok(self.a2) and ok(self.a3)
                and self.b1.is_integral() and self.b2.is_integral())

    def conj_by_h(self, h) -> "U0RedElt":
        """Conjugate by diag(h, 1) for h a 2x2 matrix over F lying in the
        hermitian stabilizer; the result is reassembled from the new matrix."""
        M = self.matrix()
        p = self.p
        one, zero = QuadElt.one(p), QuadElt.zero(p)
        dh = h[0][0] * h[1][1] - h[0][1] * h[1][0]
        hinv = [[h[1][1] / dh, -(h[0][1] / dh)], [-(h[1][0] / dh), h[0][0] / dh]]
        H = [[h[0][0], h[0][1], zero], [h[1][0], h[1][1], zero], [zero, zero, one]]
        Hi = [[hinv[0][0], hinv[0][1], zero], [hinv[1][0], hinv[1][1], zero],
              [zero, zero, one]]
        N = mat_mul(Hi, mat_mul(M, H))
        return U0RedElt(N[0][0].a, N[0][1].a, N[1][0].a, N[0][2], N[1][2])

    def __repr__(self):
        return (f"U0RedElt(a1={self.a1!r}, a2={self.a2!r}, a3={self.a3!r}, "
                f"b1={self.b1!r}, b2={self.b2!r})")


# ---------------------------------------------------------------------------
# the non-split unitary Lie algebra (quaternion coordinates)


class U1RedElt:
    """Reduced element stored in (alpha, b) coordinates: alpha a traceless
    quaternion, b a quaternion."""

    __slots__ = ("alpha", "b")

    def __init__(self, alpha: QuatElt, b: QuatElt):
        tr = alpha.trd()
        if not (tr.is_exact_zero() or tr.is_zero_at_precision()):
            raise ValueError("alpha must be traceless")
        self.alpha = alpha
        self.b = b

    @property
    def p(self) -> int:
        return self.alpha.p

    def invariants(self) -> BPoint:
        """lambda = Nrd(alpha), u = 2 Nrd(b), w = u * plus(b^-1 alpha b)."""
        p = self.p
        lam = self.alpha.nrd()
        if self.b.is_zero():
            return BPoint(lam, _ps(0, p), _ps(0, p))
        u = self.b.nrd() + self.b.nrd()
        aprime = self.b.inv() * self.alpha * self.b
        wt = u * aprime.x.pi_coeff()
        return BPoint(lam, u, wt)

    def alpha_prime(self) -> QuatElt:
        return self.b.inv() * self.alpha * self.b

    def is_rs(self) -> bool:
        if self.b.is_zero():
            return False
        return not self.alpha_prime().minus_part().is_zero()

    def is_integral(self) -> bool:
        return self.alpha.is_integral() and self.b.is_integral()

    def __repr__(self):
        return f"U1RedElt(alpha={self.alpha!r}, b={self.b!r})"


class U1LieElt:
    """Full element of the non-split unitary Lie algebra, in coordinates
    (alpha, beta, b, d): the matrix
    [[alpha, beta p, b pi], [beta, alpha, b], [pi conj(b), conj(b) p, d]]
    with alpha traceless in D, beta in F0, b in D, d traceless in F."""

    __slots__ = ("alpha", "beta", "b", "d")

    def __init__(self, alpha: QuatElt, beta: PadicScalar, b: QuatElt, d: QuadElt):
        self.alpha = alpha
        self.beta = beta
        self.b = b
        self.d = d

    @property
    def p(self) -> int:
        return self.alpha.p

    def to_matrix(self):
        p = self.p
        pi = QuatElt.from_f(QuadElt.pi(p))
        beta = QuatElt.from_f(QuadElt(self.beta, _ps(0, p)))
        bbar = self.b.conj()
        return [[self.alpha, beta * p, self.b * pi],
                [beta, self.alpha, self.b],
                [pi * bbar, bbar * p, QuatElt.from_f(self.d)]]

    def reduce(self):
        """(reduced part, discarded (2 beta pi, d))."""
        red = U1RedElt(self.alpha, self.b)
        return red, (self.beta + self.beta, self.d)

    def is_integral(self) -> bool:
        return (self.alpha.is_integral() and self.b.is_integral()
                and (self.beta.is_exact_zero() or self.beta.val() >= 0)
                and self.d.is_integral())

    def is_rs(self) -> bool:
        return U1RedElt(self.alpha, self.b).is_rs()

    def __repr__(self):
        return (f"U1LieElt(alpha={self.alpha!r}, beta={self.beta!r}, "
                f"b={self.b!r}, d={self.d!r})")


def _is_f0_scalar(q: QuatElt) -> bool:
    return q.y.is_zero() and q.x.b.is_zero_at_precision()


def u1_lie_from_matrix(M) -> U1LieElt:
    alpha = M[0][0]
    beta = M[1][0]
    b = M[1][2]
    d = M[2][2]
    if not _is_f0_scalar(beta):
        raise ValueError("matrix not in Lie coordinates: beta not in F0")
    if not d.y.is_zero():
        raise ValueError("matrix not in Lie coordinates: d not in F")
    return U1LieElt(alpha, beta.x.a, b, d.x)


class U1GroupElt:
    """Element of the non-split unitary group in the same matrix presentation,
    with coordinates (alpha, beta, b, c, d): the matrix
    [[alpha, beta p, b pi], [beta, alpha, b], [c, pi c, d]]."""

    __slots__ = ("M",)

    def __init__(self, M):
        self.M = M

    @property
    def p(self) -> int:
        return self.M[0][0].p

    @classmethod
    def from_coords(cls, alpha: QuatElt, beta: QuatElt, b: QuatElt, c: QuatElt,
                    d: QuadElt) -> "U1GroupElt":
        p = alpha.p
        pi = QuatElt.from_f(QuadElt.pi(p))
        return cls([[alpha, beta * p, b * pi],
                    [beta, alpha, b],
                    [c, pi * c, QuatElt.from_f(d)]])

    def coords(self):
        M = self.M
        return M[0][0], M[1][0], M[1][2], M[2][0], M[2][2].x

    def is_integral(self) -> bool:
        alpha, beta, b, c, d = self.coords()
        return (alpha.is_integral() and beta.is_integral() and b.is_integral()
                and c.is_integral() and d.is_integral())

    def __repr__(self):
        return f"U1GroupElt({self.M!r})"


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


XI_CHOICES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _in_chart(M, xi):
    """xi M for the chart xi = diag(s1, s1, s2) = xi^{-1}, signs s1, s2 = +-1:
    the rows with sign -1 are negated."""
    s1, s2 = xi
    return [row if s > 0 else [-q for q in row] for row, s in zip(M, (s1, s1, s2))]


def cayley(x, xi=(1, 1)) -> U1GroupElt:
    """The transform x -> xi (1+x)(1-x)^{-1} into the unitary group; the two
    factors commute, so a single linear solve computes the product."""
    if isinstance(x, U1RedElt):
        x = U1LieElt(x.alpha, _ps(0, x.p), x.b, QuadElt.zero(x.p))
    p = x.p
    M = x.to_matrix()
    I = quat_identity(p)
    return U1GroupElt(_in_chart(quat_mat_solve(mat_sub(I, M), mat_add(I, M)), xi))


def cayley_inv(g: U1GroupElt, xi=(1, 1)) -> U1LieElt:
    """Inverse transform -(1 - xi^{-1} g)(1 + xi^{-1} g)^{-1}."""
    p = g.p
    h = _in_chart(g.M, xi)
    I = quat_identity(p)
    M = quat_mat_solve(mat_add(I, h), mat_sub(h, I))
    return u1_lie_from_matrix(M)


def admissible_xi(g: U1GroupElt, xi) -> bool:
    """Whether the chart xi has an integral inverse transform at an integral
    group element: mod the uniformizer the element is block-triangular with
    diagonal (alpha, alpha, d), so 1 + xi^{-1} g is invertible over the
    maximal order exactly when 1 + s1 alpha and 1 + s2 d are units."""
    s1, s2 = xi
    alpha = g.M[0][0]
    d = g.M[2][2]
    e1 = QuatElt.one(g.p) + alpha * s1
    e2 = QuatElt.one(g.p) + d * s2
    return (not e1.is_zero() and e1.v_d() == 0
            and not e2.is_zero() and e2.v_d() == 0)


def reduce_elt(x):
    """Projection to the reduced subspace, discarding the trivial invariants."""
    if isinstance(x, U1LieElt):
        return x.reduce()[0]
    if isinstance(x, (U1RedElt, SRedElt, U0RedElt)):
        return x
    raise TypeError(f"cannot reduce {type(x)}")


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
    if not (d.is_exact_zero() or d.is_zero_at_precision()):
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


def in_side1_closure(x0: BPoint) -> bool:
    """Whether regular semisimple side-1 points accumulate at x0."""
    c = case_of(x0)
    if not x0.is_integral():
        return False
    if c == "split":
        return False
    if c == "0i":
        return (-x0.lam).eta() == -1
    return True


@dataclass(frozen=True)
class OrbitRep:
    space: str                 # 's_red' | 'u0_red' | 'u1_red'
    tag: str
    payload: object            # None for a family descriptor
    base_point: BPoint
    param: object = None
    excluded: bool = False


def nilpotent_family_member(mu, p: int) -> SRedElt:
    """n(mu) = pi [[0, mu, 1], [0, 0, 0], [0, 1, 0]]."""
    mu = _ps(Fraction(mu), p) if not isinstance(mu, PadicScalar) else mu
    zero, one = _ps(0, p), _ps(1, p)
    return SRedElt([[zero, mu, one], [zero, zero, zero], [zero, one, zero]])


def regular_nilpotent(sign: int, p: int) -> SRedElt:
    z = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    if sign < 0:
        z = [list(r) for r in zip(*z)]
    return SRedElt.exact(z, p)


def u0_nilpotent_family_member(beta, p: int) -> U0RedElt:
    """n(beta) = pi [[0, beta pi, 1], [0, 0, 0], [0, pi, 0]] on the
    quasi-split side."""
    beta = Fraction(beta)
    return U0RedElt.exact(0, beta * p, 0, QuadElt.pi(p), 0, p)


def u0_ss_case0(lam0, p: int, eps_unit=1) -> U0RedElt:
    """Semisimple representative over (lam0, 0, 0) on the quasi-split side;
    lam0 = 0 is the zero orbit, which has none."""
    lam0 = Fraction(lam0)
    if lam0 == 0:
        raise InputError("lam0 must be nonzero")
    eps_unit = Fraction(eps_unit)
    return U0RedElt.exact(0, -lam0 / eps_unit, eps_unit, 0, 0, p)


def u0_ss_case1(x0: BPoint) -> U0RedElt:
    """Semisimple representative over a degenerate (lam0, u0, wt0) with
    u0 != 0, built from an eigenvector pair b = (x1, y2*pi) for the symplectic
    invariant and solving the traceless matrix block exactly."""
    p = x0.p
    lam0 = x0.lam.rational
    u0 = x0.u.rational
    wt0 = x0.wtilde.rational
    if u0 == 0:
        raise UnrealizableError("u0 = 0")
    vp = lambda r: 0 if r == 0 else (PadicScalar.exact(r, p).val())
    if wt0 == 0:
        x1 = Fraction(1)
        y2 = -u0 / 2
        return U0RedElt.exact(0, 0, 0, QuadElt.exact(x1, 0, p),
                              QuadElt.exact(0, y2, p), p)
    # choose x1 = p^i with 2 v(u0) - v(wt0) <= 2i <= v(wt0) + 1
    lo = 2 * vp(u0) - vp(wt0)
    hi = vp(wt0) + 1
    two_i = None
    for cand in range(lo, hi + 1):
        if cand % 2 == 0:
            two_i = cand
            break
    if two_i is None:
        raise UnrealizableError("no integral representative window")
    x1 = Fraction(p) ** (two_i // 2)
    y2 = -u0 / (2 * x1)
    a2 = -2 * wt0 * x1 * x1 / (u0 * u0)
    a3 = -p * wt0 / (2 * x1 * x1)
    y = U0RedElt.exact(0, a2, a3, QuadElt.exact(x1, 0, p),
                       QuadElt.exact(0, y2, p), p)
    inv = y.invariants()
    if not (inv.lam.same_value(x0.lam) and inv.u.same_value(x0.u)
            and inv.wtilde.same_value(x0.wtilde)):
        raise UnrealizableError("representative does not hit the base point")
    return y


def orbit_reps(x0: BPoint, space: str = "s_red"):
    """The representative list of the relevant orbits in the fiber over a
    degenerate base point."""
    p = x0.p
    c = case_of(x0)

    if space == "u0_red":
        if c == "zero":
            zero_rep = U0RedElt.exact(0, 0, 0, 0, 0, p)
            return [OrbitRep("u0_red", "zero", zero_rep, x0),
                    OrbitRep("u0_red", "n_beta", None, x0)]
        if c in ("0i", "0ii", "split"):
            reps = [OrbitRep("u0_red", "y0", u0_ss_case0(x0.lam.rational, p), x0,
                             excluded=(c == "split"))]
            if c == "0ii":
                eps = smallest_nonresidue(p)
                reps.append(OrbitRep("u0_red", "y0_alt",
                                     u0_ss_case0(x0.lam.rational, p, eps), x0))
            return reps
        return [OrbitRep("u0_red", "y0", u0_ss_case1(x0), x0)]

    if space != "s_red":
        raise ValueError(f"unknown space {space!r}")

    if c == "zero":
        return [OrbitRep("s_red", "n_mu", None, x0),
                OrbitRep("s_red", "n0_plus", regular_nilpotent(+1, p), x0),
                OrbitRep("s_red", "n0_minus", regular_nilpotent(-1, p), x0)]

    if c == "1":
        lam0, u0, wt0 = x0.lam, x0.u, x0.wtilde
        alpha = wt0 / u0
        zero, one = _ps(0, p), _ps(1, p)
        y_plus = SRedElt([[alpha, zero, one], [one, -alpha, zero], [u0, zero, zero]])
        y_minus = SRedElt([[alpha, one, one], [zero, -alpha, zero], [u0, zero, zero]])
        return [OrbitRep("s_red", "y_plus", y_plus, x0),
                OrbitRep("s_red", "y_minus", y_minus, x0)]

    lam0 = x0.lam
    zero, one = _ps(0, p), _ps(1, p)
    if c in ("0i", "split"):
        excl = c == "split"
        mlam = -(lam0 / p)
        y0 = SRedElt([[zero, mlam, zero], [one, zero, zero], [zero, zero, zero]])
        y_plus = SRedElt([[zero, mlam, one], [one, zero, zero], [zero, zero, zero]])
        y_minus = SRedElt([[zero, mlam, zero], [one, zero, zero], [one, zero, zero]])
        return [OrbitRep("s_red", "y0", y0, x0, excluded=excl),
                OrbitRep("s_red", "y_plus", y_plus, x0, excluded=excl),
                OrbitRep("s_red", "y_minus", y_minus, x0, excluded=excl)]

    # case 0ii: diagonalizable shapes with alpha^2 = -lam0/p
    alpha = padic_sqrt(-(lam0 / p))
    y0 = SRedElt([[alpha, zero, zero], [zero, -alpha, zero], [zero, zero, zero]])
    y_pp = SRedElt([[alpha, zero, one], [zero, -alpha, one], [zero, zero, zero]])
    y_pm = SRedElt([[alpha, zero, one], [zero, -alpha, zero], [zero, one, zero]])
    y_mm = SRedElt([[alpha, zero, zero], [zero, -alpha, zero], [one, one, zero]])
    y_mp = SRedElt([[alpha, zero, zero], [zero, -alpha, one], [one, zero, zero]])
    return [OrbitRep("s_red", "y0", y0, x0),
            OrbitRep("s_red", "y_pp", y_pp, x0),
            OrbitRep("s_red", "y_pm", y_pm, x0),
            OrbitRep("s_red", "y_mm", y_mm, x0),
            OrbitRep("s_red", "y_mp", y_mp, x0)]


# ---------------------------------------------------------------------------
# explicit side-1 points with prescribed (m, l_minus, l_plus)


def make_bpoint_rs1(m: int, lminus: int, lplus, p: int) -> BPoint:
    """An integral side-1 point with the requested parameters: u = p^m,
    wt = xi p^((2m + lplus - 1)/2) (or 0 when lplus is infinite), and the
    discriminant a unit delta times p^(2m + lminus); the units are searched
    until the derived invariants round-trip."""
    if m < 0 or lminus < 1:
        raise UnrealizableError("need m >= 0 and l_minus >= 1")
    if lplus is not INF and (lplus < 1 or lplus % 2 == 0):
        raise UnrealizableError("l_plus must be odd or infinite")
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
