"""Exact and capped-precision arithmetic for Q_p, its ramified quadratic
extension F = Q_p(pi) with pi^2 = p, and the quaternion division algebra
D = F + F*j with j^2 = eps, j*a = conj(a)*j.  Over Q_p that algebra is
unique up to isomorphism, so p fixes the model: eps is always
smallest_nonresidue(p), a unit that is not a square mod p, and no element
stores it.

A scalar is a rational r and an absolute precision prec, the statement
"x = r + O(p^prec)"; prec is infinite for an exact value, which is all that
the package reads and writes.  Only zero_at, from_rational_absprec and
to_capped give a finite prec, and no verdict calls them.  Each operation is
one formula in (r, prec) for both: a sum is known to the smaller precision,
a product to min(prec1 + low2, prec2 + low1) with low = min(v(r), prec), and
an inverse to prec - 2 v(r).

p is validated (odd prime) at the public entry point, PadicScalar.exact;
arithmetic trusts its operands and only checks that two operands share their
prime.  Capped scalars are unhashable: equality at the shared precision is
not transitive, so no hash can agree with it.  Exact values hash as the
rational or smaller-field element they equal, so a PadicScalar, QuadElt or
QuatElt equal to an int or Fraction hashes like it.

Quaternion products and solves take exact coordinates only; a capped one
raises PrecisionError.  A product runs on integer coordinates:
q = ((a + b pi) + (c + d pi) j) / den, with den the lcm of the coordinates'
denominators (`_int_coords`, `_int_quat_mul`), and one Fraction per
coordinate of the result.  The linear solves over D work on the same
coordinates, one denominator per row: `orbits.quat_mat_solve` reads the rows
of [A | B] through `_int_rows`, which also checks that the entries are exact
and share a prime, and `cayley_solve` takes the integer rows of M and writes
the rows of [1 - S M | 1 + S M], S a diagonal of signs, into new lists,
adding the row denominator for the 1 on the diagonal.  The rows of M are
written once: the Lie matrix of a forward transform straight in integer
coordinates (`orbits.U1LieElt.rows`, no quaternion product taken), and a
group element is the integer solution of its forward transform
(`orbits.U1GroupElt`), which each inverse transform reads.  Both solves end
in `_solve_rows`, which eliminates on integers and returns the solution as
integers too: per row a norm and the coordinates of the columns asked for.
Each caller forms Fractions only for the solution entries it reads:
`orbits.quat_mat_solve` all nine (`_quat_matrix`), `orbits.cayley_inv` the
four Lie coordinates, and `orbits.cayley` none.

The valuation and the quadratic character of a rational are the module
functions `val` and `eta`; the methods of an exact PadicScalar call them.
Both read an int directly, from `_int_val` and the unit x // p^v, and
split a Fraction (or a bool) into p^v a/b first (`_frac_split`): the ball
decisions of `integrate` value integer polynomials at integer centres, so
they build no split tuple and read no numerator or denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from .errors import InputError, PrecisionError

DEFAULT_PRECISION = 24

INF = math.inf

_FR_ZERO = Fraction(0)


def _check_odd_prime(p: int) -> None:
    # a float or string p from a JSON file would pass the comparisons below
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        raise InputError(f"p must be an odd prime, got {p!r}")
    # tiny primality check; primes used here are small
    d = 3
    while d * d <= p:
        if p % d == 0:
            raise InputError(f"p must be an odd prime, got {p!r}")
        d += 2


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, +1}."""
    a %= p
    if a == 0:
        return 0
    ls = pow(a, (p - 1) // 2, p)
    return -1 if ls == p - 1 else 1


def smallest_nonresidue(p: int) -> int:
    for n in range(2, p):
        if legendre(n, p) == -1:
            return n
    raise ValueError(f"no quadratic non-residue mod {p}")


def _int_val(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _frac_split(x: Fraction, p: int):
    """(v, a, b) with x = p^v * a/b and a, b prime to p; None for x = 0."""
    num, den = x.numerator, x.denominator
    if num % p == 0:
        if num == 0:
            return None
        v = _int_val(num, p)
        return v, num // p ** v, den
    if den % p == 0:
        v = _int_val(den, p)
        return -v, num, den // p ** v
    return 0, num, den


def val(x, p: int):
    """v(x) of a rational x (Fraction or int); +inf for x = 0.  An int is
    read directly, a Fraction (or a bool) through `_frac_split`."""
    if type(x) is int:
        return _int_val(x, p) if x else INF
    split = _frac_split(x, p)
    return INF if split is None else split[0]


def eta(x, p: int) -> int:
    """The quadratic character attached to F/Q_p of a nonzero rational x: +1
    iff x is a norm.  It is legendre(unit mod p) * legendre(-1, p)^v(x),
    since the norm group is generated by -p and the unit squares.  An int
    is read as p^v times the unit x // p^v, a Fraction through `_frac_split`.
    ValueError at 0."""
    if type(x) is int:
        if not x:
            raise ValueError("eta of zero")
        v = _int_val(x, p)
        s = legendre(x // p ** v, p)
    else:
        split = _frac_split(x, p)
        if split is None:
            raise ValueError("eta of zero")
        v, num, den = split
        s = legendre(num * den, p)
    return s * legendre(-1, p) if v % 2 else s


def _unit_mod(num: int, den: int, p: int, k: int) -> int:
    m = p ** k
    return num * pow(den, -1, m) % m


class PadicScalar:
    """An element of Q_p, r + O(p^prec) with r a Fraction and prec INF when
    exact; it is zero at its precision, O(p^prec), when v(r) >= prec."""

    __slots__ = ("p", "_fr", "_prec")

    def __init__(self, p, _fr, _prec=INF):
        self.p = p
        self._fr = _fr
        self._prec = _prec

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, value, p: int) -> "PadicScalar":
        _check_odd_prime(p)
        return cls(p, _fr=Fraction(value))

    @classmethod
    def zero_at(cls, p: int, absprec: int) -> "PadicScalar":
        """A capped value known only to be O(p^absprec)."""
        return cls(p, _FR_ZERO, absprec)

    @classmethod
    def from_rational_absprec(cls, value, p: int, absprec: int) -> "PadicScalar":
        """Cap an exact rational at absolute precision p^absprec."""
        return cls(p, Fraction(value), absprec)

    def to_capped(self, ndigits: int = DEFAULT_PRECISION) -> "PadicScalar":
        """The value capped to ndigits unit digits, so at absolute precision
        v + ndigits, and an exact zero at ndigits; a capped value as it is."""
        if ndigits < 0:
            raise InputError(f"negative precision {ndigits}")
        if self._prec != INF:
            return self
        v = val(self._fr, self.p)
        return PadicScalar(self.p, self._fr, ndigits if v == INF else v + ndigits)

    # -- predicates ----------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self._prec == INF

    @property
    def rational(self) -> Fraction:
        if not self.is_exact:
            raise PrecisionError("capped value has no exact rational form")
        return self._fr

    def is_exact_zero(self) -> bool:
        return self.is_exact and self._fr == 0

    def is_zero_at_precision(self) -> bool:
        """True when nothing distinguishes the value from 0 at stored precision."""
        if self._prec == INF:
            return self._fr == 0
        return val(self._fr, self.p) >= self._prec

    def _low(self):
        """min(v(r), prec): what the product rule reads as the valuation."""
        return min(val(self._fr, self.p), self._prec)

    # -- queries --------------------------------------------------------

    def val(self):
        """p-adic valuation; +inf for exact zero (the module function `val`).

        Raises PrecisionError when a capped value is indistinguishable from
        zero at its stored precision.
        """
        v = val(self._fr, self.p)
        if self._prec != INF and v >= self._prec:
            raise PrecisionError(
                f"precision exhausted: value is O({self.p}^{self._prec})")
        return v

    def unit_mod(self, k: int) -> int:
        """Unit part mod p^k."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if self._prec != INF:
            n = self._prec - self._low()
            if n < k:
                raise PrecisionError(f"only {n} unit digits stored, {k} requested")
        split = _frac_split(self._fr, self.p)
        if split is None:
            raise PrecisionError("unit part of zero")
        return _unit_mod(split[1], split[2], self.p, k)

    def eta(self) -> int:
        """Quadratic character attached to F/Q_p: +1 iff the value is a norm
        (the module function `eta`, after the precision check of `val`).
        ValueError at exact zero."""
        if self._prec != INF:
            self.val()
        return eta(self._fr, self.p)

    def is_square(self) -> bool:
        """Whether the value is a square in Q_p^x (even valuation, QR unit)."""
        v = self.val()
        if v is INF:
            raise ValueError("is_square of zero")
        return v % 2 == 0 and legendre(self.unit_mod(1), self.p) == 1

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PadicScalar):
            if other.p != self.p:
                raise InputError("mixed primes")
            return other
        if isinstance(other, Fraction):
            return PadicScalar(self.p, _fr=other)
        if isinstance(other, int):
            return PadicScalar(self.p, _fr=Fraction(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # an exact zero leaves the other operand as it is
        if o._fr == 0 and o._prec == INF:
            return self
        if self._fr == 0 and self._prec == INF:
            return o
        return PadicScalar(self.p, self._fr + o._fr, min(self._prec, o._prec))

    __radd__ = __add__

    def __neg__(self):
        return PadicScalar(self.p, -self._fr, self._prec)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o._fr == 0 and o._prec == INF:
            return self
        return PadicScalar(self.p, self._fr - o._fr, min(self._prec, o._prec))

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._prec == INF and o._prec == INF:
            return PadicScalar(self.p, self._fr * o._fr)
        return PadicScalar(self.p, self._fr * o._fr,
                           min(self._prec + o._low(), o._prec + self._low()))

    __rmul__ = __mul__

    def inv(self):
        prec = self._prec
        if prec != INF:
            if self.is_zero_at_precision():
                raise PrecisionError("inverse of a value indistinguishable from zero")
            prec -= 2 * val(self._fr, self.p)
        elif self._fr == 0:
            raise ZeroDivisionError("inverse of zero")
        return PadicScalar(self.p, 1 / self._fr, prec)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o * self.inv()

    def __pow__(self, k: int):
        """Square-and-multiply; negative k inverts first."""
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        out = PadicScalar(self.p, _fr=Fraction(1))
        sq = self
        while k:
            if k & 1:
                out = out * sq
            k >>= 1
            if k:
                sq = sq * sq
        return out

    # -- comparison -----------------------------------------------------

    def same_value(self, other) -> bool:
        """Equality in the strongest sense available: exact equality for two
        exact values, agreement at the shared precision otherwise."""
        return (self - self._coerce(other)).is_zero_at_precision()

    def __eq__(self, other):
        try:
            return self.same_value(other)
        except (ValueError, TypeError):
            return NotImplemented

    def __hash__(self):
        # equality at shared precision is not transitive, so no hash can
        # agree with it on capped values; an exact value equals its rational
        if self._prec != INF:
            raise TypeError("unhashable: capped PadicScalar")
        return hash(self._fr)

    def __repr__(self):
        if self._prec == INF:
            return f"{self._fr}"
        if self.is_zero_at_precision():
            return f"O({self.p}^{self._prec})"
        v = self.val()
        return f"{self.unit_mod(self._prec - v)}*{self.p}^{v} + O({self.p}^{self._prec})"


def _sqrt_mod_p(a: int, p: int) -> int:
    a %= p
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    z = smallest_nonresidue(p)
    g = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    b = pow(a, q, p)
    r = e
    while b != 1:
        m, t = 0, b
        while t != 1:
            t = t * t % p
            m += 1
        gs = pow(g, 1 << (r - m - 1), p)
        g = gs * gs % p
        x = x * gs % p
        b = b * g % p
        r = m
    return x


class QuadElt:
    """a + b*pi in F = Q_p(pi), pi^2 = p."""

    __slots__ = ("a", "b")

    def __init__(self, a: PadicScalar, b: PadicScalar):
        if a.p != b.p:
            raise InputError("mixed primes")
        self.a = a
        self.b = b

    @classmethod
    def exact(cls, a, b, p: int) -> "QuadElt":
        return cls(PadicScalar.exact(a, p), PadicScalar.exact(b, p))

    @classmethod
    def zero(cls, p: int) -> "QuadElt":
        return cls.exact(0, 0, p)

    @classmethod
    def one(cls, p: int) -> "QuadElt":
        return cls.exact(1, 0, p)

    @classmethod
    def pi(cls, p: int) -> "QuadElt":
        return cls.exact(0, 1, p)

    @property
    def p(self) -> int:
        return self.a.p

    def conj(self) -> "QuadElt":
        return QuadElt(self.a, -self.b)

    def trace(self) -> PadicScalar:
        return self.a + self.a

    def norm(self) -> PadicScalar:
        return self.a * self.a - self.b * self.b * self.p

    def pi_coeff(self) -> PadicScalar:
        return self.b

    def is_zero(self) -> bool:
        return self.a.is_zero_at_precision() and self.b.is_zero_at_precision()

    def val_f(self):
        """Valuation normalized with v_F(pi) = 1: min(2 v(a), 2 v(b) + 1)."""
        va = self.a.val()
        vb = self.b.val()
        ca = INF if va is INF else 2 * va
        cb = INF if vb is INF else 2 * vb + 1
        return min(ca, cb)

    def is_integral(self) -> bool:
        return min(self.a.val(), self.b.val()) >= 0

    def _coerce(self, other):
        # None for a foreign operand, a QuatElt too: the operators refuse it
        if isinstance(other, QuadElt):
            return other
        if isinstance(other, PadicScalar):
            return QuadElt(other, PadicScalar(self.p, _fr=_FR_ZERO))
        if isinstance(other, (int, Fraction)):
            return QuadElt(self.a._coerce(other), PadicScalar(self.p, _fr=_FR_ZERO))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else QuadElt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadElt(-self.a, -self.b)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else QuadElt(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        if isinstance(other, (PadicScalar, int, Fraction)):
            return QuadElt(self.a * other, self.b * other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.a, self.b, o.a, o.b
        return QuadElt(a * c + b * d * self.p, a * d + b * c)

    __rmul__ = __mul__

    def __eq__(self, other):
        # an operand of another prime is not equal, as for PadicScalar
        try:
            o = self._coerce(other)
        except InputError:
            return NotImplemented
        return NotImplemented if o is None else self.a == o.a and self.b == o.b

    def __hash__(self):
        # an element of Q_p equals its embedding in F
        if self.b.is_exact_zero():
            return hash(self.a)
        return hash((self.a, self.b))

    def __repr__(self):
        return f"({self.a} + {self.b}*pi)"


class QuatElt:
    """x + y*j in D = F + F*j, with j^2 = smallest_nonresidue(p) and
    j*a = conj(a)*j for a in F."""

    __slots__ = ("x", "y")

    def __init__(self, x: QuadElt, y: QuadElt):
        if x.p != y.p:
            raise InputError("mixed primes")
        self.x = x
        self.y = y

    @classmethod
    def from_f(cls, x: QuadElt) -> "QuatElt":
        return cls(x, QuadElt.zero(x.p))

    @classmethod
    def j(cls, p: int) -> "QuatElt":
        return cls(QuadElt.zero(p), QuadElt.one(p))

    @classmethod
    def zero(cls, p: int) -> "QuatElt":
        return cls(QuadElt.zero(p), QuadElt.zero(p))

    @classmethod
    def one(cls, p: int) -> "QuatElt":
        return cls(QuadElt.one(p), QuadElt.zero(p))

    @property
    def p(self) -> int:
        return self.x.p

    def _coerce(self, other):
        # None for a foreign operand: the operators refuse it
        if isinstance(other, QuatElt):
            return other
        if isinstance(other, QuadElt):
            return QuatElt(other, QuadElt.zero(self.p))
        if isinstance(other, (int, Fraction, PadicScalar)):
            z = QuadElt.zero(self.p)
            return QuatElt(z._coerce(other), z)
        return None

    def conj(self) -> "QuatElt":
        """Main involution: x + y*j -> conj(x) - y*j."""
        return QuatElt(self.x.conj(), -self.y)

    def trd(self) -> PadicScalar:
        return self.x.trace()

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero()

    def is_integral(self) -> bool:
        return self.x.is_integral() and self.y.is_integral()

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else QuatElt(self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __neg__(self):
        return QuatElt(-self.x, -self.y)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else QuatElt(self.x - o.x, self.y - o.y)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        """(x1 + y1 j)(x2 + y2 j) = (x1 x2 + eps y1 conj(y2))
        + (x1 y2 + y1 conj(x2)) j.  Exact operands multiply on integer
        coordinates (`_int_coords`, `_int_quat_mul`); a capped coordinate
        raises PrecisionError."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.p
        if o.p != p:
            raise InputError("mixed primes")
        u, v = _int_coords(self), _int_coords(o)
        if u is None or v is None:
            raise PrecisionError("the quaternion product takes exact coordinates only")
        return _quat_of_ints(p, _int_quat_mul(u[1], v[1], p, smallest_nonresidue(p)),
                             u[0] * v[0])

    def __rmul__(self, other):
        # scalar (central) multiplication only
        o = self._coerce(other)
        return NotImplemented if o is None else o * self

    def __eq__(self, other):
        # an operand of another prime is not equal, as for PadicScalar
        try:
            o = self._coerce(other)
        except InputError:
            return NotImplemented
        return NotImplemented if o is None else self.x == o.x and self.y == o.y

    def __hash__(self):
        # an element of F equals its embedding in D
        if self.y.a.is_exact_zero() and self.y.b.is_exact_zero():
            return hash(self.x)
        return hash((self.x, self.y))

    def __repr__(self):
        return f"[{self.x} + {self.y}*j]"


def _int_coords(q):
    """(den, (a, b, c, d)) with q = ((a + b pi) + (c + d pi) j) / den and den
    the lcm of the coordinates' denominators; None when a coordinate is
    capped."""
    x, y = q.x, q.y
    if x.a._prec != INF or x.b._prec != INF or y.a._prec != INF or y.b._prec != INF:
        return None
    fa, fb, fc, fd = x.a._fr, x.b._fr, y.a._fr, y.b._fr
    da, db, dc, dd = fa.denominator, fb.denominator, fc.denominator, fd.denominator
    den = math.lcm(da, db, dc, dd)
    return den, (fa.numerator * (den // da), fb.numerator * (den // db),
                 fc.numerator * (den // dc), fd.numerator * (den // dd))


def _quat_of_ints(p: int, t, den: int) -> "QuatElt":
    """The QuatElt ((t0 + t1 pi) + (t2 + t3 pi) j) / den, den a nonzero
    integer."""
    s = [PadicScalar(p, _fr=Fraction(x, den) if x else _FR_ZERO) for x in t]
    return QuatElt(QuadElt(s[0], s[1]), QuadElt(s[2], s[3]))


def _int_quat_mul(u, v, p: int, e: int):
    """Product of integer coordinates (a, b, c, d) = (a + b pi) + (c + d pi) j."""
    a1, b1, c1, d1 = u
    a2, b2, c2, d2 = v
    return (a1 * a2 + p * b1 * b2 + e * (c1 * c2 - p * d1 * d2),
            a1 * b2 + b1 * a2 + e * (d1 * c2 - c1 * d2),
            a1 * c2 + c1 * a2 + p * (b1 * d2 - d1 * b2),
            a1 * d2 + b1 * c2 + d1 * a2 - c1 * b2)


def _int_nrd(q, p: int, e: int) -> int:
    a, b, c, d = q
    return a * a - p * b * b - e * (c * c - p * d * d)


def _primitive(row):
    """A row of integer coordinates divided by their gcd (its content)."""
    g = math.gcd(*chain.from_iterable(row))
    if g > 1:
        return [(a // g, b // g, c // g, d // g) for a, b, c, d in row]
    return row


def _eliminate(aug, p: int, e: int):
    """Fraction-free Gauss-Jordan on aug, the primitive integer rows of
    [A | B], into new rows with A diagonal: clearing column col uses
    row_r <- N(P) row_r - (f conj(P)) row_col, with P the pivot, f the entry
    cleared and N(P) = a^2 - p b^2 - e(c^2 - p d^2) an integer, and each new
    row is divided by its content.  N(P) is nonzero:
    e = smallest_nonresidue(p), so the reduced norm of the division algebra is
    anisotropic.  The pivot row is zero in the columns cleared before col,
    so a product is taken only at its nonzero columns past col; the cleared
    entry is written as 0, since N(P) f - f conj(P) P = 0.  With exact
    entries every nonzero pivot gives the same solution, so the first is
    taken.  None when A is singular."""
    rows = list(aug)
    n = len(rows)
    for col in range(n):
        piv = next((r for r in range(col, n) if any(rows[r][col])), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        prow = rows[col]
        a, b, c, d = prow[col]
        norm = _int_nrd(prow[col], p, e)
        pconj = (a, -b, -c, -d)
        live = [(j, y) for j, y in enumerate(prow) if j > col and any(y)]
        for r in range(n):
            f = rows[r][col]
            if r == col or not any(f):
                continue
            g = _int_quat_mul(f, pconj, p, e)
            row = [(norm * s0, norm * s1, norm * s2, norm * s3)
                   for s0, s1, s2, s3 in rows[r]]
            row[col] = (0, 0, 0, 0)
            for j, y in live:
                s0, s1, s2, s3 = row[j]
                t0, t1, t2, t3 = _int_quat_mul(g, y, p, e)
                row[j] = (s0 - t0, s1 - t1, s2 - t2, s3 - t3)
            rows[r] = _primitive(row)
    return rows


def _int_rows(rows):
    """(p, [(den, [(a, b, c, d), ...]), ...]): the exact QuatElt entries of
    each row as integer coordinates over one denominator per row, the lcm of
    the row's coordinate denominators, so that every entry is
    ((a + b pi) + (c + d pi) j) / den.  Every entry must share the first
    one's prime (InputError otherwise), and a capped entry raises
    PrecisionError."""
    p = rows[0][0].p
    out = []
    for row in rows:
        for q in row:
            if q.p != p:
                raise InputError("mixed primes")
        coords = [_int_coords(q) for q in row]
        if None in coords:
            raise PrecisionError("the quaternion solve takes exact entries only")
        den = math.lcm(*(d for d, _ in coords))
        out.append((den, [tuple(s * (den // d) for s in q) for d, q in coords]))
    return p, out


def _solve_rows(rows, p: int, signs, cols=None):
    """The solution of A Z = B on integers, from the primitive integer rows
    of [A | B]: per row i, (norm_i, [t_ij for j in cols[i]]) with
    norm_i = signs[i] N(D_i), signs[i] = +-1, and t_ij the integer
    coordinates of conj(D_i) R_ij, so that Z_ij = t_ij / norm_i; every
    column when cols is None.  `_eliminate` makes A diagonal, with D_i its
    diagonal and R_i the rows of B.  No Fraction is built: each caller forms
    the entries it reads (`_quat_of_ints`, `_quat_matrix`).  None when A is
    singular."""
    e = smallest_nonresidue(p)
    rows = _eliminate(rows, p, e)
    if rows is None:
        return None
    n = len(rows)
    out = []
    for i, (row, sign) in enumerate(zip(rows, signs)):
        a, b, c, d = row[i]
        dconj = (a, -b, -c, -d)
        picked = row[n:] if cols is None else [row[n + j] for j in cols[i]]
        out.append((sign * _int_nrd(row[i], p, e),
                    [_int_quat_mul(dconj, y, p, e) for y in picked]))
    return out


def _quat_matrix(rows, p: int):
    """Every entry t_ij / den_i of integer rows (den_i, [t_i0, ...]), as
    QuatElt: the rows of a matrix (`_int_rows`) or an integer solution of
    `_solve_rows`, whose den_i is its norm_i."""
    return [[_quat_of_ints(p, t, den) for t in ts] for den, ts in rows]


def cayley_solve(p: int, rows, signs, out_signs, cols=None):
    """The integer solution (`_solve_rows`) of (1 - S M) Z = 1 + S M for
    S = diag(signs), signs = +-1, row i of Z multiplied by out_signs[i], at
    the columns cols; None when 1 - S M is singular.  M is given by its
    integer rows (p, rows), rows[i] = (den, [q0, q1, q2]) with M_ij = q_j / den
    and den > 0, as `_int_rows`, `orbits.U1LieElt.rows` and `orbits.cayley`
    write them.  The rows of [1 - S M | 1 + S M] are written from these
    alone, into new lists: the sign s of row i negates M's coordinates on one
    side, and the 1 on the diagonal adds den to the first coordinate."""
    n = len(rows)
    built = []
    for i, ((den, qs), s) in enumerate(zip(rows, signs)):
        neg = [(-a, -b, -c, -d) for a, b, c, d in qs]
        row = neg + qs if s > 0 else qs + neg
        for k in (i, n + i):
            a, b, c, d = row[k]
            row[k] = (den + a, b, c, d)
        built.append(_primitive(row))
    return _solve_rows(built, p, out_signs, cols)
