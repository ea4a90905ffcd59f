"""Exact and capped-precision arithmetic for Q_p, its ramified quadratic
extension F = Q_p(pi) with pi^2 = p, and the quaternion division algebra
D = F + F*j with j^2 = eps, j*a = conj(a)*j.  Over Q_p that algebra is
unique up to isomorphism, so p fixes the model: eps is always
smallest_nonresidue(p), a unit that is not a square mod p, and no element
stores it.

Scalars come in two flavours: exact rationals (Fraction-backed), all that
the package reads and writes, and capped p-adic expansions storing a
valuation plus finitely many unit digits, which no verdict builds.  Mixed
scalar arithmetic coerces exact to capped; capped results track the
worst-case precision of their inputs, so a capped value is always a rigorous
statement "x = p^v * unit  mod p^(v+N)".

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
coordinates, one denominator per row (`_int_rows`, which also checks
that the entries are exact and share a prime): `quat_solve` reads the rows
of [A | B], and `cayley_solve` writes the rows of [1 - S M | 1 + S M], S a
diagonal of signs, from those of M alone, adding the row denominator for the
1 on the diagonal.  Both end in `_solve_rows`, which eliminates on integers
and builds Fractions only for the solution.
"""

from __future__ import annotations

import math
from fractions import Fraction

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


def _unit_mod(num: int, den: int, p: int, k: int) -> int:
    m = p ** k
    return num * pow(den, -1, m) % m


def _capped(p: int, v: int, unit: int, n: int) -> "PadicScalar":
    """The capped value p^v * unit + O(p^(v+n)) for 0 <= unit < p^n; only
    strips p-divisible digits into the valuation.  Trusts p."""
    while n > 0 and unit % p == 0:
        if unit == 0:
            return PadicScalar(p, _v=v + n, _unit=0, _n=0)
        unit //= p
        v += 1
        n -= 1
    return PadicScalar(p, _v=v, _unit=unit if n else 0, _n=n)


class PadicScalar:
    """An element of Q_p: either an exact rational or a capped expansion.

    Capped state means  value = p^v * unit + O(p^(v+n))  with 0 <= unit < p^n
    and unit prime to p when n > 0.  n == 0 encodes "zero at precision p^v":
    nothing is known beyond value = O(p^v).
    """

    __slots__ = ("p", "_fr", "_v", "_unit", "_n")

    def __init__(self, p, _fr=None, _v=None, _unit=None, _n=None):
        self.p = p
        self._fr = _fr
        self._v = _v
        self._unit = _unit
        self._n = _n

    # -- constructors -------------------------------------------------

    @classmethod
    def exact(cls, value, p: int) -> "PadicScalar":
        _check_odd_prime(p)
        return cls(p, _fr=Fraction(value))

    @classmethod
    def zero_at(cls, p: int, absprec: int) -> "PadicScalar":
        """A capped value known only to be O(p^absprec)."""
        return cls(p, _v=absprec, _unit=0, _n=0)

    @classmethod
    def from_rational_absprec(cls, value, p: int, absprec: int) -> "PadicScalar":
        """Cap an exact rational at absolute precision p^absprec."""
        split = _frac_split(value if isinstance(value, Fraction) else Fraction(value), p)
        if split is None or split[0] >= absprec:
            return cls.zero_at(p, absprec)
        v, num, den = split
        n = absprec - v
        return cls(p, _v=v, _unit=_unit_mod(num, den, p, n), _n=n)

    def to_capped(self, ndigits: int = DEFAULT_PRECISION) -> "PadicScalar":
        """The value capped to ndigits unit digits; a capped value as it is."""
        if ndigits < 0:
            raise InputError(f"negative precision {ndigits}")
        if self._fr is None:
            return self
        split = _frac_split(self._fr, self.p)
        if split is None:
            return PadicScalar.zero_at(self.p, ndigits)
        v, num, den = split
        return PadicScalar(self.p, _v=v, _unit=_unit_mod(num, den, self.p, ndigits),
                           _n=ndigits)

    # -- predicates ----------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self._fr is not None

    @property
    def rational(self) -> Fraction:
        if not self.is_exact:
            raise PrecisionError("capped value has no exact rational form")
        return self._fr

    def is_exact_zero(self) -> bool:
        return self.is_exact and self._fr == 0

    def is_zero_at_precision(self) -> bool:
        """True when nothing distinguishes the value from 0 at stored precision."""
        if self.is_exact:
            return self._fr == 0
        return self._n == 0

    # -- queries --------------------------------------------------------

    def val(self):
        """p-adic valuation; +inf for exact zero.

        Raises PrecisionError when a capped value is indistinguishable from
        zero at its stored precision.
        """
        if self.is_exact:
            split = _frac_split(self._fr, self.p)
            return INF if split is None else split[0]
        if self._n == 0:
            raise PrecisionError(
                f"precision exhausted: value is O({self.p}^{self._v})")
        return self._v

    def unit_mod(self, k: int) -> int:
        """Unit part mod p^k."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if self.is_exact:
            split = _frac_split(self._fr, self.p)
            if split is None:
                raise PrecisionError("unit part of zero")
            return _unit_mod(split[1], split[2], self.p, k)
        if self._n < k:
            raise PrecisionError(
                f"only {self._n} unit digits stored, {k} requested")
        return self._unit % self.p ** k

    def eta(self) -> int:
        """Quadratic character attached to F/Q_p: +1 iff the value is a norm.

        Computed as legendre(unit mod p) * legendre(-1 mod p)^val, since the
        norm group is generated by -p and the unit squares.
        """
        v = self.val()
        if v is INF:
            raise ValueError("eta of zero")
        s = legendre(self.unit_mod(1), self.p)
        if v % 2:
            s *= legendre(-1, self.p)
        return s

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
        if o._fr is not None and o._fr == 0:
            return self
        p = self.p
        a, b = self, o
        if a._fr is not None:
            if a._fr == 0:
                return o
            if b._fr is not None:
                return PadicScalar(p, _fr=a._fr + b._fr)
            a, b = b, a
        # a is capped
        if b._fr is not None:
            m = a._v + a._n
            bv = PadicScalar.from_rational_absprec(b._fr, p, m)
        else:
            m = min(a._v + a._n, b._v + b._n)
            bv = b
        # rebase to integers times p^base
        base = m
        if a._n and a._v < base:
            base = a._v
        if bv._n and bv._v < base:
            base = bv._v
        pm = p ** (m - base)
        xa = a._unit * p ** (a._v - base) if a._n else 0
        xb = bv._unit * p ** (bv._v - base) if bv._n else 0
        raw = (xa + xb) % pm
        if raw == 0:
            return PadicScalar.zero_at(p, m)
        v0 = _int_val(raw, p)
        v = base + v0
        if v >= m:
            return PadicScalar.zero_at(p, m)
        return _capped(p, v, raw // p ** v0, m - v)

    __radd__ = __add__

    def __neg__(self):
        if self._fr is not None:
            return PadicScalar(self.p, _fr=-self._fr)
        if self._n == 0:
            return self
        return _capped(self.p, self._v, -self._unit % self.p ** self._n, self._n)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.p
        a, b = self, o
        if a._fr is not None:
            if b._fr is not None:
                return PadicScalar(p, _fr=a._fr * b._fr)
            a, b = b, a
        # a is capped; an exact b is capped at a's relative precision
        n = a._n
        if b._fr is not None:
            split = _frac_split(b._fr, p)
            if split is None:
                return b    # 0 * O(p^k) is exactly 0
            vb, num, den = split
            v = a._v + vb
            if n == 0:
                return PadicScalar.zero_at(p, v)
            return _capped(p, v, _unit_mod(a._unit * num, den, p, n), n)
        if b._n < n:
            n = b._n
        v = a._v + b._v
        if n == 0:
            return PadicScalar.zero_at(p, v)
        return _capped(p, v, a._unit * b._unit % p ** n, n)

    __rmul__ = __mul__

    def inv(self):
        if self._fr is not None:
            if self._fr == 0:
                raise ZeroDivisionError("inverse of zero")
            return PadicScalar(self.p, _fr=1 / self._fr)
        if self._n == 0:
            raise PrecisionError("inverse of a value indistinguishable from zero")
        return _capped(self.p, -self._v, pow(self._unit, -1, self.p ** self._n), self._n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o * self.inv()

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
        if self._fr is None:
            raise TypeError("unhashable: capped PadicScalar")
        return hash(self._fr)

    def __repr__(self):
        if self.is_exact:
            return f"{self._fr}"
        if self._n == 0:
            return f"O({self.p}^{self._v})"
        return f"{self._unit}*{self.p}^{self._v} + O({self.p}^{self._v + self._n})"


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
        va = INF if self.a.is_exact_zero() else self.a.val()
        vb = INF if self.b.is_exact_zero() else self.b.val()
        return va >= 0 and vb >= 0

    def _coerce(self, other) -> "QuadElt":
        if isinstance(other, QuadElt):
            return other
        if isinstance(other, PadicScalar):
            return QuadElt(other, PadicScalar(self.p, _fr=_FR_ZERO))
        if isinstance(other, (int, Fraction)):
            return QuadElt(self.a._coerce(other), PadicScalar(self.p, _fr=_FR_ZERO))
        raise TypeError(f"cannot coerce {type(other)} to QuadElt")

    def __add__(self, other):
        if isinstance(other, QuatElt):
            return NotImplemented
        o = self._coerce(other)
        return QuadElt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadElt(-self.a, -self.b)

    def __sub__(self, other):
        if isinstance(other, QuatElt):
            return NotImplemented
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (PadicScalar, int, Fraction)):
            return QuadElt(self.a * other, self.b * other)
        if isinstance(other, QuatElt):
            return NotImplemented
        o = self._coerce(other)
        a, b, c, d = self.a, self.b, o.a, o.b
        return QuadElt(a * c + b * d * self.p, a * d + b * c)

    __rmul__ = __mul__

    def inv(self) -> "QuadElt":
        n = self.norm()
        return QuadElt(self.a / n, -self.b / n)

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.a == o.a and self.b == o.b

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

    def _coerce(self, other) -> "QuatElt":
        if isinstance(other, QuatElt):
            return other
        if isinstance(other, QuadElt):
            return QuatElt(other, QuadElt.zero(self.p))
        if isinstance(other, (int, Fraction, PadicScalar)):
            z = QuadElt.zero(self.p)
            return QuatElt(z._coerce(other), z)
        raise TypeError(f"cannot coerce {type(other)} to QuatElt")

    def conj(self) -> "QuatElt":
        """Main involution: x + y*j -> conj(x) - y*j."""
        return QuatElt(self.x.conj(), -self.y)

    def trd(self) -> PadicScalar:
        return self.x.trace()

    def nrd(self) -> PadicScalar:
        eps = PadicScalar(self.p, _fr=Fraction(smallest_nonresidue(self.p)))
        return self.x.norm() - eps * self.y.norm()

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero()

    def is_integral(self) -> bool:
        return self.x.is_integral() and self.y.is_integral()

    def __add__(self, other):
        o = self._coerce(other)
        return QuatElt(self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __neg__(self):
        return QuatElt(-self.x, -self.y)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """(x1 + y1 j)(x2 + y2 j) = (x1 x2 + eps y1 conj(y2))
        + (x1 y2 + y1 conj(x2)) j.  Exact operands multiply on integer
        coordinates (`_int_coords`, `_int_quat_mul`); a capped coordinate
        raises PrecisionError."""
        o = self._coerce(other)
        p = self.p
        if o.p != p:
            raise InputError("mixed primes")
        u, v = _int_coords(self), _int_coords(o)
        if u is None or v is None:
            raise PrecisionError("the quaternion product takes exact coordinates only")
        den = u[0] * v[0]
        s = [PadicScalar(p, _fr=Fraction(t, den) if t else _FR_ZERO)
             for t in _int_quat_mul(u[1], v[1], p, smallest_nonresidue(p))]
        return QuatElt(QuadElt(s[0], s[1]), QuadElt(s[2], s[3]))

    def __rmul__(self, other):
        # scalar (central) multiplication only
        o = self._coerce(other)
        return o * self

    def inv(self) -> "QuatElt":
        n = self.nrd()
        c = self.conj()
        return QuatElt(QuadElt(c.x.a / n, c.x.b / n),
                       QuadElt(c.y.a / n, c.y.b / n))

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.x == o.x and self.y == o.y

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
    fa, fb, fc, fd = x.a._fr, x.b._fr, y.a._fr, y.b._fr
    if fa is None or fb is None or fc is None or fd is None:
        return None
    da, db, dc, dd = fa.denominator, fb.denominator, fc.denominator, fd.denominator
    den = math.lcm(da, db, dc, dd)
    return den, (fa.numerator * (den // da), fb.numerator * (den // db),
                 fc.numerator * (den // dc), fd.numerator * (den // dd))


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
    g = math.gcd(*(s for q in row for s in q))
    if g > 1:
        return [tuple(s // g for s in q) for q in row]
    return row


def _eliminate(rows, p: int, e: int) -> bool:
    """Fraction-free Gauss-Jordan, in place, on the primitive integer rows of
    [A | B]: clearing column col uses row_r <- N(P) row_r - (f conj(P)) row_col,
    with P the pivot, f the entry cleared and N(P) = a^2 - p b^2 - e(c^2 - p d^2)
    an integer, and each new row is divided by its content.  N(P) is nonzero:
    e = smallest_nonresidue(p), so the reduced norm of the division algebra is
    anisotropic.  With exact entries every nonzero pivot gives the same
    solution, so the first is taken.  False when A is singular."""
    n = len(rows)
    for col in range(n):
        piv = next((r for r in range(col, n) if any(rows[r][col])), None)
        if piv is None:
            return False
        rows[col], rows[piv] = rows[piv], rows[col]
        prow = rows[col]
        a, b, c, d = prow[col]
        norm = _int_nrd(prow[col], p, e)
        pconj = (a, -b, -c, -d)
        for r in range(n):
            f = rows[r][col]
            if r == col or not any(f):
                continue
            g = _int_quat_mul(f, pconj, p, e)
            rows[r] = _primitive([
                tuple(norm * s - t for s, t in zip(x, _int_quat_mul(g, y, p, e)))
                for x, y in zip(rows[r], prow)])
    return True


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


def _solve_rows(rows, p: int, signs):
    """Z with A Z = B from the primitive integer rows of [A | B], row i of Z
    multiplied by signs[i] = +-1; None when A is singular.  `_eliminate` makes
    A diagonal, and Fractions are built only for Z:
    Z_i = conj(D_i) R_i / N(D_i)."""
    e = smallest_nonresidue(p)
    if not _eliminate(rows, p, e):
        return None
    n = len(rows)
    out = []
    for i, (row, sign) in enumerate(zip(rows, signs)):
        a, b, c, d = row[i]
        norm = sign * _int_nrd(row[i], p, e)
        zs = []
        for y in row[n:]:
            s = [PadicScalar(p, _fr=Fraction(t, norm))
                 for t in _int_quat_mul((a, -b, -c, -d), y, p, e)]
            zs.append(QuatElt(QuadElt(s[0], s[1]), QuadElt(s[2], s[3])))
        out.append(zs)
    return out


def quat_solve(A, B):
    """Z with A Z = B, for a square A and exact QuatElt entries; None when A is
    singular.  Each row of [A | B] is multiplied by the lcm of its
    denominators, a central factor that leaves Z unchanged, to integer
    coordinates (`_int_rows`) and divided by their content; `_solve_rows`
    eliminates.  A capped entry raises PrecisionError."""
    p, rows = _int_rows([(*ra, *rb) for ra, rb in zip(A, B)])
    return _solve_rows([_primitive(row) for _, row in rows], p, [1] * len(rows))


def cayley_solve(M, signs, out_signs):
    """Z with (1 - S M) Z = 1 + S M for S = diag(signs), signs = +-1, and row i
    of Z multiplied by out_signs[i]; None when 1 - S M is singular.  The rows of
    [1 - S M | 1 + S M] are written from the integer coordinates of M over one
    denominator den per row (`_int_rows`): the sign s of row i negates M's
    coordinates on one side, and the 1 on the diagonal adds den to the first
    coordinate.  The entry checks are those of `quat_solve`."""
    p, rows = _int_rows(M)
    built = []
    for i, ((den, qs), s) in enumerate(zip(rows, signs)):
        neg = [(-a, -b, -c, -d) for a, b, c, d in qs]
        left, right = (neg, qs) if s > 0 else (qs, neg)
        for side in (left, right):
            a, b, c, d = side[i]
            side[i] = (den + a, b, c, d)
        built.append(_primitive(left + right))
    return _solve_rows(built, p, out_signs)
