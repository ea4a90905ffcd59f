"""Exact and capped-precision arithmetic for Q_p, its ramified quadratic
extension F = Q_p(pi) with pi^2 = p, and the quaternion division algebra
D = F + F*j with j^2 = eps, j*a = conj(a)*j.

Scalars come in two flavours: exact rationals (Fraction-backed) and capped
p-adic expansions storing a valuation plus finitely many unit digits.  Mixed
arithmetic coerces exact to capped; capped results track the worst-case
precision of their inputs, so a capped value is always a rigorous statement
"x = p^v * unit  mod p^(v+N)".

p is validated (odd prime) at the public entry points, PadicScalar.exact and
PadicScalar.capped; arithmetic trusts its operands and only checks that two
operands share their prime.  Capped scalars are unhashable: equality at the
shared precision is not transitive, so no hash can agree with it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NoSquareRootError, NotNormError, PrecisionError

DEFAULT_PRECISION = 24
_PRECISION = [DEFAULT_PRECISION]

INF = math.inf

_FR_ZERO = Fraction(0)


def set_default_precision(n: int) -> None:
    if n < 1:
        raise ValueError("precision must be positive")
    _PRECISION[0] = n


def get_default_precision() -> int:
    return _PRECISION[0]


def _check_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    # tiny primality check; primes used here are small
    d = 3
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"p must be an odd prime, got {p}")
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
    def capped(cls, p: int, v: int, unit: int, ndigits: int) -> "PadicScalar":
        _check_odd_prime(p)
        if ndigits < 0:
            raise ValueError("negative precision")
        return _capped(p, v, unit % p ** ndigits, ndigits)

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

    def to_capped(self, ndigits: int | None = None) -> "PadicScalar":
        if ndigits is None:
            ndigits = get_default_precision()
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

    @property
    def abs_precision(self):
        """Known modulo p^(this); INF for exact values."""
        if self.is_exact:
            return INF
        return self._v + self._n

    @property
    def rel_precision(self):
        if self.is_exact:
            return INF
        return self._n

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
                raise ValueError("mixed primes")
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
        o = self._coerce(other)
        d = self - o
        if d.is_exact:
            return d._fr == 0
        return d._n == 0

    def __eq__(self, other):
        try:
            return self.same_value(other)
        except (ValueError, TypeError):
            return NotImplemented

    def __hash__(self):
        # equality at shared precision is not transitive, so no hash can
        # agree with it on capped values
        if self._fr is None:
            raise TypeError("unhashable: capped PadicScalar")
        return hash((self.p, self._fr))

    def __repr__(self):
        if self.is_exact:
            return f"{self._fr}"
        if self._n == 0:
            return f"O({self.p}^{self._v})"
        return f"{self._unit}*{self.p}^{self._v} + O({self.p}^{self._v + self._n})"


def val(x: PadicScalar):
    return x.val()


def eta(x: PadicScalar) -> int:
    return x.eta()


def hensel_sqrt(u: PadicScalar, ndigits: int | None = None) -> PadicScalar:
    """Capped square root of u, when one exists in Q_p.

    Requires even valuation and quadratic-residue unit part.  The branch is
    deterministic: the root whose leading digit lies in 1..(p-1)/2 is chosen.
    """
    if ndigits is None:
        ndigits = get_default_precision()
    p = u.p
    v = u.val()
    if v is INF:
        return PadicScalar.exact(0, p)
    if v % 2:
        raise NoSquareRootError("no square root: odd valuation")
    u0 = u.unit_mod(1)
    if legendre(u0, p) != 1:
        raise NoSquareRootError(f"no square root: {u0} is not a QR mod {p}")
    n = ndigits
    target = u.unit_mod(n) if u.rel_precision >= n else u.unit_mod(int(u.rel_precision))
    if u.rel_precision < n:
        n = int(u.rel_precision)
    # square root mod p (p = 3 mod 4 shortcut, else Tonelli-Shanks)
    s = _sqrt_mod_p(target % p, p)
    # Newton lifting: s <- (s + target/s)/2, doubling precision each step
    k = 1
    while k < n:
        k = min(2 * k, n)
        m = p ** k
        s = (s + target * pow(s, -1, m)) % m * pow(2, -1, m) % m
    if s % p > (p - 1) // 2:
        s = (p ** n - s) % p ** n
    return PadicScalar.capped(p, v // 2, s, n)


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
            raise ValueError("mixed primes")
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
        return hash((self.a, self.b))

    def __repr__(self):
        return f"({self.a} + {self.b}*pi)"


class QuatElt:
    """x + y*j in D = F + F*j, with j^2 = eps a fixed non-residue unit and
    j*a = conj(a)*j for a in F."""

    __slots__ = ("x", "y", "eps")

    def __init__(self, x: QuadElt, y: QuadElt, eps=None):
        if x.p != y.p:
            raise ValueError("mixed primes")
        self.x = x
        self.y = y
        self.eps = Fraction(eps) if eps is not None else Fraction(smallest_nonresidue(x.p))

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
            if other.eps != self.eps:
                raise ValueError("mixed quaternion models")
            return other
        if isinstance(other, QuadElt):
            return QuatElt(other, QuadElt.zero(self.p), self.eps)
        if isinstance(other, (int, Fraction, PadicScalar)):
            z = QuadElt.zero(self.p)
            return QuatElt(z._coerce(other), z, self.eps)
        raise TypeError(f"cannot coerce {type(other)} to QuatElt")

    def conj(self) -> "QuatElt":
        """Main involution: x + y*j -> conj(x) - y*j."""
        return QuatElt(self.x.conj(), -self.y, self.eps)

    def trd(self) -> PadicScalar:
        return self.x.trace()

    def nrd(self) -> PadicScalar:
        eps = PadicScalar(self.p, _fr=self.eps)
        return self.x.norm() - eps * self.y.norm()

    def v_d(self):
        """Valuation v(Nrd), normalized with v(p) = 1 so v_D(pi) = 1, v_D(j) = 0.

        Exact even on capped data: the two norm summands can never cancel.
        """
        vx = self.x.val_f()
        vy = self.y.val_f()
        return min(vx, vy)

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero()

    def is_integral(self) -> bool:
        return self.x.is_integral() and self.y.is_integral()

    def plus_part(self) -> "QuatElt":
        """Component fixed by conjugation by pi (the F-part)."""
        return QuatElt(self.x, QuadElt.zero(self.p), self.eps)

    def minus_part(self) -> "QuatElt":
        return QuatElt(QuadElt.zero(self.p), self.y, self.eps)

    def __add__(self, other):
        o = self._coerce(other)
        return QuatElt(self.x + o.x, self.y + o.y, self.eps)

    __radd__ = __add__

    def __neg__(self):
        return QuatElt(-self.x, -self.y, self.eps)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        x1, y1, x2, y2 = self.x, self.y, o.x, o.y
        eps = PadicScalar(self.p, _fr=self.eps)
        return QuatElt(x1 * x2 + eps * y1 * y2.conj(),
                       x1 * y2 + y1 * x2.conj(), self.eps)

    def __rmul__(self, other):
        # scalar (central) multiplication only
        o = self._coerce(other)
        return o * self

    def inv(self) -> "QuatElt":
        n = self.nrd()
        c = self.conj()
        return QuatElt(QuadElt(c.x.a / n, c.x.b / n),
                       QuadElt(c.y.a / n, c.y.b / n), self.eps)

    def __truediv__(self, other):
        return self * self._coerce(other).inv()

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.x == o.x and self.y == o.y

    def __hash__(self):
        return hash((self.x, self.y, self.eps))

    def __repr__(self):
        return f"[{self.x} + {self.y}*j]"


def solve_norm_F(target: PadicScalar, ndigits: int | None = None) -> QuadElt:
    """An element a + b*pi of F with norm a^2 - b^2 p = target (capped).

    Norms are generated by -p and unit squares: even-valuation targets come
    from F0, odd ones from multiples of pi.
    """
    if ndigits is None:
        ndigits = get_default_precision()
    p = target.p
    if target.is_exact_zero():
        return QuadElt.zero(p)
    if target.eta() != 1:
        raise NotNormError(f"not a norm: eta = -1 for {target!r}")
    v = target.val()
    zero = PadicScalar.exact(0, p)
    if v % 2 == 0:
        # target = (p^{v/2} s)^2 with s^2 = unit part
        u = target * PadicScalar.exact(Fraction(1, p ** v), p)
        s = hensel_sqrt(u, ndigits)
        return QuadElt(s * PadicScalar.exact(p ** (v // 2), p), zero)
    # target = -p * (p^{(v-1)/2} s)^2, norm(b*pi) = -p b^2
    u = target * PadicScalar.exact(Fraction(-1, p ** v), p)
    s = hensel_sqrt(u, ndigits)
    return QuadElt(zero, s * PadicScalar.exact(p ** ((v - 1) // 2), p))
