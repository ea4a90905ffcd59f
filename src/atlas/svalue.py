"""Exact algebra of the complex twist parameter: rational functions in
X = q^(-s) with rational coefficients, their derivative at X = 1
(equivalently s = 0), and finite log q-graded values."""

from __future__ import annotations

from fractions import Fraction

from .errors import PoleError

# polynomials are coefficient lists, index = degree, over Fraction


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _padd(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _pneg(a):
    return [-x for x in a]


def _pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = a[:]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    while len(a) >= len(b) and a:
        c = a[-1] * inv
        d = len(a) - len(b)
        q[d] = c
        for i, x in enumerate(b):
            a[d + i] -= c * x
        _trim(a)
    return _trim(q), a


def _pgcd(a, b):
    a, b = a[:], b[:]
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if a:
        inv = 1 / a[-1]
        a = [x * inv for x in a]
    return a


def _peval(a, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(a):
        out = out * x + c
    return out


def _pderiv(a):
    return _trim([i * a[i] for i in range(1, len(a))])


class RatX:
    """A rational function of X = q^(-s) in lowest terms with monic
    denominator."""

    __slots__ = ("num", "den", "p")

    def __init__(self, num, den, p: int):
        num = _trim([Fraction(c) for c in num])
        den = _trim([Fraction(c) for c in den])
        if not den:
            raise ZeroDivisionError("zero denominator")
        g = _pgcd(num, den)
        if len(g) > 1:
            num = _pdivmod(num, g)[0]
            den = _pdivmod(den, g)[0]
        # clear common X-powers
        z = 0
        while z < len(num) and z < len(den) and num[z] == 0 and den[z] == 0:
            z += 1
        if z:
            num, den = num[z:], den[z:]
        if den and den[-1] != 1:
            inv = 1 / den[-1]
            num = [c * inv for c in num]
            den = [c * inv for c in den]
        self.num = num
        self.den = den
        self.p = p

    @classmethod
    def const(cls, c, p: int) -> "RatX":
        return cls([Fraction(c)], [1], p)

    @classmethod
    def x_power(cls, k: int, p: int) -> "RatX":
        """X^k, any integer k."""
        if k >= 0:
            return cls([0] * k + [1], [1], p)
        return cls([1], [0] * (-k) + [1], p)

    def is_zero(self) -> bool:
        return not self.num

    def _check(self, other) -> "RatX":
        if isinstance(other, RatX):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        return RatX.const(other, self.p)

    def __add__(self, other):
        o = self._check(other)
        num = _padd(_pmul(self.num, o.den), _pmul(o.num, self.den))
        return RatX(num, _pmul(self.den, o.den), self.p)

    __radd__ = __add__

    def __neg__(self):
        return RatX(_pneg(self.num), self.den, self.p)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._check(other)
        return RatX(_pmul(self.num, o.num), _pmul(self.den, o.den), self.p)

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            o = self._check(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((tuple(self.num), tuple(self.den), self.p))

    def __repr__(self):
        def fmt(c):
            terms = []
            for i, a in enumerate(c):
                if a == 0:
                    continue
                if i == 0:
                    terms.append(f"{a}")
                elif i == 1:
                    terms.append(f"{a}*X")
                else:
                    terms.append(f"{a}*X^{i}")
            return " + ".join(terms) if terms else "0"
        if self.den == [Fraction(1)]:
            return fmt(self.num)
        return f"({fmt(self.num)})/({fmt(self.den)})"


class LogQVal:
    """A finite sum  sum_k c_k (log q)^k  with rational coefficients and
    integer grades (negative grades allowed)."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p: int):
        self.coeffs = {int(k): Fraction(v) for k, v in coeffs.items() if v != 0}
        self.p = p

    @classmethod
    def const(cls, c, p: int) -> "LogQVal":
        return cls({0: Fraction(c)}, p)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other) -> "LogQVal":
        if isinstance(other, LogQVal):
            if other.p != self.p:
                raise ValueError("mixed primes")
            return other
        return LogQVal.const(other, self.p)

    def __add__(self, other):
        o = self._check(other)
        out = dict(self.coeffs)
        for k, v in o.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return LogQVal(out, self.p)

    __radd__ = __add__

    def __neg__(self):
        return LogQVal({k: -v for k, v in self.coeffs.items()}, self.p)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._check(other)
        out = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in o.coeffs.items():
                out[k1 + k2] = out.get(k1 + k2, Fraction(0)) + v1 * v2
        return LogQVal(out, self.p)

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            o = self._check(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((tuple(sorted(self.coeffs.items())), self.p))

    def grade(self, k: int) -> Fraction:
        return self.coeffs.get(k, Fraction(0))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*logq")
            else:
                parts.append(f"{c}*logq^{k}")
        return " + ".join(parts)


def zeta1(p: int) -> Fraction:
    """zeta(1) = 1/(1 - q^{-1})."""
    return 1 / (1 - Fraction(1, p))


def dds_s0(f: RatX) -> LogQVal:
    """d/ds at s = 0: with X = q^(-s), this is (-log q) * X f'(X) at X = 1."""
    n, d = f.num, f.den
    dv = _peval(d, Fraction(1))
    if dv == 0:
        raise PoleError("pole at s=0")
    nv = _peval(n, Fraction(1))
    deriv = (_peval(_pderiv(n), Fraction(1)) * dv - nv * _peval(_pderiv(d), Fraction(1))) / (dv * dv)
    return LogQVal({1: -deriv}, f.p)
