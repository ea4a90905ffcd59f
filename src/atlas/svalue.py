"""Exact algebra of the complex twist parameter: Laurent polynomials in
X = q^(-s) with rational coefficients, their derivative at X = 1
(equivalently s = 0), and finite log q-graded values.  Both are finite
integer-graded sums of Fractions and share one arithmetic; a Laurent
polynomial and a graded value never compare or add to each other."""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError


class _Graded:
    """A finite sum  sum_k c_k g^k  with rational coefficients and integer
    grades (negative grades allowed); g is named by the subclass."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p: int):
        self.coeffs = {int(k): Fraction(v) for k, v in coeffs.items() if v != 0}
        self.p = p

    @classmethod
    def const(cls, c, p: int):
        return cls({0: Fraction(c)}, p)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other):
        if type(other) is type(self):
            if other.p != self.p:
                raise InputError("mixed primes")
            return other
        if isinstance(other, _Graded):
            raise TypeError(f"{type(self).__name__} and "
                            f"{type(other).__name__} do not mix")
        return self.const(other, self.p)

    def __add__(self, other):
        o = self._check(other)
        out = dict(self.coeffs)
        for k, v in o.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return type(self)(out, self.p)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({k: -v for k, v in self.coeffs.items()}, self.p)

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
        return type(self)(out, self.p)

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            o = self._check(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # a constant equals its coefficient, so it hashes like it
        if set(self.coeffs) <= {0}:
            return hash(self.grade(0))
        return hash((tuple(sorted(self.coeffs.items())), self.p))

    def grade(self, k: int) -> Fraction:
        return self.coeffs.get(k, Fraction(0))


class LaurentX(_Graded):
    """A Laurent polynomial in X = q^(-s)."""

    __slots__ = ()

    def __repr__(self):
        # as the quotient num/X^m in lowest terms, m the pole order at X = 0
        m = max(0, -min(self.coeffs, default=0))
        num = _terms({k + m: c for k, c in self.coeffs.items()}, "X")
        if m == 0:
            return num
        return f"({num})/({_terms({m: Fraction(1)}, 'X')})"


class LogQVal(_Graded):
    """A finite sum  sum_k c_k (log q)^k."""

    __slots__ = ()

    # an __init__ of its own: bench/tracer.py counts LogQVal constructions
    # by patching LogQVal.__init__
    __init__ = _Graded.__init__

    def __repr__(self):
        return _terms(self.coeffs, "logq")


def _terms(coeffs, symbol: str) -> str:
    parts = []
    for k in sorted(coeffs):
        c = coeffs[k]
        if k == 0:
            parts.append(f"{c}")
        elif k == 1:
            parts.append(f"{c}*{symbol}")
        else:
            parts.append(f"{c}*{symbol}^{k}")
    return " + ".join(parts) if parts else "0"


def zeta1(p: int) -> Fraction:
    """zeta(1) = 1/(1 - q^{-1})."""
    return 1 / (1 - Fraction(1, p))


def dds_s0(f: LaurentX) -> LogQVal:
    """d/ds at s = 0: with X = q^(-s), each X^k contributes -k log q."""
    return LogQVal({1: -sum(k * c for k, c in f.coeffs.items())}, f.p)
