import json
import math
import operator
import random
import re
from fractions import Fraction

import pytest

from atlas import padic
from atlas.cli import main
from atlas.errors import InputError, PrecisionError
from atlas.orbits import BPoint, _rational_sqrt, case_of, quat_mat_solve
from atlas.padic import (DEFAULT_PRECISION, PadicScalar, QuadElt, QuatElt,
                         _sqrt_mod_p, eta, legendre, smallest_nonresidue, val)
from atlas.serialize import decode_scalar
from atlas.values import transfer_sign_0ii

INF = math.inf


def exact(x, p):
    return PadicScalar.exact(Fraction(x), p)


def capped(p, v, unit, ndigits):
    """The capped fixture p^v * unit + O(p^(v + ndigits)), unit prime to p,
    built by to_capped; ndigits = 0 gives O(p^v)."""
    if ndigits == 0:
        return exact(0, p).to_capped(v)
    return exact(Fraction(unit) * Fraction(p) ** v, p).to_capped(ndigits)


def abs_precision(s):
    """A capped scalar is known modulo p^(this); INF for exact values."""
    return s._prec


def rel_precision(s):
    """The unit digits a capped scalar stores; INF for exact values."""
    return INF if s.is_exact else s._prec - min(val(s._fr, s.p), s._prec)


def v_d(q):
    """Valuation v(Nrd), normalized with v(p) = 1 so v_D(pi) = 1, v_D(j) = 0.

    Exact even on capped data: the two norm summands can never cancel.
    """
    return min(q.x.val_f(), q.y.val_f())


def plus_part(q):
    """Component fixed by conjugation by pi (the F-part)."""
    return QuatElt(q.x, QuadElt.zero(q.p))


def minus_part(q):
    return QuatElt(QuadElt.zero(q.p), q.y)


# Inverses and the reduced norm, which no verdict reads: the library
# multiplies on integer coordinates and never divides an element of F or D.


def quad_inv(z):
    """1/z = conj(z)/N(z) in F."""
    n = z.norm()
    return QuadElt(z.a / n, -z.b / n)


def quat_nrd(q):
    """The reduced norm N(x) - eps N(y) of q = x + y j."""
    eps = PadicScalar.exact(smallest_nonresidue(q.p), q.p)
    return q.x.norm() - eps * q.y.norm()


def quat_inv(q):
    """1/q = conj(q)/Nrd(q) in D."""
    n = quat_nrd(q)
    c = q.conj()
    return QuatElt(QuadElt(c.x.a / n, c.x.b / n), QuadElt(c.y.a / n, c.y.b / n))


def quad_formula(q1, q2):
    """(x1 + y1 j)(x2 + y2 j) from QuadElt arithmetic: the reference for the
    QuatElt product."""
    x1, y1, x2, y2 = q1.x, q1.y, q2.x, q2.y
    eps = PadicScalar(q1.p, _fr=Fraction(smallest_nonresidue(q1.p)))
    return QuatElt(x1 * x2 + eps * y1 * y2.conj(),
                   x1 * y2 + y1 * x2.conj())


class TestVal:
    def test_examples(self):
        assert exact(5, 5).val() == 1
        assert exact(Fraction(1, 25), 5).val() == -2
        assert exact(0, 5).val() == INF

    def test_precision_exhausted(self):
        z = PadicScalar.zero_at(5, 3)
        with pytest.raises(PrecisionError):
            z.val()

    def test_multiplicative(self):
        random.seed(0)
        for p in (3, 5, 7):
            for _ in range(200):
                a = Fraction(random.randint(1, 400), random.randint(1, 400))
                b = Fraction(-random.randint(1, 400), random.randint(1, 400))
                x, y = exact(a, p), exact(b, p)
                assert (x * y).val() == x.val() + y.val()
                assert (x * y).eta() == x.eta() * y.eta()
                assert (x * x).eta() == 1


def count_val(x: Fraction, p: int) -> int:
    """v(x) of a nonzero rational by dividing out p one factor at a time."""
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


class TestValEtaFunctions:
    """padic.val and padic.eta, the one implementation on rationals, against
    the PadicScalar methods of the exact value and of its capped copy (whose
    branch reads its own digits) and against a count of factors of p."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_agree_with_the_scalar_methods(self, p):
        rng = random.Random(2300 + p)
        signs = set()
        for _ in range(300):
            num = rng.choice((-1, 1)) * rng.randint(1, 999)
            x = Fraction(num, rng.randint(1, 999)) * Fraction(p) ** rng.randint(-3, 3)
            s = exact(x, p)
            v = val(x, p)
            assert v == count_val(x, p) == s.val() == s.to_capped().val()
            assert eta(x, p) == s.eta() == s.to_capped().eta()
            signs.add((v > 0) - (v < 0))
        assert signs == {-1, 0, 1}

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_zero(self, p):
        assert val(Fraction(0), p) == val(0, p) == exact(0, p).val() == INF
        for bad in (lambda: eta(Fraction(0), p), lambda: exact(0, p).eta()):
            with pytest.raises(ValueError, match="eta of zero"):
                bad()


class TestIntPath:
    """val and eta read an int directly and a Fraction through
    padic._frac_split: on seeded ints the two paths agree."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_int_matches_the_rational_path(self, p):
        rng = random.Random(3700 + p)
        ints = [0]
        for k in range(61):
            for _ in range(3):
                unit = p * rng.randrange(10 ** 5) + rng.randrange(1, p)
                ints += [unit * p ** k, -unit * p ** k]
        signs = set()
        for n in ints:
            assert val(n, p) == val(Fraction(n), p) == (count_val(Fraction(n), p) if n else INF)
            if n:
                assert eta(n, p) == eta(Fraction(n), p)
                signs.add(eta(n, p))
        assert signs == {-1, 1}
        with pytest.raises(ValueError, match="eta of zero"):
            eta(0, p)

    def test_a_bool_takes_the_rational_path(self, monkeypatch):
        seen = []
        split = padic._frac_split
        monkeypatch.setattr(padic, "_frac_split", lambda x, p: seen.append(x) or split(x, p))
        assert (val(7, 3), eta(7, 3)) == (0, 1)
        assert seen == []
        assert (val(True, 3), eta(True, 3), val(False, 3)) == (0, 1, INF)
        assert [type(x) for x in seen] == [bool] * 3


class TestEta:
    def test_examples(self):
        assert exact(4, 5).eta() == 1
        assert exact(5, 5).eta() == 1
        assert exact(3, 3).eta() == -1

    def test_brute_force_norm_oracle(self):
        # enumerate norms a^2 - p b^2 mod p^3 and compare membership with eta
        for p in (3, 5, 7):
            eps = smallest_nonresidue(p)
            mod = p ** 3
            norms = set()
            for a in range(mod):
                aa = a * a % mod
                for b in range(mod):
                    norms.add((aa - p * b * b) % mod)
            for x in (1, eps, p, eps * p):
                member = x % mod in norms
                assert (exact(x, p).eta() == 1) == member


class TestCapped:
    def test_tracking(self):
        x = capped(5, 0, 7, 4)
        y = capped(5, 0, 7 + 125, 3)
        d = x - y
        # difference is O(5^3): nothing is known about its unit part
        assert d.is_zero_at_precision()
        assert abs_precision(d) == 3

    def test_mixed_coercion(self):
        x = capped(5, 1, 2, 4)
        y = exact(Fraction(3, 7), 5)
        z = x * y
        assert not z.is_exact
        assert z.val() == 1

    def test_inv_round_trip(self):
        x = capped(7, -2, 12, 6)
        assert (x * x.inv() - 1).is_zero_at_precision()
        # powers agree with the repeated product digit for digit
        for y in (x, exact(Fraction(-14, 3), 7), capped(7, 1, 3, 0)):
            for k in range(-3, 10):
                if k < 0 and y.is_zero_at_precision():
                    continue
                prod = exact(1, 7)
                for _ in range(abs(k)):
                    prod = prod * (y if k > 0 else y.inv())
                got = y ** k
                assert got.is_exact == prod.is_exact and repr(got) == repr(prod)

    def test_hash_agrees_with_eq(self):
        one = exact(1, 3)
        a = capped(3, 0, 1, 5)
        b = capped(3, 0, 1 + 3 ** 5, 8)
        assert one == a and a == b and one != b
        assert hash(one) == hash(exact(Fraction(4, 4), 3))
        # equality at shared precision is not transitive: capped values,
        # and elements built from them, have no hash
        for value in (a, QuadElt(one, a), QuatElt.from_f(QuadElt(a, one))):
            with pytest.raises(TypeError):
                hash(value)
        with pytest.raises(TypeError):
            {one, a, b}

    def test_hash_agrees_with_eq_across_types(self):
        random.seed(4)
        for p in (3, 5):
            for _ in range(50):
                r = Fraction(random.randint(-99, 99), random.randint(1, 99))
                s = exact(r, p)
                q = QuadElt(s, exact(0, p))
                d = QuatElt.from_f(q)
                for x, y in ((s, r), (q, r), (q, s), (d, r), (d, s), (d, q)):
                    assert x == y and y == x
                    assert hash(x) == hash(y)
        assert len({exact(1, 3), 1, Fraction(1), QuadElt.exact(1, 0, 3),
                    QuatElt.one(3)}) == 1


class DigitRef:
    """The digit implementation of capped scalars that PadicScalar's
    (r, prec) form replaced, kept as the reference for it: an exact rational
    fr, or (fr None) the value p^v * unit + O(p^(v+n)) with 0 <= unit < p^n,
    unit prime to p when n > 0, and n == 0 for a value known only to be
    O(p^v).  Mixed arithmetic caps the exact operand."""

    def __init__(self, p, fr=None, v=None, unit=None, n=None):
        self.p, self.fr, self.v, self.unit, self.n = p, fr, v, unit, n

    @classmethod
    def capped(cls, p, v, unit, n):
        """p^v * unit + O(p^(v+n)) for 0 <= unit < p^n, with p-divisible
        digits stripped into the valuation."""
        while n > 0 and unit % p == 0:
            if unit == 0:
                return cls(p, v=v + n, unit=0, n=0)
            unit //= p
            v += 1
            n -= 1
        return cls(p, v=v, unit=unit if n else 0, n=n)

    @classmethod
    def from_rational_absprec(cls, value, p, absprec):
        value = Fraction(value)
        if value == 0 or val(value, p) >= absprec:
            return cls(p, v=absprec, unit=0, n=0)
        v = val(value, p)
        return cls(p, v=v, unit=_unit_digits(value, p, absprec - v), n=absprec - v)

    def to_capped(self, ndigits):
        if self.fr == 0:
            return DigitRef(self.p, v=ndigits, unit=0, n=0)
        return DigitRef(self.p, v=val(self.fr, self.p),
                        unit=_unit_digits(self.fr, self.p, ndigits), n=ndigits)

    @property
    def is_exact(self):
        return self.fr is not None

    def is_zero_at_precision(self):
        return self.fr == 0 if self.is_exact else self.n == 0

    def val(self):
        if self.is_exact:
            return val(self.fr, self.p)
        if self.n == 0:
            raise PrecisionError(f"precision exhausted: value is O({self.p}^{self.v})")
        return self.v

    def unit_mod(self, k):
        if self.is_exact:
            if self.fr == 0:
                raise PrecisionError("unit part of zero")
            return _unit_digits(self.fr, self.p, k)
        if self.n < k:
            raise PrecisionError(f"only {self.n} unit digits stored, {k} requested")
        return self.unit % self.p ** k

    def eta(self):
        if self.is_exact:
            return eta(self.fr, self.p)
        v = self.val()
        s = legendre(self.unit, self.p)
        return s * legendre(-1, self.p) if v % 2 else s

    def __add__(self, o):
        p = self.p
        if o.is_exact and o.fr == 0:
            return self
        a, b = self, o
        if a.is_exact:
            if a.fr == 0:
                return o
            if b.is_exact:
                return DigitRef(p, fr=a.fr + b.fr)
            a, b = b, a
        # a is capped: rebase both to integers times p^base, mod p^m
        if b.is_exact:
            m = a.v + a.n
            b = DigitRef.from_rational_absprec(b.fr, p, m)
        else:
            m = min(a.v + a.n, b.v + b.n)
        base = min([m] + [s.v for s in (a, b) if s.n])
        raw = sum(s.unit * p ** (s.v - base) for s in (a, b) if s.n) % p ** (m - base)
        if raw == 0 or base + val(raw, p) >= m:
            return DigitRef(p, v=m, unit=0, n=0)
        v0 = val(raw, p)
        return DigitRef.capped(p, base + v0, raw // p ** v0, m - base - v0)

    def __neg__(self):
        if self.is_exact:
            return DigitRef(self.p, fr=-self.fr)
        if self.n == 0:
            return self
        return DigitRef.capped(self.p, self.v, -self.unit % self.p ** self.n, self.n)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        p = self.p
        a, b = self, o
        if a.is_exact:
            if b.is_exact:
                return DigitRef(p, fr=a.fr * b.fr)
            a, b = b, a
        # a is capped; an exact b is capped at a's relative precision
        if b.is_exact:
            if b.fr == 0:
                return b
            v, n = a.v + val(b.fr, p), a.n
            unit = a.unit * _unit_digits(b.fr, p, n) if n else 0
        else:
            v, n = a.v + b.v, min(a.n, b.n)
            unit = a.unit * b.unit
        if n == 0:
            return DigitRef(p, v=v, unit=0, n=0)
        return DigitRef.capped(p, v, unit % p ** n, n)

    def inv(self):
        if self.is_exact:
            if self.fr == 0:
                raise ZeroDivisionError("inverse of zero")
            return DigitRef(self.p, fr=1 / self.fr)
        if self.n == 0:
            raise PrecisionError("inverse of a value indistinguishable from zero")
        return DigitRef.capped(self.p, -self.v, pow(self.unit, -1, self.p ** self.n), self.n)

    def __truediv__(self, o):
        return self * o.inv()

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        out, sq = DigitRef(self.p, fr=Fraction(1)), self
        while k:
            if k & 1:
                out = out * sq
            k >>= 1
            if k:
                sq = sq * sq
        return out

    def __repr__(self):
        if self.is_exact:
            return f"{self.fr}"
        if self.n == 0:
            return f"O({self.p}^{self.v})"
        return f"{self.unit}*{self.p}^{self.v} + O({self.p}^{self.v + self.n})"


def _unit_digits(x: Fraction, p: int, k: int) -> int:
    """The unit part of a nonzero rational x, mod p^k."""
    u = x / Fraction(p) ** val(x, p)
    return u.numerator * pow(u.denominator, -1, p ** k) % p ** k


def digit_operands(p, rng, count):
    """count pairs (PadicScalar, DigitRef) of one value: exact (zero among
    them), capped by to_capped with 0..8 digits, by from_rational_absprec
    (zero at precision when v >= absprec) and zero_at, valuations -3..6."""
    out = [(exact(0, p), DigitRef(p, fr=Fraction(0)))]
    while len(out) < count:
        v = rng.randint(-3, 6)
        num, den = (rng.choice([c for c in range(1, p ** 3) if c % p]) for _ in "nd")
        x = Fraction(rng.choice((-1, 1)) * num, den) * Fraction(p) ** v
        kind = rng.randrange(4)
        if kind == 0:
            out.append((exact(x, p), DigitRef(p, fr=x)))
        elif kind == 1:
            nd = rng.randint(0, 8)
            out.append((exact(x, p).to_capped(nd), DigitRef(p, fr=x).to_capped(nd)))
        elif kind == 2:
            prec = v + rng.randint(-2, 8)
            out.append((PadicScalar.from_rational_absprec(x, p, prec),
                        DigitRef.from_rational_absprec(x, p, prec)))
        else:
            out.append((PadicScalar.zero_at(p, v), DigitRef(p, v=v, unit=0, n=0)))
    return out


def outcome(fn):
    """What fn() gives, comparable across the two implementations: the
    exactness and repr of a scalar, any other value as it is, or the type
    of the error raised."""
    try:
        r = fn()
    except (ArithmeticError, ValueError, PrecisionError) as exc:
        return type(exc)
    if isinstance(r, (PadicScalar, DigitRef)):
        return r.is_exact, repr(r)
    return r


class TestDigitReference:
    """PadicScalar's (r, prec) formulas against the digit implementation,
    operation by operation, on seeded operands of every flavour."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_matches_the_digit_implementation(self, p):
        rng = random.Random(2400 + p)
        operands = digit_operands(p, rng, 30)
        flavours = {(s.is_exact, s.is_zero_at_precision()) for s, _ in operands}
        assert flavours == {(True, True), (True, False), (False, True), (False, False)}
        unary = [lambda x: x.inv(), lambda x: -x, lambda x: x.val(),
                 lambda x: x.eta(), lambda x: x.is_zero_at_precision(),
                 lambda x: x.is_exact, repr]
        unary += [lambda x, k=k: x ** k for k in range(-3, 10)]
        unary += [lambda x, k=k: x.unit_mod(k) for k in range(1, 10)]
        for s, d in operands:
            for op in unary:
                assert outcome(lambda: op(s)) == outcome(lambda: op(d)), (s, d)
            for t, e in operands:
                for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                    assert outcome(lambda: op(s, t)) == outcome(lambda: op(d, e)), \
                        (op, s, t)


class TestBoundaryValidation:
    @pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
    def test_rejects_non_odd_prime(self, p):
        with pytest.raises(ValueError):
            PadicScalar.exact(1, p)
        with pytest.raises(ValueError):
            decode_scalar({"num": "1", "den": "1"}, p)
        with pytest.raises(ValueError):
            BPoint.exact(1, 1, 0, p)

    def test_to_capped_rejects_negative_precision(self):
        for x in (exact(Fraction(3, 5), 5), capped(5, 0, 2, 4)):
            with pytest.raises(InputError, match="negative precision -1"):
                x.to_capped(-1)
        assert exact(3, 5).to_capped(0).is_zero_at_precision()

    def test_rejects_mixed_primes(self):
        pairs = [(exact(2, 3), exact(2, 5)),
                 (capped(3, 0, 2, 4), capped(5, 0, 2, 4)),
                 (exact(2, 3), capped(5, 0, 2, 4))]
        # QuadElt and QuatElt, exact with exact and exact with capped; j^2 = 2
        # at both primes, so only the prime tells the quaternions apart
        assert smallest_nonresidue(3) == smallest_nonresidue(5) == 2
        for p, q in ((3, 5), (5, 3)):
            x = QuadElt.exact(2, 1, p)
            pairs += [(x, QuadElt.exact(2, 1, q)),
                      (x, QuadElt(capped(q, 0, 2, 4), exact(1, q)))]
            z = QuatElt(x, QuadElt.exact(1, 1, p))
            pairs += [(z, QuatElt(QuadElt.exact(2, 1, q), QuadElt.exact(1, 1, q))),
                      (z, QuatElt(QuadElt(capped(q, 0, 2, 4), exact(1, q)),
                                  QuadElt.exact(1, 1, q)))]
        for x, y in pairs:
            for a, b in ((x, y), (y, x)):
                with pytest.raises(InputError, match="mixed primes"):
                    a + b
                with pytest.raises(InputError, match="mixed primes"):
                    a * b
        # the constructors and the solve check the prime too
        x3, x5 = QuadElt.exact(2, 1, 3), QuadElt.exact(2, 1, 5)
        for bad in (lambda: QuadElt(exact(1, 3), exact(1, 5)),
                    lambda: QuatElt(x3, x5),
                    lambda: quat_mat_solve([[QuatElt(x3, x3)]], [[QuatElt(x5, x5)]])):
            with pytest.raises(InputError, match="mixed primes"):
                bad()


class NoSquareRootError(Exception):
    pass


def hensel_sqrt(u: PadicScalar, ndigits: int = DEFAULT_PRECISION) -> PadicScalar:
    """Capped square root of u, when one exists in Q_p.

    Requires even valuation and quadratic-residue unit part.  The branch is
    deterministic: the root whose leading digit lies in 1..(p-1)/2 is chosen.
    """
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
    target = u.unit_mod(n) if rel_precision(u) >= n else u.unit_mod(int(rel_precision(u)))
    if rel_precision(u) < n:
        n = int(rel_precision(u))
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
    return capped(p, v // 2, s, n)


def padic_sqrt(x: PadicScalar) -> PadicScalar:
    """Square root in Q_p: exact when the rational is a perfect square,
    otherwise a capped Hensel lift.  The case-0ii transfer sign is eta(-root)
    of this root of -lam0/p."""
    if x.is_exact:
        r = _rational_sqrt(x.rational)
        if r is not None:
            return PadicScalar.exact(r, x.p)
    return hensel_sqrt(x)


class TestHensel:
    def test_examples(self):
        s = hensel_sqrt(exact(4, 5), 3)
        assert s.unit_mod(3) == 2            # leading-digit rule picks 2
        s = hensel_sqrt(exact(-1, 5), 3)
        assert s.unit_mod(3) == 57           # roots are {57, 68}
        with pytest.raises(NoSquareRootError):
            hensel_sqrt(exact(2, 5), 3)

    def test_even_valuation_shift(self):
        s = hensel_sqrt(exact(4 * 25, 5), 4)
        assert s.val() == 1
        assert (s * s - 100).is_zero_at_precision()

    def test_random_residues(self):
        random.seed(12)
        n = DEFAULT_PRECISION
        for p in (3, 5, 7):
            count = 0
            while count < 1000:
                u = random.randint(1, p ** 6)
                if u % p == 0 or legendre(u, p) != 1:
                    continue
                s = hensel_sqrt(exact(u, p), n)
                d = s * s - u
                assert d.is_zero_at_precision() and abs_precision(d) >= n
                count += 1

    def test_branch_determinism(self):
        for p in (3, 5, 7):
            s = hensel_sqrt(exact(1, p), 10)
            assert s.unit_mod(1) <= (p - 1) // 2


def case_0ii_sweep(rng, count):
    """count case-0ii base points (lam0, 0, 0) per prime p = 3, 5, 7, 11, 13
    and per v(lam0) = 1, 3, 5: -lam0/p is p^(v-1) times a unit num/den, den
    1 for odd k and prime to p for even k, so lam0 is an integer or not, and
    every fifth unit a rational square."""
    for p in (3, 5, 7, 11, 13):
        for v in (1, 3, 5):
            for k in range(count):
                den = 1 if k % 2 else rng.choice([b for b in range(2, 60) if b % p])
                if k % 5 == 0:
                    num = rng.choice([a for a in range(1, 60) if a % p])
                    unit = Fraction(num, den) ** 2
                else:
                    num = 0
                    while num % p == 0 or legendre(num * den, p) != 1:
                        num = rng.randint(1, p ** 6)
                    unit = Fraction(num, den)
                yield BPoint.exact(-unit * p ** v, 0, 0, p)


class TestTransferSign0ii:
    def test_matches_the_hensel_root_reference(self):
        # the sign read from residues against eta(-alpha) for the root the
        # case-0ii convention fixes, exact or lifted to DEFAULT_PRECISION
        rng = random.Random(61)
        points = list(case_0ii_sweep(rng, 660))
        assert len(points) == 9900
        for x0 in points:
            assert case_of(x0) == "0ii"
            want = (-padic_sqrt(-(x0.lam / x0.p))).eta()
            assert transfer_sign_0ii(x0) == want, x0

    def test_both_branches_of_the_convention(self):
        # -lam0/p = 4: the positive rational root 2 gives +1, while the root
        # with leading digit in 1..(p-1)/2, which is -2, gives -1
        x0 = BPoint.exact(-12, 0, 0, 3)
        assert transfer_sign_0ii(x0) == 1
        assert (-hensel_sqrt(exact(4, 3))).eta() == -1

    @pytest.mark.parametrize("lam0, p, y_mm", [(-12, 3, "-1"), (-30, 5, "1")])
    def test_forced_s_output(self, lam0, p, y_mm, capsys):
        argv = ["values", "--what", "forced-s", "--params", str(lam0), "0", "0",
                "--p", str(p)]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["case"] == "0ii"
        assert out["values"]["y_mm"] == y_mm


class TestQuadElt:
    def test_norm_of_pi(self):
        pi = QuadElt.pi(5)
        assert pi.norm().rational == -5
        assert pi.val_f() == 1

    def test_identities(self):
        random.seed(3)
        for p in (3, 7):
            for _ in range(50):
                z = QuadElt.exact(random.randint(-9, 9), random.randint(-9, 9), p)
                assert z.trace() == z.a + z.a
                assert (z * z.conj() - z.norm()).is_zero()
                if not z.is_zero():
                    assert (z * quad_inv(z) - 1).is_zero()

    def test_val_f(self):
        z = QuadElt.exact(25, 5, 5)
        assert z.val_f() == 3


class TestMixedPrimes:
    """Values of two primes are unequal whatever their types, with no error;
    arithmetic between them raises InputError."""

    PAIRS = ((QuadElt.one(3), PadicScalar.exact(1, 5)),
             (QuatElt.one(3), QuadElt.one(5)),
             (PadicScalar.exact(1, 5), QuadElt.one(3)),
             (QuatElt.one(3), PadicScalar.exact(1, 5)))

    @pytest.mark.parametrize("a, b", PAIRS)
    def test_unequal(self, a, b):
        assert not a == b and a != b
        assert not b == a and b != a

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_arithmetic_raises(self, op):
        with pytest.raises(InputError, match="mixed primes"):
            op(QuadElt.one(3), PadicScalar.exact(1, 5))


class TestQuatElt:
    def test_nrd_of_j(self):
        for p in (3, 5, 7):
            j = QuatElt.j(p)
            eps = smallest_nonresidue(p)
            assert quat_nrd(j).rational == -eps
            assert v_d(j) == 0

    def test_anticommutation(self):
        p = 5
        pi = QuatElt.from_f(QuadElt.pi(p))
        j = QuatElt.j(p)
        assert (pi * j + j * pi).is_zero()

    def test_nrd_multiplicative_and_conj(self):
        random.seed(4)
        for p in (3, 5):
            for _ in range(40):
                z1 = QuatElt(QuadElt.exact(random.randint(-9, 9), random.randint(-9, 9), p),
                             QuadElt.exact(random.randint(-9, 9), random.randint(-9, 9), p))
                z2 = QuatElt(QuadElt.exact(random.randint(-9, 9), random.randint(-9, 9), p),
                             QuadElt.exact(random.randint(-9, 9), random.randint(-9, 9), p))
                assert (quat_nrd(z1 * z2) - quat_nrd(z1) * quat_nrd(z2)).is_exact_zero()
                assert (quat_nrd(z1.conj()) - quat_nrd(z1)).is_exact_zero()
                zz = z1 * z1.conj()
                assert zz.y.is_zero() and zz.x.b.is_exact_zero()
                if not (z1.is_zero() or z2.is_zero()):
                    assert v_d(z1 * z2) == v_d(z1) + v_d(z2)

    def test_pi_conjugation_eigenparts(self):
        random.seed(5)
        p = 5
        pi = QuatElt.from_f(QuadElt.pi(p))
        for _ in range(30):
            z = QuatElt(QuadElt.exact(random.randint(-9, 9), random.randint(-9, 9), p),
                        QuadElt.exact(random.randint(-9, 9), random.randint(-9, 9), p))
            w = pi * z * quat_inv(pi)
            assert plus_part(w) == plus_part(z)
            assert (minus_part(w) + minus_part(z)).is_zero()

    def test_capped_coordinate_product_raises(self):
        """A product takes exact coordinates only: a capped coordinate of
        either operand raises PrecisionError."""
        for p in (3, 5):
            q = QuatElt(QuadElt.exact(2, 1, p), QuadElt.exact(0, 3, p))
            for k in range(4):
                coords = [exact(x, p) for x in (2, 1, Fraction(1, p), 0)]
                coords[k] = capped(p, -1, 2, 4)
                c = QuatElt(QuadElt(*coords[:2]), QuadElt(*coords[2:]))
                for a, b in ((c, q), (q, c), (c, c), (2, c), (c, QuadElt.pi(p))):
                    with pytest.raises(PrecisionError, match="exact coordinates only"):
                        a * b

    def test_exact_product_matches_the_quad_formula(self, monkeypatch):
        """All-exact operands take the integer-coordinate product; it equals
        the QuadElt formula and hashes alike, and never multiplies scalars."""
        rng = random.Random(89)
        pairs = []
        for p in (3, 5, 7):
            def scalar():
                if rng.randrange(3) == 0:
                    return exact(0, p)
                return exact(Fraction(rng.randint(-30, 30), rng.choice((1, 2, p, p * p))), p)

            def quat():
                return QuatElt(QuadElt(scalar(), scalar()), QuadElt(scalar(), scalar()))
            special = [QuatElt.one(p), QuatElt.j(p), QuatElt.from_f(QuadElt.pi(p)),
                       QuatElt.zero(p)]
            for _ in range(200):
                pairs.append((quat(), quat()))
            for s in special:
                pairs += [(s, quat()), (quat(), s)] + [(s, t) for t in special]
        assert len(pairs) >= 600
        dens = {s.rational.denominator for q1, q2 in pairs
                for s in (q1.x.a, q1.x.b, q1.y.a, q1.y.b)}
        assert {1, 2, 3, 5, 7, 9, 25, 49} <= dens
        want = [quad_formula(q1, q2) for q1, q2 in pairs]

        def no_scalar_product(*args):
            raise AssertionError("scalar product reached")

        monkeypatch.setattr(PadicScalar, "__mul__", no_scalar_product)
        monkeypatch.setattr(PadicScalar, "__rmul__", no_scalar_product)
        for (q1, q2), w in zip(pairs, want):
            got = q1 * q2
            assert [s.rational for s in (got.x.a, got.x.b, got.y.a, got.y.b)] == \
                [s.rational for s in (w.x.a, w.x.b, w.y.a, w.y.b)]
            assert got == w and hash(got) == hash(w)



def state(x):
    """The value and precision of every scalar in x, as stored."""
    if isinstance(x, PadicScalar):
        return x.p, x._fr, x._prec
    if isinstance(x, QuadElt):
        return state(x.a), state(x.b)
    return state(x.x), state(x.y)


class TestSubtraction:
    """a - b is one formula at every level, with no negated temporary: it
    must store the value and precision of a + (-b), and a foreign operand
    must meet the operator that was written."""

    def test_difference_equals_the_sum_with_the_negation(self):
        checked = 0
        for p in (3, 5):
            scalars = [exact(0, p), exact(Fraction(7, p), p), exact(-4, p),
                       capped(p, -1, 2, 4), capped(p, 2, 1, 3), PadicScalar.zero_at(p, 3),
                       PadicScalar.zero_at(p, -2),
                       PadicScalar.from_rational_absprec(Fraction(5, 2), p, 1)]
            quads = [QuadElt(a, b) for a in scalars for b in scalars[::3]]
            quats = [QuatElt(u, v) for u in quads[::5] for v in quads[::7]]
            plain = [0, 3, Fraction(-2, 7)]
            for left, right, reflected in ((scalars, scalars + plain, plain),
                                           (quads, quads + scalars + plain, scalars + plain),
                                           (quats, quats + quads + scalars + plain,
                                            quads + scalars + plain)):
                for a in left:
                    for b in right:
                        assert state(a - b) == state(a + (-b))
                        checked += 1
                    for b in reflected:
                        assert state(b - a) == state((-a) + b)
                        checked += 1
        assert checked >= 3000

    @pytest.mark.parametrize("op, sign", [(operator.sub, "-"), (operator.truediv, "/"),
                                          (operator.add, "+"), (operator.mul, "*")])
    def test_a_foreign_operand_is_refused_for_the_operator_written(self, op, sign):
        for s in (exact(3, 5), QuadElt.one(3), QuatElt.one(3)):
            name = type(s).__name__
            with pytest.raises(TypeError, match=re.escape(f"for {sign}: 'float' and '{name}'")):
                op(1.5, s)
            with pytest.raises(TypeError, match=re.escape(f"for {sign}: '{name}' and 'float'")):
                op(s, 1.5)
