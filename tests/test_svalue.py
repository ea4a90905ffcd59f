import random
from fractions import Fraction

import pytest

from atlas.errors import InputError
from atlas.svalue import LaurentX, LogQVal, dds_s0, zeta1


def at_one(f):
    """f at X = 1, i.e. s = 0."""
    return sum(f.coeffs.values(), Fraction(0))


def geometric_partial(r, n, p):
    """1 + rX + ... + (rX)^(n-1)."""
    return LaurentX({k: Fraction(r) ** k for k in range(n)}, p)


class TestLaurentX:
    def test_field_ops(self):
        p = 3
        X = LaurentX({1: 1}, p)
        f = LaurentX({-2: 3, 0: Fraction(1, 2), 5: -1}, p)
        assert (f + (-f)).is_zero()
        assert (f * (1 - X) - f + f * X).is_zero()
        assert f * X - X * f == 0 and (f - X) + X == f
        assert (f + 1) - f == 1 and 2 * f == f + f

    def test_negative_powers_cleared(self):
        p = 3
        f = LaurentX({-3: 1}, p) * LaurentX({3: 1}, p)
        assert f == LaurentX.const(1, p)

    def test_repr_is_the_reduced_quotient(self):
        p = 5
        c = Fraction(-1, 5)
        assert repr(LaurentX({-1: c, 1: c}, p)) == "(-1/5 + -1/5*X^2)/(1*X)"
        assert repr(LaurentX({-2: 1, 0: -1}, p)) == "(1 + -1*X^2)/(1*X^2)"
        assert repr(LaurentX({0: c, 1: -c}, p)) == "-1/5 + 1/5*X"
        assert repr(LaurentX({1: 2, 3: 2}, p)) == "2*X + 2*X^3"
        assert repr(LaurentX({-3: 7}, p)) == "(7)/(1*X^3)"
        assert repr(LaurentX.const(0, p)) == "0"

    def test_never_mixes_with_logq_values(self):
        p = 3
        one_x, one_l = LaurentX.const(1, p), LogQVal.const(1, p)
        assert one_x == 1 and one_l == 1
        assert one_x != one_l and one_l != one_x
        assert LaurentX.const(0, p) != LogQVal.const(0, p)
        for a, b in ((one_x, one_l), (one_l, one_x)):
            with pytest.raises(TypeError):
                a + b
            with pytest.raises(TypeError):
                a * b

    def test_mixed_primes_refused(self):
        a, b = LogQVal.const(1, 3), LogQVal.const(1, 5)
        for bad in (lambda: a + b, lambda: a * b):
            with pytest.raises(InputError, match="mixed primes"):
                bad()
        assert a.__eq__(b) is NotImplemented


class TestValueDds:
    def test_x_power(self):
        for k in (0, 1, 3, -2):
            f = LaurentX({k: 1}, 5)
            assert at_one(f) == 1
            assert dds_s0(f) == LogQVal({1: -k}, 5)

    def test_zeta(self):
        # zeta(1) = 1/(1 - t X) at X = 1: the partial sums of the geometric
        # series satisfy S_n (1 - t X) = 1 - (t X)^n
        p = 3
        t = Fraction(1, p)
        for n in (1, 4, 9):
            f = geometric_partial(t, n, p)
            tx = LaurentX({1: t}, p)
            assert f * (1 - tx) == 1 - LaurentX({n: t ** n}, p)
            assert at_one(f) == zeta1(p) * (1 - t ** n)

    def test_absolute_value_derivative(self):
        # d/ds of X^v is -v log q: the derivative of |y|^s at 0 is log|y|
        v = 4
        assert dds_s0(LaurentX({v: 1}, 3)) == LogQVal({1: -v}, 3)

    def test_leibniz(self):
        random.seed(73)
        p = 7
        for _ in range(60):
            f = LaurentX({k: random.randint(-3, 3) for k in range(-2, 3)}, p)
            g = LaurentX({k: Fraction(random.randint(-3, 3), 5)
                          for k in range(-1, 2)}, p)
            lhs = dds_s0(f * g)
            rhs = (LogQVal.const(at_one(f), p) * dds_s0(g)
                   + dds_s0(f) * LogQVal.const(at_one(g), p))
            assert lhs == rhs


class TestLogQVal:
    def test_grading(self):
        v = LogQVal({1: Fraction(2)}, 3) * LogQVal({1: Fraction(3)}, 3)
        assert v == LogQVal({2: Fraction(6)}, 3)
        w = LogQVal({-1: Fraction(1)}, 3) * LogQVal({1: Fraction(5)}, 3)
        assert w == LogQVal.const(5, 3)

    def test_repr(self):
        v = LogQVal({0: Fraction(1, 2), 1: Fraction(-3)}, 3)
        assert "logq" in repr(v)


class TestHash:
    @pytest.mark.parametrize("cls", [LaurentX, LogQVal])
    def test_hash_agrees_with_eq(self, cls):
        for c in (0, 3, Fraction(-7, 2)):
            v = cls.const(c, 5)
            assert v == c and hash(v) == hash(c) == hash(Fraction(c))
            assert len({v, c, Fraction(c)}) == 1
        assert cls({}, 3) == 0 and len({cls({}, 3), 0}) == 1
        v = cls({1: Fraction(2), -1: Fraction(1)}, 3)
        w = cls({-1: Fraction(1), 1: Fraction(2)}, 3)
        assert v == w and hash(v) == hash(w) and len({v, w}) == 1
