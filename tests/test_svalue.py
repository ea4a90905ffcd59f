import random
from fractions import Fraction

import pytest

from atlas.errors import PoleError
from atlas.svalue import LogQVal, RatX, _peval, dds_s0, zeta1


def one(p=3):
    return RatX.const(1, p)


def geometric(r, p):
    """1/(1 - r X)."""
    return RatX([1], [1, -Fraction(r)], p)


def at_one(f):
    """f at X = 1, i.e. s = 0, for f without a pole there."""
    return _peval(f.num, Fraction(1)) / _peval(f.den, Fraction(1))


class TestRatX:
    def test_field_ops(self):
        p = 3
        X = RatX.x_power(1, p)
        f = geometric(1, p)
        assert (f + (-f)).is_zero()
        assert (f * (one(p) - X) - 1).is_zero()
        assert f * X - X * f == 0 and (f - X) + X == f

    def test_geometric_closure_form(self):
        p = 5
        # 1/(1 - tX) evaluates to zeta(1) at X = 1
        f = geometric(Fraction(1, p), p)
        assert at_one(f) == zeta1(p)

    def test_key_identity(self):
        # 1/(1 - X) + X^-1/(1 - X^-1) = 0, with X^-1/(1 - X^-1) = 1/(X - 1)
        p = 3
        f = geometric(1, p) + RatX([1], [-1, 1], p)
        assert f.is_zero()
        Xi = RatX.x_power(-1, p)
        assert RatX([1], [-1, 1], p) * (one(p) - Xi) == Xi

    def test_negative_powers_cleared(self):
        p = 3
        f = RatX.x_power(-3, p) * RatX.x_power(3, p)
        assert f == RatX.const(1, p)


class TestValueDds:
    def test_x_power(self):
        for k in (0, 1, 3, -2):
            f = RatX.x_power(k, 5)
            assert at_one(f) == 1
            assert dds_s0(f) == LogQVal({1: -k}, 5)

    def test_zeta(self):
        p = 3
        f = geometric(Fraction(1, p), p)
        assert f * (one(p) - RatX.const(Fraction(1, p), p) * RatX.x_power(1, p)) == 1
        assert at_one(f) == zeta1(p)

    def test_absolute_value_derivative(self):
        # d/ds of X^v is -v log q: the derivative of |y|^s at 0 is log|y|
        v = 4
        assert dds_s0(RatX.x_power(v, 3)) == LogQVal({1: -v}, 3)

    def test_pole_raises(self):
        p = 3
        f = geometric(1, p)
        with pytest.raises(PoleError):
            dds_s0(f)
        with pytest.raises(PoleError):
            dds_s0(f + RatX.x_power(2, p))

    def test_leibniz(self):
        random.seed(73)
        p = 7
        for _ in range(60):
            num = [Fraction(random.randint(-3, 3)) for _ in range(3)]
            den = [Fraction(1), Fraction(random.randint(0, 2), 5)]
            f = RatX(num, den, p)
            num2 = [Fraction(random.randint(-3, 3)) for _ in range(2)]
            g = RatX(num2, den, p)
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
