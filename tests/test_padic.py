import math
import random
from fractions import Fraction

import pytest

from atlas.errors import InputError, NoSquareRootError, PrecisionError
from atlas.orbits import BPoint
from atlas.padic import (DEFAULT_PRECISION, PadicScalar, QuadElt, QuatElt,
                         hensel_sqrt, legendre, quat_solve, smallest_nonresidue)
from atlas.serialize import decode_scalar

INF = math.inf


def exact(x, p):
    return PadicScalar.exact(Fraction(x), p)


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
        x = PadicScalar.capped(5, 0, 7, 4)
        y = PadicScalar.capped(5, 0, 7 + 125, 3)
        d = x - y
        # difference is O(5^3): nothing is known about its unit part
        assert d.is_zero_at_precision()
        assert d.abs_precision == 3

    def test_mixed_coercion(self):
        x = PadicScalar.capped(5, 1, 2, 4)
        y = exact(Fraction(3, 7), 5)
        z = x * y
        assert not z.is_exact
        assert z.val() == 1

    def test_inv_round_trip(self):
        x = PadicScalar.capped(7, -2, 12, 6)
        assert (x * x.inv() - 1).is_zero_at_precision()
        # powers agree with the repeated product digit for digit
        for y in (x, exact(Fraction(-14, 3), 7), PadicScalar.capped(7, 1, 3, 0)):
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
        a = PadicScalar.capped(3, 0, 1, 5)
        b = PadicScalar.capped(3, 0, 1 + 3 ** 5, 8)
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


class TestBoundaryValidation:
    @pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
    def test_rejects_non_odd_prime(self, p):
        with pytest.raises(ValueError):
            PadicScalar.exact(1, p)
        with pytest.raises(ValueError):
            PadicScalar.capped(p, 0, 1, 5)
        with pytest.raises(ValueError):
            decode_scalar({"num": "1", "den": "1"}, p)
        with pytest.raises(ValueError):
            decode_scalar({"v": 0, "digits": [1], "p": p, "N": 1}, p)
        with pytest.raises(ValueError):
            BPoint.exact(1, 1, 0, p)

    def test_rejects_mixed_primes(self):
        pairs = [(exact(2, 3), exact(2, 5)),
                 (PadicScalar.capped(3, 0, 2, 4), PadicScalar.capped(5, 0, 2, 4)),
                 (exact(2, 3), PadicScalar.capped(5, 0, 2, 4))]
        # QuadElt and QuatElt, exact with exact and exact with capped; j^2 = 2
        # at both primes, so only the prime tells the quaternions apart
        assert smallest_nonresidue(3) == smallest_nonresidue(5) == 2
        for p, q in ((3, 5), (5, 3)):
            x = QuadElt.exact(2, 1, p)
            pairs += [(x, QuadElt.exact(2, 1, q)),
                      (x, QuadElt(PadicScalar.capped(q, 0, 2, 4), exact(1, q)))]
            z = QuatElt(x, QuadElt.exact(1, 1, p))
            pairs += [(z, QuatElt(QuadElt.exact(2, 1, q), QuadElt.exact(1, 1, q))),
                      (z, QuatElt(QuadElt(PadicScalar.capped(q, 0, 2, 4), exact(1, q)),
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
                    lambda: quat_solve([[QuatElt(x3, x3)]], [[QuatElt(x5, x5)]])):
            with pytest.raises(InputError, match="mixed primes"):
                bad()


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
                assert d.is_zero_at_precision() and d.abs_precision >= n
                count += 1

    def test_branch_determinism(self):
        for p in (3, 5, 7):
            s = hensel_sqrt(exact(1, p), 10)
            assert s.unit_mod(1) <= (p - 1) // 2


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
                    assert (z * z.inv() - 1).is_zero()

    def test_val_f(self):
        z = QuadElt.exact(25, 5, 5)
        assert z.val_f() == 3


class TestQuatElt:
    def test_nrd_of_j(self):
        for p in (3, 5, 7):
            j = QuatElt.j(p)
            eps = smallest_nonresidue(p)
            assert j.nrd().rational == -eps
            assert j.v_d() == 0

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
                assert ((z1 * z2).nrd() - z1.nrd() * z2.nrd()).is_exact_zero()
                assert (z1.conj().nrd() - z1.nrd()).is_exact_zero()
                zz = z1 * z1.conj()
                assert zz.y.is_zero() and zz.x.b.is_exact_zero()
                if not (z1.is_zero() or z2.is_zero()):
                    assert (z1 * z2).v_d() == z1.v_d() + z2.v_d()

    def test_pi_conjugation_eigenparts(self):
        random.seed(5)
        p = 5
        pi = QuatElt.from_f(QuadElt.pi(p))
        for _ in range(30):
            z = QuatElt(QuadElt.exact(random.randint(-9, 9), random.randint(-9, 9), p),
                        QuadElt.exact(random.randint(-9, 9), random.randint(-9, 9), p))
            w = pi * z * pi.inv()
            assert w.plus_part() == z.plus_part()
            assert (w.minus_part() + z.minus_part()).is_zero()

    def test_product_matches_the_quad_formula(self):
        """The coordinate product groups every sum and product as the QuadElt
        formula does, so capped results are structurally identical."""
        def state(q):
            return [(s._fr, s._v, s._unit, s._n) for s in (q.x.a, q.x.b, q.y.a, q.y.b)]

        rng = random.Random(83)
        for p in (3, 5):
            def scalar():
                kind = rng.randrange(4)
                if kind == 0:
                    return exact(0, p)
                if kind == 1:
                    return exact(Fraction(rng.randint(-30, 30), rng.choice((1, 2, p, p * p))), p)
                if kind == 2:
                    return PadicScalar.capped(p, rng.randint(-2, 3), rng.randrange(1, p ** 6),
                                              rng.randint(1, 6))
                return PadicScalar.zero_at(p, rng.randint(-2, 4))

            def quat():
                return QuatElt(QuadElt(scalar(), scalar()), QuadElt(scalar(), scalar()))
            for _ in range(300):
                q1, q2 = quat(), quat()
                assert state(q1 * q2) == state(quad_formula(q1, q2))

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

