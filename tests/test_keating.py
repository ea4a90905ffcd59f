import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import atlas
from atlas import keating
from atlas.errors import (AtlasError, CayleyUndefinedError, InputError,
                          NotRegularSemisimpleError)
from atlas.keating import (dist_j, int_group, keating_n, l_int, l_int_closed,
                           l_int_keating)
from atlas.orbits import (INF, XI_CHOICES, BPoint, U1RedElt, cayley, check_ml,
                          make_bpoint_rs1)
from atlas.padic import QuadElt, QuatElt


class TestDist:
    def test_examples(self):
        assert dist_j(3, 1, 0) == 3
        assert dist_j(3, 1, 1) == 1
        assert dist_j(1, 3, 1) == 1
        assert dist_j(2, INF, 5) == 2

    def test_odd_check(self):
        with pytest.raises(ValueError):
            check_ml(0, 1, 2)


# one triple outside the side-1 domain per clause of check_ml, and its message
OUTSIDE_THE_DOMAIN = [
    ((-1, 1, INF), "conductor level m must be >= 0, got -1"),
    ((1, -1, 3), "l_minus must be >= 0, got -1"),
    ((1, 1, 2), "l_plus must be odd and positive or infinite, got 2"),
]


class TestSide1Domain:
    @pytest.mark.parametrize("ml, message", OUTSIDE_THE_DOMAIN,
                             ids=["negative-m", "negative-lminus", "even-lplus"])
    def test_every_entry_point_raises_the_one_message(self, ml, message):
        for fn in (make_bpoint_rs1, l_int_closed, l_int_keating):
            with pytest.raises(InputError) as exc:
                fn(*ml, 3)
            assert str(exc.value) == message, fn.__name__


class TestKeatingN:
    def test_examples(self):
        assert keating_n(1, 0, 7) == 2                      # stable, (1+1) q^0
        assert keating_n(2, 2, 3) == 5                      # 2(1+3) - 3
        assert keating_n(1, 1, 11) == 2                     # 2(q-1)/(q-1)

    def test_rejects_infinite(self):
        with pytest.raises(NotRegularSemisimpleError):
            keating_n(INF, 2, 3)

    def test_monotone_in_ell(self):
        for p in (3, 5):
            for j in range(0, 5):
                vals = [keating_n(l, j, p) for l in range(0, 12)]
                assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestLInt:
    def test_examples(self):
        assert l_int_keating(0, 1, INF, 3) == 4
        assert l_int_keating(1, 1, 3, 5) == 8
        assert l_int_keating(1, 3, 1, 7) == 12
        assert l_int_closed(0, 1, INF, 3) == 4
        assert l_int_closed(1, 1, 3, 5) == 8
        assert l_int_closed(1, 3, 1, 7) == 12

    def test_closed_equals_oracle_sample(self):
        for p in (3, 5):
            for m in range(0, 5):
                for lm in range(1, 8):
                    for lp in (1, 3, 5, 7, INF):
                        assert l_int_closed(m, lm, lp, p) == l_int_keating(m, lm, lp, p)

    @pytest.mark.parametrize("fn", [l_int_keating, l_int_closed])
    def test_negative_level_is_an_input_error(self, fn):
        # the oracle read an empty level sum as 0 and the closed form gave -8/3
        for m in (-1, -2):
            with pytest.raises(InputError):
                fn(m, 1, INF, 3)

    @pytest.mark.parametrize("fn", [l_int_keating, l_int_closed])
    def test_bad_distances_are_input_errors(self, fn):
        # the closed form read l- = -1 and l+ = -1 as the value 0, and an
        # even l+ as a value, where the oracle raised
        for lm, lp in ((-1, INF), (-2, 3), (3, -1), (1, 0), (3, 2)):
            with pytest.raises(InputError):
                fn(1, lm, lp, 3)

    def test_positive_integers(self):
        for p in (3, 5, 7):
            for m in range(0, 4):
                for lm in range(1, 6):
                    for lp in (1, 3, INF):
                        v = l_int_closed(m, lm, lp, p)
                        assert v.denominator == 1 and v > 0

    def test_l_int_on_points(self):
        x = make_bpoint_rs1(0, 1, INF, 3)
        assert l_int(x) == 4
        # side-0 points give zero
        x0 = BPoint.exact(1, 1, 0, 5)
        assert x0.side() == 0 and l_int(x0) == 0
        # non-integral side-1 points give zero
        for c in (Fraction(3, 5), Fraction(1, 5)):
            x = BPoint.exact(-c, 1, 1, 5)
            if x.is_rs() and x.side() == 1 and not x.is_integral():
                assert l_int(x) == 0
                break

    def test_not_rs(self):
        with pytest.raises(NotRegularSemisimpleError):
            l_int(BPoint.exact(0, 0, 0, 3))

    def test_oracle_cross_check_survives_optimize(self):
        # python -O strips assert statements; the closed-vs-oracle check must
        # still raise its typed error there
        code = "\n".join([
            "from atlas import keating",
            "from atlas.errors import OracleMismatchError",
            "from atlas.orbits import make_bpoint_rs1",
            "keating.l_int_keating = lambda *args: -1",
            "try:",
            "    print(keating.l_int(make_bpoint_rs1(1, 2, 3, 3)))",
            "except OracleMismatchError as exc:",
            "    print('OracleMismatchError', exc)",
        ])
        src = str(Path(atlas.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-O", "-c", code], cwd=src,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("OracleMismatchError l_int closed form 16 "), \
            proc.stdout


def rand_quat(p, traceless=False):
    a = 0 if traceless else random.randint(-9, 9)
    return QuatElt(QuadElt.exact(a, random.randint(-9, 9), p),
                   QuadElt.exact(random.randint(-9, 9), random.randint(-9, 9), p))


class TestIntGroup:
    def test_round_trip_and_xi_independence(self):
        random.seed(61)
        p = 5
        done = 0
        while done < 25:
            x = U1RedElt(rand_quat(p, True), rand_quat(p))
            if not (x.is_integral() and x.is_rs()):
                continue
            want = l_int(x.invariants())
            for xi in XI_CHOICES:
                assert int_group(cayley(x, xi)) == want
            done += 1

    def test_no_admissible_chart_is_a_typed_error(self, monkeypatch):
        p = 5
        x = U1RedElt(QuatElt(QuadElt.exact(0, 1, p), QuadElt.exact(1, 0, p)),
                     QuatElt.one(p))
        g = cayley(x, (1, 1))
        monkeypatch.setattr(keating, "admissible_xi", lambda g, xi: False)
        with pytest.raises(CayleyUndefinedError) as err:
            int_group(g)
        assert isinstance(err.value, AtlasError)
        assert str(err.value) == f"no admissible Cayley chart for the integral element {g!r}"

    def test_non_integral_gives_zero(self):
        p = 3
        alpha = QuatElt(QuadElt.exact(0, Fraction(1, 3), p), QuadElt.zero(p))
        x = U1RedElt(alpha, QuatElt.one(p))
        g = cayley(x, (1, 1))
        if not g.is_integral():
            assert int_group(g) == 0

    def test_invariant_under_sign_conjugation(self):
        from atlas.orbits import U1GroupElt
        from test_orbits import mat_mul
        random.seed(67)
        p = 3
        done = 0
        while done < 15:
            x = U1RedElt(rand_quat(p, True), rand_quat(p))
            if not (x.is_integral() and x.is_rs()):
                continue
            g = cayley(x, (1, -1))
            base = int_group(g)
            for xi in XI_CHOICES:
                s1, s2 = xi
                one, zero = QuatElt.one(p), QuatElt.zero(p)
                E = [[one * s1, zero, zero], [zero, one * s1, zero],
                     [zero, zero, one * s2]]
                gc = U1GroupElt.from_matrix(mat_mul(E, mat_mul(g.M, E)))
                assert int_group(gc) == base
            done += 1
