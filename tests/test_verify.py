import json
from fractions import Fraction

import pytest

from atlas import verify
from atlas.cli import main
from atlas.errors import ExcludedCaseError, InputError, UnrealizableError
from atlas.germs import NEIGHBORHOOD_DEPTH
from atlas.orbits import INF, BPoint, make_bpoint_rs1
from atlas.padic import PadicScalar, legendre, val
from atlas.svalue import LogQVal
from atlas.verify import (NEIGHBORHOOD_SAMPLES, _root_0ii, base_point_library,
                          expected_constant_at_zero, neighborhood_samples,
                          phi1, report, verify_x0, verify_zero)


class TestPhi1:
    def test_spot_values(self):
        x = make_bpoint_rs1(0, 1, INF, 3)
        assert phi1(x) == LogQVal({1: -8}, 3)
        x = make_bpoint_rs1(1, 1, 3, 5)
        assert phi1(x) == LogQVal({1: Fraction(-7, 2)}, 5)

    def test_side0_vanishes(self):
        for lam, u, wt, p in ((1, 1, 0, 5), (-4, 1, 0, 7), (1, 2, 1, 13)):
            x = BPoint.exact(lam, u, wt, p)
            if x.is_rs() and x.side() == 0:
                assert phi1(x).is_zero()

    def test_expected_constants(self):
        assert expected_constant_at_zero(3) == LogQVal({1: -8}, 3)
        assert expected_constant_at_zero(5) == LogQVal({1: Fraction(-7, 2)}, 5)
        assert expected_constant_at_zero(7) == LogQVal({1: Fraction(-20, 9)}, 7)


class TestVerifyZero:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_small_grid(self, p):
        r = verify_zero(p, m_max=2, l_max=5)
        assert r.constant
        assert str(expected_constant_at_zero(p)) == r.value

    def test_oracle_method_small(self):
        r = verify_zero(3, m_max=1, l_max=2, method="oracle")
        assert r.constant

    def test_oracle_method_reaches_deep_supports(self):
        # l- up to 31 puts K+ of the xi shell sum up to 30, past the shell
        # window of 30 that fitted tails needed free of the support
        r = verify_zero(3, m_max=0, l_max=31, method="oracle")
        assert r.constant and len(r.samples) == 32 * 17

    @pytest.mark.parametrize("p", [5, 7])
    def test_oracle_method_matches_closed_per_sample(self, p):
        oracle = verify_zero(p, m_max=1, l_max=3, method="oracle")
        closed = verify_zero(p, m_max=1, l_max=3)
        assert oracle.constant and closed.constant
        assert len(oracle.samples) == 24
        assert oracle.samples == closed.samples

    def test_every_failing_point_is_reported(self, monkeypatch):
        # verify_zero evaluates each point through _phi1 on one zero plan
        phi1_ok = verify._phi1
        bad = {(0, 1, 1), (1, 2, INF)}

        def wrong(zero, x, method):
            v = phi1_ok(zero, x, method)
            return v + LogQVal({1: 1}, x.p) if x.ml_params() in bad else v

        monkeypatch.setattr(verify, "_phi1", wrong)
        r = verify_zero(3, m_max=1, l_max=3)
        assert not r.constant and r.value == "varies"
        assert r.notes.count("; FAIL at") == 2
        assert "FAIL at (m=0,l-=1,l+=1)" in r.notes
        assert "FAIL at (m=1,l-=2,l+=inf)" in r.notes
        assert len(r.samples) == 2 * 4 * 3      # m, l- in 0..3, and l+ in (1, 3, inf)

    @pytest.mark.parametrize("m_max, l_max", [(-1, 9), (4, -1)])
    def test_empty_grid_is_an_input_error(self, m_max, l_max):
        # an empty grid read as "constant over 0 samples"
        with pytest.raises(InputError):
            verify_zero(3, m_max=m_max, l_max=l_max)

    def test_cli_default_grid_is_the_library_default(self, capsys):
        assert main(["verify", "zero", "--p", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["zero p=3"]["notes"] == verify_zero(3).notes


class TestVerifyX0:
    def test_samples_are_in_neighborhood(self):
        p = 3
        x0 = BPoint.exact(1, 0, 0, p)
        xs = neighborhood_samples(x0, 5)
        assert len(xs) >= 5
        assert all(x.side() == 1 for x in xs)

    def test_split_rejected(self):
        with pytest.raises(ExcludedCaseError):
            verify_x0(BPoint.exact(-4, 0, 0, 5))

    def test_zero_base_point_is_an_input_error(self):
        # case zero fell into the case-1 branch, where v(u) is infinite and
        # range() raised a TypeError
        x0 = BPoint.exact(0, 0, 0, 3)
        for check in (verify_x0, neighborhood_samples):
            with pytest.raises(InputError, match="verify zero"):
                check(x0)

    def test_out_of_closure_rejected(self):
        # odd-valuation non-split points are outside the closure when -1 is
        # not a square
        x0 = BPoint.exact(2 * 3, 0, 0, 3)
        from atlas.orbits import case_of, in_side1_closure
        if case_of(x0) == "0i" and not in_side1_closure(x0, "0i"):
            with pytest.raises(UnrealizableError):
                verify_x0(x0)

    def test_every_differing_sample_is_reported(self, monkeypatch):
        x0 = BPoint.exact(0, 1, 0, 3)
        xs = neighborhood_samples(x0)
        bad = {xs[2].delta().val(), xs[4].delta().val()}
        l_int_ok = verify.l_int

        def wrong(x):
            v = l_int_ok(x)
            return v + 1 if x.delta().val() in bad else v

        monkeypatch.setattr(verify, "l_int", wrong)
        r = verify_x0(x0)
        assert not r.constant and r.value == "varies"
        assert r.notes.count("; FAIL at") == 2
        assert "FAIL at sample 2" in r.notes and "FAIL at sample 4" in r.notes
        assert len(r.samples) == len(xs)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_0ii_root_is_lifted_from_residues(self, p):
        # every unit square t p^(2k): r^2 = t p^(2k) to relative precision n,
        # with the leading digit in 1..(p-1)/2; the squares 1 and p^2 of the
        # library get their exact roots 1 and p
        n = 9
        for k in (-1, 0, 1, 2):
            for t in range(1, p ** 2):
                if t % p == 0 or legendre(t, p) != 1:
                    continue
                a = Fraction(t) * Fraction(p) ** (2 * k)
                r = _root_0ii(PadicScalar.exact(a, p), n)
                assert val(r, p) == k
                assert val(r * r - a, p) >= 2 * k + n
                assert 1 <= r * Fraction(p) ** -k % p <= (p - 1) // 2
        assert _root_0ii(PadicScalar.exact(1, p), n) == 1
        assert _root_0ii(PadicScalar.exact(p * p, p), n) == p

    @pytest.mark.parametrize("lam0, p", [(-21, 3), (-30, 5), (-77, 7)])
    def test_irrational_0ii_root_samples_sweep_the_depth(self, lam0, p):
        # -lam0/p has no rational root; the second family still reaches
        # v(Delta) = v(lam0) + 2 m0 + j for each j, as with an exact root
        x0 = BPoint.exact(lam0, 0, 0, p)
        xs = neighborhood_samples(x0)
        depth = NEIGHBORHOOD_DEPTH
        m0 = 1 + depth + 2
        second = [x.delta().val() for x in xs if not x.wtilde.is_exact_zero()]
        assert second == [1 + 2 * m0 + j
                          for j in range(depth, depth + NEIGHBORHOOD_SAMPLES)]

    @pytest.mark.parametrize("p", [3, 5])
    def test_one_point_each_case(self, p):
        lib = dict(base_point_library(p))
        for name in list(lib)[:3]:
            r = verify_x0(lib[name], count=4)
            assert r.constant, (name, r.notes)


class TestReport:
    def test_json_and_csv_and_text(self):
        r = verify_zero(3, m_max=1, l_max=3)
        blob = report([("zero p=3", r)], "json")
        data = json.loads(blob)
        assert data["zero p=3"]["constant"] is True
        csv_blob = report([("zero p=3", r)], "csv")
        assert "constant" in csv_blob.splitlines()[0]
        txt = report([("zero p=3", r)], "text")
        assert "constant" in txt

    def test_unknown_format_is_an_input_error(self):
        r = verify_zero(3, m_max=0, l_max=1)
        with pytest.raises(InputError, match="unknown format 'xml'"):
            report([("zero p=3", r)], "xml")
