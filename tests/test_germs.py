import random
from fractions import Fraction

import pytest

from atlas import germs
from atlas.errors import ExcludedCaseError, UnrealizableError
from atlas.germs import (UNNEEDED, dgamma_table, dorb1, gamma_n_mu,
                         is_in_neighborhood, phi_closed, zero_point)
from atlas.orbits import (INF, BPoint, case_of, make_bpoint_rs1, orbit_reps,
                          padic_sqrt)
from atlas.padic import (DEFAULT_PRECISION, PadicScalar,
                         get_default_precision, set_default_precision)
from atlas.svalue import LogQVal, RatX, dds_s0, zeta1
from atlas.values import forced_s_values


class TestGammaFamily:
    def test_side1_vanishes_at_center(self):
        random.seed(79)
        p = 3
        pts = [make_bpoint_rs1(m, lm, lp, p)
               for m in (0, 1) for lm in (1, 2) for lp in (1, 3, INF)]
        count = 0
        for x in pts:
            for _ in range(10):
                mu = Fraction(random.randint(-20, 20),
                              p ** random.randint(0, 3))
                g = gamma_n_mu(x, mu)
                assert g.value_at_0 == 0
                count += 1
        assert count >= 100

    def test_nonsquare_discriminant_gives_zero_form(self):
        x = BPoint.exact(1, 1, 0, 5)    # side 0
        g = gamma_n_mu(x, 1)            # disc = 1 - 4/5 = 1/5, odd val
        assert g.value_at_0 == 0 and g.s_form.is_zero()

    def test_side0_square_value(self):
        p = 5
        x = BPoint.exact(1, 1, 0, p)
        assert x.side() == 0
        mu = Fraction(7, 5)
        g = gamma_n_mu(x, mu)
        # disc = (mu)^2 - 4/5 = 29/25, a square unit times even power
        disc = mu * mu - Fraction(4, 5)
        d = PadicScalar.exact(disc, p)
        assert d.is_square()
        assert g.value_at_0 != 0
        # |disc|^{-1/2} scale
        assert abs(g.value_at_0) == Fraction(2) * Fraction(p) ** (d.val() // 2)

    def test_precision_setting_reaches_the_root(self, monkeypatch):
        seen = []

        def spy(x, ndigits=None):
            root = padic_sqrt(x, ndigits)
            seen.append(root.rel_precision)
            return root
        monkeypatch.setattr(germs, "padic_sqrt", spy)
        x = BPoint.exact(1, 1, 0, 5)     # disc = 29/25, not a rational square
        assert get_default_precision() == DEFAULT_PRECISION
        set_default_precision(7)
        try:
            g = gamma_n_mu(x, Fraction(7, 5))
        finally:
            set_default_precision(DEFAULT_PRECISION)
        assert seen == [7]
        assert g.value_at_0 == gamma_n_mu(x, Fraction(7, 5)).value_at_0
        assert seen == [7, DEFAULT_PRECISION]

    def test_root_choice_independence(self):
        random.seed(83)
        p = 5
        checked = 0
        while checked < 50:
            x = BPoint.exact(random.randint(-20, 20), random.randint(1, 20),
                             random.randint(-20, 20), p)
            if not x.is_rs():
                continue
            mu = Fraction(random.randint(-30, 30), p ** random.randint(0, 2))
            trace = x.u * x.u * PadicScalar.exact(mu, p) - (x.wtilde + x.wtilde)
            dp = x.delta() / p
            disc = trace * trace - 4 * dp
            if disc.is_exact_zero() or not disc.is_square():
                continue
            half = PadicScalar.exact(Fraction(1, 2), p)
            sq = padic_sqrt(disc)
            nu1 = (trace + sq) * half
            nu2 = (trace - sq) * half
            if nu1.is_zero_at_precision() or nu2.is_zero_at_precision():
                continue
            vals = []
            for nu in (nu1, nu2):
                coeff = Fraction((-nu).eta()) * Fraction(p) ** (disc.val() // 2)
                vals.append(coeff * (1 + dp.eta()))
            assert vals[0] == vals[1]
            checked += 1


class TestDGammaTable:
    def test_zero_rows(self):
        p = 3
        x0 = zero_point(p)
        x = make_bpoint_rs1(1, 2, 3, p)
        reps = {r.tag: r for r in orbit_reps(x0, "s_red")}
        assert dgamma_table(x0, reps["n0_plus"], x).is_zero()
        k = x.delta().val() - 1
        assert dgamma_table(x0, reps["n0_minus"], x) == LogQVal({1: -k}, p)

    def test_case_0i_row(self):
        p = 3
        x0 = BPoint.exact(1, 0, 0, p)
        assert case_of(x0) == "0i"
        x = BPoint.exact(1, 27, 0, p)
        reps = {r.tag: r for r in orbit_reps(x0, "s_red")}
        assert dgamma_table(x0, reps["y_plus"], x).is_zero()
        v = x.delta().val() - x0.lam.val()
        e = PadicScalar.exact(-1, p).eta()
        assert dgamma_table(x0, reps["y_minus"], x) == LogQVal({1: -e * v}, p)

    def test_case_1_row(self):
        p = 3
        x0 = BPoint.exact(-3, 1, 1, p)
        x = BPoint.exact(-3 + 3 ** 7, 1, 1, p)
        reps = {r.tag: r for r in orbit_reps(x0, "s_red")}
        v = x.delta().val() - 2 * x0.u.val() - 1
        assert dgamma_table(x0, reps["y_minus"], x) == LogQVal({1: -v}, p)

    def test_unneeded_rows(self):
        p = 5
        x0 = BPoint.exact(-20, 0, 0, p)
        x = BPoint.exact(-20, 5 ** 8, 0, p)
        reps = {r.tag: r for r in orbit_reps(x0, "s_red")}
        assert dgamma_table(x0, reps["y_pm"], x) is UNNEEDED
        assert dgamma_table(x0, reps["y_mp"], x) is UNNEEDED
        assert dgamma_table(x0, reps["y_pp"], x).is_zero()

    def test_neighborhood_enforced(self):
        p = 3
        x0 = BPoint.exact(1, 0, 0, p)
        far = BPoint.exact(2, 1, 0, p)
        reps = orbit_reps(x0, "s_red")
        with pytest.raises(UnrealizableError):
            dgamma_table(x0, reps[1], far)

    def test_sform_consistency_case_0i(self):
        # the tabulated row equals d/ds at 0 of eta(Delta/lam)|Delta/lam|^{-s}
        # on the non-split side, where eta(Delta/lam) = -eta(-lam)
        p = 3
        x0 = BPoint.exact(1, 0, 0, p)
        x = BPoint.exact(1, 27, 0, p)
        assert x.side() == 1
        dl = x.delta() / x.lam
        s_form = RatX.x_power(-dl.val(), p) * dl.eta()
        reps = {r.tag: r for r in orbit_reps(x0, "s_red")}
        assert dds_s0(s_form) == dgamma_table(x0, reps["y_minus"], x)


class TestPhiClosed:
    def test_spot(self):
        assert phi_closed(make_bpoint_rs1(0, 1, INF, 3)) == LogQVal({1: -6}, 3)

    def test_parity_dispatch(self):
        # even v(Delta) <= 4 v(u) goes through the even branch
        x = make_bpoint_rs1(2, 2, 9, 3)   # v(Delta) = 6 <= 8
        v = phi_closed(x)
        assert v == LogQVal({1: Fraction(-39, 2)}, 3)

    def test_case_ii2_coefficient(self):
        from atlas.integrate import phi_from_xi
        x = make_bpoint_rs1(2, 5, 3, 3)
        assert phi_closed(x) == phi_from_xi(x, 12)


class TestDorb1:
    def test_zero_base(self):
        p = 3
        x = BPoint.exact(6, 1, 0, p)
        assert x.side() == 1
        d = dorb1(zero_point(p), x)
        assert d.const_tag is None
        # v(Delta/p) = 0 so the regular-nilpotent term vanishes
        assert d.varying == phi_closed(x) == LogQVal({1: -6}, p)

    def test_zero_base_assembly_formula(self):
        p = 3
        x = make_bpoint_rs1(1, 2, 5, p)
        d = dorb1(zero_point(p), x)
        k = x.delta().val() - 1
        want = phi_closed(x) + LogQVal({1: -k}, p) * (-zeta1(p) / p)
        assert d.varying == want

    def test_oracle_route_matches(self):
        p = 3
        for mlp in ((0, 1, INF), (1, 1, 3), (1, 3, 1)):
            x = make_bpoint_rs1(*mlp, p)
            a = dorb1(zero_point(p), x, method="closed")
            b = dorb1(zero_point(p), x, method="oracle", window=12)
            assert a.varying == b.varying

    def test_nonzero_base_constant_tag(self):
        p = 3
        x0 = BPoint.exact(-3, 1, 1, p)
        x = BPoint.exact(-3 + 2 * 3 ** 7, 1, 1, p)
        assert x.side() == 1
        d = dorb1(x0, x)
        assert d.const_tag is not None
        x2 = BPoint.exact(-3 + 2 * 3 ** 9, 1, 1, p)
        assert x2.side() == 1
        d2 = dorb1(x0, x2)
        diff = d2 - d
        # slope is the forced value times the change in v(Delta)
        v = forced_s_values(x0, orbit_reps(x0, "s_red")[1])
        assert diff == LogQVal({1: -2 * v}, p)

    def test_split_rejected(self):
        p = 5
        x0 = BPoint.exact(-4, 0, 0, p)
        with pytest.raises(ExcludedCaseError):
            dorb1(x0, BPoint.exact(-4, 5 ** 8, 0, p))


class TestNeighborhood:
    def test_zero_accepts_integral(self):
        p = 3
        assert is_in_neighborhood(zero_point(p), make_bpoint_rs1(0, 1, INF, p))

    def test_frozen_units(self):
        p = 3
        x0 = BPoint.exact(-3, 1, 1, p)
        assert is_in_neighborhood(x0, BPoint.exact(-3 + 3 ** 9, 1, 1, p))
        assert not is_in_neighborhood(x0, BPoint.exact(-3 + 3, 1, 1, p))
        assert not is_in_neighborhood(x0, BPoint.exact(-3, 2, 1, p))
