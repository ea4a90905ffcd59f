import json
import random
from fractions import Fraction

import pytest

from atlas import cli, germs
from atlas.errors import (ExcludedCaseError, InputError,
                          NotRegularSemisimpleError, UnrealizableError)
from atlas.germs import (UNNEEDED, dgamma_table, dorb1, gamma_n_mu,
                         is_in_neighborhood, phi_closed, zero_point)
from atlas.orbits import (INF, BPoint, case_of, make_bpoint_rs1, orbit_reps,
                          padic_sqrt)
from atlas.padic import PadicScalar
from atlas.svalue import LaurentX, LogQVal, dds_s0, zeta1
from atlas.values import forced_s_values
from atlas.verify import phi1, verify_zero


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
            forms = [capped_root_reference(x, mu, sign) for sign in (1, -1)]
            if forms[0] is None or forms[0][1] == {}:
                continue
            assert forms[0] == forms[1]
            g = gamma_n_mu(x, mu)
            assert (g.value_at_0, g.s_form.coeffs) == forms[0]
            checked += 1

    def test_matches_the_capped_root_reference(self):
        # every pair met on the way to 300 nonzero forms per prime
        random.seed(89)
        pairs = 0
        for p in (3, 5, 7, 11):
            nonzero = 0
            while nonzero < 300:
                x = BPoint.exact(_coordinate(p), _coordinate(p, nonzero=True),
                                 _coordinate(p), p)
                if not x.is_rs():
                    continue
                mu = _coordinate(p)
                want = capped_root_reference(x, mu)
                if want is None:
                    continue
                g = gamma_n_mu(x, mu)
                value0, terms = want
                slope = -sum(k * c for k, c in terms.items())
                assert g.value_at_0 == value0
                assert g.s_form.coeffs == terms
                assert g.dvalue == LogQVal({1: slope}, p)
                pairs += 1
                nonzero += terms != {}
        assert pairs >= 2000, pairs

    def test_vanishing_discriminant_is_an_input_error(self):
        # u = 0 makes Delta/p = wt^2 and the trace -2 wt, so disc = 0
        x = BPoint.exact(2, 0, 3, 5)
        with pytest.raises(InputError, match="discriminant"):
            gamma_n_mu(x, 7)

    @pytest.mark.parametrize("p, x, mu, value0, ds, s_form", [
        (5, (2625, Fraction(7, 5), -150), -35, "-2/5", "0",
         "(-1/5 + -1/5*X^2)/(1*X)"),
        (7, (637, Fraction(3, 7), Fraction(-13, 49)), Fraction(15, 7),
         "2/343", "-4/343*logq", "1/343*X + 1/343*X^3"),
        (5, (-3000, Fraction(-17, 5), 725), 0, "2", "0", "2"),
    ])
    def test_golden_side0_forms(self, p, x, mu, value0, ds, s_form):
        g = gamma_n_mu(BPoint.exact(*x, p), mu)
        assert (str(g.value_at_0), str(g.dvalue), repr(g.s_form)) == (
            value0, ds, s_form)

    @pytest.mark.parametrize("x, p, mu, ds, s_form", [
        (("6", "1", "0"), "3", "2", "0", "0"),            # the README example
        (("27", "-4", "6"), "3", "25", "2*logq", "(1 + -1*X^2)/(1*X^2)"),
        (("15", "1", "0"), "3", "22/3", "-2/3*logq",
         "(-1/3 + 1/3*X^2)/(1*X)"),
        (("-5", "-8", "-3"), "3", "-2/3", "-1/3*logq", "-1/3 + 1/3*X"),
        (("30", "5", "-10"), "5", "19", "-5*logq", "(-5 + 5*X)/(1*X^2)"),
    ])
    def test_golden_cli_forms(self, x, p, mu, ds, s_form, capsys):
        argv = ["germ", "--x0", "0", "0", "0", "--x", *x, "--p", p,
                f"--mu={mu}"]
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["gamma_n_mu"] == {"value_at_0": "0", "ds": ds,
                                     "s_form": s_form}


def _coordinate(p, nonzero=False):
    if not nonzero and random.random() < 0.15:
        return Fraction(0)
    return (random.choice([c for c in range(-30, 31) if c or not nonzero])
            * Fraction(p) ** random.randint(-2, 4))


def capped_root_reference(x, mu, sign=1):
    """gamma_n_mu as computed from a Hensel root nu = (T + sign*sqrt(disc))/2
    lifted to DEFAULT_PRECISION digits (the other root when that one is
    zero at precision): (value at 0, {exponent of X: coefficient}), or None
    when the discriminant vanishes."""
    p = x.p
    trace = x.u * x.u * PadicScalar.exact(mu, p) - (x.wtilde + x.wtilde)
    dp = x.delta() / p
    disc = trace * trace - 4 * dp
    if disc.is_exact_zero():
        return None
    if not disc.is_square():
        return Fraction(0), {}
    sq = padic_sqrt(disc)
    half = PadicScalar.exact(Fraction(1, 2), p)
    nu = (trace + sign * sq) * half
    if nu.is_zero_at_precision():
        nu = (trace - sign * sq) * half
    coeff = Fraction((-nu).eta()) * Fraction(p) ** (disc.val() // 2)
    edp = dp.eta()
    terms = {}
    for k, c in ((-nu.val(), coeff), (nu.val() - dp.val(), coeff * edp)):
        terms[k] = terms.get(k, 0) + c
    return coeff * (1 + edp), {k: c for k, c in terms.items() if c}


class TestDGammaTable:
    def test_zero_rows(self):
        p = 3
        x0 = zero_point(p)
        x = make_bpoint_rs1(1, 2, 3, p)
        reps = {r.tag: r for r in orbit_reps(x0)}
        assert dgamma_table(x0, reps["n0_plus"], x).is_zero()
        k = x.delta().val() - 1
        assert dgamma_table(x0, reps["n0_minus"], x) == LogQVal({1: -k}, p)

    def test_case_0i_row(self):
        p = 3
        x0 = BPoint.exact(1, 0, 0, p)
        assert case_of(x0) == "0i"
        x = BPoint.exact(1, 27, 0, p)
        reps = {r.tag: r for r in orbit_reps(x0)}
        assert dgamma_table(x0, reps["y_plus"], x).is_zero()
        v = x.delta().val() - x0.lam.val()
        e = PadicScalar.exact(-1, p).eta()
        assert dgamma_table(x0, reps["y_minus"], x) == LogQVal({1: -e * v}, p)

    def test_case_1_row(self):
        p = 3
        x0 = BPoint.exact(-3, 1, 1, p)
        x = BPoint.exact(-3 + 3 ** 7, 1, 1, p)
        reps = {r.tag: r for r in orbit_reps(x0)}
        v = x.delta().val() - 2 * x0.u.val() - 1
        assert dgamma_table(x0, reps["y_minus"], x) == LogQVal({1: -v}, p)

    def test_unneeded_rows(self):
        p = 5
        x0 = BPoint.exact(-20, 0, 0, p)
        x = BPoint.exact(-20, 5 ** 8, 0, p)
        reps = {r.tag: r for r in orbit_reps(x0)}
        assert dgamma_table(x0, reps["y_pm"], x) is UNNEEDED
        assert dgamma_table(x0, reps["y_mp"], x) is UNNEEDED
        assert dgamma_table(x0, reps["y_pp"], x).is_zero()

    def test_neighborhood_enforced(self):
        p = 3
        x0 = BPoint.exact(1, 0, 0, p)
        far = BPoint.exact(2, 1, 0, p)
        reps = orbit_reps(x0)
        with pytest.raises(UnrealizableError):
            dgamma_table(x0, reps[1], far)

    def test_delta_zero_is_not_regular_semisimple(self):
        # the n0_minus row read v(Delta) = inf and raised OverflowError
        p = 3
        x0 = zero_point(p)
        reps = {r.tag: r for r in orbit_reps(x0)}
        for x in (BPoint.exact(0, 1, 0, p), BPoint.exact(0, 0, 0, p),
                  BPoint.exact(3, 0, 0, p)):
            assert x.delta().is_exact_zero()
            for tag in ("n0_plus", "n0_minus"):
                with pytest.raises(NotRegularSemisimpleError):
                    dgamma_table(x0, reps[tag], x)

    def test_sform_consistency_case_0i(self):
        # the tabulated row equals d/ds at 0 of eta(Delta/lam)|Delta/lam|^{-s}
        # on the non-split side, where eta(Delta/lam) = -eta(-lam)
        p = 3
        x0 = BPoint.exact(1, 0, 0, p)
        x = BPoint.exact(1, 27, 0, p)
        assert x.side() == 1
        dl = x.delta() / x.lam
        s_form = LaurentX({-dl.val(): 1}, p) * dl.eta()
        reps = {r.tag: r for r in orbit_reps(x0)}
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

    def test_side0_point_is_an_input_error(self):
        x = BPoint.exact(2, 1, 0, 3)
        assert x.side() == 0
        with pytest.raises(InputError, match="side-1"):
            phi_closed(x)


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
        v = forced_s_values(x0, orbit_reps(x0)[1])
        assert diff == LogQVal({1: -2 * v}, p)

    def test_split_rejected(self):
        p = 5
        x0 = BPoint.exact(-4, 0, 0, p)
        with pytest.raises(ExcludedCaseError):
            dorb1(x0, BPoint.exact(-4, 5 ** 8, 0, p))

    @pytest.mark.parametrize("call", [
        lambda: dorb1(BPoint.exact(-3, 1, 1, 3), BPoint.exact(-3 + 2 * 3 ** 7, 1, 1, 3),
                      method="exact"),
        lambda: phi1(BPoint.exact(2, 1, 0, 3), method="exact"),
        lambda: verify_zero(3, 0, 1, method="exact"),
    ], ids=["dorb1-nonzero-base", "phi1-side0", "verify_zero"])
    def test_unknown_method_is_an_input_error(self, call):
        with pytest.raises(InputError, match="unknown method 'exact'"):
            call()

    def test_germ_command_computes_each_term_once(self, monkeypatch, capsys):
        calls = {"orbit_reps": 0, "dgamma_table": 0, "forced_s_values": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(germs, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(germs, name, counted)
        argv = ["germ", "--x0", "-27", "1", "3", "--x", "6534", "1", "3", "--p", "3"]
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert list(out["contributions"]) == ["y_plus", "y_minus"]
        assert calls == {"orbit_reps": 1, "dgamma_table": 2, "forced_s_values": 2}


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
