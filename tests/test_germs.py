import json
import random
from fractions import Fraction

import pytest

import sys
from collections import Counter

from atlas import cli, germs, orbits, values
from atlas.errors import (ExcludedCaseError, InputError,
                          NotRegularSemisimpleError, UnrealizableError)
from atlas.germs import (NEIGHBORHOOD_DEPTH, UNNEEDED, BasePointPlan, Dorb1,
                         _germ_rows, check_method, dgamma_table, dorb1,
                         gamma_n_mu, is_in_neighborhood, phi_closed,
                         zero_point)
from atlas.integrate import phi_from_xi
from atlas.orbits import (INF, BPoint, case_of, in_side1_closure,
                          make_bpoint_rs1, orbit_reps)
from atlas.padic import PadicScalar
from atlas.svalue import LaurentX, LogQVal, dds_s0, zeta1
from atlas.values import eta_minus1, forced_s_values, transfer_sign_0ii
from atlas.verify import (base_point_library, neighborhood_samples, phi1,
                          verify_x0, verify_zero)
from test_padic import padic_sqrt


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
        vd = x.delta().val()
        assert dgamma_table(x0, "n0_plus", vd).is_zero()
        assert dgamma_table(x0, "n0_minus", vd) == LogQVal({1: -(vd - 1)}, p)

    def test_case_0i_row(self):
        p = 3
        x0 = BPoint.exact(1, 0, 0, p)
        assert case_of(x0) == "0i"
        x = BPoint.exact(1, 27, 0, p)
        vd = x.delta().val()
        assert dgamma_table(x0, "y_plus", vd).is_zero()
        v = vd - x0.lam.val()
        e = PadicScalar.exact(-1, p).eta()
        assert dgamma_table(x0, "y_minus", vd) == LogQVal({1: -e * v}, p)

    def test_case_1_row(self):
        p = 3
        x0 = BPoint.exact(-3, 1, 1, p)
        x = BPoint.exact(-3 + 3 ** 7, 1, 1, p)
        vd = x.delta().val()
        v = vd - 2 * x0.u.val() - 1
        assert dgamma_table(x0, "y_minus", vd) == LogQVal({1: -v}, p)

    def test_unneeded_rows(self):
        p = 5
        x0 = BPoint.exact(-20, 0, 0, p)
        x = BPoint.exact(-20, 5 ** 8, 0, p)
        vd = x.delta().val()
        assert dgamma_table(x0, "y_pm", vd) is UNNEEDED
        assert dgamma_table(x0, "y_mp", vd) is UNNEEDED
        assert dgamma_table(x0, "y_pp", vd).is_zero()

    def test_neighborhood_enforced(self):
        p = 3
        x0 = BPoint.exact(1, 0, 0, p)
        far = BPoint.exact(2, 1, 0, p)
        with pytest.raises(UnrealizableError):
            dorb1(x0, far)

    def test_delta_zero_is_not_regular_semisimple(self):
        # the n0_minus row read v(Delta) = inf and raised OverflowError
        p = 3
        x0 = zero_point(p)
        for x in (BPoint.exact(0, 1, 0, p), BPoint.exact(0, 0, 0, p),
                  BPoint.exact(3, 0, 0, p)):
            assert x.delta().is_exact_zero()
            with pytest.raises(NotRegularSemisimpleError):
                dorb1(x0, x)

    def test_sform_consistency_case_0i(self):
        # the tabulated row equals d/ds at 0 of eta(Delta/lam)|Delta/lam|^{-s}
        # on the non-split side, where eta(Delta/lam) = -eta(-lam)
        p = 3
        x0 = BPoint.exact(1, 0, 0, p)
        x = BPoint.exact(1, 27, 0, p)
        assert x.side() == 1
        dl = x.delta() / x.lam
        s_form = LaurentX({-dl.val(): 1}, p) * dl.eta()
        assert dds_s0(s_form) == dgamma_table(x0, "y_minus", x.delta().val())


class TestOrbitTags:
    # per case, a base point, a point near it and the tags that have a row
    # of the table; every other tag but the family n_mu reads UNNEEDED
    @pytest.mark.parametrize("x0, x, rows", [
        ((0, 0, 0, 3), (6, 1, 0, 3), {"n0_plus", "n0_minus"}),
        ((1, 0, 0, 3), (1, 27, 0, 3), {"y_plus", "y_minus"}),
        ((-20, 0, 0, 5), (-20, 5 ** 8, 0, 5), {"y_pp", "y_mm"}),
        ((-21, 0, 0, 3), (-21, 3 ** 3, 0, 3), {"y_pp", "y_mm"}),
        ((-3, 1, 1, 3), (-3 + 2 * 3 ** 7, 1, 1, 3), {"y_plus", "y_minus"}),
    ], ids=["zero", "0i", "0ii", "0ii-irrational", "1"])
    def test_each_tag_reads_its_row_and_forced_value(self, x0, x, rows):
        x0, x = BPoint.exact(*x0), BPoint.exact(*x)
        case = case_of(x0)
        tags = orbit_reps(case)
        assert rows <= set(tags)
        # the 0ii point is on side 0, which dorb1 refuses: read the plan's
        # rows at the checked point
        assert is_in_neighborhood(x0, x) and x.is_rs()
        terms = _germ_rows(BasePointPlan(x0), x.delta().val())
        assert tuple(tag for tag, _, _ in terms) == tags
        for tag, coeff, val in terms:
            if tag == "n_mu":
                assert (coeff, val) == (None, None)
                continue
            assert coeff == dgamma_table(x0, tag, x.delta().val())
            if tag in rows:
                forced = forced_s_values(x0, tag, case, _sign(x0, case))
                assert isinstance(coeff, LogQVal)
                assert forced is not None and val == forced
            else:
                assert coeff is UNNEEDED and val is None


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
            b = dorb1(zero_point(p), x, method="oracle")
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
        assert d2.const_tag == d.const_tag
        diff = d2.varying - d.varying
        # slope is the forced value times the change in v(Delta)
        v = forced_s_values(x0, "y_minus", "1", None)
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


# ---------------------------------------------------------------------------
# the per-call assembly of dorb1, which classified the base point on every
# use, kept as the reference for the assembly on a BasePointPlan


def _reference_in_neighborhood(x0, x):
    if x.p != x0.p:
        return False
    c = case_of(x0)
    if c == "zero":
        return x.is_integral()
    fixed = []

    def close(s, s0):
        if s0.is_exact_zero():
            return True
        d = s - s0
        if d.is_exact_zero():
            fixed.append(s0.val())
            return True
        fixed.append(s0.val())
        return d.val() >= s0.val() + NEIGHBORHOOD_DEPTH

    ok = (close(x.lam, x0.lam) and close(x.u, x0.u)
          and close(x.wtilde, x0.wtilde))
    if not ok:
        return False
    vd = x.delta().val()
    return all(vd >= f + NEIGHBORHOOD_DEPTH for f in fixed)


def _sign(x0, case):
    """The sign_0ii argument of forced_s_values for a base point of the case."""
    return transfer_sign_0ii(x0) if case == "0ii" else None


def _reference_dgamma_table(x0, tag, x):
    p = x0.p
    c = case_of(x0)
    if c == "split":
        raise ExcludedCaseError("excluded split case")
    if not _reference_in_neighborhood(x0, x):
        raise UnrealizableError("x outside the recorded neighborhood of x0")
    d = x.delta()
    if d.is_zero_at_precision():
        raise NotRegularSemisimpleError("not regular semisimple: Delta = 0")
    if c == "zero":
        if tag == "n0_plus":
            return LogQVal.const(0, p)
        if tag == "n0_minus":
            return LogQVal({1: Fraction(-(d.val() - 1))}, p)
        raise InputError("family coefficients come from gamma_n_mu")
    if c == "0i":
        if tag == "y_plus":
            return LogQVal.const(0, p)
        if tag == "y_minus":
            v = d.val() - x0.lam.val()
            return LogQVal({1: Fraction(-(-x0.lam).eta() * v)}, p)
        return UNNEEDED
    if c == "0ii":
        if tag == "y_pp":
            return LogQVal.const(0, p)
        if tag == "y_mm":
            v = d.val() - x0.lam.val()
            return LogQVal({1: Fraction(-eta_minus1(p) * v)}, p)
        return UNNEEDED
    if tag == "y_plus":
        return LogQVal.const(0, p)
    if tag == "y_minus":
        v = d.val() - 2 * x0.u.val() - 1
        return LogQVal({1: Fraction(-v)}, p)
    return UNNEEDED


def _reference_dorb1(x0, x, method="closed"):
    check_method(method)
    p = x0.p
    c = case_of(x0)
    if c == "split":
        raise ExcludedCaseError("excluded split case")
    if not _reference_in_neighborhood(x0, x):
        raise UnrealizableError("x outside the recorded neighborhood of x0")
    if not in_side1_closure(x0, c):
        raise UnrealizableError("base point is not in the closure of side 1")
    if x.side() != 1:
        raise InputError("dorb1 evaluates on side-1 points")
    if c != "zero":
        total = LogQVal.const(0, p)
    elif method == "closed":
        total = phi_closed(x)
    else:
        total = phi_from_xi(x)
    terms = []
    for tag in orbit_reps(c):
        if tag == "n_mu":
            terms.append((tag, None, None))
            continue
        coeff = _reference_dgamma_table(x0, tag, x)
        val = None if coeff is UNNEEDED else forced_s_values(x0, tag, c, _sign(x0, c))
        terms.append((tag, coeff, val))
    for _, coeff, val in terms:
        if val is not None:
            total = total + coeff * val
    if c == "zero":
        return Dorb1(total, None, terms)
    if c == "0ii":
        total = total * transfer_sign_0ii(x0)
    return Dorb1(total, f"C({c};{x0.lam!r},{x0.u!r},{x0.wtilde!r})", terms)


def _outcome(call):
    """(varying, const_tag, terms) of a Dorb1, or (type, message) of the
    error raised."""
    try:
        d = call()
    except Exception as exc:
        return type(exc), str(exc)
    return d.varying, d.const_tag, d.terms


def _same_as_reference(x0, x, plan=None, method="closed"):
    """The outcome of dorb1 on a shared plan (plan, or one built here),
    equal to that of dorb1 on x0 and of the reference; also compares the
    neighborhood verdicts.  A plan is built whole, so building one raises
    what case_of raises, and a base point without a case has no plan."""
    want = _outcome(lambda: _reference_dorb1(x0, x, method))
    assert _outcome(lambda: dorb1(x0, x, method)) == want
    if plan is None:
        try:
            case_of(x0)
        except Exception as exc:
            with pytest.raises(type(exc), match=str(exc)):
                BasePointPlan(x0)
            return want
        plan = BasePointPlan(x0)
    assert _outcome(lambda: dorb1(plan, x, method)) == want
    try:
        inside = _reference_in_neighborhood(x0, x)
    except Exception as exc:
        with pytest.raises(type(exc), match=str(exc)):
            is_in_neighborhood(plan, x)
    else:
        assert is_in_neighborhood(plan, x) == inside
    return want


def _near(rng, x0):
    """A point whose coordinates differ from x0's by p-adically small or
    large amounts, or not at all."""
    p = x0.p
    coords = []
    for s0 in (x0.lam, x0.u, x0.wtilde):
        r = s0.rational
        if rng.random() < 0.3:
            coords.append(r)
        else:
            unit = rng.choice([c for c in range(1 - p, p) if c])
            coords.append(r + unit * Fraction(p) ** rng.randint(0, 14))
    return BPoint.exact(*coords, p)


class TestBasePointPlan:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_zero_matches_the_per_call_assembly_on_a_sparse_grid(self, p):
        plan = BasePointPlan(zero_point(p))
        for m in (0, 1, 4):
            for lm in (1, 2, 5, 8):
                for lp in (1, 3, 5, 9, INF):
                    x = make_bpoint_rs1(m, lm, lp, p)
                    want = _same_as_reference(plan.x0, x, plan)
                    assert want[1] is None and len(want[2]) == 3

    @pytest.mark.parametrize("p", [3, 5])
    def test_library_matches_the_per_call_assembly(self, p):
        rng = random.Random(1601 + p)
        kinds = Counter()
        for _, x0 in base_point_library(p):
            plan = BasePointPlan(x0)
            points = neighborhood_samples(x0) + [_near(rng, x0) for _ in range(40)]
            for i, x in enumerate(points):
                want = _same_as_reference(x0, x, plan)
                if i < 5:
                    assert want[1] is not None
                kinds[want[0] if isinstance(want[0], type) else "value"] += 1
        # the random points reach the value and the usual refusals
        assert kinds["value"] >= 100
        assert kinds[UnrealizableError] >= 50
        assert kinds[InputError] >= 20

    @pytest.mark.parametrize("x0, x, method, error", [
        ((-4, 0, 0, 5), (-4, 5 ** 8, 0, 5), "closed", ExcludedCaseError),
        ((-3, 1, 1, 3), (0, 1, 1, 3), "closed", UnrealizableError),
        ((0, 0, 0, 3), (1, 1, 0, 5), "closed", UnrealizableError),
        ((3, 0, 0, 3), (3, 3 ** 6, 0, 3), "closed", UnrealizableError),
        ((0, Fraction(1, 3), 0, 3), (0, Fraction(1, 3), 0, 3), "closed",
         UnrealizableError),
        ((0, 0, 0, 3), (2, 1, 0, 3), "closed", InputError),
        ((0, 0, 0, 3), (0, 1, 0, 3), "closed", NotRegularSemisimpleError),
        ((1, 1, 0, 3), (1, 1, 0, 3), "closed", NotRegularSemisimpleError),
        ((-4, 0, 0, 5), (-4, 5 ** 8, 0, 5), "exact", InputError),
        ((0, 0, 0, 3), (6, 1, 0, 3), "exact", InputError),
    ], ids=["split", "outside", "other-prime", "not-in-closure-0i",
            "not-in-closure-1", "side-0", "delta-zero", "not-degenerate",
            "split-and-unknown-method", "unknown-method"])
    def test_errors_match_the_per_call_assembly(self, x0, x, method, error):
        x0, x = BPoint.exact(*x0), BPoint.exact(*x)
        want = _same_as_reference(x0, x, method=method)
        assert want[0] is error

    def test_each_field_is_computed_once(self, monkeypatch):
        counts = _count_calls(monkeypatch)
        p = 5
        x0 = BPoint.exact(-5, 0, 0, p)              # case 0ii
        plan = BasePointPlan(x0)
        for x in neighborhood_samples(plan):
            dorb1(plan, x)
        assert counts["case_of"] == 1 and counts["orbit_reps"] == 1
        assert counts["forced_s_values"] == 5      # one per tag
        assert counts["transfer_sign_0ii"] == 1    # the plan's, read by the forced values

    def test_phi1_classifies_zero_once(self, monkeypatch):
        counts = _count_calls(monkeypatch)
        for p in (3, 5):
            for m in (0, 1, 4):
                for lm in (1, 2, 5):
                    for lp in (1, 3, INF):
                        counts.clear()
                        phi1(make_bpoint_rs1(m, lm, lp, p))
                        assert counts["case_of"] == 1
                        assert counts["delta"] <= 10, counts["delta"]

    @pytest.mark.parametrize("p", [3, 5])
    def test_dorb1_checks_each_sample_once(self, monkeypatch, p):
        zero = BasePointPlan(zero_point(p))
        plans = [BasePointPlan(x0) for _, x0 in base_point_library(p)]
        samples = [(zero, make_bpoint_rs1(m, lm, lp, p))
                   for m in (0, 2) for lm in (1, 4) for lp in (1, 5, INF)]
        samples += [(plan, x) for plan in plans for x in neighborhood_samples(plan)]
        counts = _count_calls(monkeypatch)
        for plan, x in samples:
            counts.clear()
            dorb1(plan, x)
            assert counts["is_in_neighborhood"] == 1
            if plan.case != "zero":
                assert counts["delta"] <= 3, counts["delta"]

    def test_verify_zero_builds_one_plan(self, monkeypatch):
        counts = _count_calls(monkeypatch)
        r = verify_zero(3, 2, 5)
        assert r.constant and len(r.samples) == 3 * 6 * 4
        assert counts["orbit_reps"] == 1 and counts["case_of"] == 1

    @pytest.mark.parametrize("p", [3, 5])
    def test_verify_x0_builds_one_plan(self, monkeypatch, p):
        library = base_point_library(p)
        counts = _count_calls(monkeypatch)
        for _, x0 in library:
            counts.clear()
            assert verify_x0(x0).constant
            assert counts["orbit_reps"] == 1 and counts["case_of"] == 1


def _count_calls(monkeypatch):
    """Count the calls of case_of, orbit_reps, forced_s_values,
    transfer_sign_0ii, is_in_neighborhood and BPoint.delta, wrapping each
    function in every atlas module that binds it."""
    counts = Counter()
    modules = [m for name, m in sys.modules.items()
               if m is not None and name.startswith("atlas.")]
    for fn in (orbits.case_of, orbits.orbit_reps, values.forced_s_values,
               values.transfer_sign_0ii, germs.is_in_neighborhood):
        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)
    delta = BPoint.delta

    def counted_delta(self):
        counts["delta"] += 1
        return delta(self)
    monkeypatch.setattr(BPoint, "delta", counted_delta)
    return counts


class TestTypedErrors:
    def test_family_row_at_zero_is_an_input_error(self):
        p = 3
        x0 = zero_point(p)
        family = orbit_reps(case_of(x0))[0]
        assert family == "n_mu"
        with pytest.raises(InputError, match="gamma_n_mu"):
            dgamma_table(x0, family, make_bpoint_rs1(1, 2, 3, p).delta().val())
