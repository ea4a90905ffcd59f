"""Germ coefficients of the expansion of weighted orbital integrals around a
degenerate base point, their derivatives at the center of the twist
parameter, the closed-form family contribution Phi, and the assembled first
derivative term around every base point.

Around a nonzero base point the assembled value is only defined modulo an
unknown constant depending on the base point; it is returned as a varying
part plus a symbolic constant tag, and consumers compare differences.

What the assembly reads of a base point (its case, neighborhood, orbit tags
and forced values) sits in a BasePointPlan, which a caller evaluating many
points around one base point builds once.  The per-tag terms of one
evaluation (tag, dGamma, forced value) are read from `dorb1(...).terms`, the
one checked entry to the coefficient rows."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (ExcludedCaseError, InputError,
                     NotRegularSemisimpleError, UnrealizableError)
from .integrate import phi_from_xi
from .orbits import BPoint, case_of, in_side1_closure, orbit_reps
from .padic import PadicScalar, _sqrt_mod_p
from .svalue import LaurentX, LogQVal, dds_s0
from .values import eta_minus1, forced_s_values, transfer_sign_0ii

UNNEEDED = "unneeded"

NEIGHBORHOOD_DEPTH = 4

# the two ways to compute the family contribution around zero
METHODS = ("closed", "oracle")


@dataclass
class GermCoeff:
    value_at_0: Fraction
    dvalue: LogQVal
    s_form: LaurentX


def check_method(method: str) -> None:
    """InputError unless method is one of METHODS."""
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}; expected one of {METHODS}")


def zero_point(p: int) -> BPoint:
    return BPoint.exact(0, 0, 0, p)


def gamma_n_mu(x: BPoint, mu) -> GermCoeff:
    """Germ coefficient of the nilpotent-family member with parameter mu, for
    a regular semisimple x near zero.

    Vanishes unless the discriminant disc = T^2 - 4 Delta/p, T = u^2 mu - 2 wt,
    is a square; otherwise it is
    eta(-nu) (|nu|^{-s} + eta(Delta/p) |Delta/p|^{-s} |nu|^{s}) / |disc|^{1/2}
    where nu is either root of nu^2 - T nu + Delta/p; the value is
    independent of the choice of root, and as a function of X = q^(-s) it is
    a Laurent polynomial with two terms.

    Only v(nu) and eta(-nu) enter, and the Newton polygon gives both from
    residues, with no root lifted: if 2 v(T) < v(Delta/p) the large root has
    v(nu) = v(T) and nu = T mod p^(v(T)+1); otherwise both roots have
    v(nu) = k = v(Delta/p)/2 and nu/p^k = (T/p^k + sqrt(disc/p^(2k)))/2
    mod p.  A vanishing discriminant raises InputError."""
    p = x.p
    mu = mu if isinstance(mu, PadicScalar) else PadicScalar.exact(mu, p)
    if not x.is_rs():
        raise NotRegularSemisimpleError("gamma_n_mu needs a rs point")
    trace = x.u * x.u * mu - (x.wtilde + x.wtilde)
    dp = x.delta() / p
    disc = trace * trace - 4 * dp
    if disc.is_exact_zero():
        raise InputError(f"the discriminant of the family member vanishes "
                         f"at mu = {mu!r}")
    if not disc.is_square():
        return GermCoeff(Fraction(0), LogQVal.const(0, p), LaurentX.const(0, p))
    vdp, vdisc = dp.val(), disc.val()
    if 2 * trace.val() < vdp:
        vnu, unit = trace.val(), trace.unit_mod(1)
    else:
        vnu = vdp // 2
        t = trace.unit_mod(1) if trace.val() == vnu else 0
        s = _sqrt_mod_p(disc.unit_mod(1), p) if vdisc == 2 * vnu else 0
        unit = (t + s) * pow(2, -1, p) % p
    # nu0 is a root nu to its leading digit, which fixes v(nu) and eta(-nu)
    nu0 = PadicScalar.exact(unit * Fraction(p) ** vnu, p)
    edp = dp.eta()
    coeff = Fraction((-nu0).eta()) * Fraction(p) ** (vdisc // 2)
    s_form = (LaurentX({-vnu: coeff}, p)
              + LaurentX({vnu - vdp: coeff * edp}, p))
    value0 = coeff * (1 + edp)
    return GermCoeff(value0, dds_s0(s_form), s_form)


class BasePointPlan:
    """What the verdicts around one degenerate base point x0 read of it, all
    computed when the plan is built: its case, the side-1-closure verdict,
    the coordinates with the valuations the neighborhood freezes (frozen),
    the orbit tags (reps), the forced value of each tag (forced, empty in
    the split case) and, in case 0ii, the transfer sign (sign_0ii, else
    None).

    A plain value: the caller builds it and keeps it while it evaluates
    around x0, and no module holds one.  is_in_neighborhood, dgamma_table
    and dorb1 take it in place of x0, and build a one-shot plan when given a
    BPoint.  Building a plan raises only what case_of raises;
    the split case (usable_case) and the closure verdict raise where a
    caller reads them, so the errors come in the same order as without a
    plan."""

    def __init__(self, x0: BPoint):
        self.x0 = x0
        self.p = x0.p
        self.case = case = case_of(x0)
        self.side1_closure = in_side1_closure(x0, case)
        # the valuation is None for an exact zero, which the neighborhood
        # leaves free
        self.frozen = tuple((s0, None if s0.is_exact_zero() else s0.val())
                            for s0 in (x0.lam, x0.u, x0.wtilde))
        self.reps = orbit_reps(case)
        self.sign_0ii = transfer_sign_0ii(x0) if case == "0ii" else None
        self.forced = {} if case == "split" else {
            tag: forced_s_values(x0, tag, case, self.sign_0ii)
            for tag in self.reps}

    def usable_case(self) -> str:
        """The case; ExcludedCaseError for the split case, which every
        comparison routine rejects."""
        if self.case == "split":
            raise ExcludedCaseError("excluded split case")
        return self.case


def base_point_plan(x0) -> BasePointPlan:
    """x0 itself when it is a BasePointPlan, else a one-shot plan for the
    BPoint x0."""
    return x0 if isinstance(x0, BasePointPlan) else BasePointPlan(x0)


def is_in_neighborhood(x0, x: BPoint) -> bool:
    """Membership in the combinatorial neighborhood of a base point x0 (a
    BPoint or its plan): the nonzero coordinates of x0 are frozen to
    congruence depth NEIGHBORHOOD_DEPTH, and the discriminant valuation
    exceeds every frozen valuation by at least that depth."""
    plan = base_point_plan(x0)
    if x.p != plan.p:
        return False
    if plan.case == "zero":
        return x.is_integral()
    for s, (s0, v0) in zip((x.lam, x.u, x.wtilde), plan.frozen):
        if v0 is None:
            continue
        if (s - s0).val() < v0 + NEIGHBORHOOD_DEPTH:
            return False
    vd = x.delta().val()
    return all(vd >= v0 + NEIGHBORHOOD_DEPTH
               for _, v0 in plan.frozen if v0 is not None)


def dgamma_table(x0, tag: str, vd: int):
    """Tabulated derivative at the center of the germ coefficient of the
    orbit tag over the base point x0 (a BPoint or its plan), at a point x of
    its neighborhood with v(Delta(x)) = vd: the entries read x only through
    log|Delta|.  The caller has checked x (dorb1 tests the neighborhood and
    the side once per x).  Entries whose paired orbit
    integral vanishes identically are returned as the UNNEEDED marker.  The
    family tag n_mu at zero is an InputError: its coefficients come from
    gamma_n_mu."""
    plan = base_point_plan(x0)
    p = plan.p
    c = plan.usable_case()
    x0 = plan.x0
    if c == "zero":
        if tag == "n0_plus":
            return LogQVal.const(0, p)
        if tag == "n0_minus":
            return LogQVal({1: Fraction(-(vd - 1))}, p)   # log|Delta/p|
        raise InputError("family coefficients come from gamma_n_mu")
    if c == "0i":
        if tag == "y_plus":
            return LogQVal.const(0, p)
        if tag == "y_minus":
            v = vd - x0.lam.val()
            return LogQVal({1: Fraction(-(-x0.lam).eta() * v)}, p)
        return UNNEEDED
    if c == "0ii":
        if tag == "y_pp":
            return LogQVal.const(0, p)
        if tag == "y_mm":
            v = vd - x0.lam.val()
            return LogQVal({1: Fraction(-eta_minus1(p) * v)}, p)
        return UNNEEDED
    # case 1
    if tag == "y_plus":
        return LogQVal.const(0, p)
    if tag == "y_minus":
        v = vd - 2 * x0.u.val() - 1
        return LogQVal({1: Fraction(-v)}, p)      # log|Delta/(u0^2 p)|
    return UNNEEDED


def phi_closed(x: BPoint) -> LogQVal:
    """The closed-form family contribution for a side-1 point near zero, a
    rational multiple of log q dispatched on five valuation patterns.  A
    side-0 point is an InputError."""
    p = x.p
    if x.side() != 1:
        raise InputError("phi_closed requires a side-1 point")
    t = Fraction(1, p)
    vd = x.delta().val()
    vu = x.u.val()
    vw = x.wtilde.val()
    den = (1 - t) ** 2

    def out(c):
        return LogQVal({1: c}, p)

    case_one = vd <= 2 * vw + 1     # always when wtilde = 0
    if (vd > 4 * vu) if case_one else (vw >= 2 * vu):
        return out(-t ** (-vu) * (2 * (1 + t) + (vd - 4 * vu - 1) * (1 - t)) / den)
    if case_one:
        if vd % 2 == 1:
            e = (2 * vu - vd + 1) // 2
            return out(-t ** e * ((4 * vu - vd + 3) - (4 * vu - vd - 1) * t) / den)
        e = (2 * vu - vd) // 2
        return out(-t ** e * ((2 * vu - vd // 2 + 1) * (1 - t * t) + t * (3 + t)) / den)
    e = vu - vw
    return out(-t ** e * (4 * t + (vd + 4 * vu - 4 * vw + 1) * (1 - t)) / den)


def _germ_rows(plan: BasePointPlan, vd: int) -> list:
    """(tag, dGamma, forced value) for each orbit tag over the plan's base
    point, at a checked x with v(Delta(x)) = vd.  The family n_mu has
    neither: its part is the family contribution.  An entry whose paired
    orbit integral vanishes has dGamma UNNEEDED, and the value is None there
    and wherever the transfer forces none."""
    out = []
    for tag in plan.reps:
        if tag == "n_mu":
            out.append((tag, None, None))
            continue
        coeff = dgamma_table(plan, tag, vd)
        val = None if coeff is UNNEEDED else plan.forced[tag]
        out.append((tag, coeff, val))
    return out


@dataclass
class Dorb1:
    """Assembled first-derivative term: an exact graded value around zero, or
    a varying part plus a symbolic base-point constant elsewhere, with the
    per-tag terms (tag, dGamma, forced value) that went into it."""
    varying: LogQVal
    const_tag: str | None
    terms: list


def dorb1(x0, x: BPoint, method: str = "closed") -> Dorb1:
    """The first-derivative term at x in the recorded neighborhood of the
    base point x0 (a BPoint or its plan), assembled from the coefficient
    table and the transfer-forced orbit values.

    Around zero the family contribution is added (closed form, or the shell
    sum when method='oracle') and the result is absolute; around a nonzero
    base point the unknown constant is kept symbolic.  For the diagonal-type
    base points the section's transfer factor is folded in, so that twice the
    result plus the intersection term is the comparison function.  A method
    outside METHODS is an InputError.  x is checked once, for every tag:
    the split case, the neighborhood, the base point's closure verdict and
    the side of x (which refuses Delta = 0), in that order."""
    check_method(method)
    plan = base_point_plan(x0)
    p = plan.p
    c = plan.usable_case()
    if not is_in_neighborhood(plan, x):
        raise UnrealizableError("x outside the recorded neighborhood of x0")
    if not plan.side1_closure:
        raise UnrealizableError("base point is not in the closure of side 1")
    if x.side() != 1:
        raise InputError("dorb1 evaluates on side-1 points")

    if c != "zero":
        total = LogQVal.const(0, p)
    elif method == "closed":
        total = phi_closed(x)
    else:
        total = phi_from_xi(x)
    terms = _germ_rows(plan, x.delta().val())
    for _, coeff, val in terms:
        if val is not None:
            total = total + coeff * val
    if c == "zero":
        return Dorb1(total, None, terms)
    if c == "0ii":
        total = total * plan.sign_0ii   # transfer factor of the section
    x0 = plan.x0
    return Dorb1(total, f"C({c};{x0.lam!r},{x0.u!r},{x0.wtilde!r})", terms)
