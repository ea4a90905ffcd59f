"""Germ coefficients of the expansion of weighted orbital integrals around a
degenerate base point, their derivatives at the center of the twist
parameter, the closed-form family contribution Phi, and the assembled first
derivative term around every base point.

Around a nonzero base point the assembled value is only defined modulo an
unknown constant depending on the base point; it is returned as a varying
part plus a symbolic constant tag, and consumers compare differences."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (ExcludedCaseError, InputError,
                     NotRegularSemisimpleError, UnrealizableError)
from .integrate import DEFAULT_WINDOW, phi_from_xi
from .orbits import BPoint, OrbitRep, case_of, in_side1_closure, orbit_reps
from .padic import PadicScalar, _sqrt_mod_p
from .svalue import LaurentX, LogQVal, dds_s0
from .values import eta_minus1, forced_s_values, transfer_sign_0ii

UNNEEDED = "unneeded"

NEIGHBORHOOD_DEPTH = 4

# the two ways to compute the family contribution around zero
METHODS = ("closed", "oracle")


@dataclass
class GermCoeff:
    rep: object
    value_at_0: Fraction
    dvalue: LogQVal
    s_form: LaurentX | None = None


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
        return GermCoeff(("n_mu", mu), Fraction(0), LogQVal.const(0, p),
                         LaurentX.const(0, p))
    vdp, vdisc = dp.val(), disc.val()
    if not trace.is_exact_zero() and 2 * trace.val() < vdp:
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
    return GermCoeff(("n_mu", mu), value0, dds_s0(s_form), s_form)


def is_in_neighborhood(x0: BPoint, x: BPoint) -> bool:
    """Membership in the combinatorial neighborhood of a base point: the
    nonzero coordinates of x0 are frozen to congruence depth
    NEIGHBORHOOD_DEPTH, and the discriminant valuation exceeds every frozen
    valuation by at least that depth."""
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


def dgamma_table(x0: BPoint, rep: OrbitRep, x: BPoint):
    """Tabulated derivative of the germ coefficient at the center, evaluated
    at x near x0.  Entries whose paired orbit integral vanishes identically
    are returned as the UNNEEDED marker.  An x with Delta = 0 raises
    NotRegularSemisimpleError: the entries read log|Delta|."""
    p = x0.p
    c = case_of(x0)
    if c == "split":
        raise ExcludedCaseError("excluded split case")
    if not is_in_neighborhood(x0, x):
        raise UnrealizableError("x outside the recorded neighborhood of x0")
    d = x.delta()
    if d.is_zero_at_precision():
        raise NotRegularSemisimpleError("not regular semisimple: Delta = 0")
    if c == "zero":
        if rep.tag == "n0_plus":
            return LogQVal.const(0, p)
        if rep.tag == "n0_minus":
            return LogQVal({1: Fraction(-(d.val() - 1))}, p)   # log|Delta/p|
        raise ValueError("family coefficients come from gamma_n_mu")
    if c == "0i":
        if rep.tag == "y_plus":
            return LogQVal.const(0, p)
        if rep.tag == "y_minus":
            v = d.val() - x0.lam.val()
            return LogQVal({1: Fraction(-(-x0.lam).eta() * v)}, p)
        return UNNEEDED
    if c == "0ii":
        if rep.tag == "y_pp":
            return LogQVal.const(0, p)
        if rep.tag == "y_mm":
            v = d.val() - x0.lam.val()
            return LogQVal({1: Fraction(-eta_minus1(p) * v)}, p)
        return UNNEEDED
    # case 1
    if rep.tag == "y_plus":
        return LogQVal.const(0, p)
    if rep.tag == "y_minus":
        v = d.val() - 2 * x0.u.val() - 1
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
    vw = None if x.wtilde.is_exact_zero() else x.wtilde.val()
    den = (1 - t) ** 2

    def out(c):
        return LogQVal({1: c}, p)

    case_one = (vw is None) or (vd <= 2 * vw + 1)
    if case_one:
        if vd > 4 * vu:
            return out(-t ** (-vu) * (2 * (1 + t) + (vd - 4 * vu - 1) * (1 - t)) / den)
        if vd % 2 == 1:
            e = (2 * vu - vd + 1) // 2
            return out(-t ** e * ((4 * vu - vd + 3) - (4 * vu - vd - 1) * t) / den)
        e = (2 * vu - vd) // 2
        return out(-t ** e * ((2 * vu - vd // 2 + 1) * (1 - t * t) + t * (3 + t)) / den)
    if vw >= 2 * vu:
        return out(-t ** (-vu) * (2 * (1 + t) + (vd - 4 * vu - 1) * (1 - t)) / den)
    e = vu - vw
    return out(-t ** e * (4 * t + (vd + 4 * vu - 4 * vw + 1) * (1 - t)) / den)


def germ_terms(x0: BPoint, x: BPoint):
    """(tag, dGamma, forced value) for each orbit representative over x0, at
    x.  The family n_mu has neither: its part is the family contribution.  An
    entry whose paired orbit integral vanishes has dGamma UNNEEDED, and the
    value is None there and wherever the transfer forces none."""
    out = []
    for rep in orbit_reps(x0):
        if rep.tag == "n_mu":
            out.append((rep.tag, None, None))
            continue
        coeff = dgamma_table(x0, rep, x)
        val = None if coeff is UNNEEDED else forced_s_values(x0, rep)
        out.append((rep.tag, coeff, val))
    return out


@dataclass
class Dorb1:
    """Assembled first-derivative term: an exact graded value around zero, or
    a varying part plus a symbolic base-point constant elsewhere, with the
    per-representative terms of germ_terms that went into it."""
    varying: LogQVal
    const_tag: str | None
    terms: list

    def __sub__(self, other: "Dorb1") -> LogQVal:
        if self.const_tag != other.const_tag:
            raise ValueError("differencing across distinct base points")
        return self.varying - other.varying


def dorb1(x0: BPoint, x: BPoint, method: str = "closed",
          window: int = DEFAULT_WINDOW) -> Dorb1:
    """The first-derivative term at x in the recorded neighborhood of x0,
    assembled from the coefficient table and the transfer-forced orbit
    values.

    Around zero the family contribution is added (closed form, or the shell
    sum when method='oracle') and the result is absolute; around a nonzero
    base point the unknown constant is kept symbolic.  For the diagonal-type
    base points the section's transfer factor is folded in, so that twice the
    result plus the intersection term is the comparison function.  A method
    outside METHODS is an InputError."""
    check_method(method)
    p = x0.p
    c = case_of(x0)
    if c == "split":
        raise ExcludedCaseError("excluded split case")
    if not is_in_neighborhood(x0, x):
        raise UnrealizableError("x outside the recorded neighborhood of x0")
    if not in_side1_closure(x0):
        raise UnrealizableError("base point is not in the closure of side 1")
    if x.side() != 1:
        raise InputError("dorb1 evaluates on side-1 points")

    if c != "zero":
        total = LogQVal.const(0, p)
    elif method == "closed":
        total = phi_closed(x)
    else:
        total = phi_from_xi(x, window)
    terms = germ_terms(x0, x)
    for _, coeff, val in terms:
        if val is not None:
            total = total + coeff * val
    if c == "zero":
        return Dorb1(total, None, terms)
    if c == "0ii":
        total = total * transfer_sign_0ii(x0)   # transfer factor of the section
    return Dorb1(total, f"C({c};{x0.lam!r},{x0.u!r},{x0.wtilde!r})", terms)
