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

from .errors import (ExcludedCaseError, NotRegularSemisimpleError,
                     PrecisionError, UnrealizableError)
from .integrate import phi_from_xi
from .orbits import BPoint, OrbitRep, case_of, in_side1_closure, padic_sqrt
from .padic import PadicScalar
from .svalue import LogQVal, RatX, dds_s0
from .values import eta_minus1, forced_s_values

UNNEEDED = "unneeded"

NEIGHBORHOOD_DEPTH = 4


@dataclass
class GermCoeff:
    rep: object
    value_at_0: Fraction
    dvalue: LogQVal
    s_form: RatX | None = None


ZERO_POINT_CACHE = {}


def zero_point(p: int) -> BPoint:
    if p not in ZERO_POINT_CACHE:
        ZERO_POINT_CACHE[p] = BPoint.exact(0, 0, 0, p)
    return ZERO_POINT_CACHE[p]


def gamma_n_mu(x: BPoint, mu, ndigits: int | None = None) -> GermCoeff:
    """Germ coefficient of the nilpotent-family member with parameter mu, for
    a regular semisimple x near zero.

    Vanishes unless the discriminant (u^2 mu - 2 wt)^2 - 4 Delta/p is a
    square; otherwise it is
    eta(-nu) (|nu|^{-s} + eta(Delta/p) |Delta/p|^{-s} |nu|^{s}) / |disc|^{1/2}
    where nu is either root of nu + (Delta/p)/nu = u^2 mu - 2 wt; the value is
    independent of the choice of root.  The root is extracted to ndigits,
    by default the precision in force at call time."""
    p = x.p
    mu = mu if isinstance(mu, PadicScalar) else PadicScalar.exact(mu, p)
    if not x.is_rs():
        raise NotRegularSemisimpleError("gamma_n_mu needs a rs point")
    trace = x.u * x.u * mu - (x.wtilde + x.wtilde)
    dp = x.delta() / p
    disc = trace * trace - 4 * dp
    zero = LogQVal.const(0, p)
    if disc.is_zero_at_precision():
        raise PrecisionError("square test undecided")
    if not disc.is_square():
        return GermCoeff(("n_mu", mu), Fraction(0), zero, RatX.const(0, p))
    sq = padic_sqrt(disc, ndigits)
    half = PadicScalar.exact(Fraction(1, 2), p)
    nu = (trace + sq) * half
    if nu.is_zero_at_precision():
        nu = (trace - sq) * half  # the other root is then the large one
    if nu.is_zero_at_precision():
        raise PrecisionError("root extraction exhausted the precision")
    vdisc = disc.val()
    edp = dp.eta()
    coeff = Fraction((-nu).eta()) * Fraction(p) ** (vdisc // 2)
    vnu = nu.val()
    s_form = (RatX.x_power(-vnu, p)
              + RatX.x_power(vnu - dp.val(), p) * edp) * coeff
    value0 = coeff * (1 + edp)
    return GermCoeff(("n_mu", mu), value0, dds_s0(s_form), s_form)


def is_in_neighborhood(x0: BPoint, x: BPoint,
                       depth: int = NEIGHBORHOOD_DEPTH) -> bool:
    """Membership in the combinatorial neighborhood of a base point: the
    nonzero coordinates of x0 are frozen to congruence depth, and the
    discriminant valuation exceeds every frozen valuation by at least the
    depth."""
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
        return d.val() >= s0.val() + depth

    ok = (close(x.lam, x0.lam) and close(x.u, x0.u)
          and close(x.wtilde, x0.wtilde))
    if not ok:
        return False
    vd = x.delta().val()
    return all(vd >= f + depth for f in fixed)


def dgamma_table(x0: BPoint, rep: OrbitRep, x: BPoint):
    """Tabulated derivative of the germ coefficient at the center, evaluated
    at x near x0.  Entries whose paired orbit integral vanishes identically
    are returned as the UNNEEDED marker."""
    p = x0.p
    c = case_of(x0)
    if c == "split":
        raise ExcludedCaseError("excluded split case")
    if not is_in_neighborhood(x0, x):
        raise UnrealizableError("x outside the recorded neighborhood of x0")
    d = x.delta()
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
    rational multiple of log q dispatched on five valuation patterns."""
    p = x.p
    if x.side() != 1:
        raise ValueError("phi_closed requires a side-1 point")
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


def split_half_pole(orb_y0: Fraction, sign: int, p: int) -> LogQVal:
    """Residue at the twist center of one half-term over a split base point:
    -sign * orb_y0 / (2 log q)."""
    return LogQVal({-1: -Fraction(sign) * orb_y0 / 2}, p)


def split_case_value(x: BPoint, orb_pm: Fraction, orb_y0: Fraction):
    """Center value of the expansion over a split base point, given the
    regularized sum of the two half-terms and the semisimple value:
    orb_pm - log|Delta/lambda| / (2 log q) * orb_y0.  The log-over-log ratio
    is a plain rational, so the result is an s-Laurent record with vanishing
    polar part; this path is excluded from all comparisons."""
    from .svalue import SLaurent
    p = x.p
    v = x.delta().val() - x.lam.val()
    a0 = LogQVal.const(orb_pm + Fraction(v) * orb_y0 / 2, p)
    zero = LogQVal.const(0, p)
    return SLaurent(zero, a0, zero)


@dataclass
class Dorb1:
    """Assembled first-derivative term: an exact graded value around zero, or
    a varying part plus a symbolic base-point constant elsewhere."""
    varying: LogQVal
    const_tag: str | None = None

    def __sub__(self, other: "Dorb1") -> LogQVal:
        if self.const_tag != other.const_tag:
            raise ValueError("differencing across distinct base points")
        return self.varying - other.varying


def dorb1(x0: BPoint, x: BPoint, method: str = "closed",
          window: int = 30) -> Dorb1:
    """The first-derivative term at x in the recorded neighborhood of x0,
    assembled from the coefficient table and the transfer-forced orbit
    values.

    Around zero the family contribution is added (closed form, or the shell
    sum when method='oracle') and the result is absolute; around a nonzero
    base point the unknown constant is kept symbolic.  For the diagonal-type
    base points the section's transfer factor is folded in, so that twice the
    result plus the intersection term is the comparison function."""
    from .orbits import orbit_reps
    p = x0.p
    c = case_of(x0)
    if c == "split":
        raise ExcludedCaseError("excluded split case")
    if not in_side1_closure(x0):
        raise UnrealizableError("base point is not in the closure of side 1")
    if x.side() != 1:
        raise ValueError("dorb1 evaluates on side-1 points")
    if not is_in_neighborhood(x0, x):
        raise UnrealizableError("x outside the recorded neighborhood of x0")

    if c == "zero":
        if method == "closed":
            phi = phi_closed(x)
        elif method == "oracle":
            phi = phi_from_xi(x, window)
        else:
            raise ValueError(f"unknown method {method!r}")
        total = phi
        for rep in orbit_reps(x0, "s_red"):
            if rep.tag == "n_mu":
                continue
            coeff = dgamma_table(x0, rep, x)
            total = total + coeff * forced_s_values(x0, rep)
        return Dorb1(total, None)

    total = LogQVal.const(0, p)
    for rep in orbit_reps(x0, "s_red"):
        coeff = dgamma_table(x0, rep, x)
        if coeff is UNNEEDED:
            continue
        val = forced_s_values(x0, rep)
        if val is None:
            continue
        total = total + coeff * val
    if c == "0ii":
        alpha = padic_sqrt(-(x0.lam / p))
        total = total * (-alpha).eta()   # transfer factor of the section
    return Dorb1(total, f"C({c};{x0.lam!r},{x0.u!r},{x0.wtilde!r})")
