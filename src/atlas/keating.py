"""The geometric side: deformation lengths of quasi-canonical lifts, their
sums over conductor levels (the oracle), the equivalent closed forms in
t = 1/q, and the intersection number as a function of invariants or of a
unitary group element."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (CayleyUndefinedError, InputError,
                     NotRegularSemisimpleError, OracleMismatchError)
from .orbits import (INF, XI_CHOICES, BPoint, U1GroupElt, admissible_xi,
                     cayley_inv, reduce_elt)


@dataclass(frozen=True)
class DistParams:
    """Distance data of a traceless integral quaternion psi: the valuation of
    its anti-commuting component and of the imaginary part of its commuting
    component (odd when finite)."""

    ell_minus: int
    im_plus_val: object  # odd positive int or INF

    def __post_init__(self):
        if self.im_plus_val is not INF and self.im_plus_val % 2 == 0:
            raise InputError("l_plus (im_plus_val) must be odd or infinite")


def dist_j(d: DistParams, j: int):
    """Distance of psi to the order of conductor j: the commuting component
    only counts once its imaginary valuation drops below 2j."""
    lj = d.im_plus_val if (d.im_plus_val is not INF and d.im_plus_val < 2 * j) else INF
    return min(d.ell_minus, lj)


def keating_n(ell, j: int, p: int) -> Fraction:
    """Length n_j of the deformation locus on the level-j quasi-canonical
    divisor, for an endomorphism at distance ell.

    Three ranges: ell <= 2j even, ell <= 2j odd, and the stable range
    ell > 2j.
    """
    q = p
    if ell is INF:
        raise NotRegularSemisimpleError("non-rs locus: infinite distance")
    if ell < 0:
        raise InputError("distance must be >= 0")
    if ell > 2 * j:
        return Fraction(2 * sum(q ** i for i in range(j)) + (ell - 2 * j + 1) * q ** j)
    if ell % 2 == 0:
        return Fraction(2 * sum(q ** i for i in range(ell // 2 + 1)) - q ** (ell // 2))
    return Fraction(2 * (q ** ((ell + 1) // 2) - 1), q - 1)


def l_int_keating(m: int, lminus: int, lplus, p: int) -> Fraction:
    """Twice the sum of level lengths over conductors 0..m (the oracle)."""
    d = DistParams(lminus, lplus)
    return 2 * sum(keating_n(dist_j(d, j), j, p) for j in range(m + 1))


def _tail(m: int, lminus: int, t: Fraction) -> Fraction:
    return -Fraction(2 * (lminus + 2 * m + 1)) * t / (1 - t) - 8 * t / (1 - t) ** 2


def _case_stable(m: int, lminus: int, t: Fraction) -> Fraction:
    lead = 2 * t ** (-m) * (2 * (1 + t) + (lminus - 2 * m - 1) * (1 - t)) / (1 - t) ** 2
    return lead + _tail(m, lminus, t)


def l_int_closed(m: int, lminus: int, lplus, p: int) -> Fraction:
    """Closed form for the doubled length sum, dispatched on whether the
    distance profile is constant (l- <= l+) and on parity; always equals
    l_int_keating."""
    t = Fraction(1, p)
    if lplus is INF or lminus <= lplus:
        if lminus > 2 * m:
            return _case_stable(m, lminus, t)
        if lminus % 2 == 1:
            lead = (2 * t ** (-(lminus - 1) // 2)
                    * ((2 * m - lminus + 3) - (2 * m - lminus - 1) * t) / (1 - t) ** 2)
            return lead + _tail(m, lminus, t)
        lead = (2 * t ** (-lminus // 2)
                * ((m - lminus // 2 + 1) * (1 - t * t) + t * (t + 3)) / (1 - t) ** 2)
        return lead + _tail(m, lminus, t)
    if lplus >= 2 * m:
        return _case_stable(m, lminus, t)
    lead = (2 * t ** (-(lplus - 1) // 2)
            * ((lminus - 2 * lplus + 2 * m + 3) * (1 - t) + 4 * t) / (1 - t) ** 2)
    return lead + _tail(m, lminus, t)


def l_int(x: BPoint) -> Fraction:
    """Intersection length attached to a regular semisimple point of the
    quotient: zero off the non-split side or off the integral locus.  The
    closed form is checked against the level-sum oracle on every call."""
    if not x.is_rs():
        raise NotRegularSemisimpleError("not rs")
    if x.side() == 0 or not x.is_integral():
        return Fraction(0)
    m, lm, lp = x.ml_params()
    value = l_int_closed(m, lm, lp, x.p)
    oracle = l_int_keating(m, lm, lp, x.p)
    if value != oracle:
        raise OracleMismatchError(
            f"l_int closed form {value} != level-sum oracle {oracle} "
            f"at (m={m}, l-={lm}, l+={lp}, p={x.p})")
    return value


def int_group(g: U1GroupElt) -> Fraction:
    """Intersection number of a regular semisimple unitary group element:
    zero off the integral model, else computed through an inverse Cayley
    transform landing integrally in the Lie algebra."""
    if not g.is_integral():
        return Fraction(0)
    for xi in XI_CHOICES:
        if not admissible_xi(g, xi):
            continue
        try:
            x = cayley_inv(g, xi)
        except CayleyUndefinedError:
            continue
        if not x.is_integral():
            continue
        red = reduce_elt(x)
        if not red.is_rs():
            raise NotRegularSemisimpleError("group element is not rs")
        return l_int(red.invariants())
    raise AssertionError("no admissible Cayley chart for an integral element")
