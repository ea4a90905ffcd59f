"""Closed-form orbital-integral values: the four fundamental functions with
their extended Fourier transforms, nilpotent values on both sides of the
comparison, semisimple values on the quasi-split side, and the
transfer-forced values over degenerate base points.

The distinguished test function itself is never materialized: only its
orbit-integral values enter the assembled first derivative, and those are
pinned down by the transfer identities."""

from __future__ import annotations

from fractions import Fraction

from .errors import ExcludedCaseError, InputError, UnrealizableError
from .orbits import BPoint, _nonsplit_lam0, _rational_sqrt
from .padic import PadicScalar, _check_odd_prime, _sqrt_mod_p, legendre, val
from .svalue import LogQVal, zeta1

PHI_TAGS = ("phi0", "phi1", "phi2", "phi3")


def eta_minus1(p: int) -> int:
    return legendre(-1, p)


class CClassFn:
    """A rational-in-(log q) linear combination of the four fundamental
    functions: phi0 = 1 on the integers, and for |x| > 1
    phi1 = eta(x)/|x|, phi2 = 1/|x|, phi3 = eta(x) log|x| / |x|."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p: int):
        self.p = p
        out = {}
        for tag, c in coeffs.items():
            if tag not in PHI_TAGS:
                raise ValueError(f"unknown tag {tag}")
            c = c if isinstance(c, LogQVal) else LogQVal.const(c, p)
            if not c.is_zero():
                out[tag] = c
        self.coeffs = out

    @classmethod
    def basis(cls, tag: str, p: int) -> "CClassFn":
        return cls({tag: Fraction(1)}, p)

    def scale(self, c) -> "CClassFn":
        c = c if isinstance(c, LogQVal) else LogQVal.const(c, self.p)
        return CClassFn({t: v * c for t, v in self.coeffs.items()}, self.p)

    def __add__(self, other):
        out = dict(self.coeffs)
        for t, v in other.coeffs.items():
            out[t] = out.get(t, LogQVal.const(0, self.p)) + v
        return CClassFn(out, self.p)

    def __eq__(self, other):
        if not isinstance(other, CClassFn):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({v})*{t}" for t, v in sorted(self.coeffs.items()))


def _phi_basis_eval(tag: str, x: PadicScalar) -> LogQVal:
    p = x.p
    v = x.val()
    if tag == "phi0":
        return LogQVal.const(1 if v >= 0 else 0, p)
    if v >= 0:
        return LogQVal.const(0, p)
    size = Fraction(p) ** v          # 1/|x|
    if tag == "phi2":
        return LogQVal.const(size, p)
    e = x.eta()
    if tag == "phi1":
        return LogQVal.const(e * size, p)
    # phi3: eta(x) log|x| / |x| with log|x| = -v log q
    return LogQVal({1: e * size * (-v)}, p)


def phi_eval(f: CClassFn, x: PadicScalar) -> LogQVal:
    out = LogQVal.const(0, f.p)
    for tag, c in f.coeffs.items():
        out = out + c * _phi_basis_eval(tag, x)
    return out


def ext_fourier(f: CClassFn) -> CClassFn:
    """Extended Fourier transform on the basis:
    phi0 -> eta(-1) phi1
    phi1 -> q^{-1} phi0
    phi2 -> eta(-1)/(zeta(1) log q) phi3 - eta(-1) phi1
    phi3 -> zeta(1) q^{-1} log q (phi0 + phi2)
    and tilde o tilde = eta(-1) q^{-1} in the ramified case."""
    p = f.p
    e = eta_minus1(p)
    z1 = zeta1(p)
    table = {
        "phi0": CClassFn({"phi1": Fraction(e)}, p),
        "phi1": CClassFn({"phi0": Fraction(1, p)}, p),
        "phi2": CClassFn({"phi3": LogQVal({-1: Fraction(e, 1) / z1}, p),
                          "phi1": Fraction(-e)}, p),
        "phi3": CClassFn({"phi0": LogQVal({1: z1 / p}, p),
                          "phi2": LogQVal({1: z1 / p}, p)}, p),
    }
    out = CClassFn({}, p)
    for tag, c in f.coeffs.items():
        out = out + table[tag].scale(c)
    return out


def nil_family_orb_u0_fn(p: int) -> CClassFn:
    """The nilpotent-family integral on the quasi-split side, as a function of
    the family parameter: q zeta(1) (phi0 + phi2)."""
    c = p * zeta1(p)
    return CClassFn({"phi0": c, "phi2": c}, p)


def nil_family_orb_s_fn(p: int) -> CClassFn:
    """The matching family of integrals of the distinguished transfer:
    (q eta(-1) / log q) phi3."""
    return CClassFn({"phi3": LogQVal({-1: Fraction(p * eta_minus1(p))}, p)}, p)


def orb_nil_family_s(mu, p: int) -> Fraction:
    """Value of the transferred function on the nilpotent family member with
    parameter mu: eta(-1) eta(mu) (-v(mu)) q^(1+v(mu)) for |mu| > 1, else 0."""
    mu = mu if isinstance(mu, PadicScalar) else PadicScalar.exact(mu, p)
    v = mu.val()
    if v >= 0:
        return Fraction(0)
    return Fraction(eta_minus1(p) * mu.eta() * (-v)) * Fraction(p) ** (1 + v)


def orb_nil_reg_s(which: str, p: int) -> Fraction:
    """Values on the two regular nilpotent orbits, which is "plus" or
    "minus"."""
    base = -zeta1(p) / p
    if which == "minus":
        return base
    if which == "plus":
        return eta_minus1(p) * base
    raise ValueError(f"unknown regular nilpotent {which!r}")


def orb_u0_zero(p: int) -> Fraction:
    """Value at the zero orbit on the quasi-split side: 2 q^{-1} zeta(1)
    (ramification index 2, test function 1 at 0)."""
    return 2 * zeta1(p) / p


def _ss_case0_value(vlam: int, p: int) -> Fraction:
    q = Fraction(p)
    if vlam % 2 == 0:
        return zeta1(p) * (-2 / q + q ** (vlam // 2) * (1 + 1 / q))
    return zeta1(p) * (2 / q) * (q ** ((vlam + 1) // 2) - 1)


def orb_u0_ss_case0(lam0, p: int) -> Fraction:
    """Semisimple value over (lam0, 0, 0) on the quasi-split side; zero off
    the integral locus; the split case is excluded."""
    v = val(_nonsplit_lam0(lam0, p), p)
    if v < 0:
        return Fraction(0)
    return _ss_case0_value(v, p)


def _ss_case1_value(vlam, vu0: int, p: int) -> Fraction:
    q = Fraction(p)
    if vlam > 2 * vu0:   # |lam0| < |u0|^2 (covers lam0 = 0)
        return zeta1(p) * (2 / q) * (q ** (vu0 + 1) - 1)
    if vlam < 2 * vu0:
        return zeta1(p) * (2 / q) * (q ** ((vlam + 1) // 2) - 1)
    raise UnrealizableError("|lam0| = |u0|^2 cannot occur on the degenerate locus")


def orb_u0_ss_case1(lam0, u0, p: int) -> Fraction:
    """Semisimple value over a degenerate (lam0, u0, wt0) on the
    quasi-split side, which reads only lam0 and u0.  Delta = 0 makes
    -lam0/p = (wt0/u0)^2, so InputError when lam0 != 0 and -lam0/p is not a
    square: then no wt0 gives a degenerate point."""
    lam0, u0 = Fraction(lam0), Fraction(u0)
    if u0 == 0:
        raise InputError("u0 must be nonzero")
    _check_odd_prime(p)
    if lam0 != 0 and not PadicScalar.exact(-lam0 / p, p).is_square():
        raise InputError(f"-lam0/p = {-lam0 / p} is not a square: no wt0 makes Delta 0")
    vu, vlam = val(u0, p), val(lam0, p)
    if vu < 0 or vlam < 0:
        return Fraction(0)
    return _ss_case1_value(vlam, vu, p)


def transfer_sign_0ii(x0: BPoint) -> int:
    """eta(-alpha) for the square root alpha of -lam0/p fixed by the case-0ii
    convention: the sign of the section's transfer factor.

    alpha is the positive root when -lam0/p is a rational square, and else
    the p-adic root whose leading digit s lies in 1..(p-1)/2.  In the second
    case eta(-alpha) reads only v(alpha) and s, so it comes from residues:
    legendre(-s, p) legendre(-1, p)^v(alpha), with no root lifted."""
    p = x0.p
    a = -(x0.lam / p)
    r = _rational_sqrt(a.rational) if a.is_exact else None
    if r is not None:
        return PadicScalar.exact(-r, p).eta()
    s = _sqrt_mod_p(a.unit_mod(1), p)
    s = min(s, p - s)
    return legendre(-s, p) * legendre(-1, p) ** (a.val() // 2 % 2)


def forced_s_values(x0: BPoint, tag: str, case: str, sign_0ii):
    """The transfer-forced orbit-integral values over a degenerate base point
    x0 of the given case, for any function transferring to (the lattice
    indicator, 0).  Returns a rational, or None for the orbit tags that
    carry no forced value.  sign_0ii is transfer_sign_0ii(x0), which only
    y_pp and y_mm read; pass None in every other case."""
    p = x0.p
    if case == "split":
        raise ExcludedCaseError("excluded split case")
    if not x0.is_integral():
        return Fraction(0) if tag != "y0" else None
    if case == "zero":
        if tag == "n0_plus":
            return orb_nil_reg_s("plus", p)
        if tag == "n0_minus":
            return orb_nil_reg_s("minus", p)
        return None
    if case == "0i":
        half = _ss_case0_value(x0.lam.val(), p) / 2
        if tag == "y_plus":
            return half
        if tag == "y_minus":
            return (-x0.lam).eta() * half
        return None
    if case == "0ii":
        if tag in ("y_pm", "y_mp"):
            return Fraction(0)
        half = Fraction(sign_0ii, 2) * _ss_case0_value(x0.lam.val(), p)
        if tag == "y_pp":
            return half
        if tag == "y_mm":
            return eta_minus1(p) * half
        return None
    # case 1
    half = _ss_case1_value(x0.lam.val(), x0.u.val(), p) / 2
    if tag in ("y_plus", "y_minus"):
        return half
    return None
