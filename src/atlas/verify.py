"""End-to-end comparison: assemble the function

    phi1(x) = 2 * (first-derivative term at x) + (intersection length) * log q

on the non-split regular semisimple locus and verify its local constancy
exactly: around zero against the printed constant 4t(t-3)/(1-t)^2 log q, and
around nonzero degenerate base points by differencing away the unknown
base-point constant."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, UnrealizableError
from .germs import (NEIGHBORHOOD_DEPTH, BasePointPlan, base_point_plan,
                    check_method, dorb1, is_in_neighborhood, zero_point)
from .keating import l_int
from .orbits import INF, BPoint, case_of, in_side1_closure, make_bpoint_rs1
from .padic import PadicScalar, _sqrt_mod_p
from .svalue import LogQVal

# the grid of verify_zero (m <= ZERO_M_MAX; l- from 0 and odd l+ up to
# ZERO_L_MAX, l+ also infinite) and the number of samples around a nonzero
# base point
ZERO_M_MAX = 4
ZERO_L_MAX = 9
NEIGHBORHOOD_SAMPLES = 5


def expected_constant_at_zero(p: int) -> LogQVal:
    """4t(t-3)/(1-t)^2 * log q at t = 1/q."""
    t = Fraction(1, p)
    return LogQVal({1: 4 * t * (t - 3) / (1 - t) ** 2}, p)


def phi1(x: BPoint, method: str = "closed") -> LogQVal:
    """The comparison function at a regular semisimple point: zero on the
    split side, else twice the derivative term around zero plus the
    intersection length times log q.  A method outside germs.METHODS is an
    InputError."""
    return _phi1(BasePointPlan(zero_point(x.p)), x, method)


def _phi1(plan: BasePointPlan, x: BPoint, method: str) -> LogQVal:
    """2 dOrb1 + lInt log q at x around the base point of plan: phi1 itself
    around zero, its varying part around a nonzero base point."""
    check_method(method)
    p = x.p
    if x.side() == 0:
        return LogQVal.const(0, p)
    d = dorb1(plan, x, method=method)
    return d.varying + d.varying + LogQVal({1: l_int(x)}, p)


@dataclass
class VerifyReport:
    base_point: str
    case_tag: str
    samples: list = field(default_factory=list)   # (label, LogQVal as str)
    constant: bool = True
    value: str = ""
    notes: str = ""

    def to_dict(self):
        return {
            "base_point": self.base_point,
            "case": self.case_tag,
            "samples": [{"x": lab, "phi1": val} for lab, val in self.samples],
            "constant": self.constant,
            "value": self.value,
            "notes": self.notes,
        }


def verify_zero(p: int, m_max: int = ZERO_M_MAX, l_max: int = ZERO_L_MAX,
                method: str = "closed") -> VerifyReport:
    """Sweep realizable side-1 invariants over the grid and check that phi1
    equals the printed constant exactly at every point; the notes name every
    failing point.  An empty grid (m_max < 0 or l_max < 0) is an
    InputError, not a pass."""
    if m_max < 0 or l_max < 0:
        raise InputError(f"empty verify grid: need m_max >= 0 and l_max >= 0, "
                         f"got m_max={m_max}, l_max={l_max}")
    want = expected_constant_at_zero(p)
    rep = VerifyReport(base_point="0", case_tag="zero",
                       value=str(want), notes=f"p={p} grid m<={m_max} l<={l_max}")
    zero = BasePointPlan(zero_point(p))
    for m in range(m_max + 1):
        for lm in range(l_max + 1):
            for lp in list(range(1, l_max + 1, 2)) + [INF]:
                x = make_bpoint_rs1(m, lm, lp, p)
                got = _phi1(zero, x, method)
                rep.samples.append((f"(m={m},l-={lm},l+={lp})", str(got)))
                if got != want:
                    rep.constant = False
                    rep.value = "varies"
                    rep.notes += f"; FAIL at (m={m},l-={lm},l+={lp}): {got}"
    return rep


def neighborhood_samples(x0, count: int = NEIGHBORHOOD_SAMPLES):
    """Side-1 regular semisimple samples in the recorded neighborhood of a
    degenerate base point x0 (a BPoint or its plan), sweeping the
    discriminant valuation.

    In case 0ii the second family is (lam0, u, a u d) with d = 1 + e p^j,
    j = NEIGHBORHOOD_DEPTH .. NEIGHBORHOOD_DEPTH + count - 1, and a a root
    of -lam0/p.  With an exact root, Delta = p a^2 u^2 (d^2 - 1), where
    d^2 - 1 has valuation j and (d^2 - 1) p^-j = 2e mod p.  a comes from
    `_root_0ii` to relative precision NEIGHBORHOOD_DEPTH + count > j, so
    a^2 d^2 - a0^2 differs from a0^2 (d^2 - 1), a0 an exact root, by a term
    of valuation above v(a0^2) + j: v(Delta) and the leading digit of Delta,
    so the side, are those of the exact root, and no rational root is
    needed.  The zero base point has no such check: InputError, naming
    `verify zero`, the check at zero."""
    plan = base_point_plan(x0)
    p = plan.p
    c = plan.usable_case()
    if c == "zero":
        raise InputError("the base point is zero: its check is verify zero")
    if not plan.side1_closure:
        raise UnrealizableError("base point is not in the closure of side 1")
    x0 = plan.x0
    out = []
    if c in ("0i", "0ii"):
        lam0 = x0.lam.rational
        v0 = x0.lam.val()
        m0 = v0 + NEIGHBORHOOD_DEPTH + 2
        for m in range(m0, m0 + count):
            x = BPoint.exact(lam0, Fraction(p) ** m, 0, p)
            if x.side() == 1 and is_in_neighborhood(plan, x):
                out.append(x)
        if c == "0ii":
            # second branch: tune the third coordinate so the two terms of the
            # discriminant cancel to a prescribed depth
            a = _root_0ii(-(x0.lam / p), NEIGHBORHOOD_DEPTH + count)
            u = Fraction(p) ** m0
            for j in range(NEIGHBORHOOD_DEPTH, NEIGHBORHOOD_DEPTH + count):
                for e in range(1, p):
                    d = 1 + Fraction(e) * Fraction(p) ** j
                    x = BPoint.exact(lam0, u, a * u * d, p)
                    if x.is_rs() and x.side() == 1 and is_in_neighborhood(plan, x):
                        out.append(x)
                        break
        return out
    # case 1: perturb the first coordinate
    lam0 = x0.lam.rational
    u0 = x0.u.rational
    wt0 = x0.wtilde.rational
    base = max((abs(v) for v in (x0.lam.val() if lam0 else 0,
                                 x0.u.val(), x0.wtilde.val() if wt0 else 0)),
               default=0)
    k0 = base + NEIGHBORHOOD_DEPTH + 1
    for k in range(k0, k0 + count):
        for dlt in range(1, p):
            lam = lam0 + Fraction(dlt) * Fraction(p) ** k
            x = BPoint.exact(lam, u0, wt0, p)
            if x.is_rs() and x.side() == 1 and is_in_neighborhood(plan, x):
                out.append(x)
                break
    return out


def _root_0ii(a: PadicScalar, n: int) -> Fraction:
    """A root of the square a = p^(2k) t to relative precision n: p^k r with
    r^2 = t mod p^n.  r starts from the square root of t mod p whose digit
    lies in 1..(p-1)/2, and integer Newton steps lift it, each doubling the
    digits.  At a rational square this may be the root opposite to that of
    `values.transfer_sign_0ii`, which takes the positive one; no verdict
    reads the sign, as Delta is even in wtilde."""
    p = a.p
    mod = p ** n
    t = a.unit_mod(n)
    r = _sqrt_mod_p(t, p)
    r = min(r, p - r)
    m = p
    while m < mod:
        m = min(m * m, mod)
        r = (r - (r * r - t) * pow(2 * r, -1, m)) % m
    return r * Fraction(p) ** (a.val() // 2)


def verify_x0(x0: BPoint, count: int = NEIGHBORHOOD_SAMPLES) -> VerifyReport:
    """Difference-vanishing check around a nonzero degenerate base point: the
    varying parts of twice the derivative term and of the intersection term
    must cancel exactly between any two neighborhood samples; the notes name
    every sample that differs from the first."""
    p = x0.p
    plan = BasePointPlan(x0)
    label = f"(lam={x0.lam!r}, u={x0.u!r}, wt={x0.wtilde!r})"
    rep = VerifyReport(base_point=label, case_tag=plan.case,
                       value="constant modulo the base-point constant",
                       notes=f"p={p} differencing over >= {count} samples")
    samples = neighborhood_samples(plan, count)
    if len(samples) < count:
        raise UnrealizableError(
            f"could not build {count} neighborhood samples at {label}")
    vals = [_phi1(plan, x, "closed") for x in samples]
    rep.samples = [(f"v(Delta)={x.delta().val()}", str(v))
                   for x, v in zip(samples, vals)]
    ref = vals[0]
    for i, v in enumerate(vals[1:], start=1):
        if not (v - ref).is_zero():
            rep.constant = False
            rep.value = "varies"
            rep.notes += f"; FAIL at sample {i}: {v - ref}"
    return rep


def base_point_library(p: int):
    """The degenerate base points exercised by the acceptance run: both
    parities in the inert/ramified non-split case where realizable, diagonal
    base points with two depths, and the positive-rank case in both size
    branches."""
    out = []
    # lam0 != 0, u0 = w0 = 0, F' a field different from the ramified one
    for v in range(0, 5):
        for cand in range(1, p):
            x0 = BPoint.exact(Fraction(cand) * p ** v, 0, 0, p)
            if case_of(x0) == "0i" and in_side1_closure(x0, "0i"):
                out.append((f"0i v(lam0)={v}", x0))
                break
    # diagonal case: -lam0/p an exact square, odd valuation
    for v in (1, 3):
        x0 = BPoint.exact(-Fraction(p) ** v, 0, 0, p)
        if case_of(x0) == "0ii":
            out.append((f"0ii v(lam0)={v}", x0))
    # u0 != 0: both size branches
    for vu in (0, 1, 2):
        u0 = Fraction(p) ** vu
        out.append((f"1 small-lam v(u0)={vu}", BPoint.exact(0, u0, 0, p)))
        wt0 = Fraction(p) ** (2 * vu + 1)
        lam0 = -wt0 * wt0 * p / (u0 * u0)
        out.append((f"1 small-lam' v(u0)={vu}", BPoint.exact(lam0, u0, wt0, p)))
        if vu >= 1:  # |lam0| > |u0|^2 needs 2 v(wt0) + 1 < 4 v(u0)
            wt0 = Fraction(p) ** vu
            lam0 = -wt0 * wt0 * p / (u0 * u0)
            out.append((f"1 big-lam v(u0)={vu}", BPoint.exact(lam0, u0, wt0, p)))
    return out


def verify_x0_library(p: int) -> list:
    return [(name, verify_x0(x0)) for name, x0 in base_point_library(p)]


def report(reports, fmt: str = "json") -> str:
    """Serialize a collection of (name, VerifyReport) pairs."""
    import csv
    import io
    import json

    pairs = [(name, r) for name, r in reports]
    if fmt == "json":
        return json.dumps({name: r.to_dict() for name, r in pairs}, indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["name", "base_point", "case", "constant", "value", "notes"])
        for name, r in pairs:
            w.writerow([name, r.base_point, r.case_tag, r.constant, r.value, r.notes])
        return buf.getvalue()
    if fmt == "text":
        lines = []
        for name, r in pairs:
            status = "constant" if r.constant else "VARIES"
            lines.append(f"{name}: {status} [{r.value}] over {len(r.samples)} samples")
        return "\n".join(lines)
    raise InputError(f"unknown format {fmt!r}")
