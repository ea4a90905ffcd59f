"""Exact p-adic integration by shell decomposition.

Domains are split into valuation shells and residue balls c + p^d Z_p.  Every
condition tested is a bound v(P(t)) >= b on a rational polynomial of degree
at most two.  As the degree is below p, the sup norm of P on a ball is its
Gauss norm, so three exact Taylor terms at the center decide the ball
(`_taylor`), and one sweep (`_sweep`) passes, fails or splits the balls of
every shell, down to a depth cap.

The Iwasawa-coordinate orbital integrals need no subdivision in the torus
coordinate.  Conjugating by diag(z^-1, conj(z), 1) multiplies entry (i, j) by
a unit times pi^(e_ij k), with k = v_F(z) and

    e = ( 0  2  1 )
        (-2  0 -1 )
        (-1  1  0 ),

so the lattice indicator depends on z only through k: each torus shell is
evaluated once, as its volume times the unipotent integral of the bounds
v_F(entry_ij) >= -e_ij k.  Those on entries constant in t are linear in k,
so they hold on one interval lo..hi of k per element (`_k_interval`),
outside which a shell is an exact 0, and the nilpotent family's integral is
its closed volume.  The bounds on entries that depend on t weaken as k
grows, so the unipotent integral is nondecreasing in k: the torus scan runs
down from hi to lo, with no window of its own, and ends at its first empty
shell, and a scan empty at hi is an exact 0.  Each unipotent integral
sweeps Z_p and the shells v(t) = j, in tau = t p^-j, down to a floor below
which no condition can pass (`_t_floor`).

The double-log shell sum behind the family contribution (`xi_integral`) is
a pure (log q)^2 value.  Each shell v(t) = k is swept over the units of
tau = t p^-k and builds one Fraction (`_power_sum`).  Outside K-..K+
(`_xi_support`) the shells follow known laws, so both tails are summed in
closed form; the default window max(K+, -K-) is the least holding K-..K+."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import ConductorError, InputError, StabilizationError
from .orbits import BPoint, U0RedElt
from .padic import PadicScalar, QuadElt, eta, val
from .svalue import LogQVal, zeta1

DEPTH_CAP = 40


# ---------------------------------------------------------------------------
# regions


class Ball0:
    """{t : v(t - center) >= depth} in the base field; volume q^-depth.  A
    plain slotted record, compared by identity: the sweep builds one per
    ball decided or split."""

    __slots__ = ("center", "depth")

    def __init__(self, center: Fraction | int, depth: int):
        self.center = center
        self.depth = depth

    def split(self, p: int):
        # an int step keeps integer centers integers
        step = p ** self.depth if self.depth >= 0 else Fraction(p) ** self.depth
        return [Ball0(self.center + i * step, self.depth + 1) for i in range(p)]

    def point(self) -> Fraction | int:
        """The exact center.  The integrators read every ball they decide
        through this method, which bench/tracer.py hooks to count balls."""
        return self.center


def unit_cover(p: int) -> list:
    """The balls u + p Z_p, u = 1..p-1, that cover the units: the roots of a
    shell swept in its integer coordinate."""
    return [Ball0(u, 1) for u in range(1, p)]


class BallF:
    """{a + b pi : v(a - ca) >= da, v(b - cb) >= db}; volume q^-(da+db).
    No integrator uses it: it stays for the tests' torus-ball reference and
    because bench/tracer.py hooks BallF.point and BallF.split by name."""

    __slots__ = ("ca", "da", "cb", "db")

    def __init__(self, ca: Fraction, da: int, cb: Fraction, db: int):
        self.ca = ca
        self.da = da
        self.cb = cb
        self.db = db

    def split(self, p: int):
        sa = Fraction(p) ** self.da
        sb = Fraction(p) ** self.db
        return [BallF(self.ca + i * sa, self.da + 1, self.cb + l * sb, self.db + 1)
                for i in range(p) for l in range(p)]

    def point(self, p: int) -> QuadElt:
        return QuadElt(PadicScalar.from_rational_absprec(self.ca, p, self.da),
                       PadicScalar.from_rational_absprec(self.cb, p, self.db))


# ---------------------------------------------------------------------------
# exact ball decisions


def _power_sum(terms, p: int) -> Fraction:
    """Sum of a p^i over the items i: a of terms, integers, as one
    Fraction: the integrators count their balls by power of p."""
    if not terms:
        return Fraction(0)
    low = min(terms)
    n = sum(a * p ** (i - low) for i, a in terms.items())
    return Fraction(n * p ** low) if low >= 0 else Fraction(n, p ** -low)


def _taylor(poly, v2: int, c: Fraction, d: int, p: int):
    """(P(c), v(P(c)), min(v(P'(c)) + d, v2 + 2d)) for P = c0 + c1 t + c2 t^2
    on the ball c + p^d Z_p, v2 = v(c2): v(P) >= b on the whole ball exactly
    when both valuations are >= b, and v(P) = v(P(c)) on the whole ball when
    the first is the smaller."""
    c0, c1, c2 = poly
    at_c = c0 + (c1 + c2 * c) * c
    rest = min(val(c1 + 2 * c2 * c, p) + d, v2 + 2 * d)
    return at_c, val(at_c, p), rest


def _sweep(conds, roots, shift: int, p: int):
    """Decide the balls c + p^e Z_p below roots against the conditions
    (P, v(c2), b) in conds, bounds v(P) >= b on integer polynomials of degree
    at most two; the ball of depth e is the t-ball of depth e + shift.  With
    (P(c), v(P(c)), rest) from `_taylor`, a ball passes when
    min(v(P(c)), rest) >= b for every P, fails when v(P(c)) < b and
    v(P(c)) < rest for one P (then v(P) = v(P(c)) on it), and is otherwise
    split; an undecided ball at t-depth e + shift >= DEPTH_CAP raises
    ConductorError.  Yields (e, None) for a passing ball and
    (e, (P(c), v(P(c)))) for a failing one, for its first failing P."""
    stack = list(roots)
    while stack:
        ball = stack.pop()
        c, e = ball.point(), ball.depth
        undecided = False
        for poly, v2, b in conds:
            at_c, v0, rest = _taylor(poly, v2, c, e, p)
            if v0 < b and v0 < rest:
                yield e, (at_c, v0)
                break
            undecided = undecided or v0 < b or rest < b
        else:
            if not undecided:
                yield e, None
            elif e + shift >= DEPTH_CAP:
                raise ConductorError(DEPTH_CAP, shift, c, e, p)
            else:
                stack.extend(ball.split(p))


# ---------------------------------------------------------------------------
# the unitary-side orbital integrals in Iwasawa coordinates


def _conj_polys(M) -> tuple:
    """The coordinate polynomials of the conjugate of the exact matrix M by
    the unipotent diag([[1, t], [0, 1]], 1), denominators cleared once:
    integer tuples (i, j, part, (c0, c1, c2), w) with entry (i, j) = sum over
    part of (c0 + c1 t + c2 t^2) pi^part / D and w = v(D), so a bound
    v >= b on the rational polynomial is v >= b + w on the integer one."""
    p = M[0][0].p
    out = []
    for part in (0, 1):
        (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = (
            [(e.b if part else e.a).rational for e in row] for row in M)
        z = Fraction(0)
        for i, j, poly in ((0, 0, (m00, -m10, z)), (0, 1, (m01, m00 - m11, -m10)),
                           (0, 2, (m02, -m12, z)), (1, 0, (m10, z, z)),
                           (1, 1, (m11, m10, z)), (1, 2, (m12, z, z)),
                           (2, 0, (m20, z, z)), (2, 1, (m21, m20, z)),
                           (2, 2, (m22, z, z))):
            den = lcm(*(c.denominator for c in poly))
            ints = tuple(c.numerator * (den // c.denominator) for c in poly)
            out.append((i, j, part, ints, val(den, p)))
    return tuple(out)


def _shell_bounds(k: int):
    """Lower bounds on v_F of the entries that make diag(z^-1, conj(z), 1)
    conjugation integral when v_F(z) = k: -e_ij k for the exponent table e
    in the module docstring."""
    return ((0, -2 * k, -k),
            (2 * k, 0, k),
            (k, -k, 0))


def _lattice_bounds(polys, k: int):
    """Each integer polynomial (`_conj_polys`) with its bound v >= b on the
    torus shell k: as v_F(x + y pi) = min(2 v(x), 2 v(y) + 1), v_F(entry) >= m
    (`_shell_bounds`) is v >= ceil((m - part)/2) on each rational part."""
    bounds = _shell_bounds(k)
    return ((poly, w - ((part - bounds[i][j]) // 2)) for i, j, part, poly, w in polys)


def _k_interval(polys, p: int, at_zero: bool):
    """The torus shells lo..hi (None for an open end, lo > hi for none) where
    the bounds of `_lattice_bounds` on the polynomials constant in t hold, or
    on every polynomial at t = 0 when at_zero.  The bound s k of
    `_shell_bounds` is linear in k, so v(c0) >= w - ((part - s k) // 2) is
    one inequality in k: s k <= part - 2 (w - v(c0))."""
    slopes = _shell_bounds(1)
    lo = hi = None
    for i, j, part, (c0, c1, c2), w in polys:
        if c0 and (at_zero or not (c1 or c2)):
            s, r = slopes[i][j], part - 2 * (w - val(c0, p))
            if s > 0:
                hi = r // s if hi is None else min(hi, r // s)
            elif s < 0:
                lo = -(r // -s) if lo is None else max(lo, -(r // -s))
            elif r < 0:
                return 1, 0
    return lo, hi


def _t_floor(conds, p: int) -> int:
    """The lowest t-shell j <= 0 that can pass every condition v(P) >= b in
    conds, the t-dependent integer polynomials P = c0 + c1 t + c2 t^2 with
    their bounds.  Below every root of P, of degree d, v(P(t)) = v(c_d) + d j
    exactly on the shell v(t) = j, and the Newton polygon puts every root at
    v >= r_min, the least (v(c_i) - v(c_d))/(d - i) over i < d with c_i != 0
    (+inf when there is none).  So shell j can pass P only when
    j >= min(ceil(r_min), ceil((b - v(c_d))/d)).  With no t-dependent
    condition the unipotent integral is infinite: StabilizationError (no
    U0RedElt reaches it, as then a3 = b2 = 0 and hi is open)."""
    if not conds:
        raise StabilizationError("no stabilization in the unipotent coordinate: "
                                 "no t-dependent condition")
    floors = []
    for poly, b in conds:
        d = 2 if poly[2] else 1
        vd = val(poly[d], p)
        roots = [-((vd - val(c, p)) // (d - i)) for i, c in enumerate(poly[:d]) if c]
        floors.append(min(roots + [-((vd - b) // d)]))
    return min(max(floors), 0)


def _iwasawa_t_integral(polys, k: int, p: int) -> Fraction:
    """Inner integral over the unipotent coordinate of the indicator of the
    lattice, on the torus shell v_F(z) = k; the unipotent acts first, the
    torus scaling second, for k in `_k_interval(polys, p, False)`; the bounds
    are those of `_lattice_bounds(polys, k)` on polynomials that depend on t.

    Z_p (j = 0) and each shell v(t) = j down to `_t_floor` are swept
    (`_sweep`) in tau = t s, s = p^-j, where v(c0 + c1 t + c2 t^2) >= b is
    v(c0 s^2 + c1 s tau + c2 tau^2) >= b - 2j and the tau-ball of depth e is
    the t-ball of depth e + j; the passing balls are counted by t-depth."""
    conds = [(poly, b) for poly, b in _lattice_bounds(polys, k) if poly[1] or poly[2]]
    passed = {}             # passing balls by t-depth e + j, keyed -(e + j)
    for j in range(0, _t_floor(conds, p) - 1, -1):
        s = p ** -j
        scaled = [((c0 * s * s, c1 * s, c2), val(c2, p), b - 2 * j)
                  for (c0, c1, c2), b in conds]
        roots = [Ball0(0, 0)] if j == 0 else unit_cover(p)
        for e, failed in _sweep(scaled, roots, j, p):
            if failed is None:
                passed[-e - j] = passed.get(-e - j, 0) + 1
    return _power_sum(passed, p)


MIN_AUTO_WINDOW = 8


def auto_window(y: U0RedElt) -> int:
    """The guard of a torus scan whose interval is open below (lo None in
    `iwasawa_orbit_u0`): twice the largest coordinate valuation plus slack,
    at least MIN_AUTO_WINDOW."""
    vals = [abs(s.val()) for s in (y.a1, y.a2, y.a3) if not s.is_exact_zero()]
    vals += [abs(b.val_f()) for b in (y.b1, y.b2) if not b.is_zero()]
    return max(MIN_AUTO_WINDOW, 2 * max(vals, default=0) + 6)


def iwasawa_orbit_u0(y: U0RedElt):
    """Orbital integral of the lattice indicator over the quasi-split
    stabilizer group in Iwasawa coordinates, with the zeta(1) measure factor:
    the torus shell k = v_F(z), of volume (p - 1) p^-(k+1), is 0 outside the
    element's `_k_interval` lo..hi, which bounds the sum exactly.  On the
    nilpotent family (nonzero, all invariants zero) the stabilizer is the
    unipotent subgroup and the indicator is 1 on the interval: the integral
    is zeta(1) (p^-lo - p^-(hi+1)), the second term dropped when hi is None.
    Any other element sums its shells from hi down to lo, volume times
    unipotent integral T(k).  There hi is finite: the entries of positive
    slope in `_shell_bounds`, (1, 0), (1, 2) and (2, 0), are a3, b2 and
    conj(b2) pi, constant in t, so hi is None only when a3 = b2 = 0; then
    u = wtilde = 0 and lam = -a1^2, the zero or a split-case element, which
    raises StabilizationError.  The scan stops at its first T(k) = 0,
    exactly: the entries that depend on t, (0, 0), (0, 1), (0, 2), (1, 1)
    and (2, 1), have the bounds 0, -2k, -k, 0 and -k, which weaken as k
    grows, so the t that pass on shell k pass on shell k + 1 and T is
    nondecreasing.

    The integral is exactly 0 on an empty interval, when every shell of the
    scan is 0, and when v(lam) < 0 or v(u) < 0, both integral on the
    lattice and constant on the orbit (README, Conventions).  An interval
    open at the end the sum starts from (lo None on the nilpotent family, hi
    None on any other element) raises StabilizationError, and so does a
    scan with lo None whose shell -auto_window(y) is nonzero, rather than
    return a truncated sum; a ConductorError propagates."""
    p = y.p
    inv = y.invariants()
    if inv.lam.val() < 0 or inv.u.val() < 0:
        return Fraction(0)
    polys = _conj_polys(y.matrix())
    nilfam = (inv.lam.is_exact_zero() and inv.u.is_exact_zero()
              and inv.wtilde.is_exact_zero()
              and any(any(poly) for _, _, _, poly, _ in polys))
    lo, hi = _k_interval(polys, p, nilfam)
    if lo is not None and hi is not None and lo > hi:
        return Fraction(0)
    if (lo if nilfam else hi) is None:
        raise StabilizationError("no stabilization in the torus coordinate")
    if nilfam:
        tail = 0 if hi is None else Fraction(p) ** -(hi + 1)
        return (Fraction(p) ** -lo - tail) * zeta1(p)
    end = -auto_window(y) if lo is None else lo
    total = Fraction(0)
    for k in range(hi, end - 1, -1):
        s = _iwasawa_t_integral(polys, k, p)
        if not s:
            break           # T(k) is nondecreasing in k: every lower shell is 0
        if k == end and lo is None:
            raise StabilizationError(f"no stabilization in the torus coordinate: "
                                     f"the guard shell {end} of a scan open below "
                                     f"is nonzero")
        total += (p - 1) * Fraction(p) ** -(k + 1) * s
    return total * zeta1(p)


# ---------------------------------------------------------------------------
# the log-weighted integral behind the family contribution


def _xi_support(x: BPoint):
    """(D'/p, w', v0, K-, K+) of a side-1 point, v0 = v(D'/p): outside
    K-..K+ each shell v(t) = k of `xi_integral` follows a known law.  The
    terms D'/p, 2 w' t and t^2 of g have the valuations v0, v(w') + k and 2k.
    Past K+ = max(v0, floor(v0/2), v0 - v(w')) the first strictly dominates,
    v(g) = v0 < k, and the shell is eta(D'/p) p^v0 (v0 - k) k (1 - 1/p) p^-k.
    Below K- = min(ceil(v0/2), v(w'), 0) the last does, v(g) = 2k < k with
    eta(g) = 1, and the shell is (1 - 1/p) k^2 p^k.  The v(w') terms drop
    when w' = 0."""
    p = x.p
    if x.side() != 1:
        raise InputError("xi_integral requires a side-1 point")
    dp = (x.delta() / (x.u ** 4)).rational / p
    wprime = (x.wtilde / (x.u * x.u)).rational
    v0 = val(dp, p)
    vw = [val(wprime, p)] if wprime else []
    return (dp, wprime, v0, min(-(-v0 // 2), *vw, 0),
            max(v0, v0 // 2, *(v0 - v for v in vw)))


def _poly_geometric_sum(a, b, c, r: Fraction) -> Fraction:
    """Sum over i >= 0 of (a + b i + c i^2) r^i, for |r| < 1."""
    return a / (1 - r) + b * r / (1 - r) ** 2 + c * r * (1 + r) / (1 - r) ** 3


def xi_integral(x: BPoint, window: int | None = None) -> LogQVal:
    """The double-log shell sum attached to a regular semisimple side-1 point
    near zero: over the base field,

        Xi = int log|t + D'/(p t) + 2 w'| eta1(t (t + D'/(p t) + 2 w'))
                 log|t| dt,

    restricted to |t + D'/(p t) + 2 w'| > 1, where D' = Delta/u^4 and
    w' = wtilde/u^2 and eta1(y) = eta(y)/|y|.  The result is a pure
    (log q)^2-graded rational.

    On the shell v(t) = k, write a = t + D'/(p t) + 2 w' as g(t)/t with
    g(t) = t^2 + 2 w' t + D'/p: then v(a) = v(g) - k, eta(a) eta(t) = eta(g),
    and the integrand is eta(g) q^v(g) (v(g) - k) k on v(g) < k.  The shell
    is swept (`_sweep`, shift k) over the units of tau = t p^-k, on the
    integer polynomial G(tau) = den g(p^k tau), den the least common
    denominator and w = v(den), against v(G) >= k + w, which is v(g) >= k.
    A failing ball of depth e has v(g) = v(G(c)) - w and
    eta(g) = eta(den) eta(G(c)), and adds eta(g) (v(g) - k) k p^(v(g) - e - k)
    to the (log q)^2 coefficient, summed by exponent into one Fraction per
    shell (`_power_sum`).  Shells |k| <= window are swept exactly; past them
    the shells n + i and -(n + i), n = window + 1, follow the laws of
    `_xi_support`, a polynomial of degree two in i times p^-i, summed in
    closed form.  The window defaults to max(K+, -K-), the least that holds
    K-..K+; a negative one is an InputError, and one that does not hold
    K-..K+ raises StabilizationError rather than truncate."""
    p = x.p
    dp, wprime, v0, lo, hi = _xi_support(x)
    window = max(hi, -lo) if window is None else window
    if window < 0:
        raise InputError(f"shell window must be at least 0, got {window}")
    if window < max(hi, -lo):
        raise StabilizationError(f"no stabilization: the support {lo}..{hi} "
                                 f"leaves the shell window {window}")

    def shell(k):
        s = Fraction(p) ** k
        g = (dp, 2 * wprime * s, s * s)
        den = lcm(*(c.denominator for c in g))
        poly = tuple(c.numerator * (den // c.denominator) for c in g)
        w = val(den, p)
        sums = {}                       # eta(G(c)) (v(g) - k) by power of p
        # the support |a| > 1 is the balls that fail v(g) >= k, or v(G) >= k + w
        for e, failed in _sweep([(poly, val(poly[2], p), k + w)], unit_cover(p), k, p):
            if failed:
                vg = failed[1] - w
                sums[vg - e - k] = sums.get(vg - e - k, 0) + eta(failed[0], p) * (vg - k)
        return eta(den, p) * k * _power_sum(sums, p)

    total = sum((shell(k) for k in range(-window, window + 1)), Fraction(0))
    r, n = Fraction(1, p), window + 1
    # (v0 - k) k and k^2 on the shells k = n + i and -(n + i)
    upper = eta(dp, p) * Fraction(p) ** v0 * _poly_geometric_sum(
        (v0 - n) * n, v0 - 2 * n, -1, r)
    lower = _poly_geometric_sum(n * n, 2 * n, 1, r)
    total += (1 - r) * r ** n * (upper + lower)
    return LogQVal({2: total}, p)


def phi_from_xi(x: BPoint, window: int | None = None) -> LogQVal:
    """The family contribution recovered from the shell sum:
    -q (log q)^{-1} |u|^{-1} Xi(x), with |u|^{-1} = q^{v(u)}.

    The prefactor comes from substituting the family parameter into the
    family values and rescaling the integration variable by u^2: the measure
    dt/|t| is scale-invariant, so only the single power of q from the family
    values survives."""
    factor = LogQVal({-1: -(Fraction(x.p) ** (x.u.val() + 1))}, x.p)
    return factor * xi_integral(x, window)
