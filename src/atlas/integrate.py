"""Exact p-adic integration by shell decomposition.

Domains are split into valuation shells and residue balls c + p^d Z_p.  Every
condition tested is a bound v(P(t)) >= b on a rational polynomial of degree
at most two.  As the degree is below p, the sup norm of P on a ball is its
Gauss norm, so three exact Taylor terms at the center decide the ball (see
`_taylor`); undecided balls are subdivided up to a depth cap.  Infinite
shell tails are closed analytically as polynomial-times-geometric series
(degree at most two, from the double log factors of the log-weighted
integrals).

The Iwasawa-coordinate orbital integrals need no subdivision in the torus
coordinate.  Conjugating by diag(z^-1, conj(z), 1) multiplies entry (i, j) by
a unit times pi^(e_ij k), with k = v_F(z) and

    e = ( 0  2  1 )
        (-2  0 -1 )
        (-1  1  0 ),

so the lattice indicator depends on z only through k: each torus shell is
evaluated once, as its volume times the unipotent integral of the bounds
v_F(entry_ij) >= -e_ij k."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConductorError, InputError, StabilizationError
from .orbits import BPoint, U0RedElt
from .padic import INF, PadicScalar, QuadElt, _frac_split, legendre
from .svalue import LogQVal, zeta1

DEPTH_CAP = 40
DEFAULT_WINDOW = 30


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class Ball0:
    """{t : v(t - center) >= depth} in the base field; volume q^-depth."""
    center: Fraction
    depth: int

    def split(self, p: int):
        step = Fraction(p) ** self.depth
        return [Ball0(self.center + i * step, self.depth + 1) for i in range(p)]

    def point(self) -> Fraction:
        """The exact center.  The integrators read every ball they decide
        through this method, which bench/tracer.py hooks to count balls."""
        return self.center

    def vol(self, p: int) -> Fraction:
        return Fraction(p) ** (-self.depth)

    @property
    def maxdepth(self) -> int:
        return self.depth


@dataclass(frozen=True)
class BallF:
    """{a + b pi : v(a - ca) >= da, v(b - cb) >= db}; volume q^-(da+db).
    No integrator uses it: it stays for the tests' torus-ball reference and
    because bench/tracer.py hooks BallF.point and BallF.split by name."""
    ca: Fraction
    da: int
    cb: Fraction
    db: int

    def split(self, p: int):
        sa = Fraction(p) ** self.da
        sb = Fraction(p) ** self.db
        return [BallF(self.ca + i * sa, self.da + 1, self.cb + l * sb, self.db + 1)
                for i in range(p) for l in range(p)]

    def point(self, p: int) -> QuadElt:
        return QuadElt(PadicScalar.from_rational_absprec(self.ca, p, self.da),
                       PadicScalar.from_rational_absprec(self.cb, p, self.db))

    def vol(self, p: int) -> Fraction:
        return Fraction(p) ** (-(self.da + self.db))

    @property
    def maxdepth(self) -> int:
        return max(self.da, self.db)


def f0_shell(k: int, p: int):
    """Cover of the shell v = k by unit balls."""
    return [Ball0(Fraction(u) * Fraction(p) ** k, k + 1) for u in range(1, p)]


# ---------------------------------------------------------------------------
# exact ball decisions


def _val(x: Fraction, p: int):
    """v(x), +inf for x = 0."""
    split = _frac_split(x, p)
    return INF if split is None else split[0]


def _eta(x: Fraction, p: int) -> int:
    """The quadratic character eta of a nonzero rational (PadicScalar.eta)."""
    v, num, den = _frac_split(x, p)
    s = legendre(num * den, p)
    return s * legendre(-1, p) if v % 2 else s


def _taylor(poly, c: Fraction, d: int, p: int):
    """(P(c), v(P(c)), min(v(P'(c)) + d, v(P''/2) + 2d)) for
    P = c0 + c1 t + c2 t^2 on the ball c + p^d Z_p: v(P) >= b on the whole
    ball exactly when both valuations are >= b, and v(P) = v(P(c)) on the
    whole ball when the first is the smaller."""
    c0, c1, c2 = poly
    at_c = c0 + (c1 + c2 * c) * c
    rest = min(_val(c1 + 2 * c2 * c, p) + d, _val(c2, p) + 2 * d)
    return at_c, _val(at_c, p), rest


# ---------------------------------------------------------------------------
# ball sweeps and tail closure


def _sum_balls(p, balls, evaluate, zero):
    """Sum vol * evaluate(ball), subdividing on undecided balls (None)."""
    total = zero
    stack = list(balls)
    while stack:
        ball = stack.pop()
        w = evaluate(ball)
        if w is None:
            if ball.maxdepth >= DEPTH_CAP:
                raise ConductorError("conductor too small: depth cap reached")
            stack.extend(ball.split(p))
            continue
        total = total + ball.vol(p) * w
    return total


def close_poly_geometric_tail(values, p: int, max_ratio_pow: int = 8) -> Fraction:
    """Sum over i >= 0 of a sequence recognized as P(i) r^i with deg P <= 2
    and r an inverse power of p; values must supply at least seven shells
    (three determine P, the rest confirm the law)."""
    if all(v == 0 for v in values):
        return Fraction(0)
    if len(values) < 7:
        raise StabilizationError("no stabilization: window too small")
    for a in range(1, max_ratio_pow + 1):
        r = Fraction(1, p ** a)
        u = [v / r ** i for i, v in enumerate(values)]
        d3 = [u[i + 3] - 3 * u[i + 2] + 3 * u[i + 1] - u[i] for i in range(len(u) - 3)]
        if all(x == 0 for x in d3):
            # Newton form P(i) = c0 + c1 i + c2 i(i-1), summed against
            # sum r^i, sum i r^i and sum i(i-1) r^i / 2
            c1 = u[1] - u[0]
            c2 = (u[2] - 2 * u[1] + u[0]) / 2
            return u[0] / (1 - r) + c1 * r / (1 - r) ** 2 + 2 * c2 * r * r / (1 - r) ** 3
    raise StabilizationError("no stabilization: no geometric ratio matches")


def _close_tail(values, p):
    """The tail sum of Fraction values, or of LogQVal values grade by grade."""
    if not isinstance(values[0], LogQVal):
        return close_poly_geometric_tail(values, p)
    grades = set().union(*(v.coeffs for v in values))
    return LogQVal({g: close_poly_geometric_tail([v.grade(g) for v in values], p)
                    for g in grades}, p)


TAIL_SAMPLES = 7


# ---------------------------------------------------------------------------
# the generic one-variable integrator


def shell_integrate(p: int, weight, zero, window: int = DEFAULT_WINDOW):
    """Integrate weight over the multiplicative group of the base field:
    weight maps a Ball0 inside one shell to the exact value (Fraction or
    LogQVal) the integrand takes on all of it, or to None when the ball must
    be subdivided, and zero is the additive unit of its type.  Shells v = k
    for -window <= k <= window are computed exactly, the two infinite tails
    closed analytically from the last TAIL_SAMPLES shells of each side."""
    if window < TAIL_SAMPLES + 1:
        raise InputError(f"shell window must be at least {TAIL_SAMPLES + 1}, "
                         f"got {window}")
    values = {k: _sum_balls(p, f0_shell(k, p), weight, zero)
              for k in range(-window, window + 1)}
    total = zero
    for k in range(-window + TAIL_SAMPLES, window - TAIL_SAMPLES + 1):
        total = total + values[k]
    up = [values[window - TAIL_SAMPLES + 1 + i] for i in range(TAIL_SAMPLES)]
    down = [values[-(window - TAIL_SAMPLES + 1 + i)] for i in range(TAIL_SAMPLES)]
    total = total + _close_tail(up, p)
    total = total + _close_tail(down, p)
    return total


# ---------------------------------------------------------------------------
# the unitary-side orbital integrals in Iwasawa coordinates


def _conj_polys(M):
    """The coordinate polynomials of the conjugate of the exact matrix M by
    the unipotent diag([[1, t], [0, 1]], 1): tuples (i, j, part, (c0, c1, c2))
    with entry (i, j) = sum over part of (c0 + c1 t + c2 t^2) pi^part."""
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
            out.append((i, j, part, poly))
    return out


def _shell_bounds(k: int):
    """Lower bounds on v_F of the entries that make diag(z^-1, conj(z), 1)
    conjugation integral when v_F(z) = k: -e_ij k for the exponent table e
    in the module docstring."""
    return ((0, -2 * k, -k),
            (2 * k, 0, k),
            (k, -k, 0))


def _iwasawa_t_integral(polys, k: int, p: int, window: int) -> Fraction:
    """Inner integral over the unipotent coordinate of the indicator of the
    lattice, on the torus shell v_F(z) = k; the unipotent acts first, the
    torus scaling second.  With v_F(a + b pi) = min(2 v(a), 2 v(b) + 1),
    v_F(entry) >= m is v(a) >= ceil(m/2) and v(b) >= ceil((m-1)/2); the
    conditions constant in t are settled once."""
    bounds = _shell_bounds(k)
    conds = []
    for i, j, part, poly in polys:
        b = -((part - bounds[i][j]) // 2)
        if poly[1] or poly[2]:
            conds.append((poly, b))
        elif _val(poly[0], p) < b:
            return Fraction(0)

    def ev(ball):
        c = ball.point()
        out = Fraction(1)
        for poly, b in conds:
            _, v0, rest = _taylor(poly, c, ball.depth, p)
            if min(v0, rest) >= b:
                continue
            if v0 < rest:
                return Fraction(0)
            out = None
        return out

    # the support in t is a valuation interval: conditions are integrality of
    # polynomials in t, which fail monotonically for large |t|
    total = _sum_balls(p, [Ball0(Fraction(0), 0)], ev, Fraction(0))
    zeros = 0 if total != 0 else 1
    for j in range(-1, -window - 1, -1):
        s = _sum_balls(p, f0_shell(j, p), ev, Fraction(0))
        total += s
        zeros = zeros + 1 if s == 0 else 0
        if zeros >= 4:
            return total
    raise StabilizationError(f"no stabilization in the unipotent coordinate on "
                             f"torus shell {k}: window {window} too small")


def auto_window(y: U0RedElt, floor: int = 8) -> int:
    """A torus window comfortably containing the support: twice the largest
    coordinate valuation plus slack."""
    vals = [abs(s.val()) for s in (y.a1, y.a2, y.a3) if not s.is_exact_zero()]
    vals += [abs(b.val_f()) for b in (y.b1, y.b2) if not b.is_zero()]
    return max(floor, 2 * max(vals, default=0) + 6)


def z_shell_value(M, k: int, p: int, window: int, polys) -> Fraction:
    """The torus shell v_F(z) = k of the orbital integral of M: its volume
    (p - 1) p^-(k+1) times the unipotent integral over the coordinate
    polynomials polys (`_conj_polys(M)`), or, for the nilpotent family
    (polys None), times the lattice indicator of M itself."""
    vol = (p - 1) * Fraction(p) ** -(k + 1)
    if polys is None:
        inside = all(e.val_f() >= m for row, brow in zip(M, _shell_bounds(k))
                     for e, m in zip(row, brow))
        return vol if inside else Fraction(0)
    return vol * _iwasawa_t_integral(polys, k, p, window)


def iwasawa_orbit_u0(y: U0RedElt, window: int | None = None):
    """Orbital integral of the lattice indicator over the quasi-split
    stabilizer group in Iwasawa coordinates, as an exact shell sum with the
    zeta(1) measure factor.

    Elements of the nilpotent family (nonzero, all invariants zero) have the
    unipotent subgroup as stabilizer: for them the unipotent coordinate is
    omitted.

    The torus z enters only through k = v_F(z): conjugation by
    diag(z^-1, conj(z), 1) scales entry (i, j) by a unit times pi^(e_ij k),
    e = (0 2 1 / -2 0 -1 / -1 1 0), so shell k contributes its volume
    (p - 1) p^-(k+1) times the unipotent integral of v_F >= -e_ij k.
    A support that reaches the window's edge raises StabilizationError
    rather than return a truncated sum; a ConductorError from the unipotent
    integral propagates."""
    p = y.p
    M = y.matrix()
    inv = y.invariants()
    if window is None:
        window = auto_window(y)
    is_zero_elt = all(e.is_zero() for row in M for e in row)
    nilfam = (not is_zero_elt and inv.lam.is_exact_zero()
              and inv.u.is_exact_zero() and inv.wtilde.is_exact_zero())
    polys = None if nilfam else _conj_polys(M)

    # scan shells; support is bounded below, and either bounded above
    # (semisimple) or eventually geometric (nilpotent family)
    values = []
    seen = False
    zeros = 0
    for k in range(-window, window + 1):
        s = z_shell_value(M, k, p, window, polys)
        values.append(s)
        if s == 0:
            zeros += 1
            if zeros >= 3 and seen:
                return sum(values, Fraction(0)) * zeta1(p)
        elif k == -window:
            raise StabilizationError(f"no stabilization in the torus coordinate: "
                                     f"shell {k} at the window's edge is nonzero")
        else:
            seen = True
            zeros = 0
    if nilfam and len(values) >= TAIL_SAMPLES:
        head = sum(values[:-TAIL_SAMPLES], Fraction(0))
        return (head + close_poly_geometric_tail(values[-TAIL_SAMPLES:], p)) * zeta1(p)
    raise StabilizationError("no stabilization in the torus coordinate")


# ---------------------------------------------------------------------------
# the log-weighted integral behind the family contribution


def xi_integral(x: BPoint, window: int = DEFAULT_WINDOW) -> LogQVal:
    """The double-log shell sum attached to a regular semisimple side-1 point
    near zero: over the base field,

        Xi = int log|t + D'/(p t) + 2 w'| eta1(t (t + D'/(p t) + 2 w'))
                 log|t| dt,

    restricted to |t + D'/(p t) + 2 w'| > 1, where D' = Delta/u^4 and
    w' = wtilde/u^2 and eta1(y) = eta(y)/|y|.  The result is a pure
    (log q)^2-graded rational.

    On the shell v(t) = k, write a = t + D'/(p t) + 2 w' as g(t)/t with
    g(t) = t^2 + 2 w' t + D'/p: then v(a) = v(g) - k, eta(a) eta(t) = eta(g),
    and the integrand is eta(g) q^v(g) (v(g) - k) k on v(g) < k.  The Taylor
    test of v(g) >= k decides each ball, and where g(c) strictly dominates,
    v(g) and eta(g) are those of g(c) on the whole ball."""
    p = x.p
    if x.side() != 1:
        raise InputError("xi_integral requires a side-1 point")
    dprime = (x.delta() / (x.u ** 4)).rational
    wprime = (x.wtilde / (x.u * x.u)).rational
    g = (dprime / p, 2 * wprime, Fraction(1))
    zero = LogQVal.const(0, p)

    def weight(ball):
        c = ball.point()
        k = _val(c, p)
        at_c, vg, rest = _taylor(g, c, ball.depth, p)
        if min(vg, rest) >= k:
            return zero          # support requires |a| > 1
        if vg >= rest:
            return None
        return LogQVal({2: _eta(at_c, p) * Fraction(p) ** vg * (vg - k) * k}, p)

    return shell_integrate(p, weight, zero, window)


def phi_from_xi(x: BPoint, window: int = DEFAULT_WINDOW) -> LogQVal:
    """The family contribution recovered from the shell sum:
    -q (log q)^{-1} |u|^{-1} Xi(x), with |u|^{-1} = q^{v(u)}.

    The prefactor comes from substituting the family parameter into the
    family values and rescaling the integration variable by u^2: the measure
    dt/|t| is scale-invariant, so only the single power of q from the family
    values survives."""
    p = x.p
    xi = xi_integral(x, window)
    factor = LogQVal({-1: -(Fraction(p) ** (x.u.val() + 1))}, p)
    return factor * xi
