"""Exact p-adic integration by shell decomposition.

Domains are split into valuation shells and residue balls; predicates and
weights are evaluated with capped (interval) arithmetic at ball centers, so a
decision taken on a ball is rigorous for every point of the ball; undecided
balls are subdivided recursively up to a depth cap; and infinite shell tails
are closed analytically: plain geometric series for untwisted or X-twisted
weights, polynomial-times-geometric (degree at most two, from the double log
factors) for the log-weighted integrals."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConductorError, PrecisionError, StabilizationError
from .orbits import BPoint, U0RedElt
from .padic import PadicScalar, QuadElt
from .svalue import LogQVal, RatX, zeta1

DEPTH_CAP = 40
DEFAULT_WINDOW = 30


class _NeedSplit(Exception):
    """An inner integral could not be decided at the outer ball's precision."""


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

    def point(self, p: int) -> PadicScalar:
        return PadicScalar.from_rational_absprec(self.center, p, self.depth)

    def vol(self, p: int) -> Fraction:
        return Fraction(p) ** (-self.depth)

    @property
    def maxdepth(self) -> int:
        return self.depth


@dataclass(frozen=True)
class BallF:
    """{a + b pi : v(a - ca) >= da, v(b - cb) >= db}; volume q^-(da+db)."""
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


def f0_shell(k: int, p: int, extra_depth: int = 0):
    """Cover of the shell v = k by unit balls, pre-split extra_depth levels."""
    out = [Ball0(Fraction(u) * Fraction(p) ** k, k + 1) for u in range(1, p)]
    for _ in range(extra_depth):
        out = [c for b in out for c in b.split(p)]
    return out


def f_shell(k: int, p: int, extra_depth: int = 0):
    """Cover of the shell v_F = k in the quadratic extension."""
    out = []
    if k % 2 == 0:
        r = k // 2
        for u in range(1, p):
            out.append(BallF(Fraction(u) * Fraction(p) ** r, r + 1, Fraction(0), r))
    else:
        r = (k - 1) // 2
        for u in range(1, p):
            out.append(BallF(Fraction(0), r + 1, Fraction(u) * Fraction(p) ** r, r + 1))
    for _ in range(extra_depth):
        out = [c for b in out for c in b.split(p)]
    return out


# ---------------------------------------------------------------------------
# ternary decisions


def integral_status(s):
    """Ternary integrality of a scalar: True / False / None (undecided)."""
    if s.is_exact:
        return s.is_exact_zero() or s.val() >= 0
    if s.rel_precision == 0:
        return True if s.abs_precision >= 0 else None
    return s.val() >= 0


def quad_integral_status(z: QuadElt):
    sa = integral_status(z.a)
    sb = integral_status(z.b)
    if sa is False or sb is False:
        return False
    if sa is None or sb is None:
        return None
    return True


def matrix_integral_status(M):
    out = True
    for row in M:
        for e in row:
            s = quad_integral_status(e) if isinstance(e, QuadElt) else integral_status(e)
            if s is False:
                return False
            if s is None:
                out = None
    return out


def known_val(s):
    """Valuation if determined at stored precision, else None."""
    if s.is_exact:
        return None if s.is_exact_zero() else s.val()
    if s.rel_precision == 0:
        return None
    return s.val()


def known_eta(s):
    if s.is_exact:
        return None if s.is_exact_zero() else s.eta()
    if s.rel_precision == 0:
        return None
    return s.eta()


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


def _series_sums(r: Fraction):
    """(sum r^i, sum i r^i, sum i(i-1) r^i / 2) over i >= 0."""
    return 1 / (1 - r), r / (1 - r) ** 2, r * r / (1 - r) ** 3


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
            # Newton form P(i) = c0 + c1 i + c2 i(i-1)
            c0 = u[0]
            c1 = u[1] - u[0]
            c2 = (u[2] - 2 * u[1] + u[0]) / 2
            s0, s1, s2 = _series_sums(r)
            return c0 * s0 + c1 * s1 + 2 * c2 * s2
    raise StabilizationError("no stabilization: no geometric ratio matches")


def close_logqval_tail(values, p: int) -> LogQVal:
    grades = set()
    for v in values:
        grades |= set(v.coeffs)
    out = LogQVal.const(0, p)
    for g in sorted(grades):
        seq = [v.grade(g) for v in values]
        out = out + LogQVal({g: close_poly_geometric_tail(seq, p)}, p)
    return out


def close_ratx_tail(values, p: int) -> RatX:
    """Geometric closure for rational-function shells: two consecutive ratios
    determine the common ratio, the remaining ones confirm it."""
    if all(v.is_zero() for v in values):
        return RatX.const(0, p)
    if any(v.is_zero() for v in values) or len(values) < 3:
        raise StabilizationError("no stabilization: irregular tail")
    r = values[1] / values[0]
    for i in range(1, len(values) - 1):
        if values[i + 1] / values[i] != r:
            raise StabilizationError("no stabilization: ratio drifts")
    one = RatX.const(1, p)
    if (one - r).is_zero():
        raise StabilizationError("no stabilization: unit ratio")
    return values[0] / (one - r)


def _close_tail(values, p):
    if isinstance(values[0], LogQVal):
        return close_logqval_tail(values, p)
    if isinstance(values[0], RatX):
        return close_ratx_tail(values, p)
    return close_poly_geometric_tail(values, p)


TAIL_SAMPLES = 7


# ---------------------------------------------------------------------------
# the generic one-variable integrator


@dataclass
class Integrand:
    """Declarative one-variable integrand.

    domain: ('F0',) or ('F',); condition maps a capped point to a ternary
    truth value; weight maps a point where the condition holds to an exact
    value (Fraction, LogQVal, or RatX) or None when undecided; zero is the
    additive unit of the weight type; conductor_hint pre-splits every shell
    to that residue depth before the adaptive subdivision."""

    p: int
    domain: tuple
    condition: object
    weight: object
    zero: object
    conductor_hint: int = 1

    def shell(self, k: int):
        extra = max(0, self.conductor_hint - 1)
        if self.domain[0] == "F0":
            return f0_shell(k, self.p, extra)
        return f_shell(k, self.p, extra)


def _shell_value(ig: Integrand, k: int):
    def ev(ball):
        pt = ball.point(ig.p)
        c = ig.condition(pt)
        if c is None:
            return None
        if c is False:
            return ig.zero
        return ig.weight(pt)
    return _sum_balls(ig.p, ig.shell(k), ev, ig.zero)


def _is_zero_value(v) -> bool:
    if isinstance(v, (LogQVal, RatX)):
        return v.is_zero()
    return v == 0


def shell_integrate(ig: Integrand, window: int = DEFAULT_WINDOW):
    """Integrate over the whole multiplicative group: shells v = k for
    -window <= k <= window computed exactly, the two infinite tails closed
    analytically from the last TAIL_SAMPLES shells of each side."""
    if window < TAIL_SAMPLES + 1:
        raise ValueError("window too small")
    values = {k: _shell_value(ig, k) for k in range(-window, window + 1)}
    total = ig.zero
    for k in range(-window + TAIL_SAMPLES, window - TAIL_SAMPLES + 1):
        total = total + values[k]
    up = [values[window - TAIL_SAMPLES + 1 + i] for i in range(TAIL_SAMPLES)]
    down = [values[-(window - TAIL_SAMPLES + 1 + i)] for i in range(TAIL_SAMPLES)]
    total = total + _close_tail(up, ig.p)
    total = total + _close_tail(down, ig.p)
    return total


# ---------------------------------------------------------------------------
# the unitary-side orbital integrals in Iwasawa coordinates


def _n_conj(M, t: PadicScalar):
    """Conjugate by the unipotent diag([[1, t], [0, 1]], 1), entrywise."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = M
    r00 = m00 - m10 * t
    return [[r00, r00 * t + m01 - m11 * t, m02 - m12 * t],
            [m10, m11 + m10 * t, m12],
            [m20, m21 + m20 * t, m22]]


def _torus(z: QuadElt):
    """The monomials in z that _a_conj scales by: z, its norm and the
    inverse norm, conj(z), z^-1 and conj(z)^-1."""
    n = z.norm()
    zi = z.inv()
    return z, n, n.inv(), z.conj(), zi, zi.conj()


def _a_conj(M, torus):
    """Conjugate by diag(z^-1, conj(z), 1), given _torus(z): diagonal entries
    are fixed and the off-diagonal ones scale by monomials in z and its
    conjugate."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = M
    z, n, ni, zb, zi, zbi = torus
    return [[m00, m01 * n, z * m02],
            [m10 * ni, m11, zbi * m12],
            [m20 * zi, m21 * zb, m22]]


def _iwasawa_t_integral(M, z: QuadElt, p: int, window: int) -> Fraction:
    """Inner integral over the unipotent coordinate of the indicator of the
    lattice, for a fixed (capped) torus coordinate; the unipotent acts first,
    the torus scaling second."""
    torus = _torus(z)

    def ev(ball):
        t = ball.point(p)
        st = matrix_integral_status(_a_conj(_n_conj(M, t), torus))
        if st is None:
            return None
        return Fraction(1) if st else Fraction(0)

    # the support in t is a valuation interval: conditions are integrality of
    # polynomials in t, which fail monotonically for large |t|
    total = Fraction(0)
    try:
        total += _sum_balls(p, [Ball0(Fraction(0), 0)], ev, Fraction(0))
        zeros = 0 if total != 0 else 1
        for j in range(-1, -window - 1, -1):
            s = _sum_balls(p, f0_shell(j, p), ev, Fraction(0))
            total += s
            if s == 0:
                zeros += 1
                if zeros >= 4:
                    return total
            else:
                zeros = 0
        return total
    except ConductorError:
        raise _NeedSplit


def auto_window(y: U0RedElt, floor: int = 8) -> int:
    """A torus window comfortably containing the support: twice the largest
    coordinate valuation plus slack."""
    vals = []
    for s in (y.a1, y.a2, y.a3):
        if not s.is_exact_zero():
            vals.append(abs(s.val()))
    for b in (y.b1, y.b2):
        if not b.is_zero():
            vals.append(abs(b.val_f()))
    top = max(vals) if vals else 0
    return max(floor, 2 * top + 6)


def iwasawa_orbit_u0(y: U0RedElt, s_twist: bool = False,
                     window: int | None = None, conductor_hint: int = 1):
    """Orbital integral of the lattice indicator over the quasi-split
    stabilizer group in Iwasawa coordinates, as an exact shell sum with the
    zeta(1) measure factor.

    Elements of the nilpotent family (nonzero, all invariants zero) have the
    unipotent subgroup as stabilizer: for them the unipotent coordinate is
    omitted.  With s_twist the torus shells are weighted by X^(2k), giving a
    rational function of X that restricts to the plain value at s = 0."""
    p = y.p
    M = y.matrix()
    inv = y.invariants()
    if window is None:
        window = auto_window(y)
    is_zero_elt = all(e.is_zero() for row in M for e in row)
    nilfam = (not is_zero_elt and inv.lam.is_exact_zero()
              and inv.u.is_exact_zero() and inv.wtilde.is_exact_zero())

    def z_shell_value(k: int):
        def ev(zball):
            z = zball.point(p)
            try:
                if nilfam:
                    st = matrix_integral_status(_a_conj(M, _torus(z)))
                    if st is None:
                        return None
                    return Fraction(1) if st else Fraction(0)
                return _iwasawa_t_integral(M, z, p, window)
            except (_NeedSplit, PrecisionError):
                return None
        extra = max(0, conductor_hint - 1)
        return _sum_balls(p, f_shell(k, p, extra), ev, Fraction(0))

    # scan shells; support is bounded below, and either bounded above
    # (semisimple) or eventually geometric (nilpotent family)
    total = Fraction(0)
    values = []
    seen = False
    zeros = 0
    ratx_total = RatX.const(0, p) if s_twist else None
    for k in range(-window, window + 1):
        s = z_shell_value(k)
        values.append(s)
        total += s
        if s_twist:
            ratx_total = ratx_total + RatX.x_power(2 * k, p) * s
        if s == 0:
            zeros += 1
            if zeros >= 3 and seen:
                if s_twist:
                    return ratx_total * zeta1(p)
                return total * zeta1(p)
        else:
            seen = True
            zeros = 0
    if nilfam and len(values) >= TAIL_SAMPLES:
        if s_twist:
            raise StabilizationError("s-twisted family tails are not supported")
        tail = values[-TAIL_SAMPLES:]
        head = sum(values[:-TAIL_SAMPLES], Fraction(0))
        return (head + close_poly_geometric_tail(tail, p)) * zeta1(p)
    raise StabilizationError("no stabilization in the torus coordinate")


# ---------------------------------------------------------------------------
# the log-weighted integral behind the family contribution


def xi_integral(x: BPoint, window: int = DEFAULT_WINDOW,
                conductor_hint: int = 1) -> LogQVal:
    """The double-log shell sum attached to a regular semisimple side-1 point
    near zero: over the base field,

        Xi = int log|t + D'/(p t) + 2 w'| eta1(t (t + D'/(p t) + 2 w'))
                 log|t| dt,

    restricted to |t + D'/(p t) + 2 w'| > 1, where D' = Delta/u^4 and
    w' = wtilde/u^2 and eta1(y) = eta(y)/|y|.  The result is a pure
    (log q)^2-graded rational."""
    p = x.p
    if x.side() != 1:
        raise ValueError("xi_integral requires a side-1 point")
    dprime = x.delta() / (x.u ** 4)
    wprime = x.wtilde / (x.u * x.u)
    dp_over_p = dprime / p
    two_wp = wprime + wprime
    zero = LogQVal.const(0, p)

    def weight(t: PadicScalar):
        a = t + dp_over_p / t + two_wp
        if integral_status(a):
            return zero          # support requires |a| > 1
        va = known_val(a)
        if va is None:
            return None
        if va >= 0:
            return zero
        vt = t.val()
        ea = known_eta(a)
        et = known_eta(t)
        if ea is None or et is None:
            return None
        size = Fraction(p) ** (va + vt)     # 1/|a t|
        return LogQVal({2: ea * et * size * va * vt}, p)

    ig = Integrand(p, ("F0",), lambda t: True, weight, zero,
                   conductor_hint=conductor_hint)
    return shell_integrate(ig, window)


def phi_from_xi(x: BPoint, window: int = DEFAULT_WINDOW,
                conductor_hint: int = 1) -> LogQVal:
    """The family contribution recovered from the shell sum:
    -q (log q)^{-1} |u|^{-1} Xi(x), with |u|^{-1} = q^{v(u)}.

    The prefactor comes from substituting the family parameter into the
    family values and rescaling the integration variable by u^2: the measure
    dt/|t| is scale-invariant, so only the single power of q from the family
    values survives."""
    p = x.p
    xi = xi_integral(x, window, conductor_hint)
    factor = LogQVal({-1: -(Fraction(p) ** (x.u.val() + 1))}, p)
    return factor * xi
