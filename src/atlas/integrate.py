"""Exact p-adic integration by shell decomposition.

Domains are split into valuation shells and residue balls; predicates and
weights are evaluated with capped (interval) arithmetic at ball centers, so a
decision taken on a ball is rigorous for every point of the ball; undecided
balls are subdivided recursively up to a depth cap; and infinite shell tails
are closed analytically as polynomial-times-geometric series (degree at most
two, from the double log factors of the log-weighted integrals).

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

from .errors import ConductorError, StabilizationError
from .orbits import BPoint, U0RedElt
from .padic import PadicScalar, QuadElt
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


def f0_shell(k: int, p: int):
    """Cover of the shell v = k by unit balls."""
    return [Ball0(Fraction(u) * Fraction(p) ** k, k + 1) for u in range(1, p)]


def f_shell(k: int, p: int):
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
    return out


# ---------------------------------------------------------------------------
# ternary decisions


def val_at_least(s, m):
    """Ternary v(s) >= m for a scalar: True / False / None (undecided)."""
    if s.is_exact:
        return s.is_exact_zero() or s.val() >= m
    if s.rel_precision == 0:
        return True if s.abs_precision >= m else None
    return s.val() >= m


def integral_status(s):
    """Ternary integrality of a scalar."""
    return val_at_least(s, 0)


def quad_val_at_least(x: QuadElt, m):
    """Ternary v_F(x) >= m: with v_F(a + b pi) = min(2 v(a), 2 v(b) + 1),
    that is v(a) >= ceil(m/2) and v(b) >= ceil((m-1)/2)."""
    sa = val_at_least(x.a, -(-m // 2))
    if sa is False:
        return False
    sb = val_at_least(x.b, -((1 - m) // 2))
    if sb is False:
        return False
    if sa is None or sb is None:
        return None
    return True


def matrix_val_at_least(M, bounds):
    """Ternary conjunction of v_F(M[i][j]) >= bounds[i][j] over all entries."""
    out = True
    for row, brow in zip(M, bounds):
        for e, m in zip(row, brow):
            s = quad_val_at_least(e, m)
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


def _close_tail(values, p):
    if isinstance(values[0], LogQVal):
        return close_logqval_tail(values, p)
    return close_poly_geometric_tail(values, p)


TAIL_SAMPLES = 7


# ---------------------------------------------------------------------------
# the generic one-variable integrator


def shell_integrate(p: int, weight, zero, window: int = DEFAULT_WINDOW):
    """Integrate weight over the multiplicative group of the base field:
    weight maps a capped point to an exact value (Fraction or LogQVal), or
    to None when the point's ball must be subdivided, and zero is the
    additive unit of its type.  Shells v = k for -window <= k <= window are
    computed exactly, the two infinite tails closed analytically from the
    last TAIL_SAMPLES shells of each side."""
    if window < TAIL_SAMPLES + 1:
        raise ValueError("window too small")

    def ev(ball):
        return weight(ball.point(p))
    values = {k: _sum_balls(p, f0_shell(k, p), ev, zero)
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


def _n_conj(M, t: PadicScalar):
    """Conjugate by the unipotent diag([[1, t], [0, 1]], 1), entrywise."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = M
    r00 = m00 - m10 * t
    return [[r00, r00 * t + m01 - m11 * t, m02 - m12 * t],
            [m10, m11 + m10 * t, m12],
            [m20, m21 + m20 * t, m22]]


def _shell_bounds(k: int):
    """Lower bounds on v_F of the entries that make diag(z^-1, conj(z), 1)
    conjugation integral when v_F(z) = k: -e_ij k for the exponent table e
    in the module docstring."""
    return ((0, -2 * k, -k),
            (2 * k, 0, k),
            (k, -k, 0))


def _iwasawa_t_integral(M, k: int, p: int, window: int) -> Fraction:
    """Inner integral over the unipotent coordinate of the indicator of the
    lattice, on the torus shell v_F(z) = k; the unipotent acts first, the
    torus scaling second."""
    bounds = _shell_bounds(k)

    def ev(ball):
        st = matrix_val_at_least(_n_conj(M, ball.point(p)), bounds)
        if st is None:
            return None
        return Fraction(1) if st else Fraction(0)

    # the support in t is a valuation interval: conditions are integrality of
    # polynomials in t, which fail monotonically for large |t|
    total = _sum_balls(p, [Ball0(Fraction(0), 0)], ev, Fraction(0))
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


def z_shell_value(M, k: int, p: int, window: int, nilfam: bool) -> Fraction:
    """The torus shell v_F(z) = k of the orbital integral of M: the volume of
    f_shell(k, p) times the unipotent integral, or, for the nilpotent family,
    times the lattice indicator of M itself."""
    vol = sum((b.vol(p) for b in f_shell(k, p)), Fraction(0))
    if nilfam:
        st = matrix_val_at_least(M, _shell_bounds(k))
        if st is None:
            raise ConductorError("nilpotent-family lattice test undecided")
        return vol if st else Fraction(0)
    return vol * _iwasawa_t_integral(M, k, p, window)


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
    A ConductorError from that integral propagates."""
    p = y.p
    M = y.matrix()
    inv = y.invariants()
    if window is None:
        window = auto_window(y)
    is_zero_elt = all(e.is_zero() for row in M for e in row)
    nilfam = (not is_zero_elt and inv.lam.is_exact_zero()
              and inv.u.is_exact_zero() and inv.wtilde.is_exact_zero())

    # scan shells; support is bounded below, and either bounded above
    # (semisimple) or eventually geometric (nilpotent family)
    total = Fraction(0)
    values = []
    seen = False
    zeros = 0
    for k in range(-window, window + 1):
        s = z_shell_value(M, k, p, window, nilfam)
        values.append(s)
        total += s
        if s == 0:
            zeros += 1
            if zeros >= 3 and seen:
                return total * zeta1(p)
        else:
            seen = True
            zeros = 0
    if nilfam and len(values) >= TAIL_SAMPLES:
        tail = values[-TAIL_SAMPLES:]
        head = sum(values[:-TAIL_SAMPLES], Fraction(0))
        return (head + close_poly_geometric_tail(tail, p)) * zeta1(p)
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
