"""Seeded inputs and exact checks for the benchmark workloads.

Each build function takes the loaded atlas modules `A` and a seed and
returns the list of items of one pass.  An item is one verdict of a batch
verifier: calling `item.run()` runs the program on the item's input and
returns True exactly when the output equals the item's independent
reference, computed up front.  Items call the program through module attributes
(`A.orbits.cayley(...)`, never a name bound at build time), so the tracer's
wrappers see every call.

- oracle: the Iwasawa shell-sum oracle against the closed orbit values.
- constancy: phi1 against the constant at zero, difference-vanishing around
  the nonzero base points, and the `atlas verify` command in process.
- cayley: Cayley transforms and int_group against l_int of the invariants.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass
class Item:
    family: str
    label: str
    run: Callable[[], bool]


# the side-1 grid of the constancy sweep: m <= 8, l- <= 19, l+ odd <= 19 or inf
CONSTANCY_PRIMES = (3, 5, 7)
CONSTANCY_POINTS = 1000
CAYLEY_ELEMENTS_PER_PRIME = 8
XI_WINDOW = 14
CLI_ARGV = (
    ("verify", "zero", "--p", "3", "--m-max", "4", "--l-max", "9", "--format", "text"),
    ("verify", "x0", "--p", "5", "--format", "text"),
)
# phi_from_xi vs phi_closed: three points in each of the five cases, p = 3
XI_POINTS = ((0, 1, None), (1, 3, 5), (0, 2, 3), (1, 1, 3), (2, 3, 5), (2, 1, 7),
             (1, 2, 3), (2, 4, 5), (2, 2, 9), (1, 5, 3), (0, 2, 1), (1, 7, 5),
             (1, 3, 1), (2, 5, 3), (2, 7, 1))


def _first_of_each_family(items):
    seen, out = set(), []
    for it in items:
        if it.family not in seen:
            seen.add(it.family)
            out.append(it)
    return out


def _cli_ok(A, argv) -> bool:
    with contextlib.redirect_stdout(io.StringIO()):
        return A.cli.main(list(argv)) == 0


# ---------------------------------------------------------------------------
# oracle


def _orbit_item(A, family, label, y, want):
    return Item(family, label, lambda: A.integrate.iwasawa_orbit_u0(y) == want)


def build_oracle(A, seed: int, quick: bool = False):
    """Criterion-4 families at p = 3, 5 with seeded unit parts and fixed
    valuations, the two heavy points, and the criterion-5 xi points."""
    rng = random.Random(seed)
    orbits, values, PadicScalar = A.orbits, A.values, A.padic.PadicScalar
    items = []
    for p in (3, 5):
        fn = values.nil_family_orb_u0_fn(p)
        for vmu in range(-4, 5):
            mu = rng.randrange(1, p) * Fraction(p) ** vmu
            want = values.phi_eval(fn, PadicScalar.exact(mu, p)).grade(0)
            items.append(_orbit_item(A, "nil", f"nil p={p} mu={mu}",
                                     orbits.u0_nilpotent_family_member(mu, p), want))
        for v in range(0, 7):
            units = [c for c in range(1, p)
                     if not PadicScalar.exact(-c * p ** v, p).is_square()]
            lam0 = rng.choice(units) * Fraction(p) ** v
            items.append(_orbit_item(A, "case0", f"case0 p={p} lam0={lam0}",
                                     orbits.u0_ss_case0(lam0, p),
                                     values.orb_u0_ss_case0(lam0, p)))
        for vu in range(0, 5):
            u0 = rng.randrange(1, p) * Fraction(p) ** vu
            # wt0 = 0, then both size branches |lam0| < |u0|^2 and > |u0|^2
            for vw in [None, 2 * vu + 1] + ([vu] if vu >= 1 else []):
                if vw is None:
                    wt0 = lam0 = Fraction(0)
                else:
                    wt0 = rng.randrange(1, p) * Fraction(p) ** vw
                    lam0 = -wt0 * wt0 * p / (u0 * u0)
                x0 = orbits.BPoint.exact(lam0, u0, wt0, p)
                items.append(_orbit_item(A, "case1", f"case1 p={p} x0={(lam0, u0, wt0)}",
                                         orbits.u0_ss_case1(x0),
                                         values.orb_u0_ss_case1(lam0, u0, p)))
    heavy0 = 2 * Fraction(5) ** 6
    items.append(_orbit_item(A, "heavy", "heavy case0 lam0=2*5^6",
                             orbits.u0_ss_case0(heavy0, 5),
                             values.orb_u0_ss_case0(heavy0, 5)))
    x0 = orbits.BPoint.exact(0, 5 ** 4, 0, 5)
    items.append(_orbit_item(A, "heavy", "heavy case1 x0=(0,5^4,0)",
                             orbits.u0_ss_case1(x0),
                             values.orb_u0_ss_case1(0, 5 ** 4, 5)))
    for m, lm, lp in XI_POINTS:
        x = orbits.make_bpoint_rs1(m, lm, orbits.INF if lp is None else lp, 3)
        want = A.germs.phi_closed(x)
        items.append(Item("xi", f"xi p=3 {(m, lm, lp)}",
                          lambda x=x, want=want:
                          A.integrate.phi_from_xi(x, window=XI_WINDOW) == want))
    return _first_of_each_family(items) if quick else items


# ---------------------------------------------------------------------------
# constancy


def build_constancy(A, seed: int, quick: bool = False):
    """Seeded phi1 points of the side-1 grid, verify_x0 over the base-point
    libraries at p = 3, 5, and two `atlas verify` commands."""
    rng = random.Random(seed)
    orbits, verify = A.orbits, A.verify
    lplus = list(range(1, 20, 2)) + [orbits.INF]
    grid = [(p, m, lm, lp) for p in CONSTANCY_PRIMES for m in range(9)
            for lm in range(1, 20) for lp in lplus]
    want = {p: verify.expected_constant_at_zero(p) for p in CONSTANCY_PRIMES}
    items = []
    for p, m, lm, lp in rng.sample(grid, CONSTANCY_POINTS):
        x = orbits.make_bpoint_rs1(m, lm, lp, p)
        items.append(Item("phi1", f"phi1 p={p} (m={m},l-={lm},l+={lp})",
                          lambda x=x, w=want[p]: verify.phi1(x) == w))
    for p in (3, 5):
        for name, x0 in verify.base_point_library(p):
            def run(x0=x0):
                r = A.verify.verify_x0(x0, count=5)
                return r.constant and len(r.samples) >= 5
            items.append(Item("verify_x0", f"verify_x0 p={p} {name}", run))
    for argv in CLI_ARGV:
        items.append(Item("cli", "atlas " + " ".join(argv),
                          lambda argv=argv: _cli_ok(A, argv)))
    return _first_of_each_family(items) if quick else items


# ---------------------------------------------------------------------------
# cayley


def _rand_quat(A, rng, p, traceless=False):
    QuadElt, QuatElt = A.padic.QuadElt, A.padic.QuatElt
    a = 0 if traceless else rng.randint(-9, 9)
    return QuatElt(QuadElt.exact(a, rng.randint(-9, 9), p),
                   QuadElt.exact(rng.randint(-9, 9), rng.randint(-9, 9), p))


def _matrices_equal(m1, m2) -> bool:
    return all((a - b).is_zero() for r1, r2 in zip(m1, m2) for a, b in zip(r1, r2))


def build_cayley(A, seed: int, quick: bool = False):
    """Seeded integral regular semisimple U1RedElt at p = 3, 5; one item per
    element and Cayley chart xi."""
    rng = random.Random(seed)
    orbits, padic = A.orbits, A.padic
    items = []
    for p in (3, 5):
        made = 0
        while made < CAYLEY_ELEMENTS_PER_PRIME:
            x = orbits.U1RedElt(_rand_quat(A, rng, p, True), _rand_quat(A, rng, p))
            if not (x.is_integral() and x.is_rs()):
                continue
            made += 1
            want = A.keating.l_int(x.invariants())
            lie = orbits.U1LieElt(x.alpha, padic.PadicScalar.exact(0, p), x.b,
                                  padic.QuadElt.zero(p)).to_matrix()
            for xi in orbits.XI_CHOICES:
                def run(x=x, xi=xi, want=want, lie=lie):
                    g = A.orbits.cayley(x, xi)
                    if A.keating.int_group(g) != want:
                        return False
                    return _matrices_equal(lie, A.orbits.cayley_inv(g, xi).to_matrix())
                items.append(Item(f"cayley p={p}", f"cayley p={p} x={x!r} xi={xi}", run))
    return _first_of_each_family(items) if quick else items


WORKLOADS = {"oracle": build_oracle, "constancy": build_constancy,
            "cayley": build_cayley}


# ---------------------------------------------------------------------------
# probes


def _probe_point(A):
    return A.orbits.make_bpoint_rs1(0, 1, A.orbits.INF, 3)


def _probe_group(A):
    p = 3
    x = A.orbits.U1RedElt(
        A.padic.QuatElt(A.padic.QuadElt.exact(0, 1, p), A.padic.QuadElt.exact(1, 0, p)),
        A.padic.QuatElt.one(p))
    return A.orbits.cayley(x, (1, 1))


def probes(A) -> dict:
    """One small fixed call per timed layer, keyed by span name.  A traced
    run makes the call only for a layer its workload never reached, so the
    layer's self time is measured rather than a constant zero."""
    return {
        "integrate.iwasawa_orbit_u0": lambda: A.integrate.iwasawa_orbit_u0(
            A.orbits.u0_nilpotent_family_member(1, 3)),
        "integrate.xi_integral": lambda: A.integrate.xi_integral(
            _probe_point(A), window=XI_WINDOW),
        "orbits.make_bpoint_rs1": lambda: _probe_point(A),
        "orbits.cayley": lambda: _probe_group(A),
        "keating.l_int": lambda: A.keating.l_int(_probe_point(A)),
        "keating.int_group": lambda: A.keating.int_group(_probe_group(A)),
        "germs.dorb1": lambda: A.germs.dorb1(A.orbits.BPoint.exact(0, 0, 0, 3),
                                             _probe_point(A)),
        "verify.phi1": lambda: A.verify.phi1(_probe_point(A)),
        "verify.verify_x0": lambda: A.verify.verify_x0(A.orbits.BPoint.exact(0, 1, 0, 3)),
        "cli.main": lambda: _cli_ok(A, ("values", "--what", "nil-u0", "--p", "3")),
    }
