"""Per-operation timings on fixed operands: the p-adic scalar, quadratic and
quaternion kernels, and one 3x3 quaternion solve as the Cayley transform
makes it.  Capped operands carry padic.DEFAULT_PRECISION digits."""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

P = 5
SOLVE = "orbits.quat_mat_solve_us"
# seconds -> the metric's unit
SCALE = {name: 1e9 for name in (
    "padic.exact_add_ns", "padic.exact_mul_ns", "padic.exact_inv_ns",
    "padic.capped_add_ns", "padic.capped_mul_ns", "padic.capped_inv_ns",
    "padic.quad_mul_ns", "padic.quat_mul_ns")}
SCALE[SOLVE] = 1e6


def ops(A) -> dict:
    """Zero-argument operations keyed by metric name."""
    padic, orbits = A.padic, A.orbits
    PadicScalar, QuadElt, QuatElt = padic.PadicScalar, padic.QuadElt, padic.QuatElt
    a = PadicScalar.exact(Fraction(7, 45), P)
    b = PadicScalar.exact(Fraction(-22, 3), P)
    ca = a.to_capped(padic.DEFAULT_PRECISION)
    cb = b.to_capped(padic.DEFAULT_PRECISION)
    # the integrator's pattern: a capped ball point times an exact entry
    qa = QuadElt(ca, cb)
    qb = QuadElt.exact(3, Fraction(-2, 7), P)
    xa = QuatElt(QuadElt.exact(1, 2, P), QuadElt.exact(-3, 4, P))
    xb = QuatElt(QuadElt.exact(Fraction(5, 2), -1, P), QuadElt.exact(2, 7, P))
    # the linear solve (1 - x) Z = (1 + x) of one Cayley transform
    x = orbits.U1LieElt(QuatElt(QuadElt.exact(0, 2, P), QuadElt.exact(1, -3, P)),
                        PadicScalar.exact(4, P),
                        QuatElt(QuadElt.exact(2, 1, P), QuadElt.exact(-1, 5, P)),
                        QuadElt.exact(0, 3, P))
    M = x.to_matrix()
    eye = orbits.quat_identity(P)
    lhs, rhs = orbits.mat_sub(eye, M), orbits.mat_add(eye, M)
    return {
        "padic.exact_add_ns": lambda: a + b,
        "padic.exact_mul_ns": lambda: a * b,
        "padic.exact_inv_ns": a.inv,
        "padic.capped_add_ns": lambda: ca + cb,
        "padic.capped_mul_ns": lambda: ca * cb,
        "padic.capped_inv_ns": ca.inv,
        "padic.quad_mul_ns": lambda: qa * qb,
        "padic.quat_mul_ns": lambda: xa * xb,
        SOLVE: lambda: orbits.quat_mat_solve(lhs, rhs),
    }


def per_call_s(fn, quick: bool = False) -> float:
    """Median over timed blocks of the seconds per call, with the calls per
    block calibrated so that one block lasts about block_s."""
    block_s, blocks = (0.002, 3) if quick else (0.02, 9)
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        dt = time.perf_counter() - t0
        if dt >= block_s / 4:
            break
        n *= 4
    n = max(1, int(n * block_s / dt))
    per_call = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        per_call.append((time.perf_counter() - t0) / n)
    return statistics.median(per_call)
