"""Exception types shared across the package."""


class AtlasError(Exception):
    pass


class InputError(AtlasError, ValueError):
    """Malformed input: p not an odd prime, operands under two primes, a
    serialized scalar not of the form {"num": ..., "den": ...}, a serialized
    quaternion whose j^2 is not smallest_nonresidue(p), a negative precision,
    or an element outside its space (a reduced matrix with tr A or d
    nonzero, an alpha with a trace, a matrix not in Lie coordinates)."""


class PrecisionError(AtlasError):
    """A capped value indistinguishable from zero at its precision, or given
    to an exact-only operation (quaternion product or solve, JSON encoding)."""


class NotRegularSemisimpleError(AtlasError):
    pass


class ExcludedCaseError(AtlasError):
    """The split case F' = F0 x F0, which the comparison routines skip."""


class UnrealizableError(AtlasError):
    pass


class CayleyUndefinedError(AtlasError):
    pass


class StabilizationError(AtlasError):
    """A shell sum that would be truncated: a torus interval open at the end
    the scan starts from, a nonzero guard shell, no t-dependent condition,
    or an xi window short of K-..K+."""


class ConductorError(AtlasError):
    """A predicate could not be decided within the subdivision depth cap:
    the ball center + p^depth Z_p of the integer coordinate tau = t p^-shift
    on the shell v(t) = shift reached the t-depth cap."""

    def __init__(self, cap: int, shift: int, center, depth: int, p: int):
        super().__init__(f"conductor too small: depth cap {cap} reached on the shell "
                         f"v(t) = {shift}, at the tau-ball {center} + {p}^{depth} Z_p")
        self.cap = cap
        self.shift = shift
        self.center = center
        self.depth = depth
        self.p = p


class OracleMismatchError(AtlasError):
    """A closed form disagrees with the independent oracle it is checked
    against."""
