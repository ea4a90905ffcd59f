"""JSON encodings for scalars, field and quaternion elements, reduced
elements, and quotient points.  Every scalar is exact, a rational written
{"num": "...", "den": "..."}; a capped scalar neither encodes
(PrecisionError) nor decodes (InputError)."""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .orbits import BPoint, SRedElt, U0RedElt, U1RedElt
from .padic import PadicScalar, QuadElt, QuatElt, smallest_nonresidue


def encode_scalar(s: PadicScalar):
    """The exact form of s; a capped s raises PrecisionError."""
    r = s.rational
    return {"num": str(r.numerator), "den": str(r.denominator)}


def decode_scalar(obj, p: int) -> PadicScalar:
    """The exact scalar of obj; InputError for an object without "num"."""
    if not isinstance(obj, dict) or "num" not in obj:
        raise InputError('a scalar must be exact, {"num": "...", "den": "..."}; '
                         f"got {obj!r}")
    return PadicScalar.exact(Fraction(int(obj["num"]), int(obj["den"])), p)


def encode_quad(z: QuadElt):
    return {"a": encode_scalar(z.a), "b": encode_scalar(z.b)}


def decode_quad(obj, p: int) -> QuadElt:
    return QuadElt(decode_scalar(obj["a"], p), decode_scalar(obj["b"], p))


def encode_quat(z: QuatElt):
    return {"x": encode_quad(z.x), "y": encode_quad(z.y),
            "eps": str(smallest_nonresidue(z.p))}


def decode_quat(obj, p: int) -> QuatElt:
    """Only the package's model j^2 = smallest_nonresidue(p) is accepted: any
    other eps is another presentation, or the split algebra when eps is a
    square."""
    x, y = decode_quad(obj["x"], p), decode_quad(obj["y"], p)
    eps = Fraction(obj["eps"])
    if eps != smallest_nonresidue(p):
        raise InputError(f"quaternion model j^2 = {eps}; at p = {p} the model "
                         f"is j^2 = {smallest_nonresidue(p)}")
    return QuatElt(x, y)


def encode_bpoint(x: BPoint):
    return {"lambda": encode_scalar(x.lam), "u": encode_scalar(x.u),
            "wtilde": encode_scalar(x.wtilde), "p": x.p}


def encode_element(elt):
    if isinstance(elt, SRedElt):
        return {"space": "s_red", "p": elt.p,
                "z": [[encode_scalar(e) for e in row] for row in elt.z]}
    if isinstance(elt, U1RedElt):
        return {"space": "u1_red", "p": elt.p,
                "alpha": encode_quat(elt.alpha), "b": encode_quat(elt.b)}
    if isinstance(elt, U0RedElt):
        return {"space": "u0_red", "p": elt.p,
                "a1": encode_scalar(elt.a1), "a2": encode_scalar(elt.a2),
                "a3": encode_scalar(elt.a3),
                "b1": encode_quad(elt.b1), "b2": encode_quad(elt.b2)}
    raise TypeError(f"cannot encode {type(elt)}")


def decode_element(obj):
    """The element encoded by obj; InputError for an unknown space, a
    missing field or a malformed value."""
    try:
        p = obj["p"]
        space = obj["space"]
        if space == "s_red":
            z = [[decode_scalar(e, p) for e in row] for row in obj["z"]]
            if len(z) != 3 or any(len(row) != 3 for row in z):
                raise InputError("malformed element: s_red z is not 3x3")
            return SRedElt(z)
        if space == "u1_red":
            return U1RedElt(decode_quat(obj["alpha"], p), decode_quat(obj["b"], p))
        if space == "u0_red":
            return U0RedElt(decode_scalar(obj["a1"], p), decode_scalar(obj["a2"], p),
                            decode_scalar(obj["a3"], p),
                            decode_quad(obj["b1"], p), decode_quad(obj["b2"], p))
    except KeyError as exc:
        raise InputError(f"element without field {exc}") from None
    except InputError:
        raise
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed element: {exc}") from None
    raise InputError(f"unknown space {space!r}")
