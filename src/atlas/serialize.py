"""JSON encodings for scalars, field and quaternion elements, reduced
elements, and quotient points."""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .orbits import BPoint, SRedElt, U0RedElt, U1RedElt
from .padic import PadicScalar, QuadElt, QuatElt, smallest_nonresidue


def _digits(unit: int, p: int, n: int):
    out = []
    for _ in range(n):
        unit, r = divmod(unit, p)
        out.append(r)
    return out


def _undigits(digits, p: int) -> int:
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


def encode_scalar(s: PadicScalar):
    if s.is_exact:
        r = s.rational
        return {"num": str(r.numerator), "den": str(r.denominator)}
    return {"v": s._v, "digits": _digits(s._unit, s.p, s._n), "p": s.p, "N": s._n}


def decode_scalar(obj, p: int) -> PadicScalar:
    if "num" in obj:
        return PadicScalar.exact(Fraction(int(obj["num"]), int(obj["den"])), p)
    if obj["p"] != p:
        raise InputError(f"prime mismatch: a p = {obj['p']} scalar in a p = {p} object")
    return PadicScalar.capped(p, obj["v"], _undigits(obj["digits"], p), obj["N"])


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


def decode_bpoint(obj) -> BPoint:
    p = obj["p"]
    return BPoint(decode_scalar(obj["lambda"], p), decode_scalar(obj["u"], p),
                  decode_scalar(obj["wtilde"], p))


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
            return SRedElt([[decode_scalar(e, p) for e in row] for row in obj["z"]])
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
