"""Command-line interface: intersection-number tables, orbital-integral
oracles, germ data, invariants of serialized elements, and the full
verification sweeps."""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import padic
from .errors import AtlasError, InputError
from .germs import UNNEEDED, BasePointPlan, dorb1, gamma_n_mu, phi_closed
from .integrate import iwasawa_orbit_u0, phi_from_xi
from .keating import check_closed_form, l_int_closed, l_int_keating
from .orbits import (INF, BPoint, check_case1_point, make_bpoint_rs1,
                     u0_nilpotent_family_member, u0_ss_case0, u0_ss_case1)
from .serialize import decode_element, encode_bpoint
from .values import (nil_family_orb_u0_fn, orb_nil_family_s, orb_nil_reg_s,
                     orb_u0_ss_case0, orb_u0_ss_case1, orb_u0_zero, phi_eval)
from .verify import DEFAULT_FORMAT, REPORT_FORMATS, ZERO_L_MAX, ZERO_M_MAX
from .verify import report as render_report
from .verify import verify_x0, verify_zero, verify_x0_library


def _parse_lplus(s: str):
    if s in ("inf", "infinity", "oo"):
        return INF
    return int(s)


def _parse(flag: str, strings, *parsers):
    """One value per parser from the strings given to flag; InputError when
    fewer are given or one does not parse."""
    if len(strings) < len(parsers):
        raise InputError(f"{flag}: {len(parsers)} expected, {len(strings)} given")
    try:
        return [parse(s) for parse, s in zip(parsers, strings)]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad {flag} value: {exc}") from None


def cmd_lint(args) -> int:
    rows = []
    for m in args.m:
        for lm in args.lminus:
            for lp in args.lplus:
                row = {"m": m, "lminus": lm,
                       "lplus": "inf" if lp is INF else lp, "p": args.p}
                if args.mode in ("oracle", "both"):
                    oracle = l_int_keating(m, lm, lp, args.p)
                    row["oracle"] = str(oracle)
                if args.mode in ("closed", "both"):
                    closed = l_int_closed(m, lm, lp, args.p)
                    row["closed"] = str(closed)
                if args.mode == "both":
                    check_closed_form(closed, oracle, m, lm, lp, args.p)
                row["value"] = row.get("closed", row.get("oracle"))
                row["method"] = args.mode
                rows.append(row)
    if args.format == "csv":
        cols = ["m", "lminus", "lplus", "p", "value", "method"]
        print(",".join(cols))
        for r in rows:
            print(",".join(str(r[c]) for c in cols))
    else:
        print(json.dumps(rows, indent=2))
    return 0


def _u0_oracle(y) -> dict:
    return {"value": str(iwasawa_orbit_u0(y)), "method": "shell-sum"}


def cmd_orb(args) -> int:
    p = args.p
    out = {"p": p, "kind": args.kind}
    if args.kind == "nil-u0":
        mu, = _parse("--params", args.params, Fraction)
        closed = orb_nil_family_s(mu, p)  # the matched side, for reference
        if args.oracle:
            out |= _u0_oracle(u0_nilpotent_family_member(mu, p))
        else:
            v = phi_eval(nil_family_orb_u0_fn(p), padic.PadicScalar.exact(mu, p))
            out["value"] = str(v.grade(0))
            out["method"] = "closed"
        out["matched_side_value"] = str(closed)
    elif args.kind == "ss-u0-case0":
        lam0, = _parse("--params", args.params, Fraction)
        if args.oracle:
            out |= _u0_oracle(u0_ss_case0(lam0, p))
        else:
            out["value"] = str(orb_u0_ss_case0(lam0, p))
            out["method"] = "closed"
    elif args.kind == "ss-u0-case1":
        lam0, u0, wt0 = _parse("--params", args.params, Fraction, Fraction, Fraction)
        x0 = BPoint.exact(lam0, u0, wt0, p)
        if args.oracle:     # u0_ss_case1 checks the point
            out |= _u0_oracle(u0_ss_case1(x0))
        else:
            check_case1_point(x0)
            out["value"] = str(orb_u0_ss_case1(lam0, u0, p))
            out["method"] = "closed"
    elif args.kind == "xi":
        m, lm, lp = _parse("--params", args.params, int, int, _parse_lplus)
        x = make_bpoint_rs1(m, lm, lp, p)
        if args.oracle:
            out["value"] = str(phi_from_xi(x))
            out["method"] = "shell-sum"
        else:
            out["value"] = str(phi_closed(x))
            out["method"] = "closed"
    else:
        raise AtlasError(f"unknown kind {args.kind}")
    print(json.dumps(out, indent=2))
    return 0


def cmd_values(args) -> int:
    p = args.p
    out = {"p": p, "what": args.what}
    if args.what == "nil-s":
        mu, = _parse("--params", args.params, Fraction)
        out["n(mu)"] = str(orb_nil_family_s(mu, p))
        out["n0_plus"] = str(orb_nil_reg_s("plus", p))
        out["n0_minus"] = str(orb_nil_reg_s("minus", p))
    elif args.what == "nil-u0":
        out["zero_orbit"] = str(orb_u0_zero(p))
    elif args.what == "ss-u0":
        if len(args.params) > 1:
            lam0, u0 = _parse("--params", args.params, Fraction, Fraction)
            out["value"] = str(orb_u0_ss_case1(lam0, u0, p))
        else:
            lam0, = _parse("--params", args.params, Fraction)
            out["value"] = str(orb_u0_ss_case0(lam0, p))
    elif args.what == "forced-s":
        lam0, u0, wt0 = _parse("--params", args.params, Fraction, Fraction, Fraction)
        plan = BasePointPlan(BPoint.exact(lam0, u0, wt0, p))
        out["case"] = plan.usable_case()
        out["values"] = {tag: None if v is None else str(v)
                         for tag, v in plan.forced.items()}
    else:
        raise AtlasError(f"unknown value family {args.what}")
    print(json.dumps(out, indent=2))
    return 0


def cmd_germ(args) -> int:
    p = args.p
    x0 = BPoint.exact(*_parse("--x0", args.x0, Fraction, Fraction, Fraction), p)
    x = BPoint.exact(*_parse("--x", args.x, Fraction, Fraction, Fraction), p)
    out = {"p": p, "x0": encode_bpoint(x0), "x": encode_bpoint(x)}
    if args.mu is not None:
        mu, = _parse("--mu", [args.mu], Fraction)
        g = gamma_n_mu(x, mu)
        out["gamma_n_mu"] = {"value_at_0": str(g.value_at_0),
                             "ds": str(g.dvalue),
                             "s_form": repr(g.s_form)}
    d = dorb1(x0, x)
    contributions = {}
    for tag, coeff, val in d.terms:
        if coeff is None:
            contributions[tag] = "family (see gamma_n_mu)"
        elif coeff is UNNEEDED:
            contributions[tag] = "unneeded"
        else:
            contributions[tag] = {"dGamma": str(coeff),
                                  "orb": None if val is None else str(val)}
    out["contributions"] = contributions
    out["dOrb1"] = {"varying": str(d.varying), "constant": d.const_tag}
    print(json.dumps(out, indent=2))
    return 0


def _load_json(path: str):
    """The JSON document in the file at path; InputError when the file
    cannot be read or does not hold JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise InputError(f"{path} is not JSON: {exc}") from None


def _spec_point(entry) -> BPoint:
    """The base point of one --spec entry, a JSON object with the fields
    lambda, u, wtilde (rationals as strings) and p."""
    try:
        return BPoint.exact(*(Fraction(entry[key]) for key in ("lambda", "u", "wtilde")),
                            entry["p"])
    except KeyError as exc:
        raise InputError(f"--spec entry without {exc}") from None
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad --spec entry: {exc}") from None


def cmd_invariants(args) -> int:
    elt = decode_element(_load_json(args.elem))
    x = elt.invariants()
    out = {"invariants": encode_bpoint(x), "rs": x.is_rs()}
    if x.is_rs():
        out["side"] = x.side()
    print(json.dumps(out, indent=2))
    return 0


def cmd_verify(args) -> int:
    reports = []
    if args.which == "zero":
        reports.append((f"zero p={args.p}",
                        verify_zero(args.p, args.m_max, args.l_max)))
    else:
        if args.spec:
            spec = _load_json(args.spec)
            if not isinstance(spec, list):
                raise InputError(f"{args.spec}: a list of base points expected")
            for entry in spec:
                x0 = _spec_point(entry)
                reports.append((entry.get("name", repr(x0)), verify_x0(x0)))
        else:
            reports.extend(verify_x0_library(args.p))
    print(render_report(reports, args.format))
    return 0 if all(r.constant for _, r in reports) else 1


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="atlas",
        description="exact arithmetic for the rank-three comparison identity")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("lint", help="intersection-number tables")
    sp.add_argument("--m", type=int, nargs="+", required=True)
    sp.add_argument("--lminus", type=int, nargs="+", required=True)
    sp.add_argument("--lplus", type=_parse_lplus, nargs="+", required=True)
    sp.add_argument("--p", type=int, required=True)
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--oracle", dest="mode", action="store_const", const="oracle")
    g.add_argument("--closed", dest="mode", action="store_const", const="closed")
    g.add_argument("--both", dest="mode", action="store_const", const="both")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(mode="both", func=cmd_lint)

    sp = sub.add_parser("orb", help="orbital-integral oracles")
    sp.add_argument("--kind", choices=("nil-u0", "ss-u0-case0", "ss-u0-case1", "xi"),
                    required=True)
    sp.add_argument("--params", nargs="+", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--oracle", action="store_true")
    sp.set_defaults(func=cmd_orb)

    sp = sub.add_parser("values", help="closed-form orbital values")
    sp.add_argument("--what", choices=("nil-s", "nil-u0", "ss-u0", "forced-s"),
                    required=True)
    sp.add_argument("--params", nargs="*", default=[])
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(func=cmd_values)

    sp = sub.add_parser("germ", help="germ coefficients and assembly")
    sp.add_argument("--x0", nargs=3, required=True, metavar=("LAM", "U", "WT"))
    sp.add_argument("--x", nargs=3, required=True, metavar=("LAM", "U", "WT"))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--mu", default=None)
    sp.set_defaults(func=cmd_germ)

    sp = sub.add_parser("invariants", help="invariants of a serialized element")
    sp.add_argument("--elem", required=True)
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("verify", help="constancy verification")
    sp.add_argument("which", choices=("zero", "x0"))
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--m-max", type=int, default=ZERO_M_MAX)
    sp.add_argument("--l-max", type=int, default=ZERO_L_MAX)
    sp.add_argument("--spec", default=None)
    sp.add_argument("--format", choices=REPORT_FORMATS, default=DEFAULT_FORMAT)
    sp.set_defaults(func=cmd_verify)
    for parser in (ap, *sub.choices.values()):   # -a/b is a value, like -27
        parser._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
    return ap


def main(argv=None) -> int:
    # no reference to the parser outlives parse_args: its reference cycles
    # are garbage before the command runs and go in a young collection
    # instead of being promoted with the command's data
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "p", None) is not None:
            padic._check_odd_prime(args.p)
        return args.func(args)
    except AtlasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
