"""Command-line interface: intersection-number tables, orbital-integral
oracles, germ data, invariants of serialized elements, and the full
verification sweeps."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import padic
from .errors import AtlasError, InputError
from .germs import dorb1, gamma_n_mu, phi_closed
from .integrate import (DEFAULT_WINDOW, auto_window, iwasawa_orbit_u0,
                        phi_from_xi)
from .keating import l_int_closed, l_int_keating
from .orbits import (INF, BPoint, case_of, make_bpoint_rs1, orbit_reps,
                     u0_nilpotent_family_member, u0_ss_case0, u0_ss_case1)
from .serialize import decode_element, encode_bpoint
from .values import (forced_s_values, orb_nil_family_s, orb_nil_reg_s,
                     orb_u0_ss_case0, orb_u0_ss_case1, orb_u0_zero)
from .verify import ZERO_L_MAX, ZERO_M_MAX
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
                    row["oracle"] = str(l_int_keating(m, lm, lp, args.p))
                if args.mode in ("closed", "both"):
                    row["closed"] = str(l_int_closed(m, lm, lp, args.p))
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


def _u0_oracle(y, args, out) -> None:
    window = auto_window(y) if args.shell_window is None else args.shell_window
    out["value"] = str(iwasawa_orbit_u0(y, window=window))
    out["method"] = "shell-sum"
    out["shells_used"] = window


def cmd_orb(args) -> int:
    p = args.p
    out = {"p": p, "kind": args.kind}
    if args.kind == "nil-u0":
        mu, = _parse("--params", args.params, Fraction)
        closed = orb_nil_family_s(mu, p)  # the matched side, for reference
        if args.oracle:
            _u0_oracle(u0_nilpotent_family_member(mu, p), args, out)
        else:
            from .values import nil_family_orb_u0_fn, phi_eval
            v = phi_eval(nil_family_orb_u0_fn(p), padic.PadicScalar.exact(mu, p))
            out["value"] = str(v.grade(0))
            out["method"] = "closed"
        out["matched_side_value"] = str(closed)
    elif args.kind == "ss-u0-case0":
        lam0, = _parse("--params", args.params, Fraction)
        if args.oracle:
            _u0_oracle(u0_ss_case0(lam0, p), args, out)
        else:
            out["value"] = str(orb_u0_ss_case0(lam0, p))
            out["method"] = "closed"
    elif args.kind == "ss-u0-case1":
        lam0, u0, wt0 = _parse("--params", args.params, Fraction, Fraction, Fraction)
        if args.oracle:
            _u0_oracle(u0_ss_case1(BPoint.exact(lam0, u0, wt0, p)), args, out)
        else:
            out["value"] = str(orb_u0_ss_case1(lam0, u0, p))
            out["method"] = "closed"
    elif args.kind == "xi":
        m, lm, lp = _parse("--params", args.params, int, int, _parse_lplus)
        x = make_bpoint_rs1(m, lm, lp, p)
        if args.oracle:
            window = DEFAULT_WINDOW if args.shell_window is None else args.shell_window
            out["value"] = str(phi_from_xi(x, window=window))
            out["method"] = "shell-sum"
            out["shells_used"] = window
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
        x0 = BPoint.exact(lam0, u0, wt0, p)
        vals = {}
        for rep in orbit_reps(x0, "s_red"):
            v = forced_s_values(x0, rep)
            vals[rep.tag] = None if v is None else str(v)
        out["case"] = case_of(x0)
        out["values"] = vals
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
    contributions = {}
    from .germs import UNNEEDED, dgamma_table
    for rep in orbit_reps(x0, "s_red"):
        if rep.tag == "n_mu":
            contributions[rep.tag] = "family (see gamma_n_mu)"
            continue
        coeff = dgamma_table(x0, rep, x)
        if coeff is UNNEEDED:
            contributions[rep.tag] = "unneeded"
            continue
        val = forced_s_values(x0, rep)
        contributions[rep.tag] = {
            "dGamma": str(coeff),
            "orb": None if val is None else str(val),
        }
    out["contributions"] = contributions
    d = dorb1(x0, x)
    out["dOrb1"] = {"varying": str(d.varying), "constant": d.const_tag}
    print(json.dumps(out, indent=2))
    return 0


def cmd_invariants(args) -> int:
    with open(args.elem) as fh:
        obj = json.load(fh)
    elt = decode_element(obj)
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
            with open(args.spec) as fh:
                spec = json.load(fh)
            for entry in spec:
                x0 = BPoint.exact(Fraction(entry["lambda"]), Fraction(entry["u"]),
                                  Fraction(entry["wtilde"]), entry["p"])
                reports.append((entry.get("name", repr(x0)), verify_x0(x0)))
        else:
            reports.extend(verify_x0_library(args.p))
    print(render_report(reports, args.format))
    return 0 if all(r.constant for _, r in reports) else 1


def _global_options(**defaults) -> argparse.ArgumentParser:
    """The flags accepted before and after the subcommand.  Only the
    top-level copy carries defaults: argparse copies a subparser's defaults
    over the top-level namespace, so the subparser copies leave unset flags
    out (SUPPRESS) and the value given before the subcommand survives."""
    opts = argparse.ArgumentParser(add_help=False,
                                   argument_default=argparse.SUPPRESS)
    opts.add_argument("--shell-window", type=int,
                      help="shell window of the orb oracles (default: the "
                           "library's, auto_window(y) for the u0 kinds and "
                           f"{DEFAULT_WINDOW} for xi)")
    opts.add_argument("--format", choices=("json", "csv", "text"))
    opts.set_defaults(**defaults)
    return opts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="atlas",
        parents=[_global_options(shell_window=None, format="json")],
        description="exact arithmetic for the rank-three comparison identity")
    sub = ap.add_subparsers(dest="cmd", required=True)
    common = _global_options()

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    sp = add_parser("lint", help="intersection-number tables")
    sp.add_argument("--m", type=int, nargs="+", required=True)
    sp.add_argument("--lminus", type=int, nargs="+", required=True)
    sp.add_argument("--lplus", type=_parse_lplus, nargs="+", required=True)
    sp.add_argument("--p", type=int, required=True)
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--oracle", dest="mode", action="store_const", const="oracle")
    g.add_argument("--closed", dest="mode", action="store_const", const="closed")
    g.add_argument("--both", dest="mode", action="store_const", const="both")
    sp.set_defaults(mode="both", func=cmd_lint)

    sp = add_parser("orb", help="orbital-integral oracles")
    sp.add_argument("--kind", choices=("nil-u0", "ss-u0-case0", "ss-u0-case1", "xi"),
                    required=True)
    sp.add_argument("--params", nargs="+", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--oracle", action="store_true")
    sp.set_defaults(func=cmd_orb)

    sp = add_parser("values", help="closed-form orbital values")
    sp.add_argument("--what", choices=("nil-s", "nil-u0", "ss-u0", "forced-s"),
                    required=True)
    sp.add_argument("--params", nargs="*", default=[])
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(func=cmd_values)

    sp = add_parser("germ", help="germ coefficients and assembly")
    sp.add_argument("--x0", nargs=3, required=True, metavar=("LAM", "U", "WT"))
    sp.add_argument("--x", nargs=3, required=True, metavar=("LAM", "U", "WT"))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--mu", default=None)
    sp.set_defaults(func=cmd_germ)

    sp = add_parser("invariants", help="invariants of a serialized element")
    sp.add_argument("--elem", required=True)
    sp.set_defaults(func=cmd_invariants)

    sp = add_parser("verify", help="constancy verification")
    sp.add_argument("which", choices=("zero", "x0"))
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--m-max", type=int, default=ZERO_M_MAX)
    sp.add_argument("--l-max", type=int, default=ZERO_L_MAX)
    sp.add_argument("--spec", default=None)
    sp.set_defaults(func=cmd_verify)

    args = ap.parse_args(argv)
    try:
        if getattr(args, "p", None) is not None:
            padic._check_odd_prime(args.p)
        return args.func(args)
    except AtlasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
