import json
import random
import shlex
from fractions import Fraction

import pytest

from atlas import cli
from atlas.cli import main
from atlas.errors import AtlasError, InputError, PrecisionError
from atlas.orbits import INF, BPoint, U0RedElt, U1RedElt, section_sigma
from atlas.padic import PadicScalar, QuadElt, QuatElt, smallest_nonresidue
from atlas.serialize import (decode_element, decode_quat, decode_scalar,
                             encode_bpoint, encode_element, encode_quat,
                             encode_scalar)
from test_keating import OUTSIDE_THE_DOMAIN
from test_padic import capped


# stdout of `atlas orb ... --oracle`, pinned as literals from the
# capped-interval integrator that the exact ball decisions replaced
GOLDEN_ORACLE = {
    'orb --kind nil-u0 --params 1/3 --p 3 --oracle': (
        '{\n'
        '  "p": 3,\n'
        '  "kind": "nil-u0",\n'
        '  "value": "3/2",\n'
        '  "method": "shell-sum",\n'
        '  "matched_side_value": "1"\n'
        '}\n'
    ),
    'orb --kind xi --params 1 1 3 --p 3 --oracle': (
        '{\n'
        '  "p": 3,\n'
        '  "kind": "xi",\n'
        '  "value": "-9*logq",\n'
        '  "method": "shell-sum"\n'
        '}\n'
    ),
    'orb --kind ss-u0-case0 --params 81 --p 3 --oracle': (
        '{\n'
        '  "p": 3,\n'
        '  "kind": "ss-u0-case0",\n'
        '  "value": "17",\n'
        '  "method": "shell-sum"\n'
        '}\n'
    ),
    'orb --kind ss-u0-case1 --params -27 3 9 --p 3 --oracle': (
        '{\n'
        '  "p": 3,\n'
        '  "kind": "ss-u0-case1",\n'
        '  "value": "8",\n'
        '  "method": "shell-sum"\n'
        '}\n'
    ),
    'orb --kind nil-u0 --params 9 --p 5 --oracle': (
        '{\n'
        '  "p": 5,\n'
        '  "kind": "nil-u0",\n'
        '  "value": "25/4",\n'
        '  "method": "shell-sum",\n'
        '  "matched_side_value": "0"\n'
        '}\n'
    ),
}

EXACT_FORM = '{"num": "...", "den": "..."}'
# argparse's list of the subcommands, which an unknown command is refused with
COMMANDS = "(choose from 'lint', 'orb', 'values', 'germ', 'invariants', 'verify')"


def capped_json(p):
    """2 + O(p^4) in the capped schema {"v", "digits", "p", "N"}, which no
    decoder reads."""
    return {"v": 0, "digits": [2, 0, 0, 0], "p": p, "N": 4}


class TestSerialize:
    def test_scalar_round_trip(self):
        p = 5
        x = PadicScalar.exact(Fraction(-7, 3), p)
        assert decode_scalar(json.loads(json.dumps(encode_scalar(x))), p) == x
        # only the exact form is read and written
        with pytest.raises(InputError) as err:
            decode_scalar({"v": -2, "digits": [2, 1, 2], "p": p, "N": 3}, p)
        assert EXACT_FORM in str(err.value)
        with pytest.raises(PrecisionError):
            encode_scalar(capped(p, -2, 57, 3))

    def test_element_round_trips(self):
        p = 3
        y = section_sigma(BPoint.exact(6, 1, 0, p))
        back = decode_element(json.loads(json.dumps(encode_element(y))))
        assert back.invariants().lam.rational == 6
        x = U1RedElt(QuatElt.j(p), QuatElt.one(p))
        back = decode_element(json.loads(json.dumps(encode_element(x))))
        iv1, iv2 = x.invariants(), back.invariants()
        assert iv1.lam == iv2.lam and iv1.u == iv2.u
        u = U0RedElt.exact(1, 2, 3, QuadElt.exact(1, 1, p), QuadElt.exact(0, 2, p), p)
        back = decode_element(json.loads(json.dumps(encode_element(u))))
        assert back.invariants().lam == u.invariants().lam

    def test_decoders_reject_foreign_models_and_primes(self):
        for p in (3, 5, 7):
            obj = encode_quat(QuatElt.j(p))
            assert obj["eps"] == str(smallest_nonresidue(p))
            assert decode_quat(obj, p) == QuatElt.j(p)
            # a square, and a non-residue other than the model's
            for eps in ("1", str(smallest_nonresidue(p) + p)):
                obj["eps"] = eps
                with pytest.raises(InputError):
                    decode_quat(obj, p)
            q = 5 if p == 3 else 3
            with pytest.raises(InputError, match="a scalar must be exact"):
                decode_scalar(capped_json(q), p)
        assert issubclass(InputError, AtlasError) and issubclass(InputError, ValueError)

    def test_bpoint_round_trip(self):
        # each coordinate is written in the exact form; `--spec` files, the
        # one base-point input, are read by cli._spec_point
        x = BPoint.exact(Fraction(-7, 2), 3, 9, 5)
        obj = json.loads(json.dumps(encode_bpoint(x)))
        assert obj["p"] == 5 and obj["lambda"] == {"num": "-7", "den": "2"}
        assert [decode_scalar(obj[k], 5) for k in ("lambda", "u", "wtilde")] == \
            [x.lam, x.u, x.wtilde]


class TestCli:
    def test_lint(self, capsys):
        rc = main(["lint", "--m", "0", "--lminus", "1", "--lplus", "inf",
                   "--p", "3", "--both"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["oracle"] == "4" and data[0]["closed"] == "4"

    def test_verify_zero(self, capsys):
        rc = main(["verify", "zero", "--p", "3", "--m-max", "1", "--l-max", "3",
                   "--format", "text"])
        assert rc == 0
        assert "constant" in capsys.readouterr().out

    def test_orb_xi(self, capsys):
        rc = main(["orb", "--kind", "xi", "--params", "0", "1", "inf",
                   "--p", "3", "--oracle"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == "-6*logq"

    @pytest.mark.parametrize("flags", [[], ["--oracle"]], ids=["closed", "oracle"])
    def test_orb_xi_at_l_minus_zero(self, flags, capsys):
        # (0, 0, inf) is the stratum v(Delta) = 2m that lint also accepts
        assert main(["orb", "--kind", "xi", "--params", "0", "0", "inf",
                     "--p", "3", *flags]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "-9/2*logq"

    def test_orb_nil(self, capsys):
        rc = main(["orb", "--kind", "nil-u0", "--params", "1/3", "--p", "3",
                   "--oracle"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == "3/2"

    def test_values_forced(self, capsys):
        rc = main(["values", "--what", "forced-s", "--params", "1", "0", "0",
                   "--p", "3"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["case"] == "0i"
        assert data["values"]["y_plus"] == "1/2"

    def test_values_forced_split_is_excluded(self, capsys):
        # a split plan holds no forced value; the command refuses the case
        rc = main(["values", "--what", "forced-s", "--params", "-4", "0", "0",
                   "--p", "5"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: excluded split case")

    def test_germ(self, capsys):
        rc = main(["germ", "--x0", "0", "0", "0", "--x", "6", "1", "0",
                   "--p", "3", "--mu", "2"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert "dOrb1" in data

    def test_invariants(self, tmp_path, capsys):
        p = 3
        y = section_sigma(BPoint.exact(6, 1, 0, p))
        f = tmp_path / "elem.json"
        f.write_text(json.dumps(encode_element(y)))
        rc = main(["invariants", "--elem", str(f)])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rs"] is True and data["side"] == 1

    def test_invariants_of_a_capped_element(self, tmp_path, capsys):
        # a capped coordinate: the error names the exact form
        p = 3
        alpha = QuatElt(QuadElt.exact(0, 1, p), QuadElt.exact(1, 0, p))
        obj = encode_element(U1RedElt(alpha, QuatElt.one(p)))
        obj["b"]["x"]["a"] = {"v": 0, "digits": [2, 0, 2, 2, 1, 0, 2, 2], "p": p, "N": 8}
        f = tmp_path / "elem.json"
        f.write_text(json.dumps(obj))
        assert main(["invariants", "--elem", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: a scalar must be exact, " + EXACT_FORM)

    @pytest.mark.parametrize("bad", ["eps", "prime", "space", "field", "json",
                                     "missing", "trace", "corner", "traceless"])
    def test_invariants_rejects_bad_elements(self, bad, tmp_path, capsys):
        # the last four ended in a ValueError, KeyError, JSONDecodeError and
        # FileNotFoundError traceback
        p = 3
        obj = encode_element(U1RedElt(QuatElt.j(p), QuatElt.one(p) + QuatElt.j(p)))
        if bad == "eps":
            # j^2 = 1 is a square mod 3: the split algebra, where 1 + j has
            # reduced norm 0
            obj["alpha"]["eps"] = obj["b"]["eps"] = "1"
        elif bad == "prime":
            obj["b"]["x"]["a"] = capped_json(5)
        elif bad == "space":
            obj = {"space": "u9_red", "p": 3}
        elif bad == "field":
            obj = {"space": "s_red", "p": 3}
        elif bad in ("trace", "corner"):
            # tr A != 0, or a nonzero lower-right entry d
            k = 0 if bad == "trace" else 2
            obj = {"space": "s_red", "p": p,
                   "z": [[encode_scalar(PadicScalar.exact(int(i == j == k), p))
                          for j in range(3)] for i in range(3)]}
        elif bad == "traceless":
            obj["alpha"] = encode_quat(QuatElt.one(p))
        f = tmp_path / "elem.json"
        if bad == "json":
            f.write_text("{not json")
        elif bad != "missing":
            f.write_text(json.dumps(obj))
        assert main(["invariants", "--elem", str(f)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_atlas_seed_leaves_random_alone(self, monkeypatch, capsys):
        monkeypatch.setenv("ATLAS_SEED", "5")
        state = random.getstate()
        assert main(["lint", "--m", "0", "--lminus", "1", "--lplus", "inf",
                     "--p", "3"]) == 0
        assert random.getstate() == state

    def test_verify_x0_spec_file(self, tmp_path, capsys):
        f = tmp_path / "x0.json"
        f.write_text(json.dumps([
            {"name": "case1", "lambda": "0", "u": "1", "wtilde": "0", "p": 3},
        ]))
        rc = main(["verify", "x0", "--spec", str(f), "--format", "text"])
        assert rc == 0
        assert "constant" in capsys.readouterr().out

    def test_verify_x0_spec_takes_irrational_0ii_roots(self, tmp_path, capsys):
        # -lam0/p = 7, 6, 11 is a square in Q_p but not in Q; these ended in
        # "error: library base points need exact square roots" and exit 2
        f = tmp_path / "x0.json"
        f.write_text(json.dumps([
            {"lambda": lam0, "u": "0", "wtilde": "0", "p": p}
            for lam0, p in (("-21", 3), ("-30", 5), ("-77", 7))]))
        assert main(["verify", "x0", "--spec", str(f), "--format", "json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["case"] for r in reports.values()] == ["0ii"] * 3
        assert all(r["constant"] for r in reports.values())

    @pytest.mark.parametrize("lam0, p", [("-1", "3"), ("-4", "5")])
    def test_split_case0_is_excluded_by_both_methods(self, lam0, p, capsys):
        # the oracle summed the split orbit to the window's edge and raised
        # StabilizationError, while the closed form excluded the case
        errs = []
        for method in ([], ["--oracle"]):
            argv = ["orb", "--kind", "ss-u0-case0", "--params", lam0, "--p", p]
            assert main(argv + method) == 2
            errs.append(capsys.readouterr().err)
        assert errs == ["error: excluded case: -lam0 is a square\n"] * 2

    @pytest.mark.parametrize("argv, error", [
        ("orb --kind ss-u0-case1 --params 1 1 0 --p 3 --oracle",
         "not a degenerate base point: Delta = 1, not 0"),
        ("orb --kind ss-u0-case1 --params 9 1 0 --p 3",
         "not a degenerate base point: Delta = 9, not 0"),
        ("orb --kind ss-u0-case1 --params 0 1 1 --p 3",
         "not a degenerate base point: Delta = 3, not 0"),
        ("values --what ss-u0 --params 9 1 --p 3",
         "-lam0/p = -3 is not a square: no wt0 makes Delta 0"),
    ], ids=["orb-oracle-delta-1", "orb-closed-delta-9", "orb-closed-delta-3",
            "values-odd-valuation"])
    def test_case1_values_refuse_non_degenerate_points(self, argv, error, capsys):
        # each printed the value 2 for a point whose Delta is not 0
        assert main(shlex.split(argv)) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("method", ["", " --oracle"], ids=["closed", "oracle"])
    def test_case1_point_is_checked_once_per_command(self, method, monkeypatch,
                                                     capsys):
        # with --oracle, cmd_orb checked the point and u0_ss_case1 again
        from atlas import orbits
        check = orbits.check_case1_point
        calls = []

        def counted(x0):
            calls.append(x0)
            return check(x0)

        monkeypatch.setattr(orbits, "check_case1_point", counted)
        monkeypatch.setattr(cli, "check_case1_point", counted)
        assert main(shlex.split("orb --kind ss-u0-case1 --params -27 3 9 --p 3"
                                + method)) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "8"
        assert len(calls) == 1

    @pytest.mark.parametrize("argv, value", [
        ("values --what ss-u0 --p 3 --params -1/3 1", "0"),
        ("orb --kind ss-u0-case1 --params -1/3 1 1/3 --p 3 --oracle", "0"),
        ("values --what ss-u0 --p 3 --params -27 3 9", "8"),
    ], ids=["values-fraction", "oracle-fraction", "values-integer"])
    def test_params_take_negative_numbers(self, argv, value, capsys):
        # argparse read -1/3 as an option and exited 2; -27 always worked
        assert main(shlex.split(argv)) == 0
        assert json.loads(capsys.readouterr().out)["value"] == value

    @pytest.mark.parametrize("argv", [
        "orb --kind ss-u0-case0 --params 1/9 --p 3",
        "orb --kind ss-u0-case1 --params 0 1/3 0 --p 3",
    ], ids=["case0-lam0", "case1-u0"])
    def test_oracle_is_zero_where_the_orbit_misses_the_lattice(self, argv, capsys):
        # v(lam0) < 0 or v(u0) < 0: with --oracle both exited 2 with "no
        # stabilization in the torus coordinate", where the closed method
        # prints 0
        for method in (" --oracle", ""):
            assert main(shlex.split(argv + method)) == 0
            assert json.loads(capsys.readouterr().out)["value"] == "0"

    @pytest.mark.parametrize("entry", [
        {"lambda": "0", "u": "1", "p": 3},
        {"lambda": "x", "u": "1", "wtilde": "0", "p": 3},
        {"lambda": "0", "u": "1", "wtilde": "0", "p": 3.0},
        {"lambda": "0", "u": "0", "wtilde": "0", "p": 3},
    ], ids=["no-wtilde", "bad-lambda", "float-p", "zero-base-point"])
    def test_verify_x0_rejects_bad_spec_entries(self, entry, tmp_path, capsys):
        # each ended in a traceback and exit 1, the status of a VARIES verdict
        f = tmp_path / "x0.json"
        f.write_text(json.dumps([entry]))
        assert main(["verify", "x0", "--spec", str(f)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("z", [[[{"num": "1", "den": "1"}]], []],
                             ids=["one-entry", "empty"])
    def test_invariants_refuse_an_s_red_z_not_3x3(self, z, tmp_path, capsys):
        # each ended in an IndexError traceback and exit 1
        f = tmp_path / "elem.json"
        f.write_text(json.dumps({"space": "s_red", "p": 3, "z": z}))
        assert main(["invariants", "--elem", str(f)]) == 2
        assert capsys.readouterr().err == "error: malformed element: s_red z is not 3x3\n"

    def test_format_reaches_lint_and_verify(self, monkeypatch):
        seen = []

        def record(args):
            seen.append((args.cmd, args.format))
            return 0

        monkeypatch.setattr(cli, "cmd_lint", record)
        monkeypatch.setattr(cli, "cmd_verify", record)
        lint = ["lint", "--m", "0", "--lminus", "1", "--lplus", "inf", "--p", "3"]
        for argv in (lint + ["--format", "csv"], lint,
                     ["verify", "zero", "--format", "text"], ["verify", "x0"]):
            assert main(argv) == 0
        assert seen == [("lint", "csv"), ("lint", "json"),
                        ("verify", "text"), ("verify", "json")]

    @pytest.mark.parametrize("argv, refusal", [
        (["values", "--what", "nil-u0", "--p", "3", "--oracle"],
         "atlas: error: unrecognized arguments: --oracle"),
        (["values", "--what", "nil-u0", "--p", "3", "--format", "csv"],
         "atlas: error: unrecognized arguments: --format csv"),
        (["germ", "--x0", "0", "0", "0", "--x", "6", "1", "0", "--p", "3",
          "--format", "csv"],
         "atlas: error: unrecognized arguments: --format csv"),
        # a flag before the subcommand: the top level reads its value as the
        # command
        (["--format", "csv", "verify", "zero"],
         "atlas: error: argument cmd: invalid choice: 'csv' " + COMMANDS),
        (["--p", "3", "orb", "--kind", "nil-u0", "--params", "1"],
         "atlas: error: argument cmd: invalid choice: '3' " + COMMANDS),
        (["lint", "--m", "0", "--lminus", "1", "--lplus", "inf", "--p", "3",
          "--format", "text"],
         "atlas lint: error: argument --format: invalid choice: 'text' "
         "(choose from 'json', 'csv')"),
        # the oracles sum their exact supports: orb has no window to set
        (["orb", "--kind", "xi", "--params", "0", "31", "inf", "--p", "3", "--oracle",
          "--shell-window", "29"],
         "atlas: error: unrecognized arguments: --shell-window 29"),
        (["orb", "--kind", "ss-u0-case0", "--params", "81", "--p", "3", "--oracle",
          "--shell-window", "3"],
         "atlas: error: unrecognized arguments: --shell-window 3"),
        (["orb", "--kind", "ss-u0-case0", "--params", "81", "--p", "3", "--oracle",
          "--shell-window", "-2"],
         "atlas: error: unrecognized arguments: --shell-window -2"),
    ], ids=["values-oracle", "values-format", "germ-format", "format-first",
            "p-first", "lint-text", "xi-small-window", "oracle-window-edge",
            "oracle-negative-window"])
    def test_flags_a_command_does_not_read_exit_2(self, argv, refusal, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: atlas")
        assert err.splitlines()[-1] == refusal

    @pytest.mark.parametrize("argv", [
        ["germ", "--x0", "0", "0", "0", "--x", "1", "1", "0", "--p", "5"],
        ["values", "--what", "ss-u0", "--params", "0", "--p", "3"],
        ["orb", "--kind", "ss-u0-case0", "--params", "0", "--p", "3"],
        ["orb", "--kind", "ss-u0-case1", "--params", "0", "0", "0", "--p", "3"],
        ["lint", "--m", "0", "--lminus", "1", "--lplus", "2", "--p", "3"],
        ["values", "--what", "ss-u0", "--p", "3"],
        ["orb", "--kind", "xi", "--params", "1", "--p", "3"],
        ["values", "--what", "nil-s", "--params", "abc", "--p", "3"],
        ["lint", "--m", "0", "--lminus", "1", "--lplus", "3", "--p", "4"],
        ["orb", "--kind", "ss-u0-case0", "--params", "0", "--p", "3", "--oracle"],
        ["germ", "--x0", "a", "0", "0", "--x", "1", "1", "0", "--p", "5"],
        ["lint", "--m", "-2", "--lminus", "1", "--lplus", "inf", "--p", "3"],
        ["lint", "--m", "1", "--lminus", "-1", "--lplus", "inf", "--p", "3", "--closed"],
        ["lint", "--m", "1", "--lminus", "3", "--lplus", "-1", "--p", "3", "--closed"],
        ["verify", "zero", "--p", "3", "--m-max", "-1"],
        ["verify", "zero", "--p", "3", "--l-max", "-1"],
        ["germ", "--x0", "0", "0", "0", "--x", "0", "1", "0", "--p", "3"],
    ], ids=["germ-side0", "values-lam0", "orb-case0-lam0", "orb-case1-u0",
            "lint-even-lplus", "values-missing-params", "xi-missing-params",
            "values-unparsed", "lint-even-p", "oracle-case0-lam0", "germ-unparsed",
            "lint-negative-m", "lint-closed-negative-lminus",
            "lint-closed-negative-lplus", "verify-zero-empty-m",
            "verify-zero-empty-l", "germ-delta-zero"])
    def test_bad_inputs_exit_with_an_error_line(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("ml, message", OUTSIDE_THE_DOMAIN,
                             ids=["negative-m", "negative-lminus", "even-lplus"])
    def test_lint_and_orb_xi_refuse_a_triple_alike(self, ml, message, capsys):
        params = ["inf" if v is INF else str(v) for v in ml]
        m, lm, lp = params
        xi = ["orb", "--kind", "xi", "--params", *params, "--p", "3"]
        for argv in (["lint", "--m", m, "--lminus", lm, "--lplus", lp, "--p", "3"],
                     xi, xi + ["--oracle"]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_lint_both_cross_checks(self, monkeypatch, capsys):
        argv = ["lint", "--m", "1", "--lminus", "1", "--lplus", "3", "--p", "5"]
        monkeypatch.setattr(cli, "l_int_keating", lambda *args: Fraction(-1))
        assert main(["lint", "--closed", *argv[1:]]) == 0
        assert main(["lint", "--oracle", *argv[1:]]) == 0
        capsys.readouterr()
        for mode in (["--both"], []):
            assert main([*argv, *mode]) == 2
            assert capsys.readouterr().err.startswith(
                "error: l_int closed form 8 != level-sum oracle -1 ")

    def test_the_xi_oracle_sums_a_deep_support(self, capsys):
        # K+ = 30 on this point: the default window holds it, and the value
        # is the closed form's
        argv = ["orb", "--kind", "xi", "--params", "0", "31", "inf", "--p", "3"]
        for flag, tail in ((["--oracle"], '"shell-sum"\n'), ([], '"closed"\n')):
            assert main([*argv, *flag]) == 0
            assert capsys.readouterr().out == (
                '{\n  "p": 3,\n  "kind": "xi",\n  "value": "-51*logq",\n'
                '  "method": ' + tail + '}\n')

    @pytest.mark.parametrize("command", list(GOLDEN_ORACLE))
    def test_golden_oracle_outputs(self, command, capsys):
        assert main(shlex.split(command)) == 0
        assert capsys.readouterr().out == GOLDEN_ORACLE[command]
