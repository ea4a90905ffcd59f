import json
import random
import shlex
from fractions import Fraction

import pytest

from atlas import cli
from atlas.cli import main
from atlas.errors import AtlasError, InputError
from atlas.integrate import DEFAULT_WINDOW, auto_window
from atlas.orbits import (BPoint, U0RedElt, U1RedElt, section_sigma,
                          u0_nilpotent_family_member, u0_ss_case0, u0_ss_case1)
from atlas.padic import PadicScalar, QuadElt, QuatElt
from atlas.serialize import (decode_bpoint, decode_element, decode_quat,
                             decode_scalar, encode_bpoint, encode_element,
                             encode_quat, encode_scalar)


# stdout of `atlas orb ... --oracle`, pinned as literals from the
# capped-interval integrator that the exact ball decisions replaced
GOLDEN_ORACLE = {
    'orb --kind nil-u0 --params 1/3 --p 3 --oracle': (
        '{\n'
        '  "p": 3,\n'
        '  "kind": "nil-u0",\n'
        '  "value": "3/2",\n'
        '  "method": "shell-sum",\n'
        '  "shells_used": 8,\n'
        '  "matched_side_value": "1"\n'
        '}\n'
    ),
    'orb --kind xi --params 1 1 3 --p 3 --oracle': (
        '{\n'
        '  "p": 3,\n'
        '  "kind": "xi",\n'
        '  "value": "-9*logq",\n'
        '  "method": "shell-sum",\n'
        '  "shells_used": 30\n'
        '}\n'
    ),
    'orb --kind ss-u0-case0 --params 81 --p 3 --oracle': (
        '{\n'
        '  "p": 3,\n'
        '  "kind": "ss-u0-case0",\n'
        '  "value": "17",\n'
        '  "method": "shell-sum",\n'
        '  "shells_used": 14\n'
        '}\n'
    ),
    'orb --kind ss-u0-case0 --params 81 --p 3 --oracle --shell-window 10': (
        '{\n'
        '  "p": 3,\n'
        '  "kind": "ss-u0-case0",\n'
        '  "value": "17",\n'
        '  "method": "shell-sum",\n'
        '  "shells_used": 10\n'
        '}\n'
    ),
    'orb --kind ss-u0-case1 --params -27 3 9 --p 3 --oracle': (
        '{\n'
        '  "p": 3,\n'
        '  "kind": "ss-u0-case1",\n'
        '  "value": "8",\n'
        '  "method": "shell-sum",\n'
        '  "shells_used": 12\n'
        '}\n'
    ),
    'orb --kind ss-u0-case1 --params -27 3 9 --p 3 --oracle --shell-window 12': (
        '{\n'
        '  "p": 3,\n'
        '  "kind": "ss-u0-case1",\n'
        '  "value": "8",\n'
        '  "method": "shell-sum",\n'
        '  "shells_used": 12\n'
        '}\n'
    ),
    'orb --kind nil-u0 --params 9 --p 5 --oracle': (
        '{\n'
        '  "p": 5,\n'
        '  "kind": "nil-u0",\n'
        '  "value": "25/4",\n'
        '  "method": "shell-sum",\n'
        '  "shells_used": 8,\n'
        '  "matched_side_value": "0"\n'
        '}\n'
    ),
    'orb --kind nil-u0 --params 9 --p 5 --oracle --shell-window 12': (
        '{\n'
        '  "p": 5,\n'
        '  "kind": "nil-u0",\n'
        '  "value": "25/4",\n'
        '  "method": "shell-sum",\n'
        '  "shells_used": 12,\n'
        '  "matched_side_value": "0"\n'
        '}\n'
    ),
}


class TestSerialize:
    def test_scalar_round_trip(self):
        p = 5
        x = PadicScalar.exact(Fraction(-7, 3), p)
        assert decode_scalar(json.loads(json.dumps(encode_scalar(x))), p) == x
        c = PadicScalar.capped(p, -2, 57, 3)
        back = decode_scalar(json.loads(json.dumps(encode_scalar(c))), p)
        assert back.val() == -2 and back.unit_mod(3) == 57

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
        p = 3
        obj = encode_quat(QuatElt.j(p))
        assert decode_quat(obj, p) == QuatElt.j(p)
        obj["eps"] = "1"
        with pytest.raises(InputError):
            decode_quat(obj, p)
        with pytest.raises(InputError):
            decode_scalar(encode_scalar(PadicScalar.capped(5, 0, 2, 4)), p)
        assert issubclass(InputError, AtlasError) and issubclass(InputError, ValueError)

    def test_bpoint_round_trip(self):
        x = BPoint.exact(Fraction(-7, 2), 3, 9, 5)
        assert decode_bpoint(json.loads(json.dumps(encode_bpoint(x)))).lam == x.lam


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

    @pytest.mark.parametrize("bad", ["eps", "prime"])
    def test_invariants_rejects_bad_elements(self, bad, tmp_path, capsys):
        p = 3
        obj = encode_element(U1RedElt(QuatElt.j(p), QuatElt.one(p) + QuatElt.j(p)))
        if bad == "eps":
            # j^2 = 1 is a square mod 3: the split algebra, where 1 + j has
            # reduced norm 0
            obj["alpha"]["eps"] = obj["b"]["eps"] = "1"
        else:
            obj["b"]["x"]["a"] = encode_scalar(PadicScalar.capped(5, 0, 2, 4))
        f = tmp_path / "elem.json"
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

    @pytest.mark.parametrize("where", ["before", "after"])
    def test_global_flags_reach_the_command(self, where, monkeypatch):
        seen = []

        def record(args):
            seen.append((args.shell_window, args.format))
            return 0

        monkeypatch.setattr(cli, "cmd_values", record)
        flags = ["--shell-window", "9", "--format", "csv"]
        command = ["values", "--what", "nil-u0", "--p", "3"]
        argv = flags + command if where == "before" else command + flags
        assert main(argv) == 0
        assert main(command) == 0
        assert seen == [(9, "csv"), (None, "json")]

    @pytest.mark.parametrize("argv", [
        ["germ", "--x0", "0", "0", "0", "--x", "1", "1", "0", "--p", "5"],
        ["values", "--what", "ss-u0", "--params", "0", "--p", "3"],
        ["orb", "--kind", "ss-u0-case0", "--params", "0", "--p", "3"],
        ["orb", "--kind", "ss-u0-case1", "--params", "0", "0", "0", "--p", "3"],
        ["orb", "--kind", "xi", "--params", "1", "1", "3", "--p", "3", "--oracle",
         "--shell-window", "3"],
        ["lint", "--m", "0", "--lminus", "1", "--lplus", "2", "--p", "3"],
        ["values", "--what", "ss-u0", "--p", "3"],
        ["orb", "--kind", "xi", "--params", "1", "--p", "3"],
        ["values", "--what", "nil-s", "--params", "abc", "--p", "3"],
        ["lint", "--m", "0", "--lminus", "1", "--lplus", "3", "--p", "4"],
        ["orb", "--kind", "ss-u0-case0", "--params", "81", "--p", "3", "--oracle",
         "--shell-window", "3"],
        ["orb", "--kind", "ss-u0-case0", "--params", "0", "--p", "3", "--oracle"],
        ["germ", "--x0", "a", "0", "0", "--x", "1", "1", "0", "--p", "5"],
    ], ids=["germ-side0", "values-lam0", "orb-case0-lam0", "orb-case1-u0",
            "xi-small-window", "lint-even-lplus", "values-missing-params",
            "xi-missing-params", "values-unparsed", "lint-even-p",
            "oracle-window-edge", "oracle-case0-lam0", "germ-unparsed"])
    def test_bad_inputs_exit_with_an_error_line(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_shell_window_reaches_every_oracle(self, monkeypatch, capsys):
        windows = []

        def spy(fn):
            def wrapped(elt, window=None):
                windows.append(window)
                return fn(elt, window=window)
            return wrapped

        monkeypatch.setattr(cli, "iwasawa_orbit_u0", spy(cli.iwasawa_orbit_u0))
        monkeypatch.setattr(cli, "phi_from_xi", spy(cli.phi_from_xi))
        p = 3
        kinds = (("nil-u0", ["1/3"],
                  auto_window(u0_nilpotent_family_member(Fraction(1, 3), p))),
                 ("ss-u0-case0", ["3"], auto_window(u0_ss_case0(3, p))),
                 ("ss-u0-case1", ["0", "1", "0"],
                  auto_window(u0_ss_case1(BPoint.exact(0, 1, 0, p)))),
                 ("xi", ["0", "1", "inf"], DEFAULT_WINDOW))
        for kind, params, default in kinds:
            for flag, want in ((["--shell-window", "11"], 11), ([], default)):
                rc = main(["orb", "--kind", kind, "--params", *params, "--p", str(p),
                           "--oracle", *flag])
                assert rc == 0
                data = json.loads(capsys.readouterr().out)
                assert windows[-1] == want and data["shells_used"] == want, kind

    @pytest.mark.parametrize("command", list(GOLDEN_ORACLE))
    def test_golden_oracle_outputs(self, command, capsys):
        assert main(shlex.split(command)) == 0
        assert capsys.readouterr().out == GOLDEN_ORACLE[command]
