"""The README's CLI section stays runnable: every example exits 0, the
ones that read an input file run next to a valid elem.json and
basepoints.json, and every flag the section names is one the parser
accepts.  Every name the Layout table documents exists.  Every test runs
under the conftest guard `forbid_capped`."""

import importlib
import json
import re
import shlex
from pathlib import Path

import pytest

from atlas.cli import main
from atlas.orbits import U1RedElt
from atlas.padic import QuatElt
from atlas.serialize import encode_element

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
CLI_SECTION = re.search(r"## CLI\n(.*?)\n## ", README, re.S).group(1)
CLI_BLOCK = re.search(r"```sh\n(.*?)```", CLI_SECTION, re.S).group(1)
EXAMPLES = [shlex.split(line)[1:] for line in CLI_BLOCK.splitlines()]
SUBCOMMANDS = ("lint", "orb", "values", "germ", "invariants", "verify")

LAYOUT = re.search(r"## Layout\n(.*?)\n## ", README, re.S).group(1)
# a backticked identifier, dotted or called: `dorb1`, `padic.cayley_solve`,
# `orbit_reps(case)`; other spans (a tuple, `atlas germ`) are not names
IDENT = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")
LAYOUT_ROWS = re.findall(r"^\| `(atlas\.\w+)` \| (.*) \|$", LAYOUT, re.M)
LAYOUT_NAMES = list(dict.fromkeys(
    (module, m.group(1))
    for module, contents in LAYOUT_ROWS
    for span in re.findall(r"`([^`]+)`", contents)
    if (m := IDENT.fullmatch(span)) and span != "atlas"))   # the command

pytestmark = pytest.mark.usefixtures("forbid_capped")


@pytest.mark.parametrize("argv", EXAMPLES, ids=[" ".join(a[:3]) for a in EXAMPLES])
def test_example_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    p = 3
    elt = U1RedElt(QuatElt.j(p), QuatElt.one(p) + QuatElt.j(p))
    (tmp_path / "elem.json").write_text(json.dumps(encode_element(elt)))
    (tmp_path / "basepoints.json").write_text(json.dumps(
        [{"name": "case1", "lambda": "0", "u": "1", "wtilde": "0", "p": p}]))
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_every_named_flag_exists(capsys):
    accepted = set()
    for argv in ([], *([sub] for sub in SUBCOMMANDS)):
        with pytest.raises(SystemExit):
            main(argv + ["--help"])
        accepted |= set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    named = set(re.findall(r"--[a-z][a-z-]*", CLI_SECTION))
    assert named - accepted == set()


def test_every_layout_row_is_read():
    assert len(LAYOUT_ROWS) == len(re.findall(r"^\| `atlas\.", LAYOUT, re.M)) >= 10


@pytest.mark.parametrize("module, name", LAYOUT_NAMES,
                         ids=[f"{m}:{n}" for m, n in LAYOUT_NAMES])
def test_layout_names_resolve(module, name):
    # a dotted name starts in the row's module or names a sibling module
    head, *rest = name.split(".")
    mod = importlib.import_module(module)
    obj = getattr(mod, head) if hasattr(mod, head) else importlib.import_module(
        f"atlas.{head}")
    for attr in rest:
        obj = getattr(obj, attr)
