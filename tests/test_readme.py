"""The README's CLI section stays runnable: every example exits 0, the
ones that read an input file run next to a valid elem.json and
basepoints.json, and every flag the section names is one the parser
accepts.  Every test runs under the conftest guard `forbid_capped`."""

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
