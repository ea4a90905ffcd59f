"""The README's CLI section stays runnable: every example that needs no
input file exits 0, and every flag the section names is one the parser
accepts."""

import re
import shlex
from pathlib import Path

import pytest

from atlas.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
CLI_SECTION = re.search(r"## CLI\n(.*?)\n## ", README, re.S).group(1)
CLI_BLOCK = re.search(r"```sh\n(.*?)```", CLI_SECTION, re.S).group(1)
EXAMPLES = [shlex.split(line)[1:] for line in CLI_BLOCK.splitlines()
            if not ("--elem" in line or "--spec" in line)]
SUBCOMMANDS = ("lint", "orb", "values", "germ", "invariants", "verify")


@pytest.mark.parametrize("argv", EXAMPLES, ids=[" ".join(a[:3]) for a in EXAMPLES])
def test_example_runs(argv, capsys):
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
