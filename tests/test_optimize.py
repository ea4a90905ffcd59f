"""No check in atlas sits in an assert statement, which `python -O` strips:
the package holds none, and an `atlas verify` run prints the same under -O
as without it."""

import ast
import subprocess
import sys
from pathlib import Path

import atlas

SRC = Path(atlas.__file__).resolve().parent
VERIFY_ARGV = ["-m", "atlas.cli", "verify", "zero", "--p", "3", "--m-max", "2",
               "--l-max", "5", "--format", "json"]


def test_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_verify_prints_the_same_under_optimize():
    def run(*flags):
        proc = subprocess.run([sys.executable, *flags, *VERIFY_ARGV],
                              cwd=SRC.parent, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    plain = run()
    assert '"constant": true' in plain
    assert run("-O") == plain
