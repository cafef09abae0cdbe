"""The README's commands and library example, run as written.

The command synopsis is parsed with the command line's own parser, so a
required flag it leaves out fails here.  The library example runs in a
fresh process, so it sees only what it imports itself.
"""

import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import edsbt.cli as cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def code_block(heading, language):
    """The first ```language block after the README's `heading` line."""
    after = README.split(f"\n{heading}\n", 1)[1]
    return after.split(f"```{language}\n", 1)[1].split("```", 1)[0]


SYNOPSIS = code_block("## Command line", "sh").splitlines()


def test_synopsis_names_every_command():
    commands = [shlex.split(line, comments=True)[1] for line in SYNOPSIS]
    assert commands == ["check", "classify", "torsion", "hyperbolic", "propagate", "tzitzeica"]


@pytest.mark.parametrize("line", SYNOPSIS)
def test_synopsis_line_parses(line):
    program, *argv = shlex.split(line, comments=True)
    assert program == "edsbt"
    args = cli._build_parser().parse_args(argv)  # a usage error exits 2 here
    assert args.command == argv[0] and args.file == "system.def"


def test_library_example_runs():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code_block("## Library example", "python")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:4] == ["True"] * 4
    residuals = [float(line) for line in lines[4:]]
    assert len(residuals) == 2
    assert all(0.0 <= r < 1e-3 for r in residuals)
