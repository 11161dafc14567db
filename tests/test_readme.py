"""The examples in README.md run as written.

Each line of the "Command line" block runs through `python3 -m obrsk.cli`
in a temporary directory that holds the frozen worked example as pair.json
and bitableau.json, and must exit 0; the "Library" block is executed.
"""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from obrsk.cli import bitableau_to_json, pair_to_json
from obrsk.fixture import FIXTURE_BITABLEAU, FIXTURE_PAIR

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def first_block(section, language):
    """The first fenced block of the language under the "## section"
    heading of README.md."""
    text = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", text, re.S).group(1)


COMMANDS = [
    line for line in first_block("Command line", "sh").splitlines() if line.strip() and not line.startswith("#")
]


def test_the_command_line_block_has_every_program():
    assert {shlex.split(line)[0] for line in COMMANDS} == {"obrsk", "og", "ideal", "fixture"}


@pytest.mark.parametrize("line", COMMANDS)
def test_command_line_example_exits_0(tmp_path, line):
    (tmp_path / "pair.json").write_text(json.dumps(pair_to_json(FIXTURE_PAIR)))
    (tmp_path / "bitableau.json").write_text(json.dumps(bitableau_to_json(FIXTURE_BITABLEAU)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "obrsk.cli", *shlex.split(line)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_library_example_runs():
    exec(compile(first_block("Library", "python"), "README.md", "exec"), {})
