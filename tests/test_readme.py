"""The README's library quick start runs and prints what its comments say,
and its command-line examples parse."""

import contextlib
import io
import math
import re
import shlex
from pathlib import Path

import pytest

from catspin.cli import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The python block under the README's "Library quick start" heading."""
    section = README.read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_commented_values():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(quick_start(), {})
    lines = [[float(word) for word in line.split()] for line in printed.getvalue().splitlines()]
    assert len(lines) == 3
    (jz,), (lam,), (signal, best) = lines
    assert jz == pytest.approx(-20 * math.cos(40 * math.pi / 80), abs=1e-9)  # -20 cos(40 phi)
    assert lam == pytest.approx(40.0, rel=1e-6)
    assert signal == pytest.approx(-20.0, rel=1e-9)
    assert best == pytest.approx(40.0, rel=1e-6)


def test_command_line_block_parses(tmp_path, monkeypatch):
    # parse only: every catspin line of the "Command line" sh block, its
    # backslash continuations joined, is a valid invocation of the flag set
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CATSPIN_THREADS", raising=False)
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert commands and all(argv[0] == "catspin" for argv in commands)
    for argv in commands:
        assert parse_config(argv[1:]).command == argv[1]
