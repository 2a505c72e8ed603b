"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import math
import re
from pathlib import Path

import pytest

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
