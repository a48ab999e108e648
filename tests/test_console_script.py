"""The ``subsys`` console script that ``pyproject.toml`` declares, resolved
from that declaration and called as an installed script calls it: with no
arguments, ``sys.argv`` holding the script path, and the exit status taken
from ``SystemExit``.

The declaration is read with a regex: Python 3.10 has no ``tomllib``.
"""

import importlib
import re
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


def _script():
    text = (_ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    match = re.search(r'^subsys\s*=\s*"([\w.]+):(\w+)"\s*$', section, re.M)
    assert match, "pyproject.toml declares no subsys script"
    return getattr(importlib.import_module(match.group(1)), match.group(2))


def _run(monkeypatch, capsys, *args):
    monkeypatch.setattr(sys, "argv", ["/usr/local/bin/subsys", *args])
    with pytest.raises(SystemExit) as stop:
        _script()()
    out, err = capsys.readouterr()
    return stop.value.code, out, err


def test_script_prints_its_version(monkeypatch, capsys):
    assert _run(monkeypatch, capsys, "--version") == (
        0, "subsys, version 0.1.0\n", "")


def test_script_prints_the_q3_table(monkeypatch, capsys):
    status, out, err = _run(monkeypatch, capsys, "table1", "--q", "3")
    assert (status, err) == (0, "")
    assert out.encode() == (_ROOT / "tests" / "golden"
                            / "table1_q3.json").read_bytes()
