"""Every source file parses at the oldest Python that `pyproject.toml` admits.

Only the grammar is checked: a library difference between versions, such as
a regular-expression feature, needs a run on that version.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def test_sources_parse_at_the_required_python_floor():
    pyproject = (_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', pyproject, re.M)
    assert found, "requires-python must state a >=X.Y floor"
    floor = (int(found[1]), int(found[2]))
    dirs = ("src", "tests", "bench", "scripts")
    paths = sorted(p for d in dirs for p in (_ROOT / d).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
