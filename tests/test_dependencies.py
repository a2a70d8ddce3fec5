"""The library imports nothing but the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "posepriors").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def foreign_imports(source: str) -> list[str]:
    """Top-level names of absolute imports outside the standard library and numpy."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return [name for name in names if name not in ALLOWED]


def test_sources_found():
    assert "posedata.py" in {path.name for path in SOURCES}


def test_checker_flags_third_party_imports():
    source = "import os\nimport scipy.linalg\nfrom pandas import DataFrame\nfrom . import linalg\n"
    assert foreign_imports(source) == ["scipy", "pandas"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib_numpy_or_relative(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
