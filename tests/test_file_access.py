"""Only posedata opens files: one site reads and one writes."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "posepriors").glob("*.py"))


def open_calls(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each call to `open` or to an `.open` attribute."""
    calls = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "open") or (
                    isinstance(f, ast.Attribute) and f.attr == "open"):
                calls.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return calls


def test_checker_flags_stray_open():
    source = (
        "import io\n"
        "def save(p, text):\n"
        "    with open(p, 'w') as fh:\n"
        "        fh.write(text)\n"
        "    io.open(p).close()\n"
        "    return Path(p).open('a')\n"
        "x = open('log')\n"
        "write_text(p, 'ok')\n"
    )
    assert open_calls(source) == [("save", 3), ("save", 5), ("save", 6), (None, 7)]


def test_posedata_opens_files_once_to_read_and_once_to_write():
    path = next(path for path in SOURCES if path.name == "posedata.py")
    sites = [name for name, _ in open_calls(path.read_text(encoding="utf-8"))]
    assert sites == ["_read_text", "write_text"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "posedata.py"],
                         ids=lambda path: path.name)
def test_no_other_module_opens_files(path):
    assert open_calls(path.read_text(encoding="utf-8")) == []
