"""No library module imports a name it neither uses nor exports."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "subsystem_codes"


def _annotation_names(node):
    """Names inside an annotation, including quoted forward references."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from _annotation_names(ast.parse(sub.value, mode="eval"))
        elif isinstance(sub, ast.Name):
            yield sub.id


def unused_imports(source: str):
    """(line, name) of each imported name the module never reads and does
    not list in ``__all__``; ``from __future__`` imports are skipped."""
    tree = ast.parse(source)
    imported, used, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "__all__"):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used | exported)


def test_the_checker_finds_a_planted_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import List, Optional\n"
              "from .codes import AdditiveCode, ClassicalCode\n"
              "__all__ = ['ClassicalCode']\n"
              "def f(x: 'Optional[int]') -> List[int]:\n"
              "    return [x]\n")
    assert unused_imports(source) == [(2, "os"), (4, "AdditiveCode")]


def test_library_modules_import_only_what_they_use():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert not found
