"""Static checks on the package source, with the stdlib `ast` only."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ualg"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with the line that binds it."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _string_annotation_names(node: ast.AST) -> set[str]:
    """Names inside the quoted forward references under node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            out |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return out


def _used(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            used |= _string_annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            used |= _string_annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _string_annotation_names(node.annotation)
        elif isinstance(node, ast.Subscript):
            used |= _string_annotation_names(node.slice)
    return used


def test_no_unused_imports():
    """A deletion must take the imports it leaves dead with it.
    `__init__.py` only re-exports, so it is exempt."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used(tree)
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _imported(tree).items()
                   if name not in used]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_unused_import_check_sees_a_dead_name():
    tree = ast.parse("from typing import Optional, Sequence\n"
                     "import os\n"
                     "Word = tuple['Optional', ...]\n")
    assert set(_imported(tree)) - _used(tree) == {"Sequence", "os"}
