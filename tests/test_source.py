"""Static checks on the package source, with the stdlib `ast` only."""

import ast
from pathlib import Path
from typing import Iterator

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


def _quoted_names(tree: ast.Module) -> Iterator[tuple[str, int]]:
    """Names inside the module's quoted forward references, with the line
    of the node that holds each."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            holder = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            holder = node.returns
        elif isinstance(node, ast.AnnAssign):
            holder = node.annotation
        elif isinstance(node, ast.Subscript):
            holder = node.slice
        else:
            continue
        yield from ((name, node.lineno)
                    for name in _string_annotation_names(holder))


def _used(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return used | {name for name, _ in _quoted_names(tree)}


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


def _private_defs(tree: ast.Module) -> list[tuple[str, int, int]]:
    """Each private module-level name and private method, with the first
    and last line of its definition."""
    out = []

    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    def visit(body: list[ast.stmt], in_class: bool) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign) and not in_class:
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and not in_class \
                    and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            out.extend((name, node.lineno, node.end_lineno)
                       for name in names if private(name))
            if isinstance(node, ast.ClassDef) and not in_class:
                visit(node.body, True)

    visit(tree.body, False)
    return out


def _references(tree: ast.Module) -> Iterator[tuple[str, int]]:
    """Each name a module refers to, as a name, an attribute, an import or
    a quoted annotation, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((a.name, node.lineno) for a in node.names)
    yield from _quoted_names(tree)


def _dead_names(modules: dict[str, ast.Module]) -> list[str]:
    """The private definitions no module refers to outside the definition
    itself, as `module:line: name`."""
    refs: dict[str, list[tuple[str, int]]] = {}
    for path, tree in modules.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))
    dead = []
    for path, tree in modules.items():
        for name, first, last in _private_defs(tree):
            if all(p == path and first <= line <= last
                   for p, line in refs.get(name, ())):
                dead.append(f"{path}:{first}: {name}")
    return dead


def test_no_dead_private_names():
    """Every private module-level name and private method in the package
    is used somewhere in it, so a deletion takes its helpers with it."""
    modules = {path.name: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SRC.glob("*.py"))}
    dead = _dead_names(modules)
    assert not dead, "unused private names:\n" + "\n".join(dead)


def test_dead_name_check_sees_a_dead_name():
    a = ast.parse("_LIMIT = 3\n"
                  "_unused: int = 0\n"
                  "def _live(n):\n"
                  "    return n < _LIMIT\n"
                  "def _recursive(n):\n"
                  "    return _recursive(n - 1)\n"
                  "class _Box:\n"
                  "    def __init__(self):\n"
                  "        self._kept()\n"
                  "    def _kept(self):\n"
                  "        pass\n"
                  "    def _dropped(self):\n"
                  "        pass\n")
    b = ast.parse("from a import _Box, _live\n"
                  "def f(x: '_Box'):\n"
                  "    return _live(1)\n")
    assert _dead_names({"a.py": a, "b.py": b}) == [
        "a.py:2: _unused", "a.py:5: _recursive", "a.py:12: _dropped"]


def _dead_locals(tree: ast.Module, path: str) -> list[str]:
    """The names each top-level function or method stores but never loads,
    as `module:line: name`; `_`-prefixed names are exempt.  A nested
    function or comprehension counts as part of the function around it."""
    dead = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef)):
            continue
        for fn in node.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = [n for n in ast.walk(fn) if isinstance(n, ast.Name)]
            loaded = {n.id for n in names if not isinstance(n.ctx, ast.Store)}
            stored: dict[str, int] = {}
            for n in names:
                if isinstance(n.ctx, ast.Store) and not n.id.startswith("_"):
                    stored.setdefault(n.id, n.lineno)
            dead += [f"{path}:{line}: {name}"
                     for name, line in stored.items() if name not in loaded]
    return dead


def test_no_dead_locals():
    """Every local a function assigns is read somewhere in it."""
    dead = []
    for path in sorted(SRC.glob("*.py")):
        dead += _dead_locals(ast.parse(path.read_text(), filename=str(path)),
                             path.name)
    assert not dead, "assigned but never read:\n" + "\n".join(dead)


def test_dead_local_check_sees_a_dead_local():
    tree = ast.parse("def f(xs):\n"
                     "    total = 0\n"
                     "    flat = [x for x in xs]\n"
                     "    for i, _j in enumerate(xs):\n"
                     "        total += i\n"
                     "    def g():\n"
                     "        return total\n"
                     "    return g\n"
                     "class C:\n"
                     "    def m(self):\n"
                     "        a, b = 1, 2\n"
                     "        return a\n")
    assert _dead_locals(tree, "m.py") == ["m.py:3: flat", "m.py:11: b"]


def _uses_outside(tree: ast.Module, owner: str, used) -> list[int]:
    """The lines of the nodes `used` accepts that lie outside the top-level
    function `owner`."""
    fn = next(n for n in tree.body
              if isinstance(n, ast.FunctionDef) and n.name == owner)
    return [n.lineno for n in ast.walk(tree) if used(n)
            and not fn.lineno <= n.lineno <= fn.end_lineno]


def _reads_format(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "format"


def _builds_check_result(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
        and node.func.id == "CheckResult"


def test_one_output_path():
    """Only `cli._emit` reads the output format, and only
    `selftest.run_selftest` builds a `CheckResult`, so each criterion's
    number and name come from the `ALL_CHECKS` table alone."""
    def parse(name: str) -> ast.Module:
        return ast.parse((SRC / name).read_text(), filename=name)

    assert _uses_outside(parse("cli.py"), "_emit", _reads_format) == []
    assert _uses_outside(parse("selftest.py"), "run_selftest",
                         _builds_check_result) == []


def test_output_path_check_sees_a_stray_use():
    tree = ast.parse("def _emit(args):\n"
                     "    return args.format\n"
                     "def cmd(args):\n"
                     "    if args.format == 'x':\n"
                     "        return CheckResult(1, 'a', True)\n")
    assert _uses_outside(tree, "_emit", _reads_format) == [4]
    assert _uses_outside(tree, "cmd", _builds_check_result) == []
    assert _uses_outside(tree, "_emit", _builds_check_result) == [5]


def _stored_attributes(tree: ast.Module) -> dict[str, int]:
    """Each attribute a method stores on `self`, with the first line that
    stores it."""
    out: dict[str, int] = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store) \
                and isinstance(n.value, ast.Name) and n.value.id == "self":
            out.setdefault(n.attr, n.lineno)
    return out


def _read_attributes(tree: ast.Module) -> set[str]:
    """Each attribute name the module reads, an augmented store included."""
    read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and not isinstance(n.ctx, ast.Store)}
    return read | {n.target.attr for n in ast.walk(tree)
                   if isinstance(n, ast.AugAssign)
                   and isinstance(n.target, ast.Attribute)}


def _dead_attributes(stores: dict[str, ast.Module],
                     readers: list[ast.Module]) -> list[str]:
    """The attributes stored on `self` in `stores` that no reader reads, as
    `module:line: name`."""
    read = set().union(*map(_read_attributes, readers))
    return [f"{path}:{line}: {name}"
            for path, tree in stores.items()
            for name, line in _stored_attributes(tree).items()
            if name not in read]


def test_no_dead_attributes():
    """Every attribute the package stores on `self` is read somewhere in
    the package or its tests, so a deletion takes the state it fed."""
    package = {path.name: ast.parse(path.read_text(), filename=str(path))
               for path in sorted(SRC.glob("*.py"))}
    tests = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(Path(__file__).parent.glob("*.py"))]
    dead = _dead_attributes(package, [*package.values(), *tests])
    assert not dead, "stored but never read:\n" + "\n".join(dead)


def test_dead_attribute_check_sees_a_dead_attribute():
    a = ast.parse("class C:\n"
                  "    def __init__(self):\n"
                  "        self.kept = 1\n"
                  "        self.counted = 0\n"
                  "        self.dropped = 2\n"
                  "        self.seen, self.lost = 3, 4\n"
                  "    def bump(self):\n"
                  "        self.counted += 1\n"
                  "        return self.kept\n")
    b = ast.parse("def f(c):\n"
                  "    return c.seen\n")
    assert _dead_attributes({"a.py": a}, [a, b]) == [
        "a.py:5: dropped", "a.py:6: lost"]
