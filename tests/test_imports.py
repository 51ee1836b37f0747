"""Every module-level import in the package is used by its module,
every module-level private name is used somewhere in the package, every
module parses as the oldest Python that ``pyproject.toml`` admits, and
no docstring or README reference names something that is gone.

No linter ships with the package, so this walks the syntax trees with
the standard library.  ``__init__.py`` files are exempt from the import
check: their imports are re-exports.
"""

import ast
import builtins
import importlib
import pathlib
import re
import types
from collections import Counter

import frontkit

PACKAGE = pathlib.Path(frontkit.__file__).parent
PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"


def _unused_imports(source: str):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_checker_finds_an_unused_import():
    source = "import os\nfrom typing import List, Tuple\nx: Tuple = os.sep\n"
    assert _unused_imports(source) == [(2, "List")]


def test_no_unused_module_imports():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in _unused_imports(path.read_text(encoding="utf-8")):
            found.append(f"{path.relative_to(PACKAGE)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def _references(node):
    """Every name that ``node`` reads, imports or takes as an attribute."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def _private_definitions(tree):
    """Module-level ``_name`` definitions (dunders exempt) -> their node."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            ]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                out[name] = node
    return out


def _unreferenced_private_names(sources):
    """``path:line: name`` of each private name that no code outside its
    own definition refers to, across all of ``sources`` (path -> text)."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    counts = Counter(r for tree in trees.values() for r in _references(tree))
    found = []
    for path, tree in trees.items():
        for name, node in _private_definitions(tree).items():
            if counts[name] == Counter(_references(node))[name]:
                found.append(f"{path}:{node.lineno}: {name}")
    return found


def test_checker_finds_an_unreferenced_private_name():
    sources = {
        "a.py": "from b import _shared\n__all__ = []\n"
        "def _dead(n):\n    return _dead(n - 1)\n",
        "b.py": "_shared: int = 1\n_spare = 2\nclass _Used:\n    pass\n"
        "def public():\n    return _Used()\n",
    }
    assert _unreferenced_private_names(sources) == ["a.py:3: _dead", "b.py:2: _spare"]


def test_every_private_name_is_used():
    sources = {
        str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    found = _unreferenced_private_names(sources)
    assert not found, "unreferenced private names:\n" + "\n".join(found)


def _python_floor():
    """The ``(major, minor)`` of ``requires-python = ">=X.Y"``."""
    text = PYPROJECT.read_text(encoding="utf-8")
    found = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', text)
    return int(found[1]), int(found[2])


def _too_new(source, floor):
    """The ``SyntaxError`` text of the first construct ``floor`` cannot
    parse, or None."""
    try:
        ast.parse(source, feature_version=floor)
    except SyntaxError as exc:
        return f"{exc.lineno}: {exc.msg}"
    return None


def test_floor_check_flags_newer_syntax():
    assert _too_new("def f[T](x: T): ...\n", (3, 10))  # 3.12 type parameters
    assert _too_new("try:\n    pass\nexcept* OSError:\n    pass\n", (3, 10))  # 3.11
    assert _too_new("match x:\n    case 1:\n        pass\n", (3, 10)) is None


def test_package_parses_at_the_declared_floor():
    floor = _python_floor()
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        err = _too_new(path.read_text(encoding="utf-8"), floor)
        if err:
            found.append(f"{path.relative_to(PACKAGE)}:{err}")
    assert not found, f"syntax newer than Python {floor}:\n" + "\n".join(found)


_ROLE_REF = re.compile(r":(?:func|class|meth):`~?([\w.]+)`")


def _resolves(name: str, scopes) -> bool:
    """Whether the dotted ``name`` is an attribute chain from one of
    ``scopes`` (objects searched in order), from the ``frontkit``
    package, or from the builtins."""
    first, *rest = name.split(".")
    for scope in (*scopes, types.SimpleNamespace(frontkit=frontkit), builtins):
        obj = getattr(scope, first, None)
        if obj is None:
            continue
        for part in rest:
            obj = getattr(obj, part, None)
            if obj is None:
                break
        else:
            return True
    return False


def _stale_docstring_references(source: str, module) -> list:
    """``line: reference`` of each ``:func:``, ``:class:`` or ``:meth:``
    reference in a docstring of ``source`` that resolves neither against
    the class that holds the docstring nor against ``module``."""
    found = []

    def visit(node, cls):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if isinstance(node, ast.ClassDef):
                cls = getattr(cls or module, node.name, None)
            scopes = (cls, module) if cls is not None else (module,)
            for ref in _ROLE_REF.findall(doc or ""):
                if not _resolves(ref, scopes):
                    found.append(f"{getattr(node, 'lineno', 1)}: {ref}")
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    visit(ast.parse(source), None)
    return found


def test_checker_finds_a_stale_docstring_reference():
    source = (
        '"""See :func:`helper`, :class:`ValueError` and :func:`gone`."""\n'
        "def helper():\n    pass\n"
        "class A:\n"
        '    """:meth:`b` and :meth:`A.b`, not :meth:`c`."""\n'
        "    def b(self):\n        pass\n"
    )
    module = types.ModuleType("sample")
    exec(source, module.__dict__)
    assert _stale_docstring_references(source, module) == ["1: gone", "4: c"]


def _package_modules():
    """``(path, module)`` of every module of the package, imported, so
    that each is also an attribute of the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield path, importlib.import_module(".".join(parts))


def test_every_docstring_reference_resolves():
    found = []
    for path, module in _package_modules():
        source = path.read_text(encoding="utf-8")
        for ref in _stale_docstring_references(source, module):
            found.append(f"{path.relative_to(PACKAGE)}:{ref}")
    assert not found, "docstring references to missing names:\n" + "\n".join(found)


def _readme_module_references(text: str) -> list:
    """Each backticked ``module.name`` of ``text`` whose first part is
    ``frontkit`` or one of its modules."""
    modules = {"frontkit"} | {p.stem for p in PACKAGE.glob("*.py")}
    return [
        ref for ref in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text)
        if ref.split(".")[0] in modules
    ]


def test_every_readme_module_reference_resolves():
    refs = _readme_module_references(README.read_text(encoding="utf-8"))
    assert refs
    list(_package_modules())
    stale = [ref for ref in refs if not _resolves(ref, (frontkit,))]
    assert not stale, "README references to missing names: " + ", ".join(stale)
