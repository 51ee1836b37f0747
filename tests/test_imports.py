"""Every module-level import in the package is used by its module.

No linter ships with the package, so this walks the syntax trees with
the standard library.  ``__init__.py`` files are exempt: their imports
are re-exports.
"""

import ast
import pathlib

import frontkit

PACKAGE = pathlib.Path(frontkit.__file__).parent


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
