"""Every module of the package uses each name it imports.

``__init__.py`` is skipped, since re-exporting is its job, and so are
``from __future__`` imports. A name counts as used when it is read
anywhere in the module, annotations included, or listed in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wignerosc"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_every_module_is_checked():
    assert {"cli.py", "gl_spectrum.py", "levels.py", "osp_spectrum.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    assert _unused_imports(tree) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import json\nimport os.path\nfrom math import pi as PI, tau\n"
                     "from .levels import branch\n"
                     "__all__ = ['branch']\n"
                     "def f(x: tau) -> None:\n    return os.path.join(x)\n")
    assert _unused_imports(tree) == ["json", "PI"]
