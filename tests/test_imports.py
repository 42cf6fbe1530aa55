"""Every module of the package uses each name it imports, and every public name has a user.

``__init__.py`` is skipped, since re-exporting is its job, and so are
``from __future__`` imports. A name counts as used when it is read
anywhere in the module, annotations included, or listed in ``__all__``.

A public top-level function or class is used when the rest of its own
module, another module of the package, a ``perfbench`` file other than
the tracer (which names functions only to wrap them) or the README's
``python`` example reads it. Tests are not users: a formula that only
tests call belongs in ``tests/``.

Importing the package generates no record classes: no module imports
``dataclasses``, whose class decorator compiles methods at import time.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wignerosc"
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


def _read_names(nodes) -> set[str]:
    """Names and attribute names read anywhere under ``nodes``."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for top in nodes for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute))}


def _unused_public_names() -> list[str]:
    trees = {m: ast.parse((PACKAGE / m).read_text(), filename=m) for m in MODULES}
    readme = (ROOT / "README.md").read_text()
    elsewhere = _read_names([ast.parse(code) for code in
                             re.findall(r"```python\n(.*?)```", readme, re.S)])
    elsewhere |= _read_names(ast.parse(p.read_text()) for p in (ROOT / "perfbench").glob("*.py")
                             if p.name != "tracing.py")
    unused = []
    for module, tree in trees.items():
        others = elsewhere | _read_names(t for m, t in trees.items() if m != module)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in others
                    and node.name not in _read_names(n for n in tree.body if n is not node)):
                unused.append(f"{module}:{node.name}")
    return unused


def test_every_public_name_has_a_user_outside_the_tests():
    assert _unused_public_names() == []


def _imported_packages(tree: ast.Module) -> set[str]:
    """Top-level names of the modules that a module imports."""
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    return {name.split(".")[0] for name in names}


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_dataclasses(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    assert "dataclasses" not in _imported_packages(tree)


def test_importing_the_cli_leaves_dataclasses_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, wignerosc.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "False"
