"""No module reaches into another sqspiral module's private names, and no
package module imports a name it does not use.

Checked statically over the package and the scripts: `from <sqspiral module>
import _x` and `<sqspiral module>._x` both fail.  Dunder names are public.
The package's `__init__.py` imports to re-export, so it is exempt from the
unused-import check.
"""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "sqspiral").glob("*.py")) + sorted(
    (ROOT / "scripts").glob("*.py"))
MODULES = [p for p in SOURCES if p.parent.name == "sqspiral" and p.name != "__init__.py"]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_sqspiral(module: str | None, level: int) -> bool:
    return level > 0 or module == "sqspiral" or (module or "").startswith("sqspiral.")


def private_imports(source: str) -> list[str]:
    """Offending `from ... import _x` and `module._x` uses, as text."""
    tree = ast.parse(source)
    modules = set()  # local names bound to sqspiral modules
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_sqspiral(node.module, node.level):
            for alias in node.names:
                if _private(alias.name):
                    bad.append(f"from {node.module or '.'} import {alias.name}")
                elif node.module in (None, "sqspiral"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_sqspiral(alias.name, 0):
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                bad.append(f"{ast.unparse(node.value)}.{node.attr}")
    return bad


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_cross_module_access(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_checker_catches_private_access():
    assert private_imports("from sqspiral.verify import _table\n") == [
        "from sqspiral.verify import _table"]
    assert private_imports("from . import verify\nverify._table(400)\n") == [
        "verify._table"]
    assert private_imports("import sqspiral.verify\nsqspiral.verify._SUITE_FUNCS\n") == [
        "sqspiral.verify._SUITE_FUNCS"]
    assert private_imports("from . import __version__\nfrom .arms import members\n") == []


def unused_imports(source: str) -> list[str]:
    """Names an import statement binds that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_catches_unused_import():
    assert unused_imports("from .table import TAU, wrap_signed\nx = TAU\n") == [
        "wrap_signed"]
    assert unused_imports("import os.path\nimport numpy as np\n") == ["os", "np"]
    assert unused_imports("from __future__ import annotations\n"
                          "import numpy as np\n\ndef f(a: np.ndarray): pass\n") == []
