"""Every sqspiral name the benchmark's tracer wraps must still exist.

`bench/tracer.py` replaces functions by name; a renamed or deleted one makes
the traced benchmark run crash instead of report.  The tracer is parsed, not
imported, so this check needs nothing from the benchmark at run time.
"""
import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _dotted(node) -> list[str] | None:
    """["mod", "a", "b"] for the plain attribute chain mod.a.b, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    return [node.id, *parts] if isinstance(node, ast.Name) else None


def tracer_hooks(source: str) -> list[str]:
    """Names the tracer reaches in sqspiral: `module.attr` chains and the
    (module, "function", ...) rows of its SPANS table."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "sqspiral"
               for alias in node.names}
    hooks = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            mod, name = node.elts[:2]
            if (isinstance(mod, ast.Name) and mod.id in modules
                    and isinstance(name, ast.Constant) and isinstance(name.value, str)):
                hooks.add(f"{mod.id}.{name.value}")
        elif isinstance(node, ast.Attribute):
            parts = _dotted(node)
            if parts and parts[0] in modules:
                hooks.add(".".join(parts))
    return sorted(hooks)


HOOKS = tracer_hooks(TRACER.read_text(encoding="utf-8"))


def test_hooks_cover_the_wrapped_functions():
    assert {"table.build_table", "table.load_table", "constants.winding_distance_table",
            "arms.trace_arm", "ratpoly.newton_quadratic",
            "ratpoly.QuadraticPoly.canonicalize", "verify._SUITE_FUNCS",
            "cli.main"} <= set(HOOKS)


@pytest.mark.parametrize("hook", HOOKS)
def test_hook_exists(hook):
    module, *path = hook.split(".")
    obj = importlib.import_module(f"sqspiral.{module}")
    for attr in path:
        assert hasattr(obj, attr), f"{hook}: sqspiral has no {attr!r} here"
        obj = getattr(obj, attr)
