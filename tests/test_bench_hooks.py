"""Every sqspiral name the benchmark's tracer wraps must still exist.

`bench/tracer.py` replaces functions by name; a renamed or deleted one makes
the traced benchmark run crash instead of report.  The tracer is parsed, not
imported, so this check needs nothing from the benchmark at run time.  One
test runs a traced benchmark pass in a subprocess and reads its result line.
"""
import ast
import importlib
import json
import math
import pathlib
import subprocess
import sys
import time

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


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_traced_cli_session_ends_in_a_result_line(tmp_path):
    """A traced `cli_session` run prints one JSON result line last: correct,
    and every per-layer value a finite float or a signed 64-bit int."""
    workload = TRACER.parent / "workload.py"
    proc = subprocess.run(
        [sys.executable, str(workload), "--workload", "cli_session", "--seed", "1",
         "--spawned-at", str(time.monotonic()),
         "--trace-out", str(tmp_path / "spans.json")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"], proc.stderr
    assert result["layers"]
    for name, metric in result["layers"].items():
        value = metric["value"]
        if isinstance(value, float):
            assert math.isfinite(value), name
        else:
            assert type(value) is int and -2**63 <= value < 2**63, name
