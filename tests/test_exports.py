"""Every name the package exports, and every function the benchmark binds, resolves.

The benchmark's workloads look their functions up by module and name when
they set up; reading that table here turns a deleted or renamed function into
a failing test instead of a crash at benchmark set-up. The table is read from
the source, so perfbench is neither imported nor changed.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import unimeas

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _benchmark_public() -> dict[str, tuple[str, ...]]:
    """The PUBLIC table of the benchmark's workloads, {module: function names}."""
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "PUBLIC":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no PUBLIC table in {WORKLOADS}")


def test_exported_and_benchmarked_names_resolve():
    missing = [name for name in unimeas.__all__ if not hasattr(unimeas, name)]
    for module, names in _benchmark_public().items():
        mod = importlib.import_module(f"unimeas.{module}")
        missing += [f"{module}.{name}" for name in names if not hasattr(mod, name)]
    assert not missing, f"names that do not resolve: {missing}"
