"""Every name the package exports, and every function the benchmark binds, resolves.

The package namespace is lazy: importing it loads nothing, and each export is
the defining submodule's own object once read.

The benchmark's workloads look their functions up by module and name when
they set up; reading that table here turns a deleted or renamed function into
a failing test instead of a crash at benchmark set-up. The table is read from
the source, so perfbench is neither imported nor changed.

The code rules: the CLI loads only numpy and the standard library, no module
imports a name it never uses or defines a private helper nothing uses, and no
test module imports another.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from support import ROOT, WORKLOADS

import unimeas

SRC = Path(unimeas.__file__).resolve().parents[1]


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


def _fresh(code: str):
    """Run code in a new interpreter that imports unimeas from SRC; return its JSON output."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _defined_names(module) -> set[str]:
    """Names a module binds at top level by def, class or assignment; not by import."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return names


def test_import_loads_neither_numpy_nor_a_submodule_and_leaves_the_environment():
    loaded, environment_kept = _fresh(
        "import json, os, sys\n"
        "env, before = dict(os.environ), set(sys.modules)\n"
        "import unimeas\n"
        "print(json.dumps([sorted(set(sys.modules) - before), dict(os.environ) == env]))\n"
    )
    assert not [m for m in loaded if m.partition(".")[0] == "numpy" or m.startswith("unimeas.")]
    assert environment_kept


def test_dir_lists_the_exports_unloaded_and_star_import_binds_exactly_them():
    listed, loaded, star, exported = _fresh(
        "import json, sys\n"
        "import unimeas\n"
        "listed = dir(unimeas)\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('unimeas.'))\n"
        "star = {}\n"
        "exec('from unimeas import *', star)\n"
        "star.pop('__builtins__')\n"
        "print(json.dumps([listed, loaded, sorted(star), unimeas.__all__]))\n"
    )
    assert set(exported) <= set(listed)
    assert loaded == []
    assert star == sorted(exported)


def test_every_export_is_the_object_of_its_defining_submodule():
    table = unimeas._EXPORTS
    assert sorted(name for names in table.values() for name in names) == unimeas.__all__
    for module, names in table.items():
        mod = importlib.import_module(f"unimeas.{module}")
        assert set(names) <= _defined_names(mod), f"unimeas.{module} does not define all of {names}"
        for name in names:
            assert getattr(unimeas, name) is getattr(mod, name), name


def test_submodules_resolve_after_a_bare_import():
    """The eight submodules that own exports are attributes; the others import on request."""
    submodules = [
        "branches", "collapse", "linalg", "measurement",
        "mixed", "modelio", "probability", "spectral",
    ]
    got = _fresh(
        "import json\n"
        "import unimeas\n"
        f"names = [getattr(unimeas, m).__name__ for m in {submodules!r}]\n"
        "from unimeas import cli, rand\n"
        "print(json.dumps(names + [cli.__name__, rand.__name__]))\n"
    )
    assert got == [f"unimeas.{m}" for m in [*submodules, "cli", "rand"]]


# `annotations` is what a `from __future__ import annotations` in __init__ would leak
@pytest.mark.parametrize("name", ["annotations", "no_such_name"])
def test_an_unknown_attribute_raises_attribute_error_naming_it(name):
    message = f"^module 'unimeas' has no attribute '{name}'$"
    with pytest.raises(AttributeError, match=message):
        getattr(unimeas, name)


def test_runtime_imports_are_numpy_and_the_standard_library_only():
    added = _fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import unimeas.cli\n"
        "print(json.dumps(sorted({name.partition('.')[0] for name in set(sys.modules) - before})))\n"
    )
    extra = sorted(set(added) - {"numpy", "unimeas"} - set(sys.stdlib_module_names))
    assert not extra, "import unimeas.cli loads " + ", ".join(extra)


def test_no_unused_module_level_imports_or_private_helpers():
    unused = []
    for path in sorted([*ROOT.glob("src/unimeas/*.py"), *ROOT.glob("tests/*.py")]):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).partition(".")[0]
                    if name not in used:
                        unused.append(f"{path}:{node.lineno}: {name} is imported and never used")
    # a private helper is used when src/ names it, reads it as an attribute or imports it
    src = {path: ast.parse(path.read_text(), str(path)) for path in sorted(ROOT.glob("src/unimeas/*.py"))}
    uses = set()
    for node in (node for tree in src.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            uses.add(node.id)
        elif isinstance(node, ast.Attribute):
            uses.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            uses.update(alias.name for alias in node.names)
    uses.update({"__getattr__", "__dir__"})  # module hooks that Python calls itself (PEP 562)
    for path, tree in src.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_") and node.name not in uses:
                unused.append(f"{path}:{node.lineno}: {node.name} is defined and never used")
    assert not unused, "\n".join(unused)


def test_no_test_module_imports_another():
    """Shared test code lives in tests/support.py; a test module importing another breaks when
    run alone (and nests hypothesis tests when it imports one that defines @given)."""
    found = []
    for path in sorted(ROOT.glob("tests/*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: imports {m}" for m in modules if m.startswith("test_")]
    assert not found, "\n".join(found)
