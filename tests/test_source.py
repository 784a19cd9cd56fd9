"""Checks of the package source and its import graph (no linter is a dependency)."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "singlim").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but neither reads nor lists in its __all__."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_the_guard_sees_an_unused_import():
    tree = ast.parse(
        "import math\nimport numpy as np\nfrom .a import b, c\n"
        "__all__ = ['c']\nprint(np.pi)\n"
    )
    assert _unused_imports(tree) == ["math (line 1)", "b (line 3)"]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports(tree: ast.Module) -> list[str]:
    """Underscore names a module takes from another singlim module: imported
    by name, or read as an attribute of an imported singlim module.  Dunder
    names such as __version__ are public."""
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").partition(".")[0] == "singlim"
        ):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{alias.name} (line {node.lineno})")
                elif node.module in (None, "singlim"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.partition(".")[0] == "singlim")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_another_modules_private_names(path):
    assert _private_imports(ast.parse(path.read_text())) == []


def test_the_guard_sees_a_private_import():
    tree = ast.parse(
        "from .profiles import _each_mode, norms_together\nfrom . import __version__\n"
        "from singlim.exppoly import _horner\nfrom numpy import _globals\n"
        "from . import exppoly\nimport singlim.modes as m\n"
        "x = exppoly._difference_table(()) + m._roots + exppoly.accumulate + np._x\n"
        "def _own(): pass\n"
    )
    assert sorted(_private_imports(tree)) == [
        "_each_mode (line 1)", "_horner (line 3)",
        "exppoly._difference_table (line 7)", "m._roots (line 7)",
    ]


# The modules that know a profile is a tuple of per-mode ExpPolys; every
# other module samples and integrates through profiles.
REPRESENTATION = {"exppoly.py", "modes.py", "profiles.py"}


def _representation_uses(tree: ast.Module) -> list[str]:
    """Imports of exppoly, in any form, and reads of a .modes attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            if isinstance(node, ast.Attribute) and node.attr == "modes":
                found.append(f".modes (line {node.lineno})")
            continue
        if any(name.rpartition(".")[2] == "exppoly" for name in names):
            found.append(f"exppoly import (line {node.lineno})")
    return found


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name not in REPRESENTATION], ids=lambda p: p.name
)
def test_only_profiles_and_below_see_the_mode_representation(path):
    assert _representation_uses(ast.parse(path.read_text())) == []


def test_the_guard_sees_the_mode_representation():
    tree = ast.parse(
        "from .exppoly import ExpPoly\nimport singlim.exppoly as e\n"
        "from . import exppoly\nfrom .profiles import sample_together\n"
        "n = len(p.modes)\nm = p.modes_count\nmodes = 3\n"
    )
    assert _representation_uses(tree) == [
        "exppoly import (line 1)", "exppoly import (line 2)",
        "exppoly import (line 3)", ".modes (line 5)",
    ]


def test_the_mode_solver_loads_without_the_verifier():
    # the package root imports nothing, so the solver and its oracle load
    # only the exponential polynomials beneath them
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, singlim.modes; "
         "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'singlim'))"],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == str(["singlim", "singlim.exppoly", "singlim.modes"])
