from __future__ import annotations

import ast
import pathlib
import re
import sys
import types

import cosetcodes

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_all_is_the_public_surface():
    """Every name in __all__ resolves, and every public attribute of the
    package that is not a submodule is listed in __all__."""
    assert all(hasattr(cosetcodes, name) for name in cosetcodes.__all__)
    public = {
        name
        for name, value in vars(cosetcodes).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(cosetcodes.__all__)


def test_the_package_imports_only_the_standard_library():
    """Every import under src/cosetcodes is relative or names a standard
    library module, and pyproject.toml declares no runtime dependency."""
    modules = sorted((ROOT / "src" / "cosetcodes").rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name} imports {name}"
    assert re.search(r"^dependencies = \[\]$", (ROOT / "pyproject.toml").read_text(), re.M)
