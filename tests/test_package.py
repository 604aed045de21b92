from __future__ import annotations

import ast
import importlib
import marshal
import os
import pathlib
import re
import subprocess
import sys
import types

import pytest

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


# __all__ as published, in its order.
PUBLIC_NAMES = [
    "SQRT2", "SqrtVal", "bachoc_bound", "gv_bound", "hamming_bound",
    "hamming_bound_m2f2i", "multilevel_bound_m4", "multilevel_min_m2f2i",
    "multilevel_min_m4", "multilevel_rate_m4", "normalized_redundancy", "rate_m2f2i",
    "CyclicElement", "iso_f16_to_m4", "iso_f8_to_m3", "matrix_to_pair",
    "multiplication_matrix", "pair_to_matrix", "regular_representation", "twisted_pair_mul",
    "GaussianInt", "GoldenCodeword", "GoldenInt", "ProjectionClass", "abs_det_sq",
    "classify_projection", "golden_norm", "min_abs_det_sq", "project_mod_1pi",
    "project_mod_2", "scan_det_floors",
    "RingMatrix", "all_matrices", "count_invertible",
    "LinearCode", "MatrixSpace", "WeightKind", "dual_repetition_code", "hexacode",
    "inner_parity_pair_code", "lee_weight", "lift_code", "min_distance", "named_code",
    "pushforward_pairs", "reed_solomon_code", "rs_distance_certificate",
    "F2", "F2I", "F4", "F4I", "F8", "F16", "F16_ALT", "QuotientRing", "RingElement",
    "get_ring", "quadratic_norm",
    "OracleReport", "brute_delta_min", "run_all", "run_claim",
    "__version__",
]
SUBMODULES = ["bounds", "cli", "cyclic", "golden", "matrices", "outer_codes", "rings", "verify"]


def test_facade_names_are_the_submodules_objects():
    """Each public name is read from the submodule its table entry names,
    and __all__ keeps its order."""
    assert cosetcodes.__all__ == PUBLIC_NAMES
    for name in cosetcodes.__all__[:-1]:
        module = importlib.import_module(f"cosetcodes.{cosetcodes._MODULE_OF[name]}")
        assert getattr(cosetcodes, name) is getattr(module, name), name


def test_facade_dir_star_import_and_unknown_names():
    assert set(cosetcodes.__all__) | set(SUBMODULES) <= set(dir(cosetcodes))
    namespace: dict = {}
    exec("from cosetcodes import *", namespace)
    assert set(cosetcodes.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match=r"^module 'cosetcodes' has no attribute 'nosuch'$"):
        cosetcodes.nosuch
    assert not hasattr(cosetcodes, "nosuch")


# Loads the package and its CLI in a fresh interpreter, runs the command
# given in argv (if any) and prints the cosetcodes modules then loaded.
_PROBE = """
import contextlib, io, sys
import cosetcodes, cosetcodes.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cosetcodes.cli.main(sys.argv[1:]) == 0
print(*sorted(m for m in sys.modules if m.split(".")[0] == "cosetcodes"))
"""
_BASE = {"cosetcodes", "cosetcodes.cli"}
_ALGEBRA = {"cosetcodes.rings", "cosetcodes.matrices", "cosetcodes.cyclic"}


@pytest.mark.parametrize(
    "argv,loaded",
    [
        ((), _BASE),
        (("mindet", "--box", "1"), _BASE | _ALGEBRA | {"cosetcodes.golden"}),
        (("mindist", "--code", "dualrep"), _BASE | _ALGEBRA | {"cosetcodes.outer_codes"}),
        (("weights", "--kind", "bachoc", "--word", "[[1,0],[0,1]]"),
         _BASE | _ALGEBRA | {"cosetcodes.outer_codes"}),
        (("encode", "--code", "dualrep", "--msg", "1,w,w+1"),
         _BASE | _ALGEBRA | {"cosetcodes.outer_codes"}),
        (("bounds", "--which", "gv"), _BASE | {"cosetcodes.bounds"}),
        (("iso", "--which", "f8m3", "--element", "1"), _BASE | _ALGEBRA),
        (
            ("verify", "--claim", "counts"),
            {f"cosetcodes.{name}" for name in SUBMODULES} | {"cosetcodes"},
        ),
    ],
    ids=["import", "mindet", "mindist", "weights", "encode", "bounds", "iso", "verify"],
)
def test_a_command_loads_only_its_layers(argv, loaded):
    """Importing the package loads no submodule, and each command imports
    the modules it uses and no others.  Run in a fresh interpreter: the
    test process has already imported all of them."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == loaded


@pytest.mark.parametrize(
    "argv,code,out,err",
    [
        (("verify", "--claim", "counts"), 0, "counts\tpass\t-\n", ""),
        (("mindet", "--box", "0"), 2, "", "error: box must be at least 1\n"),
    ],
    ids=["verify", "refused"],
)
def test_python_m_runs_the_command_line(argv, code, out, err):
    """``python -m cosetcodes`` runs the console script's main without an
    install, and passes its exit code on."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "cosetcodes", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


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


def test_only_a_ring_builds_its_elements():
    """Ring elements compare by identity, which holds only while every
    element is interned: no code under src/cosetcodes may build a
    ``RingElement`` (by calling the class or handing it to ``__new__``)
    anywhere but in ``QuotientRing.__init__``, which builds each once."""
    def named(node):
        return isinstance(node, ast.Name) and node.id == "RingElement" or (
            isinstance(node, ast.Attribute) and node.attr == "RingElement"
        )

    builders = []

    def scan(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call) and (named(child.func) or (
                isinstance(child.func, ast.Attribute) and child.func.attr == "__new__"
                and any(map(named, child.args))
            )):
                builders.append(f"{where}:{child.lineno}")
            scan(child, where)

    for path in sorted((ROOT / "src" / "cosetcodes").rglob("*.py")):
        scan(ast.parse(path.read_text(), str(path)), path.stem)
    assert [b.split(":")[0] for b in builders] == ["rings.QuotientRing.__init__"], builders


def test_golden_and_cli_compare_no_value_with_an_ideal_string():
    """The records of ``golden._IDEALS`` are the one place that names the
    ideals: golden.py, cli.py and verify.py compare no value with an ideal
    string, so a new ideal is one more record, not one more branch at each
    site.  The verify oracle dispatches through its own depth table, on
    purpose: it reads the record only for the library half keys it checks."""
    from cosetcodes import golden

    ideals = set(golden._IDEALS)
    for module in ("golden", "cli", "verify"):
        path = ROOT / "src" / "cosetcodes" / f"{module}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare):
                named = {
                    leaf.value
                    for operand in (node.left, *node.comparators)
                    for leaf in ast.walk(operand)
                    if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)
                } & ideals
                assert not named, f"{module}.py:{node.lineno} compares with {sorted(named)}"


def test_golden_names_an_ideal_only_in_its_projections():
    """A table keyed by ideal has one reader that takes the ideal, so the
    only public golden names that carry an ideal are the projections."""
    from cosetcodes import golden

    assert sorted(
        name for name in vars(golden) if not name.startswith("_") and name.endswith(("_1pi", "_2"))
    ) == ["project_mod_1pi", "project_mod_2", "project_pair_mod_1pi", "project_pair_mod_2"]


def test_the_ideal_strings_written_out_are_the_keys_of_the_record(capsys):
    """The parser's --ideal choices and the four refusals of an unknown
    ideal write the ideal strings out, and a literal costs fewer compiled
    bytes than a message built from ``golden._IDEALS``: each must name
    exactly the record's keys, in its order."""
    import argparse

    from cosetcodes import cli, golden
    from cosetcodes.matrices import RingMatrix
    from cosetcodes.rings import F2

    keys = list(golden._IDEALS)
    mindet = next(
        action for action in cli.build_parser()._actions if isinstance(action, argparse._SubParsersAction)
    ).choices["mindet"]
    assert next(action.choices for action in mindet._actions if action.dest == "ideal") == keys
    coset = RingMatrix.identity(F2, 2)
    for refuse in (lambda: golden.min_abs_det_sq(1, coset=coset, ideal="3"),
                   lambda: golden.scan_det_floors("3"),
                   lambda: golden.floor_table("3")):
        with pytest.raises(ValueError) as refusal:
            refuse()
        assert re.findall(r"'(\w+)'", str(refusal.value)) == keys
    assert cli.main(["mindet", "--box", "1", "--coset", "[[1,0],[0,1]]"]) == 2
    assert capsys.readouterr().err == f"error: --coset needs --ideal {'|'.join(keys)}\n"


def _compiled_size(module: str) -> int:
    """Bytes of the module's code object, compiled under its repo-relative
    path (the size depends on the path string)."""
    path = f"src/cosetcodes/{module}.py"
    return len(marshal.dumps(compile((ROOT / path).read_text(), path, "exec")))


def _spaced(n: int) -> str:
    return f"{n:,}".replace(",", " ")


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="the README gives code-object sizes on CPython 3.11",
)
def test_readme_states_the_compiled_sizes():
    """The module map's "compiled" column, and the share of it that
    ``cosetcodes mindet`` compiles, match the sources."""
    readme = (ROOT / "README.md").read_text()
    modules = sorted(path.stem for path in (ROOT / "src" / "cosetcodes").glob("*.py"))
    sizes = {m: _compiled_size(m) for m in modules}
    column = dict(re.findall(r"^\| `(\w+)` \|.*\| ([\d ]+) \|$", readme, re.M))
    assert column == {m: _spaced(n) for m, n in sizes.items()}
    mindet = sum(sizes[m] for m in ("rings", "matrices", "cyclic", "golden"))
    sentence = re.search(
        r"compiles only rings, matrices, cyclic and golden"
        r" \((\d[\d ]*) bytes of the package's (\d[\d ]*)\)",
        " ".join(readme.split()),
    )
    assert sentence and sentence.groups() == (_spaced(mindet), _spaced(sum(sizes.values())))
