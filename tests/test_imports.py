"""Every name a fuzgeo module imports is used in that module, __all__
names exactly what __init__ imports, every name the benchmark's tracer
wraps exists, and the package imports without the dataclasses machinery.

__init__ re-exports what it imports, so it is left out of the unused
import check; so are ``from __future__`` imports.  A name counts as used
where it appears as a name in the code or in a string annotation.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fuzgeo"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= used_names(ast.parse(annotation.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_finds_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\nfrom x import y as z\n"
                     "def f(a: 'sep') -> None:\n    return path\n")
    names = imported_names(tree)
    assert {n: names[n] for n in names if n not in used_names(tree)} == {"math": 1, "z": 3}


def test_all_is_what_init_imports():
    import fuzgeo

    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert len(set(fuzgeo.__all__)) == len(fuzgeo.__all__)
    assert set(fuzgeo.__all__) == set(imported_names(tree))
    namespace = {}
    exec("from fuzgeo import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(fuzgeo.__all__)


def test_tracer_finds_every_name_and_restores_it():
    # bench/tracer.py looks fuzgeo's functions and methods up by name: a
    # missing one fails install, and restore must put every original back.
    # Every module install imports is loaded first, so that none is bound
    # on the package between the two snapshots.
    from fuzgeo import (cli, core, distance, hausdorff, lines,  # noqa: F401
                        metric, midset, scene, svgout)

    spec = importlib.util.spec_from_file_location(
        "bench_tracer", PACKAGE.parent.parent / "bench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    owners = [mod for name, mod in sorted(sys.modules.items())
              if name == "fuzgeo" or name.startswith("fuzgeo.")]
    owners += [distance.FuzzyDistance, core.FuzzyNumber]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        assert tracer._patches
    finally:
        tracer.restore()
    assert [dict(vars(owner)) for owner in owners] == before


def test_import_leaves_out_dataclasses():
    # decorating records with dataclasses was most of the package's own
    # import time.  The modules fuzgeo imports from numpy and the standard
    # library come first, and dataclasses is dropped after them (some Python
    # versions import it for argparse), so only fuzgeo's own code counts.
    code = ("import sys, argparse, enum, functools, itertools, json, typing, numpy; "
            "sys.modules.pop('dataclasses', None); import fuzgeo, fuzgeo.cli; "
            "print(fuzgeo.__file__); print('dataclasses' in sys.modules)")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True)
    location, loaded = result.stdout.split()
    assert Path(location).resolve() == PACKAGE / "__init__.py"
    assert loaded == "False"


def test_cli_builds_its_parser_on_first_run():
    # the import leaves the parser unbuilt; the first run builds it, and the
    # runs after it reuse it
    code = ("import io, sys, fuzgeo.cli as cli; built = cli._parser.cache_info().currsize; "
            "sys.stdout = io.StringIO(); codes = [cli.run(['--help']) for _ in range(3)]; "
            "print(built, cli._parser.cache_info().misses, codes, file=sys.stderr)")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True)
    assert result.stderr.split("\n")[-2] == "0 1 [0, 0, 0]"
