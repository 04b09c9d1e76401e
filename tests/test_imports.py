"""Every name a module of the package imports is used in that module, every
private module-level name is read by the package's own code, and the CLI
loads no module from outside the standard library but numpy."""

import ast
import collections
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jcas_regions"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            # a star import binds the names its module's __all__ lists
            imported |= {a.asname or a.name for a in node.names if a.name != "*"}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_scan_flags_an_unused_import():
    source = ("import os.path\nfrom .info import entropy, build_joint as bj\n"
              "from .regions import *\nbj()\n")
    assert unused_imports(source) == ["entropy", "os"]


def test_package_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_names(source: str) -> set[str]:
    """Module-level functions, classes and assigned names of ``source`` that
    start with one underscore (dunders are not private helpers)."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def reads(sources, modules) -> collections.Counter:
    """How often code in ``sources`` reads each name: as a bare name, or as
    an attribute of one of ``modules`` (``channel._findings``).  A
    definition, an import and a docstring are no read."""
    count = collections.Counter()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                count[node.id] += 1
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                count[node.attr] += 1
    return count


def test_scan_flags_a_dead_helper():
    source = ('"""_dead is named here."""\nfrom .info import _dead\n_KEPT = 1\n'
              "def _dead():\n    return _KEPT\ndef _used():\n    pass\n"
              "class _Table:\n    pass\ninfo._used()\n")
    names = private_names(source)
    assert names == {"_KEPT", "_Table", "_dead", "_used"}
    assert sorted(n for n in names if not reads([source], {"info"})[n]) == ["_Table", "_dead"]


def test_every_private_name_is_read_by_the_package():
    # a helper that only tests call is dead code: tests do not count, and
    # neither does the scripts' or the benchmark's use
    sources = [path.read_text(encoding="utf-8") for path in MODULES]
    count = reads(sources, {path.stem for path in MODULES})
    dead = {path.name: sorted(n for n in private_names(source) if not count[n])
            for path, source in zip(MODULES, sources)}
    assert {name: names for name, names in dead.items() if names} == {}


def test_cli_loads_only_numpy_beyond_the_standard_library():
    # in a fresh interpreter: what the import loads is part of every jcas
    # call's start-up time, and numpy is the one dependency
    code = ("import sys\nbefore = set(sys.modules)\nimport jcas_regions.cli\n"
            "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}"
            " - sys.stdlib_module_names))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.split() == ["jcas_regions", "numpy"]
