"""Every name a module of the package imports is used in that module, and
the CLI loads no module from outside the standard library but numpy."""

import ast
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
