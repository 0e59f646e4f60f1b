"""Each module of the package imports on its own, first, in a fresh interpreter.

``import sgdcheck.x`` would run the package's ``__init__`` first, which loads
the modules in one fixed order and can hide an import cycle that another
order trips over.  Here the package is registered without running its
``__init__``, so the module under test is the first one to load.
"""
import subprocess
import sys
from pathlib import Path

import pytest

import sgdcheck

PACKAGE_DIR = Path(sgdcheck.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE_DIR.glob("*.py") if path.stem != "__init__")

LOAD_FIRST = """
import importlib, importlib.util, sys
package_dir, name = sys.argv[1], sys.argv[2]
spec = importlib.util.spec_from_file_location(
    "sgdcheck", package_dir + "/__init__.py", submodule_search_locations=[package_dir]
)
sys.modules["sgdcheck"] = importlib.util.module_from_spec(spec)
importlib.import_module("sgdcheck." + name)
"""


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_first(name):
    result = subprocess.run(
        [sys.executable, "-c", LOAD_FIRST, str(PACKAGE_DIR), name],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_package_imports_in_a_fresh_interpreter():
    result = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import sgdcheck",
         str(PACKAGE_DIR.parent)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_package_import_defers_process_and_random_modules():
    # Worker processes and generators load these on first use, so
    # importing the package, the set-up of every command, does not pay for
    # them.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import numpy; before = set(sys.modules); "
        "import sgdcheck; print(' '.join(sorted(set(sys.modules) - before)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(PACKAGE_DIR.parent)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "sgdcheck.engine" in loaded
    assert not loaded & {"mmap", "signal", "multiprocessing", "numpy.random"}
