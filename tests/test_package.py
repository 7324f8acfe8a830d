"""The package's lazy exports and the CLI's single BLAS thread.

Both are facts about a fresh interpreter, so each check that depends on what
was imported runs in a child process.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankdiff

SRC = Path(rankdiff.__file__).resolve().parents[1]


def fresh_python(code: str, **env: str) -> str:
    """The stdout of ``code`` run by a new interpreter that imports this checkout."""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC), **env},
    )
    return result.stdout.strip()


def test_import_loads_no_numpy():
    assert fresh_python("import rankdiff, sys; print('numpy' in sys.modules)") == "False"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/task")
def test_cli_runs_one_thread_despite_inherited_blas_setting():
    code = ("from rankdiff.cli import entrypoint; import os, sys; "
            "assert 'numpy' in sys.modules; print(len(os.listdir('/proc/self/task')))")
    assert fresh_python(code, OPENBLAS_NUM_THREADS="4") == "1"


@pytest.mark.parametrize("name", [n for n in rankdiff.__all__ if n != "__version__"])
def test_export_is_its_defining_module_object(name):
    home = importlib.import_module(f"rankdiff.{rankdiff._HOME[name]}")
    value = getattr(rankdiff, name)
    assert value is getattr(home, name)
    assert getattr(value, "__module__", home.__name__) == home.__name__


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from rankdiff import *", namespace)
    assert set(rankdiff.__all__) <= set(namespace)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        rankdiff.nope
