"""The package's lazy exports, what each process imports, and the CLI's single
BLAS thread.

These are facts about a fresh interpreter, so each check that depends on what
was imported runs in a child process.
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


def test_oracle_loads_no_metrics():
    """The oracle checks the engine only while it shares no code with it."""
    code = "import rankdiff.oracle, sys; print('rankdiff.metrics' in sys.modules)"
    assert fresh_python(code) == "False"


def test_validate_loads_no_renderer(tmp_path):
    """``validate`` draws nothing, so its process never imports ``rankdiff.render``."""
    from rankdiff.synth import SynthSpec, write_fixture

    spec = SynthSpec.from_file(SRC.parent / "examples" / "spec.json")
    paths = write_fixture(spec, tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: path.name for key, path in paths.items()}),
                      encoding="utf-8")
    code = ("import contextlib, io, sys; from rankdiff import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = cli.main(['validate', '--config', {str(config)!r}])\n"
            "print(status, [name for name in sys.modules if name.startswith('rankdiff.render')])")
    assert fresh_python(code) == "0 []"


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


def _file_writes(tree: ast.AST) -> list[int]:
    """The lines of ``tree`` that call ``os.open``, or ``open`` with a mode that
    writes: one holding ``w``, ``a``, ``x`` or ``+``, or one not written out."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "open" \
                and isinstance(func.value, ast.Name) and func.value.id == "os":
            lines.append(node.lineno)
        elif isinstance(func, ast.Name) and func.id == "open":
            modes = [*node.args[1:2], *(kw.value for kw in node.keywords if kw.arg == "mode")]
            if any(not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
                   or set(mode.value) & set("wax+") for mode in modes):
                lines.append(node.lineno)
    return lines


def test_one_writer_opens_files_for_writing():
    """Every file the package writes goes through ``errors.write_text``, so no
    other module opens a file for writing."""
    package = Path(rankdiff.__file__).resolve().parent
    writes = {path.relative_to(package).as_posix(): _file_writes(ast.parse(path.read_bytes()))
              for path in sorted(package.rglob("*.py"))}
    assert len(writes["errors.py"]) == 1
    assert {name: lines for name, lines in writes.items() if lines and name != "errors.py"} == {}
