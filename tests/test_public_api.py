"""The names ``evopep`` exports: each resolves, and they cover every name a
demo or the benchmark imports from the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import evopep

ROOT = Path(__file__).resolve().parent.parent


def imported_from_evopep(path: Path) -> set[str]:
    """Names a file imports with ``from evopep import ...``, at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "evopep" and not node.level
        for alias in node.names
    }


def test_all_names_are_distinct_and_resolve():
    assert len(evopep.__all__) == len(set(evopep.__all__))
    assert [name for name in evopep.__all__ if not hasattr(evopep, name)] == []


def test_demos_and_benchmark_import_only_exported_names():
    files = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    imports = {
        (path.relative_to(ROOT).as_posix(), name)
        for path in files
        for name in imported_from_evopep(path)
    }
    assert {path for path, _ in imports} >= {"demos/01_masses_and_ladders.py", "perfbench/run.py"}
    assert sorted((path, name) for path, name in imports if name not in evopep.__all__) == []


@pytest.mark.parametrize("preset, threads", [(None, "1"), ("3", "3")])
def test_import_caps_blas_threads_unless_the_caller_set_them(preset, threads):
    # evopep makes no BLAS call; numpy's OpenBLAS would start a second
    # thread per process unless the variable is set before numpy loads.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, evopep; print(os.environ['OPENBLAS_NUM_THREADS'])"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [threads]


def test_reading_an_evaluation_name_loads_its_module():
    # `import evopep` leaves evopep.evaluation unloaded until one of its
    # names is first read (a module __getattr__).
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import sys, evopep; loaded = 'evopep.evaluation' in sys.modules; "
        "cls = evopep.SynthConfig; "
        "print(loaded, 'evopep.evaluation' in sys.modules, cls.__module__)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True", "evopep.evaluation"]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        evopep.no_such_name
