"""A failing check is reported under the suite's own pytest settings, and the
session goes on to the tests after it. Every name a module exports exists."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import abcas

from helpers import abcas_env

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st

from helpers import property_settings


@property_settings(50)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after():
    pass
'''


def test_failing_property_test_is_reported_and_the_next_test_runs(tmp_path):
    # a failing hypothesis test makes its plugin write a patch, which imports
    # code that warns; under the suite's warning filters that must not end
    # the session with an internal error
    (tmp_path / "test_child.py").write_text(FAILING_PROPERTY)
    tests = Path(__file__).resolve().parent
    env = abcas_env()
    env["PYTHONPATH"] = os.pathsep.join([str(tests), env["PYTHONPATH"]])
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA", "test_child.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert "PASSED test_child.py::test_after" in out


# every submodule but __main__, which runs the CLI when imported
MODULES = sorted(m.name for m in pkgutil.iter_modules(abcas.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"abcas.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), exported
    assert [n for n in exported if not hasattr(module, n)] == []
