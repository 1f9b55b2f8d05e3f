"""dlasq1 comes from scipy.linalg.cython_lapack alone, without scipy.linalg.

The import checks run in fresh interpreters, since this one has long
loaded scipy.linalg for the tests that compare against it.
"""

import os
import pathlib
import subprocess
import sys
import types

import pytest

from bdhit import _lapack

ROOT = pathlib.Path(__file__).resolve().parents[1]


def fresh_python(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.split()


def test_cli_import_leaves_scipy_linalg_and_numpy_random_out():
    loaded = fresh_python(
        "import sys, bdhit.cli\n"
        "print(*sorted(m for m in sys.modules if m.startswith(('scipy.linalg', 'numpy.random'))\n"
        "              and m != 'scipy.linalg.cython_lapack'))\n"
    )
    assert loaded == []


def test_scipy_linalg_imported_after_bdhit_binds_the_loaded_module():
    assert fresh_python(
        "import bdhit\n"
        "import scipy.linalg.cython_lapack as cl\n"
        "import scipy.linalg\n"
        "print(cl is bdhit._lapack._cython_lapack, scipy.linalg.cython_lapack is cl)\n"
    ) == ["True", "True"]


def test_bdhit_imported_after_scipy_linalg_reuses_its_module():
    assert fresh_python(
        "import scipy.linalg\n"
        "import bdhit\n"
        "print(bdhit._lapack._cython_lapack is scipy.linalg.cython_lapack)\n"
    ) == ["True"]


def test_missing_module_is_refused_by_name(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg.cython_lapack", raising=False)
    with pytest.raises(RuntimeError, match=r"scipy\.linalg\.cython_lapack: not found"):
        _lapack._load([str(tmp_path)])


@pytest.mark.parametrize("capi", [None, {}], ids=["no-capi", "no-dlasq1"])
def test_missing_capsule_is_refused_by_name(capi):
    module = types.SimpleNamespace() if capi is None else types.SimpleNamespace(__pyx_capi__=capi)
    with pytest.raises(RuntimeError, match=r"scipy\.linalg\.cython_lapack does not export dlasq1"):
        _lapack._dlasq1(module)
