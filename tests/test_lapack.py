"""dlasq1 comes from scipy.linalg.cython_lapack alone, without scipy.linalg,
and BLAS is loaded with one thread when bdhit is the first to load it.

The import checks run in fresh interpreters, since this one has long
loaded scipy.linalg for the tests that compare against it.  Their
environment holds none of the variables that size OpenBLAS's pools unless
a test sets one.
"""

import os
import pathlib
import subprocess
import sys
import types

import pytest

from bdhit import _lapack

ROOT = pathlib.Path(__file__).resolve().parents[1]


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
TASKS = "len(os.listdir('/proc/self/task'))"
needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="threads are counted in /proc/self/task"
)
needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="OpenBLAS starts no pool on one CPU",
)


def fresh_python(code, **extra_env):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(extra_env, PYTHONPATH=str(ROOT / "src"))
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


@needs_proc
def test_cli_import_runs_one_thread_and_restores_the_environment():
    assert fresh_python(
        "import os\n"
        "before = dict(os.environ)\n"
        "import bdhit.cli\n"
        f"print({TASKS}, 'OPENBLAS_NUM_THREADS' in os.environ, dict(os.environ) == before)\n"
    ) == ["1", "False", "True"]


@needs_proc
@needs_two_cpus
@pytest.mark.parametrize("var", THREAD_VARS)
def test_thread_variable_of_the_caller_is_kept_and_honoured(var):
    tasks, value, others = fresh_python(
        "import os, bdhit.cli\n"
        f"print({TASKS}, os.environ[{var!r}], sum(v in os.environ for v in {THREAD_VARS!r}))\n",
        **{var: "2"},
    )
    assert int(tasks) > 1
    assert (value, others) == ("2", "1")


@needs_proc
@needs_two_cpus
def test_numpy_imported_first_keeps_the_default_pools():
    default = fresh_python(f"import os, numpy, scipy.linalg.cython_lapack\nprint({TASKS})\n")
    assert int(default[0]) > 1
    assert fresh_python(f"import os, numpy, bdhit\nprint({TASKS})\n") == default
