"""dlasq1 comes from numpy's own LAPACK (its bundled OpenBLAS's ILP64
interface) when it exports one, else from scipy.linalg.cython_lapack alone,
without scipy.linalg; the two give the same bits.  BLAS is loaded with one
thread when bdhit is the first to load it.

The import checks run in fresh interpreters, since this one has long
loaded scipy.linalg for the tests that compare against it.  Their
environment holds none of the variables that size OpenBLAS's pools unless
a test sets one.  A fresh interpreter takes the scipy fallback when MISS
runs first: it makes numpy's library look as if it had no ILP64 dlasq1.
"""

import json
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest

from bdhit import ProcessSpec, _lapack, asymmetric_rw_spec, finite_evaluator, symmetric_rw_spec
from bdhit.spectral import _bidiagonal_singular_values
from conftest import random_chain

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


NUMPY_DLASQ1 = _lapack._numpy_dlasq1()
needs_numpy_dlasq1 = pytest.mark.skipif(
    NUMPY_DLASQ1 is None, reason=f"numpy's LAPACK exports no {_lapack._ILP64_NAME}"
)
MISS = (
    "import ctypes\n"
    "_get = ctypes.CDLL.__getitem__\n"
    "def _miss(lib, name):\n"
    f"    if name == {_lapack._ILP64_NAME!r}:\n"
    "        raise AttributeError(name)\n"
    "    return _get(lib, name)\n"
    "ctypes.CDLL.__getitem__ = _miss\n"
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
    # the fallback's module: numpy's library is made to miss first
    assert fresh_python(
        MISS + "import bdhit\n"
        "import scipy.linalg.cython_lapack as cl\n"
        "import scipy.linalg\n"
        "print(cl is bdhit._lapack._cython_lapack, scipy.linalg.cython_lapack is cl)\n"
    ) == ["True", "True"]


def test_bdhit_imported_after_scipy_linalg_reuses_its_module():
    assert fresh_python(
        MISS + "import scipy.linalg\n"
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
    default = fresh_python(f"import os, numpy\nprint({TASKS})\n")
    assert int(default[0]) > 1
    assert fresh_python(f"import os, numpy, bdhit\nprint({TASKS})\n") == default


def bidiagonal(spec):
    """The bidiagonal factor finite_spectrum hands to dlasq1: (d, e), e padded to N."""
    d = np.sqrt(spec.mu_array())
    e = np.zeros(len(d))
    e[:-1] = -np.sqrt(spec.lam_array()[:-1])
    return d, e


def linear_chain(n):
    """lambda_i = i, mu_i = 2 i, top birth rate 0."""
    return ProcessSpec((*range(1, n), 0), tuple(2 * i for i in range(1, n + 1)))


SOURCE_CHAINS = {
    **{f"walk-{n}": (symmetric_rw_spec, 1, n) for n in (10, 1000, 2000)},
    **{f"walk21-{n}": (asymmetric_rw_spec, 2, 1, n) for n in (60, 1024)},
    "walk12-2000": (asymmetric_rw_spec, 1, 2, 2000),
    **{f"random{s}-{n}": (random_chain, s, n) for s in (3, 5, 7) for n in (40, 500, 2000)},
    "linear-400": (linear_chain, 400),
}


@needs_numpy_dlasq1
@pytest.mark.parametrize("chain", SOURCE_CHAINS.values(), ids=SOURCE_CHAINS.keys())
def test_numpy_and_scipy_sources_give_the_same_bits(chain):
    spec = chain[0](*chain[1:])
    scipy_dlasq1 = _lapack._dlasq1(_lapack._load(_lapack._linalg_dirs()))
    (d1, e1), (d2, e2) = bidiagonal(spec), bidiagonal(spec)
    assert NUMPY_DLASQ1(d1, e1) == scipy_dlasq1(d2, e2) == 0
    assert d1.tobytes() == d2.tobytes()
    assert np.all(d1[:-1] >= d1[1:]) and d1[-1] > 0


@needs_numpy_dlasq1
def test_module_takes_numpy_source():
    assert _lapack.SOURCE == f"numpy {np.__version__} {_lapack._ILP64_NAME}"


def test_forced_numpy_miss_gives_the_same_spectra_through_scipy():
    specs = [symmetric_rw_spec(1, 1000), asymmetric_rw_spec(2, 1, 1024), random_chain(3, 500)]
    walk = symmetric_rw_spec(1, 200)
    source, *spectra = fresh_python(
        MISS + "import json, bdhit, numpy as np\n"
        "from bdhit.spectral import _bidiagonal_singular_values as svd\n"
        "print(bdhit._lapack.SOURCE.replace(' ', '_'))\n"
        f"for doc in json.loads({json.dumps([spec.to_dict() for spec in specs])!r}):\n"
        "    spec = bdhit.spec_from_dict(doc)\n"
        "    print(svd(np.sqrt(spec.mu_array()), -np.sqrt(spec.lam_array()[:-1])).tobytes().hex())\n"
        f"ev = bdhit.finite_evaluator(bdhit.spec_from_dict({walk.to_dict()!r}))\n"
        "print(ev.theta.tobytes().hex(), ev.weights.tobytes().hex())\n"
    )
    assert source.startswith("scipy_") and source.endswith("_scipy.linalg.cython_lapack.dlasq1")
    ev = finite_evaluator(walk)
    assert spectra == [
        *(
            _bidiagonal_singular_values(
                np.sqrt(spec.mu_array()), -np.sqrt(spec.lam_array()[:-1])
            ).tobytes().hex()
            for spec in specs
        ),
        ev.theta.tobytes().hex(),
        ev.weights.tobytes().hex(),
    ]


@needs_numpy_dlasq1
def test_cli_jobs_load_neither_scipy_nor_openssl(tmp_path):
    loaded = fresh_python(
        "import sys, bdhit.cli\n"
        "for argv in (['spectrum', '--model', 'symmetric_rw', '--kappa', '1', '--N', '50'],\n"
        "             ['density', '--model', 'symmetric_rw', '--kappa', '1', '--N', '50']):\n"
        f"    assert bdhit.cli.main([*argv, '--out-dir', {str(tmp_path)!r}]) == 0\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', '_hashlib')))\n"
    )
    assert loaded == []
