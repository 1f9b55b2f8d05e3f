"""LAPACK dlasq1 (dqds bidiagonal SVD) from the LAPACK numpy already links.

numpy's linalg extension links numpy's bundled OpenBLAS, which exports
every LAPACK routine through its ILP64 interface (64-bit integers) under
a prefixed name: dlasq1 is scipy_dlasq1_64_.  That library is loaded by
`import numpy` anyway, so taking dlasq1 from it loads nothing more.

Only when numpy's LAPACK does not export that symbol (numpy built against
another LAPACK) does dlasq1 come from scipy instead: the extension module
scipy.linalg.cython_lapack exports every LAPACK routine (LP64, 32-bit
integers) as a C function pointer in a capsule, and scipy.linalg.lapack
does not wrap dlasq1.  That fallback loads a second OpenBLAS, libgfortran
and the scipy package, about 4 MB, so it is taken only on a miss.  Only
that one module is loaded, found beside scipy's files by path and run by
its own loader: importing scipy.linalg for it would also import scipy's
array-API layer and, through it, numpy.f2py, numpy.testing, numpy.random
and numpy.ma, about 0.18 s of every cold start.  A module that
scipy.linalg has already loaded is reused.  Otherwise the entry the
extension loader puts into sys.modules is taken out again: left there, a
later `import scipy.linalg` would not bind it as the package attribute
(scipy.linalg.cython_lapack raises AttributeError); taken out, that import
binds the same module object.

dlasq1(d, e) hides the integer width: it overwrites d with the singular
values, descending, and returns LAPACK's INFO as an int.  SOURCE names the
routine that runs, for the run manifest.

OpenBLAS starts a pool of worker threads, sized to the CPUs, as it loads.
bdhit uses none (dlasq1 is serial and its lstsq systems are small), and
the pool's start-up competes with the import for the CPUs: on a 2-vCPU
host the median `import bdhit.cli` took 0.18 s and 0.34 s of CPU time
with the pools, 0.12 s and 0.14 s without.  So when bdhit is the first to
load BLAS (numpy is not yet imported, and none of OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS and OMP_NUM_THREADS is set), numpy, and the fallback's
library with it, loads with OPENBLAS_NUM_THREADS=1, which is deleted again
once they are loaded: os.environ and child processes see what the caller
set.  A caller who sets one of those variables, or imports numpy first,
gets OpenBLAS's default pool.
"""

import contextlib
import ctypes
import importlib.machinery
import importlib.util
import os
import sys

_MODULE = "scipy.linalg.cython_lapack"
_ILP64_NAME = "scipy_dlasq1_64_"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _linalg_dirs():
    """scipy's linalg directories, found without importing scipy."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return []
    return [os.path.join(d, "linalg") for d in scipy.submodule_search_locations]


def _load(linalg_dirs):
    """The scipy.linalg.cython_lapack module, loaded from linalg_dirs if need be."""
    module = sys.modules.get(_MODULE)
    if module is not None:
        return module
    spec = importlib.machinery.PathFinder.find_spec(_MODULE, linalg_dirs)
    if spec is None:
        raise RuntimeError(
            f"{_MODULE}: not found in {linalg_dirs}; "
            "finite spectra need its dlasq1 for the bidiagonal SVD"
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if sys.modules.get(_MODULE) is module:
        del sys.modules[_MODULE]
    return module


@contextlib.contextmanager
def _one_blas_thread():
    """OPENBLAS_NUM_THREADS=1 inside the block, if no BLAS is loaded or asked for yet."""
    if "numpy" in sys.modules or any(var in os.environ for var in _THREAD_VARS):
        yield
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)


def _wrap(address, c_int):
    """dlasq1(d, e) calling the routine at address, whose integers are c_int."""
    int_p = ctypes.POINTER(c_int)
    dbl_p = ctypes.POINTER(ctypes.c_double)
    routine = ctypes.CFUNCTYPE(None, int_p, dbl_p, dbl_p, dbl_p, int_p)(address)

    def dlasq1(d, e):
        """Singular values of the upper bidiagonal (d, e[:-1]), descending, into d.

        d and e are contiguous float64 arrays of one length n, both
        overwritten; returns LAPACK's INFO (0 on success).
        """
        n = len(d)
        work = np.empty(4 * n)
        info = c_int(0)
        routine(
            ctypes.byref(c_int(n)),
            d.ctypes.data_as(dbl_p),
            e.ctypes.data_as(dbl_p),
            work.ctypes.data_as(dbl_p),
            ctypes.byref(info),
        )
        return info.value

    return dlasq1


def _numpy_dlasq1():
    """dlasq1 from numpy's linalg LAPACK (ILP64), or None if it exports none."""
    from numpy.linalg import _umath_linalg

    try:
        routine = ctypes.CDLL(_umath_linalg.__file__)[_ILP64_NAME]
    except (OSError, AttributeError):
        return None
    return _wrap(ctypes.cast(routine, ctypes.c_void_p).value, ctypes.c_int64)


def _dlasq1(module):
    """dlasq1 from the cython_lapack module's capsule (LP64)."""
    try:
        capsule = module.__pyx_capi__["dlasq1"]
    except (AttributeError, KeyError) as exc:
        raise RuntimeError(
            f"{_MODULE} does not export dlasq1; "
            "finite spectra need it for the bidiagonal SVD"
        ) from exc
    get_name = ctypes.pythonapi.PyCapsule_GetName
    get_name.restype = ctypes.c_char_p
    get_name.argtypes = [ctypes.py_object]
    get_pointer = ctypes.pythonapi.PyCapsule_GetPointer
    get_pointer.restype = ctypes.c_void_p
    get_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    return _wrap(get_pointer(capsule, get_name(capsule)), ctypes.c_int)


with _one_blas_thread():
    import numpy as np

    dlasq1 = _numpy_dlasq1()
    if dlasq1 is not None:
        SOURCE = f"numpy {np.__version__} {_ILP64_NAME}"
    else:
        _cython_lapack = _load(_linalg_dirs())
        dlasq1 = _dlasq1(_cython_lapack)
        SOURCE = f"scipy {sys.modules['scipy'].__version__} {_MODULE}.dlasq1"
