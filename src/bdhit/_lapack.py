"""LAPACK dlasq1 (dqds bidiagonal SVD) from scipy's bundled LAPACK.

scipy.linalg.lapack does not wrap dlasq1, but the extension module
scipy.linalg.cython_lapack exports every LAPACK routine as a C function
pointer in a capsule.  Only that one module is loaded here, found beside
scipy's files by path and run by its own loader: importing scipy.linalg
for it would also import scipy's array-API layer and, through it,
numpy.f2py, numpy.testing, numpy.random and numpy.ma, about 0.18 s of
every cold start.  A module that scipy.linalg has already loaded is
reused.  Otherwise the entry the extension loader puts into sys.modules
is taken out again: left there, a later `import scipy.linalg` would not
bind it as the package attribute (scipy.linalg.cython_lapack raises
AttributeError); taken out, that import binds the same module object.

Loading the extension also loads scipy's bundled OpenBLAS, and its init
imports numpy, which loads numpy's own.  Each library starts a pool of
worker threads, sized to the CPUs, as it loads.  bdhit uses neither pool
(dlasq1 is serial and its lstsq systems are small), and their start-up
competes with the import for the CPUs: on a 2-vCPU host the median
`import bdhit.cli` took 0.18 s and 0.34 s of CPU time with both pools,
0.12 s and 0.14 s with neither.  So when bdhit is the first to load BLAS
(numpy is not yet imported, and none of OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS and OMP_NUM_THREADS is set), both libraries load with
OPENBLAS_NUM_THREADS=1, which is deleted again once they are loaded:
os.environ and child processes see what the caller set.  A caller who
sets one of those variables, or imports numpy first, gets OpenBLAS's
default pools.
"""

import contextlib
import ctypes
import importlib.machinery
import importlib.util
import os
import sys

_MODULE = "scipy.linalg.cython_lapack"
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


def _dlasq1(module):
    """dlasq1 as a ctypes function, from the module's capsule."""
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
    address = get_pointer(capsule, get_name(capsule))
    int_p = ctypes.POINTER(ctypes.c_int)
    dbl_p = ctypes.POINTER(ctypes.c_double)
    return ctypes.CFUNCTYPE(None, int_p, dbl_p, dbl_p, dbl_p, int_p)(address)


with _one_blas_thread():
    _cython_lapack = _load(_linalg_dirs())
dlasq1 = _dlasq1(_cython_lapack)
