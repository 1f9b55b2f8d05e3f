"""Recover the initial distribution of an absorbed birth-and-death chain
from its first-hitting-time density.

The pieces: chain coordinates (speed measure, scale function), the
C-matrix whose row j is a differential operator in t, spectral measures
(exact atoms for finite chains, closed-form quadrature for the symmetric
walk), density and transition evaluators, the reconstruction itself
(spectral and blind-numeric routes), Doob h-transforms connecting
symmetric and asymmetric walks, and a Monte Carlo oracle.
"""

__version__ = "0.1.0"

# _lapack comes first, before any module that imports numpy.  Loading its
# extension starts the thread pool of scipy's bundled OpenBLAS, whose
# start-up spin was seen to stall the main thread for about 60 ms within
# the next 150 ms (2-vCPU host).  Loaded first, the library is mapped
# before the extension's init imports scipy and numpy, so the stall falls
# inside numpy's import; loaded after numpy, 20-30 ms of it fell into a
# run's first job.  On the same host, importing bdhit.cli took 0.27 s this
# way and 0.30-0.32 s with numpy imported first.
from . import _lapack  # noqa: F401
from . import cmatrix, densities, htransform, model, reproduce, simulate, spectral
from .model import *  # noqa: F401,F403
from .cmatrix import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .densities import *  # noqa: F401,F403
from .reproduce import *  # noqa: F401,F403
from .htransform import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403

# The independent references are used by no module on the main path; load
# them with the package all the same, so `bdhit.oracles` is at hand after
# `import bdhit`.
from . import oracles

__all__ = [
    "__version__",
    *model.__all__,
    *cmatrix.__all__,
    *spectral.__all__,
    *densities.__all__,
    *reproduce.__all__,
    *htransform.__all__,
    *simulate.__all__,
]
