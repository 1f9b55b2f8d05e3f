"""Recover the initial distribution of an absorbed birth-and-death chain
from its first-hitting-time density.

The pieces: chain coordinates (speed measure, scale function), the
C-matrix whose row j is a differential operator in t, spectral measures
(exact atoms for finite chains, closed-form quadrature for the symmetric
walk), density and transition evaluators, the reconstruction itself
(spectral and blind-numeric routes), Doob h-transforms connecting
symmetric and asymmetric walks, a Monte Carlo oracle, and the battery of
cross-module property checks behind `bdhit verify`.
"""

__version__ = "0.1.0"

# _lapack comes first, before any module that imports numpy: it imports
# numpy, and with it numpy's bundled OpenBLAS, with one BLAS thread only
# while numpy is not yet imported (see its docstring).  Imported after
# numpy, it leaves OpenBLAS its thread pool: on a 2-vCPU host the median
# `import bdhit.cli` took about as long (0.114 s against 0.115 s) but twice
# the CPU time (0.29 s against 0.14 s), and its upper quartile rose from
# 0.125 s to 0.157 s.
from . import _lapack  # noqa: F401
from . import checks, cmatrix, densities, htransform, model, reproduce, simulate, spectral
from .model import *  # noqa: F401,F403
from .cmatrix import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .densities import *  # noqa: F401,F403
from .reproduce import *  # noqa: F401,F403
from .htransform import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .checks import *  # noqa: F401,F403

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
    *checks.__all__,
]
