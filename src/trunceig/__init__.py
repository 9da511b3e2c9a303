"""Truncated eigenfunction-expansion regularization of first-kind integral
equations, with covering/packing information bounds and stability diagnostics.

Each module's ``__all__`` is its public API, and the package re-exports it.
"""

from .errors import *
from .infotheory import *
from .kernels import *
from .regularize import *
from .spectral import *
from .stability import *

__version__ = "0.1.0"
