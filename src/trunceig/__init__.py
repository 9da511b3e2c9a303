"""Truncated eigenfunction-expansion regularization of first-kind integral
equations, with covering/packing information bounds and stability diagnostics.

Each module's ``__all__`` is its public API, and the package re-exports it.
The re-exports resolve on first use (PEP 562): importing the package loads
none of its modules, and importing one module loads only what it imports.
"""

import sys

__version__ = "0.1.0"

_MODULES = ("errors", "infotheory", "kernels", "regularize", "spectral", "stability")


def _module(name):
    # __import__ rather than importlib.import_module, whose loads
    # `python -X importtime` does not report.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    # A submodule comes first: the import system asks for one here
    # (`from . import kernels`) before it has loaded it.
    if name in _MODULES or name == "cli":
        return _module(name)
    modules = [_module(module) for module in _MODULES]
    if name == "__all__":
        return [export for module in modules for export in module.__all__]
    for module in modules:
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
