"""Computations on the moduli space of marked once-holed tori.

The package covers three coordinate charts (slit tori, hyperbolic
Fenchel-Nielsen data, extremal-length triples), hyperbolic length
spectra through explicit Fuchsian representations, finite-element
extremal lengths on slit tori, and the dominance-region machinery
built on top: truncated membership verdicts, critical lengths with
their admissible strips, and boundary corner certificates.

Importing the package loads charts only, which needs no numpy.  The
numpy modules extremal, fuchsian and regions load on first use (PEP 562):
holedtorus.regions, holedtorus.sigma_membership, __all__ and a star
import all resolve as if they had been imported eagerly.
"""

import importlib

__version__ = "0.1.0"

from . import charts
from .charts import *  # noqa: F403

#: Submodules loaded on first use, in the order __all__ lists their names.
_LAZY = ("extremal", "fuchsian", "regions")


def __getattr__(name: str):
    # `from holedtorus import cli` asks for cli here before it imports it,
    # so a submodule name imports that submodule and nothing else
    if name in (*_LAZY, "cli", "serialize"):
        return importlib.import_module(f".{name}", __name__)
    modules = [charts, *(importlib.import_module(f".{m}", __name__) for m in _LAZY)]
    if name == "__all__":
        return [n for module in modules for n in module.__all__]
    for module in modules[1:]:
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, *__getattr__("__all__")})
