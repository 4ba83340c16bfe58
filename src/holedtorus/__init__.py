"""Computations on the moduli space of marked once-holed tori.

The package covers three coordinate charts (slit tori, hyperbolic
Fenchel-Nielsen data, extremal-length triples), hyperbolic length
spectra through explicit Fuchsian representations, finite-element
extremal lengths on slit tori, and the dominance-region machinery
built on top: truncated membership verdicts, critical lengths with
their admissible strips, and boundary corner certificates.
"""

__version__ = "0.1.0"

from . import charts, extremal, fuchsian, regions
from .charts import *  # noqa: F403
from .extremal import *  # noqa: F403
from .fuchsian import *  # noqa: F403
from .regions import *  # noqa: F403

__all__ = charts.__all__ + extremal.__all__ + fuchsian.__all__ + regions.__all__
