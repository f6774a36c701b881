"""Coarray DOA estimation on sparse linear arrays.

Array geometries and their difference coarrays, snapshot simulation,
direct-augmentation and spatial-smoothing MUSIC, closed-form asymptotic
MSE and Cramer-Rao bounds, and a config-driven Monte Carlo harness that
checks the closed forms against simulation.

The root re-exports each module's ``__all__``; ``reference`` and
``cli`` stay out of it.
"""

__version__ = '0.1.0'

from . import geometry, model, estimator, analysis, harness
from .geometry import *
from .model import *
from .estimator import *
from .analysis import *
from .harness import *

__all__ = ['__version__'] + [
    name for module in (geometry, model, estimator, analysis, harness)
    for name in module.__all__]
