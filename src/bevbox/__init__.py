"""Oriented-box overlap measures, label assignment, and a fitting harness.

The package splits into six layers: exact and weighted overlap geometry,
analytical gradients for the weighted overlap loss, the loss functions, the
dynamic cross label assignment, a network-free gradient-descent harness on
synthetic scenes, and a command-line front end.  It exports the names in
each module's ``__all__``, the one list of that module's public names.
"""

from . import assignment, geometry, gradients, harness, losses
from .assignment import *
from .geometry import *
from .gradients import *
from .harness import *
from .losses import *

__version__ = "0.1.0"

__all__ = [name for module in (assignment, geometry, gradients, harness, losses)
           for name in module.__all__] + ["__version__"]
