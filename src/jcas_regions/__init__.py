"""Secrecy-distortion regions for state-dependent joint communication and
sensing channels with perfect output feedback.

The package computes, for finite-alphabet broadcast channels where one
receiver doubles as an eavesdropper whose state is still being sensed:

* inner/outer rate bounds and exact regions under physical or reverse
  degradedness, in both partial-secrecy and single-secure-message modes;
* optimal deterministic per-letter state estimators and their distortions;
* the closed-form binary multiplicative-Bernoulli example with a
  time-sharing separation baseline;
* seeded Monte-Carlo validation of the analytic quantities.

Each module's ``__all__`` is the one list of its public names; the package
republishes them all.
"""

from . import binary_example, channel, errors, estimators, info, regions, simulator
from .binary_example import *
from .channel import *
from .errors import *
from .estimators import *
from .info import *
from .regions import *
from .simulator import *

__version__ = "0.1.0"

__all__ = sorted({name for module in (binary_example, channel, errors, estimators, info,
                                      regions, simulator) for name in module.__all__})
