"""Entanglement relative to observable-induced tensor product structures.

The same state can be maximally entangled, partially entangled or
separable depending on which partition of the observables defines the
subsystems.  This package computes entanglement relative to explicit
frames, constructs frames realizing any wanted Schmidt spectrum, carries
the analogous machinery for Gaussian states, and works through the
two-body system: particle versus center-of-mass/relative splits, their
invariances, and entanglement growth in lattice scattering.

The top-level names are exactly the ``__all__`` of the five modules below.
"""

from .findim import *
from .gaussian import *
from .scattering import *
from .tailor import *
from .twobody import *

__version__ = "0.1.0"
