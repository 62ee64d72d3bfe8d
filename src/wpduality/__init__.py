"""Entropic wave-particle duality bounds for N-path interferometers.

The package computes relative-entropy coherence of path states, solves
unambiguous and error-margin quantum state discrimination (analytically and
via a dedicated block-diagonal semidefinite program), and verifies the
duality relations tying path distinguishability to coherence.

The public API is the union of the ``__all__`` lists of the five modules
below, re-exported here.
"""

from . import discrimination, duality, matlin, quantum, sdp
from .discrimination import *  # noqa: F403
from .duality import *  # noqa: F403
from .matlin import *  # noqa: F403
from .quantum import *  # noqa: F403
from .sdp import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name for module in (discrimination, duality, matlin, quantum, sdp) for name in module.__all__
)
