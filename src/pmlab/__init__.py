"""Prepare-and-measure polarization toolkit.

Exact qubit joint probabilities, classical-ensemble bound checking and
feasibility fitting, witness-landscape scanning and minimization, and a
seeded virtual photon-counting bench.
"""

from . import bench, classical, landscape, qubit
from .bench import *  # noqa: F403
from .classical import *  # noqa: F403
from .landscape import *  # noqa: F403
from .qubit import *  # noqa: F403

__all__ = [*bench.__all__, *classical.__all__, *landscape.__all__, *qubit.__all__]

__version__ = "0.1.0"
