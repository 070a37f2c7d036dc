"""Simulator and optimizer for federated learning over a wireless uplink.

The package models per-link rates, delays, packet errors, and energy;
solves the joint user-selection / resource-block / power problem with a
Hungarian matching; runs the lossy federated training loop; and evaluates
the analytical convergence bound against measured trajectories.  Its
public names are each module's ``__all__``.
"""

from .phy import *
from .assignment import *
from .training import *
from .bounds import *
from .config import *
from .harness import *

__version__ = "0.1.0"
