"""Point-process simulation lab.

Samplers for Poisson/binomial processes, induced k-tuple processes,
spatial birth-death dynamics, probability distances (including an exact
discrete optimal-transport solver), explicit approximation bounds, and a
scenario runner that checks desk-scale limit experiments against those
bounds.
"""

__version__ = "0.1.0"

from .configuration import Configuration
from .geometry import Domain, unit_ball_volume

__all__ = ["Configuration", "Domain", "unit_ball_volume", "__version__"]
