"""Simulation and statistical verification of competing-particle dynamics
and random mass-partition reshuffling.

The public API is the submodules; nothing is re-exported here.
"""

__version__ = "0.1.0"
