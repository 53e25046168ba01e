"""Compact thermal RC model (the modified-HotSpot core of the paper).

:class:`ThermalGridModel` turns a floorplan plus a
:class:`~repro.package.CoolingConfig` into a sparse thermal RC network:
every package layer is discretized on the die grid, layers that overhang
the die (spreader, heatsink, substrate, PCB) get lumped peripheral rim
nodes, and the convective boundaries become conductances to the ambient
node plus coolant capacitances (paper Eqns 1-4, Fig. 7).
"""

from .network import NetworkBuilder, ThermalNetwork
from .grid import ThermalGridModel
from .blockmodel import ThermalBlockModel, find_shared_edges
from .circuits import (
    air_sink_short_term_time_constant,
    air_sink_long_term_time_constant,
    oil_silicon_time_constant,
)

__all__ = [
    "NetworkBuilder",
    "ThermalNetwork",
    "ThermalGridModel",
    "ThermalBlockModel",
    "find_shared_edges",
    "air_sink_short_term_time_constant",
    "air_sink_long_term_time_constant",
    "oil_silicon_time_constant",
]
