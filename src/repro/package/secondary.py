"""The secondary heat transfer path (paper Fig. 1, Section 3.1).

Heat leaving the active side of the die crosses, in order: the on-chip
interconnect stack, the C4 bumps and underfill, the package substrate,
the BGA solder balls, and the printed-circuit board, whose far side is
cooled either by the same IR-transparent oil stream (the IR-imaging
bench, where the board sits in the flow) or by natural air convection
(a normal system).

Layer thicknesses follow flip-chip BGA practice and HotSpot 5.0's
secondary-path defaults; conductivities are effective-medium values
documented in :mod:`repro.materials`.
"""

from __future__ import annotations

from typing import Optional

from ..convection.flow import FlowDirection, FlowSpec
from ..materials import (
    C4_UNDERFILL,
    INTERCONNECT,
    MINERAL_OIL,
    PACKAGE_SUBSTRATE,
    PCB,
    SOLDER_BALLS,
)
from ..units import mm, um
from .config import SecondaryPath
from .layers import ConvectionBoundary, Layer

#: Natural-convection resistance for the PCB underside in a normal
#: (AIR-SINK) chassis.  The cavity under a socketed CPU is largely
#: enclosed (socket body, retention bracket, stagnant air): an
#: effective film coefficient of ~2-4 W/m^2K over the few-cm^2 socket
#: region, partially relieved by lateral board spreading, lands at
#: roughly a hundred K/W.  This is what makes the secondary path
#: negligible in a normal package (the paper's Fig. 5(b)): nearly all
#: heat exits through the heatsink.
NATURAL_CONVECTION_PCB_RESISTANCE = 120.0


def default_secondary_path(
    die_width: float,
    die_height: float,
    oil_flow: Optional[FlowSpec] = None,
    substrate_size: float = mm(30.0),
    pcb_size: float = mm(100.0),
) -> SecondaryPath:
    """Build the standard secondary path for a flip-chip BGA part.

    Parameters
    ----------
    die_width, die_height:
        Die footprint in meters (layers below the substrate overhang it).
    oil_flow:
        If given, the PCB underside is cooled by this oil stream (the
        IR-imaging bench, where the paper's Fig. 1 shows oil on both
        faces).  If None, the underside sees natural air convection, as
        in a normal chassis.
    substrate_size, pcb_size:
        Lateral extent (square) of the package substrate and the
        modelled PCB region.
    """
    layers = (
        Layer("interconnect", INTERCONNECT, thickness=um(12.0)),
        Layer("c4_underfill", C4_UNDERFILL, thickness=um(100.0)),
        Layer(
            "substrate",
            PACKAGE_SUBSTRATE,
            thickness=mm(0.7),
            footprint_width=substrate_size,
            footprint_height=substrate_size,
        ),
        Layer(
            "solder_balls",
            SOLDER_BALLS,
            thickness=um(800.0),
            footprint_width=substrate_size,
            footprint_height=substrate_size,
        ),
        Layer(
            "pcb",
            PCB,
            thickness=mm(1.6),
            footprint_width=pcb_size,
            footprint_height=pcb_size,
        ),
    )
    if oil_flow is not None:
        boundary = ConvectionBoundary(flow=oil_flow)
    else:
        boundary = ConvectionBoundary(
            total_resistance=NATURAL_CONVECTION_PCB_RESISTANCE
        )
    return SecondaryPath(layers=layers, boundary=boundary)


def default_pcb_oil_flow(velocity: float = 10.0) -> FlowSpec:
    """The oil stream over the PCB underside in the IR-imaging bench.

    Uniform-h mode: the board's far side is well away from the die and
    the direction effect there has no influence on die temperatures.
    """
    return FlowSpec(
        fluid=MINERAL_OIL,
        velocity=velocity,
        direction=FlowDirection.LEFT_TO_RIGHT,
        uniform=True,
    )
