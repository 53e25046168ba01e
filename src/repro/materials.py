"""Material property database.

Thermal properties of the solids and fluids that appear in the two
cooling configurations studied by the paper.  Values are representative
room-temperature properties drawn from the HotSpot tool defaults and
standard heat-transfer references (Cengel, *Heat and Mass Transfer*,
the reference the paper itself cites for the correlations).

All properties are SI:

* ``conductivity``      -- W / (m K)
* ``density``           -- kg / m^3
* ``specific_heat``     -- J / (kg K)
* ``volumetric_heat``   -- J / (m^3 K)  (derived: density * specific_heat)
"""

from __future__ import annotations

from dataclasses import dataclass

from .units import require_positive


@dataclass(frozen=True)
class Material:
    """An isotropic solid material participating in heat conduction."""

    name: str
    conductivity: float
    density: float
    specific_heat: float

    def __post_init__(self) -> None:
        require_positive("conductivity", self.conductivity)
        require_positive("density", self.density)
        require_positive("specific_heat", self.specific_heat)

    @property
    def volumetric_heat(self) -> float:
        """Volumetric heat capacity in J/(m^3 K)."""
        return self.density * self.specific_heat


# --- Solids -----------------------------------------------------------------

#: Bulk silicon.  HotSpot default: k = 100 W/mK (slightly below pure-crystal
#: 148 W/mK to account for doping and operating temperature), volumetric
#: heat 1.75e6 J/m^3K.
SILICON = Material("silicon", conductivity=100.0, density=2330.0, specific_heat=751.1)

#: Copper, for the heat spreader and heatsink base.  HotSpot default:
#: k = 400 W/mK, volumetric heat 3.55e6 J/m^3K.
COPPER = Material("copper", conductivity=400.0, density=8933.0, specific_heat=397.4)

#: Thermal interface material between die and spreader.  HotSpot default
#: k = 4 W/mK (a high-end thermal grease / phase-change film).
THERMAL_INTERFACE = Material(
    "thermal_interface", conductivity=4.0, density=2600.0, specific_heat=900.0
)

#: Effective on-chip interconnect stack (metal levels + inter-layer
#: dielectric).  Copper wires raise the effective conductivity well above
#: the oxide's 1.4 W/mK; 2.25 W/mK follows HotSpot 5.0's secondary-path
#: default for the metal layer.
INTERCONNECT = Material(
    "interconnect", conductivity=2.25, density=2800.0, specific_heat=800.0
)

#: C4 solder bumps embedded in underfill epoxy, as an effective medium:
#: ~25% bump coverage at k ~ 50 W/mK in parallel with underfill epoxy
#: (~0.6 W/mK) gives an effective through-plane conductivity near
#: 0.25*50 + 0.75*0.6 ~ 13; derated for pad/via constriction.
C4_UNDERFILL = Material(
    "c4_underfill", conductivity=5.0, density=2300.0, specific_heat=850.0
)

#: Organic package substrate: build-up laminate with copper planes and
#: dense via fields under the die; 8 W/mK is an isotropic effective
#: value between the resin's ~0.5 and the copper planes' in-plane tens.
PACKAGE_SUBSTRATE = Material(
    "package_substrate", conductivity=8.0, density=2000.0, specific_heat=900.0
)

#: BGA solder ball array (solder plus air gaps, effective medium).
SOLDER_BALLS = Material(
    "solder_balls", conductivity=5.0, density=7500.0, specific_heat=220.0
)

#: Printed circuit board: FR4 with several copper planes and a thermal
#: via field under the socket; isotropic effective value.
PCB = Material("pcb", conductivity=3.0, density=1900.0, specific_heat=1100.0)


@dataclass(frozen=True)
class Fluid:
    """A coolant fluid for convective boundary layers.

    ``kinematic_viscosity`` is nu in m^2/s; the Prandtl number is derived
    as ``nu / alpha`` with thermal diffusivity ``alpha = k / (rho c_p)``.
    """

    name: str
    conductivity: float
    density: float
    specific_heat: float
    kinematic_viscosity: float

    def __post_init__(self) -> None:
        require_positive("conductivity", self.conductivity)
        require_positive("density", self.density)
        require_positive("specific_heat", self.specific_heat)
        require_positive("kinematic_viscosity", self.kinematic_viscosity)

    @property
    def volumetric_heat(self) -> float:
        """Volumetric heat capacity in J/(m^3 K)."""
        return self.density * self.specific_heat

    @property
    def thermal_diffusivity(self) -> float:
        """alpha = k / (rho c_p), in m^2/s."""
        return self.conductivity / self.volumetric_heat

    @property
    def prandtl(self) -> float:
        """Prandtl number Pr = nu / alpha (dimensionless)."""
        return self.kinematic_viscosity / self.thermal_diffusivity


#: IR-transparent mineral oil of the kind used in the Mesa-Martinez et al.
#: ISCA'07 setup the paper models.  Properties chosen within the published
#: range for light mineral oils so that a 10 m/s flow over a 20 mm die
#: yields Rconv close to 1.0 K/W, matching the paper's validation setup
#: (Section 3.2: "The equivalent convection thermal resistance is about
#: 1.0 K/W").  Pr ~ 250, laminar at these speeds and lengths.
MINERAL_OIL = Fluid(
    "mineral_oil",
    conductivity=0.13,
    density=850.0,
    specific_heat=1900.0,
    kinematic_viscosity=2.0e-5,
)

#: Air at ~45 C, used for the fan-driven heatsink convection.
AIR = Fluid(
    "air",
    conductivity=0.027,
    density=1.1,
    specific_heat=1005.0,
    kinematic_viscosity=1.7e-5,
)

#: Water, provided for completeness (forced water cooling appears in the
#: paper's cooling-mechanism taxonomy, Section 2.1).
WATER = Fluid(
    "water",
    conductivity=0.6,
    density=997.0,
    specific_heat=4180.0,
    kinematic_viscosity=8.9e-7,
)

#: Registry of named materials for file-driven configuration.
MATERIALS = {
    m.name: m
    for m in (
        SILICON,
        COPPER,
        THERMAL_INTERFACE,
        INTERCONNECT,
        C4_UNDERFILL,
        PACKAGE_SUBSTRATE,
        SOLDER_BALLS,
        PCB,
    )
}

#: Registry of named fluids.
FLUIDS = {f.name: f for f in (MINERAL_OIL, AIR, WATER)}
