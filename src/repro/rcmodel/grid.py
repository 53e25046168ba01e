"""The grid thermal model: floorplan + cooling config -> RC network.

Discretizes every package layer on an ``nx x ny`` grid over the die
footprint, adds lumped peripheral rim nodes for overhanging layers, and
terminates each stack with its convective boundary.  See the package
docstring of :mod:`repro.rcmodel` and DESIGN.md Section 5.1.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..convection.flow import local_h_field
from ..errors import ConfigurationError
from ..floorplan.block import Floorplan
from ..floorplan.grid_map import GridMapping
from ..package.config import CoolingConfig
from ..package.layers import ConvectionBoundary, Layer
from .network import NetworkBuilder, ThermalNetwork
from .peripheral import SIDES, RimRing, RingGeometry

_ASSEMBLIES = obs.metrics().counter("rcmodel.grid.assemblies")


class _LayerNodes:
    """Node bookkeeping for one assembled layer."""

    def __init__(self, layer: Layer, grid_nodes: np.ndarray,
                 rings: List[RimRing]) -> None:
        self.layer = layer
        self.grid_nodes = grid_nodes
        self.rings = rings


class ThermalGridModel:
    """A compact thermal model of one die in one cooling configuration.

    Parameters
    ----------
    floorplan:
        The die floorplan (defines die size and power/temperature
        blocks).
    config:
        The cooling configuration (package stack + boundaries).
    nx, ny:
        Grid resolution over the die footprint.
    silicon_sublayers:
        Number of vertical sub-layers the die itself is split into.
        The default 1 matches HotSpot (and the paper's model); larger
        values resolve the through-die gradient, which matters when
        comparing against the finite-difference reference solver.
        Power is always injected in the bottom (active) sub-layer.
    """

    def __init__(
        self,
        floorplan: Floorplan,
        config: CoolingConfig,
        nx: int = 32,
        ny: int = 32,
        silicon_sublayers: int = 1,
    ) -> None:
        if silicon_sublayers < 1:
            raise ConfigurationError("silicon_sublayers must be >= 1")
        self.floorplan = floorplan
        self.config = config
        self.mapping = GridMapping(floorplan, nx, ny)
        self.silicon_sublayers = int(silicon_sublayers)
        self._builder = NetworkBuilder()
        self.layer_nodes: Dict[str, _LayerNodes] = {}
        self._assemble()
        self.network: ThermalNetwork = self._builder.build()
        _ASSEMBLIES.inc()
        del self._builder

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def _assemble(self) -> None:
        die_w = self.floorplan.die_width
        die_h = self.floorplan.die_height
        silicon_subs = self._add_silicon_sublayers()

        # Primary path: from the die's top sub-layer upward.
        top_of_die = silicon_subs[-1]
        last_primary = self._assemble_stack(
            start=top_of_die, layers=self.config.layers_above
        )
        self._terminate(last_primary, self.config.top_boundary)

        # Secondary path: from the die's bottom sub-layer downward.
        if self.config.secondary is not None:
            bottom_of_die = silicon_subs[0]
            last_secondary = self._assemble_stack(
                start=bottom_of_die, layers=self.config.secondary.layers
            )
            self._terminate(last_secondary, self.config.secondary.boundary)

        self.silicon_nodes = silicon_subs[0].grid_nodes
        self.surface_nodes = silicon_subs[-1].grid_nodes

    def _add_silicon_sublayers(self) -> List[_LayerNodes]:
        die = self.config.die
        sub_thickness = die.thickness / self.silicon_sublayers
        subs: List[_LayerNodes] = []
        for s in range(self.silicon_sublayers):
            name = "silicon" if s == 0 else f"silicon_sub{s}"
            sub = Layer(name, die.material, thickness=sub_thickness)
            nodes = self._add_grid_layer(sub)
            entry = _LayerNodes(sub, nodes, rings=[])
            self.layer_nodes[name] = entry
            if subs:
                self._connect_vertical(subs[-1], entry)
            subs.append(entry)
        return subs

    def _assemble_stack(
        self, start: _LayerNodes, layers: Sequence[Layer]
    ) -> _LayerNodes:
        """Attach a chain of layers onto ``start``; returns the last one."""
        die_w = self.floorplan.die_width
        die_h = self.floorplan.die_height
        previous = start
        footprints: List[Tuple[float, float]] = []
        for layer in layers:
            width, height = layer.footprint(die_w, die_h)
            if footprints and (width + 1e-12 < footprints[-1][0]
                               or height + 1e-12 < footprints[-1][1]):
                raise ConfigurationError(
                    f"layer {layer.name!r} footprint shrinks along the stack"
                )
            grid_nodes = self._add_grid_layer(layer)
            grows = (width > die_w + 1e-12 or height > die_h + 1e-12)
            if grows and (
                not footprints
                or width > footprints[-1][0] + 1e-12
                or height > footprints[-1][1] + 1e-12
            ):
                footprints = footprints + [(width, height)]
            rings = self._add_rings(layer, grid_nodes, footprints)
            entry = _LayerNodes(layer, grid_nodes, rings)
            if layer.name in self.layer_nodes:
                raise ConfigurationError(f"duplicate layer name {layer.name!r}")
            self.layer_nodes[layer.name] = entry
            self._connect_vertical(previous, entry)
            previous = entry
        return previous

    def _add_grid_layer(self, layer: Layer) -> np.ndarray:
        """Add grid nodes + lateral conductances for one layer."""
        m = self.mapping
        vol_heat = layer.material.volumetric_heat
        cell_cap = vol_heat * layer.thickness * m.cell_area
        nodes = self._builder.add_nodes(np.full(m.n_cells, cell_cap))
        k, t = layer.material.conductivity, layer.thickness
        ids = nodes.reshape(m.ny, m.nx)
        g_x = k * t * m.dy / m.dx
        g_y = k * t * m.dx / m.dy
        if m.nx > 1:
            self._builder.connect_many(
                ids[:, :-1].ravel(), ids[:, 1:].ravel(), g_x
            )
        if m.ny > 1:
            self._builder.connect_many(
                ids[:-1, :].ravel(), ids[1:, :].ravel(), g_y
            )
        return nodes

    def _add_rings(
        self,
        layer: Layer,
        grid_nodes: np.ndarray,
        footprints: List[Tuple[float, float]],
    ) -> List[RimRing]:
        """Add rim nodes for a layer and couple them laterally."""
        die_w = self.floorplan.die_width
        die_h = self.floorplan.die_height
        m = self.mapping
        k, t = layer.material.conductivity, layer.thickness
        rings: List[RimRing] = []
        inner = (die_w, die_h)
        for outer in footprints:
            geometry = RingGeometry(inner[0], inner[1], outer[0], outer[1])
            if geometry.total_area <= 1e-15:
                inner = outer
                continue
            nodes = {}
            for side in SIDES:
                cap = layer.material.volumetric_heat * t * geometry.side_area(side)
                nodes[side] = self._builder.add_node(
                    cap, label=f"{layer.name}:ring{len(rings)}:{side}"
                )
            ring = RimRing(geometry, nodes)
            if rings:
                # ring-to-ring lateral conduction on each side
                prev_ring = rings[-1]
                for side in SIDES:
                    length = ring.geometry.inner_edge_length(side)
                    distance = (prev_ring.geometry.side_band(side)
                                + ring.geometry.side_band(side)) / 2.0
                    self._builder.connect(
                        prev_ring.node(side), ring.node(side),
                        k * t * length / distance,
                    )
            else:
                # grid edge cells to the first ring
                ids = grid_nodes.reshape(m.ny, m.nx)
                edge = {
                    "N": ids[-1, :], "S": ids[0, :],
                    "E": ids[:, -1], "W": ids[:, 0],
                }
                cell_along = {"N": m.dx, "S": m.dx, "E": m.dy, "W": m.dy}
                cell_across = {"N": m.dy, "S": m.dy, "E": m.dx, "W": m.dx}
                for side in SIDES:
                    band = ring.geometry.side_band(side)
                    if band <= 1e-15:
                        continue
                    distance = cell_across[side] / 2.0 + band / 2.0
                    g = k * t * cell_along[side] / distance
                    self._builder.connect_many(
                        edge[side], np.full(edge[side].shape, ring.node(side),
                                            dtype=int), g
                    )
            rings.append(ring)
            inner = outer
        return rings

    def _connect_vertical(self, below: _LayerNodes, above: _LayerNodes) -> None:
        """Couple two adjacent layers: grid-to-grid and ring-to-ring."""
        m = self.mapping
        t_a, k_a = below.layer.thickness, below.layer.material.conductivity
        t_b, k_b = above.layer.thickness, above.layer.material.conductivity
        resist_per_area = t_a / (2.0 * k_a) + t_b / (2.0 * k_b)
        g_cell = m.cell_area / resist_per_area
        self._builder.connect_many(
            below.grid_nodes, above.grid_nodes, g_cell
        )
        shared = min(len(below.rings), len(above.rings))
        for r in range(shared):
            ring_lo, ring_hi = below.rings[r], above.rings[r]
            for side in SIDES:
                area = min(
                    ring_lo.geometry.side_area(side),
                    ring_hi.geometry.side_area(side),
                )
                if area <= 0:
                    continue
                self._builder.connect(
                    ring_lo.node(side), ring_hi.node(side),
                    area / resist_per_area,
                )

    def _terminate(self, last: _LayerNodes, boundary: ConvectionBoundary) -> None:
        """Apply a convective boundary to the far surface of ``last``."""
        m = self.mapping
        die_w, die_h = self.floorplan.die_width, self.floorplan.die_height
        width, height = last.layer.footprint(die_w, die_h)
        total_area = width * height

        if boundary.total_resistance is not None:
            g_total = 1.0 / boundary.total_resistance
            self._builder.to_ambient_many(
                last.grid_nodes, g_total * m.cell_area / total_area
            )
            if boundary.total_capacitance > 0:
                self._builder.add_capacitances(
                    last.grid_nodes,
                    boundary.total_capacitance * m.cell_area / total_area,
                )
            for ring in last.rings:
                for side in SIDES:
                    share = ring.geometry.side_area(side) / total_area
                    self._builder.to_ambient(ring.node(side), g_total * share)
                    if boundary.total_capacitance > 0:
                        self._builder.add_capacitance(
                            ring.node(side), boundary.total_capacitance * share
                        )
            return

        flow = boundary.flow
        if last.rings and not flow.uniform:
            raise ConfigurationError(
                "direction-dependent h(x) is only supported on die-footprint "
                "surfaces (the bare die); use uniform=True for extended layers"
            )
        cell_x, cell_y = m.cell_centers()
        h_cells = local_h_field(flow, cell_x, cell_y, width, height)
        self._builder.to_ambient_many(last.grid_nodes, h_cells * m.cell_area)
        cap_per_area = flow.capacitance_per_area(width, height)
        self._builder.add_capacitances(
            last.grid_nodes, cap_per_area * m.cell_area
        )
        h_overall = flow.overall_h(width, height)
        for ring in last.rings:
            for side in SIDES:
                area = ring.geometry.side_area(side)
                self._builder.to_ambient(ring.node(side), h_overall * area)
                self._builder.add_capacitance(ring.node(side),
                                              cap_per_area * area)

    # ------------------------------------------------------------------
    # Power and temperature interfaces
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Total node count of the assembled network."""
        return self.network.n_nodes

    @property
    def ambient(self) -> float:
        """Ambient temperature of the configuration, Kelvin."""
        return self.config.ambient

    def node_power(
        self, block_power: Union[np.ndarray, Dict[str, float], Sequence[float]]
    ) -> np.ndarray:
        """Expand per-block power (W) into the full node power vector.

        Accepts either a vector in floorplan order or a name->Watts
        mapping.  Power is injected into the die's active (bottom)
        sub-layer, uniformly over each block's footprint.
        """
        if isinstance(block_power, dict):
            block_power = self.floorplan.power_vector(block_power)
        return self.inject(block_power, np.zeros(self.n_nodes))

    @property
    def n_blocks(self) -> int:
        """Number of floorplan blocks (power-schedule columns)."""
        return self.mapping.n_blocks

    def inject(self, block_power: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Spread block powers ``(n_blocks[, K])`` onto the silicon rows
        of the zero-filled node buffer ``out`` ``(n_nodes[, K])``.

        Only the silicon rows are written, so a buffer reused across
        calls stays zero elsewhere: the stepping loops expand one power
        sample at a time into one buffer this way.
        """
        out[self.silicon_nodes] = self.mapping.block_power_to_cells(block_power)
        return out

    def silicon_cell_rise(self, state: np.ndarray) -> np.ndarray:
        """Temperature rise of the die's active layer cells (flat)."""
        return np.asarray(state)[..., self.silicon_nodes]

    def surface_cell_rise(self, state: np.ndarray) -> np.ndarray:
        """Temperature rise of the die's back-surface cells (what the IR
        camera observes through the oil)."""
        return np.asarray(state)[..., self.surface_nodes]

    def block_rise(self, state: np.ndarray) -> np.ndarray:
        """Per-block area-averaged temperature rise, floorplan order."""
        return self.mapping.cell_to_block_average(self.silicon_cell_rise(state))

    def block_temperatures(self, state: np.ndarray) -> np.ndarray:
        """Per-block absolute temperatures in Kelvin."""
        return self.block_rise(state) + self.config.ambient
