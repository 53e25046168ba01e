"""Block-granularity compact thermal model (HotSpot's original mode).

The paper's modified HotSpot is built on the *block* model: one RC node
per floorplan block per layer, with lateral resistances between blocks
that share a boundary.  This module implements that mode alongside the
grid model, with the same oil-flow and secondary-path extensions, for
two reasons:

* fidelity -- it is the model class the paper actually ran, so running
  both lets the reproduction quantify how much of the remaining
  numerical gap (see EXPERIMENTS.md) is grid-vs-block granularity;
* speed -- tens of nodes instead of thousands, which makes long DTM
  sweeps and design-space exploration cheap.

Lateral resistance between two blocks sharing a boundary of length
``L`` follows HotSpot: half of each block's span perpendicular to the
shared edge, through the layer cross-section ``t * L``::

    R_ij = (w_i / 2 + w_j / 2) / (k * t * L)

Vertical resistance through a layer under block ``b`` is
``t / (k * A_b)`` (split into half-thickness series terms between
layer pairs).  Layers that overhang the die (spreader, heatsink,
substrate, PCB) become one lumped center node over the die footprint
plus four trapezoidal ring nodes per annulus -- the same geometry the
grid model's rim nodes use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..convection.flow import local_h_field
from ..errors import ConfigurationError
from ..floorplan.block import Floorplan
from ..package.config import CoolingConfig
from ..package.layers import ConvectionBoundary, Layer
from .network import NetworkBuilder, ThermalNetwork
from .peripheral import SIDES, RingGeometry


@dataclass(frozen=True)
class SharedEdge:
    """A boundary segment between two blocks."""

    a: int
    b: int
    length: float
    span_a: float  # block a's extent perpendicular to the edge
    span_b: float


def _interval_overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def find_shared_edges(
    floorplan: Floorplan, tolerance: float = 1e-9
) -> List[SharedEdge]:
    """All block-pair boundary segments of a floorplan.

    Two blocks share an edge when one's right edge coincides with the
    other's left edge (or top with bottom) and their spans overlap.
    """
    edges: List[SharedEdge] = []
    blocks = floorplan.blocks
    for i, a in enumerate(blocks):
        for j in range(i + 1, len(blocks)):
            b = blocks[j]
            if abs(a.x2 - b.x) < tolerance or abs(b.x2 - a.x) < tolerance:
                length = _interval_overlap(a.y, a.y2, b.y, b.y2)
                if length > tolerance:
                    edges.append(SharedEdge(i, j, length, a.width, b.width))
                    continue
            if abs(a.y2 - b.y) < tolerance or abs(b.y2 - a.y) < tolerance:
                length = _interval_overlap(a.x, a.x2, b.x, b.x2)
                if length > tolerance:
                    edges.append(SharedEdge(i, j, length, a.height, b.height))
    return edges


class _ChainState:
    """Bookkeeping while stacking layers away from the die.

    ``nodes`` is either a per-block array (die-footprint layers) or a
    single-element array holding the lumped center node (extended
    layers); ``rings`` carries the current extended layer's ring nodes.
    """

    def __init__(self, layer: Layer, nodes: np.ndarray) -> None:
        self.layer = layer
        self.nodes = nodes
        self.rings: List[Tuple[RingGeometry, Dict[str, int]]] = []

    @property
    def per_block(self) -> bool:
        return self.rings == [] and self.nodes.shape != (1,)


class ThermalBlockModel:
    """One-node-per-block compact model of a die in its package.

    Exposes the same power/temperature interface as
    :class:`~repro.rcmodel.grid.ThermalGridModel` (``node_power``,
    ``block_rise``, ``block_temperatures``, ``network``), so solvers,
    DTM, and the experiment harness accept either interchangeably.
    """

    def __init__(self, floorplan: Floorplan, config: CoolingConfig) -> None:
        self.floorplan = floorplan
        self.config = config
        self._builder = NetworkBuilder()
        self._edges = find_shared_edges(floorplan)
        self._assemble()
        self.network: ThermalNetwork = self._builder.build()
        del self._builder

    # --- layer construction -------------------------------------------------

    def _add_block_layer(self, layer: Layer) -> np.ndarray:
        """One node per block plus HotSpot lateral resistances."""
        k, t = layer.material.conductivity, layer.thickness
        vol_heat = layer.material.volumetric_heat
        nodes = self._builder.add_nodes(
            [vol_heat * t * block.area for block in self.floorplan]
        )
        for edge in self._edges:
            resistance = (edge.span_a / 2.0 + edge.span_b / 2.0) \
                / (k * t * edge.length)
            self._builder.connect(
                int(nodes[edge.a]), int(nodes[edge.b]), 1.0 / resistance
            )
        return nodes

    def _vertical_per_area(self, below: Layer, above: Layer) -> float:
        return below.thickness / (2 * below.material.conductivity) \
            + above.thickness / (2 * above.material.conductivity)

    def _connect_vertical(self, state: _ChainState, layer: Layer,
                          nodes: np.ndarray) -> None:
        """Couple the new layer's nodes to the chain's current layer."""
        per_area = self._vertical_per_area(state.layer, layer)
        die_area = self.floorplan.die_width * self.floorplan.die_height
        if state.nodes.shape == (len(self.floorplan),) \
                and nodes.shape == (len(self.floorplan),):
            for index, block in enumerate(self.floorplan):
                self._builder.connect(
                    int(state.nodes[index]), int(nodes[index]),
                    block.area / per_area,
                )
        elif state.nodes.shape == (len(self.floorplan),):
            for index, block in enumerate(self.floorplan):
                self._builder.connect(
                    int(state.nodes[index]), int(nodes[0]),
                    block.area / per_area,
                )
        else:
            self._builder.connect(
                int(state.nodes[0]), int(nodes[0]), die_area / per_area
            )

    def _add_extended_layer(
        self,
        layer: Layer,
        footprints: List[Tuple[float, float]],
        prefix: str,
    ) -> Tuple[int, List[Tuple[RingGeometry, Dict[str, int]]]]:
        """Lumped center node + ring nodes for an overhanging layer."""
        die_w = self.floorplan.die_width
        die_h = self.floorplan.die_height
        k, t = layer.material.conductivity, layer.thickness
        center = self._builder.add_node(
            layer.material.volumetric_heat * t * die_w * die_h,
            label=f"{prefix}{layer.name}:center",
        )
        rings: List[Tuple[RingGeometry, Dict[str, int]]] = []
        inner = (die_w, die_h)
        for outer in footprints:
            geometry = RingGeometry(inner[0], inner[1], outer[0], outer[1])
            inner = outer
            if geometry.total_area <= 1e-15:
                continue
            ring_nodes: Dict[str, int] = {}
            for side in SIDES:
                ring_nodes[side] = self._builder.add_node(
                    layer.material.volumetric_heat * t
                    * geometry.side_area(side),
                    label=f"{prefix}{layer.name}:ring{len(rings)}:{side}",
                )
            if not rings:
                for side in SIDES:
                    band = geometry.side_band(side)
                    if band <= 1e-15:
                        continue
                    span = die_h if side in ("N", "S") else die_w
                    self._builder.connect(
                        center, ring_nodes[side],
                        k * t * geometry.inner_edge_length(side)
                        / (span / 4.0 + band / 2.0),
                    )
            else:
                prev_geometry, prev_ring = rings[-1]
                for side in SIDES:
                    self._builder.connect(
                        prev_ring[side], ring_nodes[side],
                        k * t * geometry.inner_edge_length(side)
                        / ((prev_geometry.side_band(side)
                            + geometry.side_band(side)) / 2.0),
                    )
            rings.append((geometry, ring_nodes))
        return center, rings

    def _connect_rings_vertically(
        self, below: _ChainState, layer: Layer,
        rings: List[Tuple[RingGeometry, Dict[str, int]]],
    ) -> None:
        if not below.rings:
            return
        per_area = self._vertical_per_area(below.layer, layer)
        for (geom_lo, nodes_lo), (geom_hi, nodes_hi) in zip(
            below.rings, rings
        ):
            for side in SIDES:
                area = min(geom_lo.side_area(side), geom_hi.side_area(side))
                if area > 0:
                    self._builder.connect(
                        nodes_lo[side], nodes_hi[side], area / per_area
                    )

    def _assemble_chain(
        self,
        start: _ChainState,
        layers: Sequence[Layer],
        boundary: ConvectionBoundary,
        prefix: str,
    ) -> None:
        die_w = self.floorplan.die_width
        die_h = self.floorplan.die_height
        state = start
        footprints: List[Tuple[float, float]] = []
        for layer in layers:
            width, height = layer.footprint(die_w, die_h)
            if not layer.extends_beyond(die_w, die_h):
                nodes = self._add_block_layer(layer)
                self._connect_vertical(state, layer, nodes)
                new_state = _ChainState(layer, nodes)
            else:
                if (not footprints or width > footprints[-1][0] + 1e-12
                        or height > footprints[-1][1] + 1e-12):
                    footprints = footprints + [(width, height)]
                center, rings = self._add_extended_layer(
                    layer, footprints, prefix
                )
                self._connect_vertical(state, layer, np.array([center]))
                self._connect_rings_vertically(state, layer, rings)
                new_state = _ChainState(layer, np.array([center]))
                new_state.rings = rings
            state = new_state
        self._terminate(state, boundary)

    def _terminate(self, state: _ChainState,
                   boundary: ConvectionBoundary) -> None:
        die_w = self.floorplan.die_width
        die_h = self.floorplan.die_height
        width, height = state.layer.footprint(die_w, die_h)
        total_area = width * height
        per_block = state.nodes.shape == (len(self.floorplan),)

        def wetted() -> List[Tuple[int, float]]:
            """(node, area) pairs of the terminating surface."""
            if per_block:
                return [
                    (int(state.nodes[i]), block.area)
                    for i, block in enumerate(self.floorplan)
                ]
            pairs = [(int(state.nodes[0]), die_w * die_h)]
            for geometry, ring_nodes in state.rings:
                for side in SIDES:
                    pairs.append(
                        (ring_nodes[side], geometry.side_area(side))
                    )
            return pairs

        if boundary.total_resistance is not None:
            g_total = 1.0 / boundary.total_resistance
            for node, area in wetted():
                share = area / total_area
                self._builder.to_ambient(node, g_total * share)
                if boundary.total_capacitance > 0:
                    self._builder.add_capacitance(
                        node, boundary.total_capacitance * share
                    )
            return

        flow = boundary.flow
        if not per_block and not flow.uniform:
            raise ConfigurationError(
                "direction-dependent h(x) needs a die-footprint surface"
            )
        cap_per_area = flow.capacitance_per_area(width, height)
        if per_block:
            centers_x = np.array([b.center[0] for b in self.floorplan])
            centers_y = np.array([b.center[1] for b in self.floorplan])
            h_blocks = local_h_field(flow, centers_x, centers_y,
                                     width, height)
            for index, block in enumerate(self.floorplan):
                node = int(state.nodes[index])
                self._builder.to_ambient(
                    node, float(h_blocks[index]) * block.area
                )
                self._builder.add_capacitance(
                    node, cap_per_area * block.area
                )
        else:
            h_overall = flow.overall_h(width, height)
            for node, area in wetted():
                self._builder.to_ambient(node, h_overall * area)
                self._builder.add_capacitance(node, cap_per_area * area)

    def _assemble(self) -> None:
        silicon = self.config.die
        silicon_nodes = self._add_block_layer(silicon)
        self.silicon_nodes = silicon_nodes
        start = _ChainState(silicon, silicon_nodes)
        self._assemble_chain(
            start, self.config.layers_above, self.config.top_boundary,
            prefix="",
        )
        if self.config.secondary is not None:
            start = _ChainState(silicon, silicon_nodes)
            self._assemble_chain(
                start, self.config.secondary.layers,
                self.config.secondary.boundary, prefix="sec:",
            )

    # --- ThermalGridModel-compatible interface --------------------------------

    @property
    def n_nodes(self) -> int:
        """Total node count of the assembled network."""
        return self.network.n_nodes

    @property
    def ambient(self) -> float:
        """Ambient temperature, Kelvin."""
        return self.config.ambient

    def node_power(
        self, block_power: Union[np.ndarray, Dict[str, float], Sequence[float]]
    ) -> np.ndarray:
        """Per-block power (vector or dict) -> full node power vector."""
        if isinstance(block_power, dict):
            block_power = self.floorplan.power_vector(block_power)
        block_power = np.asarray(block_power, dtype=float)
        if block_power.shape != (len(self.floorplan),):
            raise ConfigurationError(
                f"expected {len(self.floorplan)} block powers"
            )
        return self.inject(block_power, np.zeros(self.n_nodes))

    @property
    def n_blocks(self) -> int:
        """Number of floorplan blocks (power-schedule columns)."""
        return len(self.floorplan)

    def inject(self, block_power: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write block powers ``(n_blocks[, K])`` into the silicon rows
        of the zero-filled node buffer ``out`` ``(n_nodes[, K])``."""
        out[self.silicon_nodes] = block_power
        return out

    def block_rise(self, state: np.ndarray) -> np.ndarray:
        """Per-block temperature rise (the silicon nodes themselves)."""
        return np.asarray(state)[..., self.silicon_nodes]

    def block_temperatures(self, state: np.ndarray) -> np.ndarray:
        """Per-block absolute temperatures in Kelvin."""
        return self.block_rise(state) + self.config.ambient
