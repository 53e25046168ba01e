"""Thermal frequency response of an RC network.

The paper's transient story (Sections 4.1, 5.1-5.2) is a statement
about time constants: AIR-SINK passes millisecond power activity into
temperature (its silicon mode corner sits near 1/(2 pi R_Si C_Si) ~
40 Hz ... kHz locally) while OIL-SILICON low-passes it (corner at
1/(2 pi Rconv C_Si), two orders of magnitude lower).  The cleanest way
to see -- and regression-test -- that structure is the transfer
function itself:

    H(j w) = w_probe^T (A + j w C)^(-1) p

computed here by direct complex sparse solves per frequency, each
factored through the solvers' one engine
(:data:`~repro.solver.backends.LINEAR_BACKEND`).  ``p`` is
the node power pattern being wiggled (e.g. one block's footprint) and
``w_probe`` extracts the observed temperature (e.g. that block's
average rise).  |H| at w -> 0 is the steady-state resistance seen by
the pattern; corner frequencies mark the package's time constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from ..errors import SolverError
from ..rcmodel.network import ThermalNetwork
from ..solver.backends import LINEAR_BACKEND


@dataclass
class FrequencyResponse:
    """Magnitude/phase of the thermal transfer function."""

    frequencies: np.ndarray   # Hz
    magnitude: np.ndarray     # K/W
    phase: np.ndarray         # radians

    @property
    def dc_resistance(self) -> float:
        """|H| at the lowest computed frequency, K/W."""
        return float(self.magnitude[0])

    def corner_frequency(self, fraction: float = 0.7071) -> float:
        """First frequency where |H| falls below ``fraction`` of DC.

        The -3 dB point for the default fraction.  Interpolated
        log-linearly between samples; raises SolverError if the sweep
        never drops that far.
        """
        target = fraction * self.magnitude[0]
        below = np.nonzero(self.magnitude < target)[0]
        if below.size == 0:
            raise SolverError(
                "response never falls below the corner fraction; "
                "extend the sweep"
            )
        i = int(below[0])
        if i == 0:
            return float(self.frequencies[0])
        f0, f1 = self.frequencies[i - 1], self.frequencies[i]
        m0, m1 = self.magnitude[i - 1], self.magnitude[i]
        # log-log interpolation
        t = (np.log(target) - np.log(m0)) / (np.log(m1) - np.log(m0))
        return float(np.exp(np.log(f0) + t * (np.log(f1) - np.log(f0))))

    def attenuation_at(self, frequency: float) -> float:
        """|H(f)| / |H(DC)| at the nearest computed frequency."""
        index = int(np.argmin(np.abs(self.frequencies - frequency)))
        return float(self.magnitude[index] / self.magnitude[0])


def thermal_transfer_function(
    network: ThermalNetwork,
    node_power: np.ndarray,
    probe_weights: np.ndarray,
    frequencies: Sequence[float],
) -> FrequencyResponse:
    """Compute ``H(j 2 pi f)`` over a frequency list.

    Parameters
    ----------
    network:
        The thermal RC network.
    node_power:
        The power pattern whose amplitude is modulated (W per node for
        a unit-amplitude input).
    probe_weights:
        Linear functional extracting the observed temperature from the
        node rise vector (e.g. area weights over one block's cells).
    frequencies:
        Frequencies in Hz, ascending; one complex sparse solve each.
    """
    node_power = np.asarray(node_power, dtype=complex)
    probe_weights = np.asarray(probe_weights, dtype=complex)
    if node_power.shape != (network.n_nodes,):
        raise SolverError("node_power has the wrong length")
    if probe_weights.shape != (network.n_nodes,):
        raise SolverError("probe_weights has the wrong length")
    frequencies = np.asarray(list(frequencies), dtype=float)
    if frequencies.size == 0 or np.any(frequencies < 0):
        raise SolverError("need non-negative frequencies")
    if np.any(np.diff(frequencies) <= 0):
        raise SolverError("frequencies must be strictly ascending")

    a = network.system_matrix.astype(complex)
    c = sparse.diags(network.capacitance.astype(complex))
    magnitude = np.empty(frequencies.size)
    phase = np.empty(frequencies.size)
    for i, f in enumerate(frequencies):
        omega = 2.0 * np.pi * f
        system = (a + 1j * omega * c).tocsc()
        solution = LINEAR_BACKEND.factorize(system).solve(node_power)
        h = complex(probe_weights @ solution)
        magnitude[i] = abs(h)
        phase[i] = np.angle(h)
    return FrequencyResponse(
        frequencies=frequencies, magnitude=magnitude, phase=phase
    )


def block_transfer_function(
    model,
    block: str,
    frequencies: Sequence[float],
    observe_block: Optional[str] = None,
) -> FrequencyResponse:
    """Transfer function from one block's power to a block's average
    temperature (self-heating by default)."""
    plan = model.floorplan
    power = model.node_power({block: 1.0})
    observe = observe_block or block
    index = plan.index_of(observe)
    # probe = the linear functional computing block_rise[index]
    probe = np.zeros(model.n_nodes)
    if hasattr(model, "mapping"):  # grid model: area-weighted cells
        probe[model.silicon_nodes] = model.mapping.block_weight_vector(index)
    else:  # block model: the block's own node
        probe[model.silicon_nodes[index]] = 1.0
    return thermal_transfer_function(
        model.network, power, probe, frequencies
    )
