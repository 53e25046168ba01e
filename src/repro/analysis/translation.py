"""Cross-package measurement translation (the paper's future work).

Section 6: "it could be useful to ascertain the thermal response of a
chip with air-cooled heatsink based on the IR measurements from an
oil-cooled bare silicon die.  Certain factors such as the temperature
dependency of leakage power ... may make such a derivation more
complicated."

This module implements that derivation:

1. invert the measured (oil-bench) per-block temperatures into a
   per-block power map, using a thermal model of the *measurement*
   setup (flow direction included -- Section 5.4's artifact lesson);
2. if a leakage law is supplied, split the inferred power into dynamic
   plus leakage-at-measured-temperature, since the raw inversion
   recovers total power;
3. predict the same die's temperatures in the *target* package, either
   directly (naive: total power re-applied) or with the leakage
   re-evaluated at the target temperatures via the coupled solver
   (leakage-aware).

The difference between naive and leakage-aware predictions quantifies
exactly the complication the paper anticipated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import SolverError
from ..solver.coupled import LeakageFunction, steady_state_with_leakage
from ..solver.steady import steady_state
from .reverse_power import reverse_engineer_power


@dataclass
class TranslationResult:
    """Predicted target-package temperatures from a measurement."""

    inferred_total_power: np.ndarray   # from the measurement inversion (W)
    inferred_dynamic_power: np.ndarray  # after removing leakage (W)
    naive_temps: np.ndarray            # target temps, total power reapplied
    corrected_temps: Optional[np.ndarray]  # leakage-aware target temps
    measurement_temps: np.ndarray      # what was measured (K)


def translate_measurement(
    measured_block_temps: np.ndarray,
    measurement_model,
    target_model,
    leakage: Optional[LeakageFunction] = None,
) -> TranslationResult:
    """Predict target-package temperatures from measured ones.

    Parameters
    ----------
    measured_block_temps:
        Absolute per-block temperatures (K) observed in the
        measurement setup (e.g. the IR oil bench).
    measurement_model:
        Thermal model of the measurement setup.  Must describe the
        bench faithfully -- including oil flow direction -- or the
        inversion inherits the Section 5.4 artifacts.
    target_model:
        Thermal model of the package to predict for (e.g. AIR-SINK).
    leakage:
        Optional leakage law ``block_temps (K) -> block W``.  When
        given, the translation separates leakage from dynamic power
        and re-closes the leakage loop at target temperatures.
    """
    measured_block_temps = np.asarray(measured_block_temps, dtype=float)
    n = len(measurement_model.floorplan)
    if measured_block_temps.shape != (n,):
        raise SolverError(f"expected {n} measured block temperatures")
    if measurement_model.floorplan.names != target_model.floorplan.names:
        raise SolverError(
            "measurement and target models must share a floorplan"
        )

    measured_rise = measured_block_temps - measurement_model.config.ambient
    total_power = reverse_engineer_power(measured_rise, measurement_model)

    # Naive translation: re-apply the inferred total power unchanged.
    naive_rise = steady_state(
        target_model.network, target_model.node_power(total_power)
    )
    naive_temps = target_model.block_rise(naive_rise) \
        + target_model.config.ambient

    corrected_temps = None
    dynamic_power = total_power
    if leakage is not None:
        leak_at_measurement = np.asarray(
            leakage(measured_block_temps), dtype=float
        )
        dynamic_power = np.clip(total_power - leak_at_measurement, 0.0, None)
        coupled = steady_state_with_leakage(
            target_model, dynamic_power, leakage
        )
        corrected_temps = coupled.block_temps

    return TranslationResult(
        inferred_total_power=total_power,
        inferred_dynamic_power=dynamic_power,
        naive_temps=naive_temps,
        corrected_temps=corrected_temps,
        measurement_temps=measured_block_temps,
    )


def translation_error(
    predicted_temps: np.ndarray, true_temps: np.ndarray
) -> float:
    """Largest per-block |predicted - true|, K."""
    predicted_temps = np.asarray(predicted_temps, dtype=float)
    true_temps = np.asarray(true_temps, dtype=float)
    return float(np.max(np.abs(predicted_temps - true_temps)))
