"""Temperature-to-power reverse engineering (paper Section 5.4).

IR studies (Hamann et al., Mesa-Martinez et al.) invert measured
steady-state thermal maps into per-block power estimates.  The
inversion needs a thermal model; if the model ignores the oil flow
direction, the position-dependent convection makes downstream blocks
read hotter and their inferred power is inflated -- the artifact the
paper warns about for multi-core chips with identical per-core power.

:func:`reverse_engineer_power` performs the inversion by non-negative
least squares on the block-to-block thermal response matrix of an
assumed model, so the experiment can mix the *measurement* model (oil
flowing in some direction) with a different *assumed* model (e.g. one
that ignores direction), exactly reproducing the artifact.
"""

from __future__ import annotations

import numpy as np

from ..errors import SolverError
from ..rcmodel.grid import ThermalGridModel
from ..solver.steady import steady_state


def block_response_matrix(model: ThermalGridModel) -> np.ndarray:
    """R[i, j] = steady rise of block i per Watt in block j (K/W).

    The n_blocks unit powers are the columns of one steady solve, so
    the whole matrix costs one factorization plus n_blocks
    back-substitutions.
    """
    n = len(model.floorplan)
    unit_powers = np.column_stack([model.node_power(u) for u in np.eye(n)])
    rises = steady_state(model.network, unit_powers)
    return np.column_stack([model.block_rise(rise) for rise in rises.T])


def reverse_engineer_power(
    measured_rise: np.ndarray, assumed_model: ThermalGridModel
) -> np.ndarray:
    """Invert per-block temperature rises into per-block powers (W).

    ``measured_rise`` is the per-block steady rise (K) that the IR
    camera reports; ``assumed_model`` is the thermal model the analyst
    believes describes the setup.  Solves ``R p = rise`` for ``p >= 0``
    by non-negative least squares.
    """
    measured_rise = np.asarray(measured_rise, dtype=float)
    n = len(assumed_model.floorplan)
    if measured_rise.shape != (n,):
        raise SolverError(
            f"measured_rise has shape {measured_rise.shape}, expected ({n},)"
        )
    # scipy.optimize loads ~170 modules (scipy.special, scipy.fft, ...)
    # that nothing else needs, so it is imported only where it is used
    from scipy.optimize import nnls

    response = block_response_matrix(assumed_model)
    power, residual = nnls(response, measured_rise)
    if not np.all(np.isfinite(power)):
        raise SolverError("power inversion diverged")
    return power
