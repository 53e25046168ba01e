"""Shared setup for the paper experiments.

Holds the constants every figure shares (the validation die, the oil
velocities, the Celsius shorthand) and the cached gcc-like EV6 power
traces.  Models are not built here: each figure states its model as a
:class:`~repro.campaign.ModelSpec` and calls ``build()``, so a figure,
a campaign job and a bench describe a package the same way.  The one
shared spec pair is :func:`uniform_package_specs`.  Figs. 2, 3 and 7
build their validation slab directly (a synthetic floorplan, a set die
thickness and, in Fig. 7, a custom sink).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from ..campaign.spec import ModelSpec
from ..floorplan import ev6_floorplan
from ..microarch import MicroarchSimulator, TraceSynthesizer, gcc_like_workload
from ..power.trace import PowerTrace
from ..rcmodel import ThermalGridModel
from ..units import ZERO_CELSIUS_IN_KELVIN, mm

#: The validation die of Figs. 2-3: 20 mm x 20 mm x 0.5 mm silicon.
VALIDATION_DIE = dict(width=mm(20.0), height=mm(20.0), thickness=mm(0.5))

#: Oil velocity of the validation experiments (10 m/s).
VALIDATION_VELOCITY = 10.0

#: Oil velocity for the Athlon IR-bench experiments (Figs. 4-5).  The
#: published measurement setup circulated oil at a much gentler rate
#: than the 10 m/s validation flow; 3 m/s reproduces its temperature
#: scale and makes the secondary path carry the significant heat share
#: the paper's Fig. 5(a) reports.
ATHLON_OIL_VELOCITY = 3.0


def celsius(value: float) -> float:
    """Celsius -> Kelvin shorthand for experiment configs."""
    return value + ZERO_CELSIUS_IN_KELVIN


def uniform_package_specs(
    nx: int, ny: int, ambient_c: float
) -> Dict[str, ModelSpec]:
    """The like-for-like EV6 pair of Figs. 6, 8 and 9 and the DTM study.

    OIL-SILICON with a uniform film and AIR-SINK, each with a 1 K/W
    convection resistance and no secondary path, keyed ``"oil"`` and
    ``"air"`` in that order.
    """
    return {
        "oil": ModelSpec(
            chip="ev6", package="oil", nx=nx, ny=ny, uniform_h=True,
            target_resistance=1.0, include_secondary=False,
            ambient_c=ambient_c,
        ),
        "air": ModelSpec(
            chip="ev6", package="air", nx=nx, ny=ny,
            convection_resistance=1.0, include_secondary=False,
            ambient_c=ambient_c,
        ),
    }


def ev6_air_model(nx: int, ny: int) -> ThermalGridModel:
    """EV6 die in the AIR-SINK package (kept for ``benchmarks/e2e``)."""
    return ModelSpec(
        chip="ev6", package="air", nx=nx, ny=ny, include_secondary=False
    ).build()


def _trace_store():
    """The machine-wide on-disk trace cache, or ``None`` when disabled.

    Routed through :mod:`repro.campaign.cache` so the deterministic
    functional simulations below are computed once per machine rather
    than once per process — campaign workers in fresh processes load
    the stored trace instead of re-simulating.  Disable with
    ``REPRO_DISK_CACHE=0``; relocate with ``REPRO_CACHE_DIR``.
    """
    from ..campaign.cache import machine_cache

    return machine_cache()


@lru_cache(maxsize=4)
def _gcc_simulation(
    instructions: int, seed: int
) -> Tuple[PowerTrace, np.ndarray]:
    """One functional simulation of the gcc-like workload on the EV6.

    Returns the power trace and its per-window phase labels.  Both
    :func:`gcc_power_trace` and :func:`gcc_synthesized_trace` start
    from it, so a process simulates each (instructions, seed) pair
    once.  The arrays are shared between callers and read-only.
    """
    simulator = MicroarchSimulator(ev6_floorplan())
    trace = simulator.run(gcc_like_workload(instructions=instructions, seed=seed))
    phases = simulator.last_window_phases
    assert phases is not None  # run() sets it
    trace.samples.setflags(write=False)
    phases.setflags(write=False)
    return trace, phases


@lru_cache(maxsize=4)
def gcc_power_trace(
    instructions: int = 500_000, seed: int = 0
) -> PowerTrace:
    """The gcc-like EV6 power trace from the microarchitecture simulator.

    Cached twice over: in-process by ``lru_cache`` and on disk by the
    campaign trace store — the functional simulation is deterministic
    for a given (instructions, seed) pair, and several figures (and
    every campaign worker) share it.
    """
    key = f"gcc_power_trace/v1/instructions={instructions}/seed={seed}"
    store = _trace_store()
    if store is not None:
        cached = store.get_trace(key)
        if cached is not None:
            return cached
    trace, _ = _gcc_simulation(instructions, seed)
    if store is not None:
        store.put_trace(key, trace)
    return trace


def gcc_average_power(instructions: int = 500_000) -> Dict[str, float]:
    """Time-averaged per-block gcc power (W) on the EV6 floorplan."""
    trace = gcc_power_trace(instructions)
    plan = ev6_floorplan()
    return plan.power_dict(trace.average())


@lru_cache(maxsize=4)
def gcc_synthesized_trace(
    duration: float,
    instructions: int = 500_000,
    seed: int = 0,
    mean_dwell: float = 0.005,
    stride: int = 1,
) -> PowerTrace:
    """A long gcc-like power trace for the Fig. 12 experiments.

    Functionally simulates ``instructions``, then statistically extends
    the phase-labelled window process to ``duration`` seconds with
    :class:`~repro.microarch.TraceSynthesizer` (see that module for why
    this is the right tool for 100 ms-scale thermal runs).  Like
    :func:`gcc_power_trace`, the synthesized trace is stored in the
    machine-wide disk cache keyed on every generation parameter.

    ``stride`` bins the samples (:meth:`PowerTrace.resampled`).  The
    disk cache keeps the full-resolution trace; ``lru_cache`` keeps only
    the binned one, so its full-resolution samples are freed on return.
    """
    key = (
        f"gcc_synthesized_trace/v1/duration={duration!r}/"
        f"instructions={instructions}/seed={seed}/mean_dwell={mean_dwell!r}"
    )
    store = _trace_store()
    trace = store.get_trace(key) if store is not None else None
    if trace is None:
        base, phases = _gcc_simulation(instructions, seed)
        synthesizer = TraceSynthesizer(base, phases, seed=seed)
        trace = synthesizer.synthesize(duration, mean_dwell=mean_dwell)
        if store is not None:
            store.put_trace(key, trace)
    return trace.resampled(stride) if stride > 1 else trace
