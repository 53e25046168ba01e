"""Bench: solver cost scaling with grid resolution.

Not a paper figure -- the performance baseline for the harness itself.
Times the expensive primitives (model assembly + factorization, steady
solve, a 100-step transient) across grid resolutions, and checks that
the per-solve cost after factorization stays far below the build cost
(the property every sweep in this suite exploits via LU caching).
"""

import time

import numpy as np
import pytest

from repro.experiments.common import celsius
from repro.floorplan import ev6_floorplan
from repro.package import oil_silicon_package
from repro.rcmodel import ThermalGridModel
from repro.solver import TrapezoidalStepper, steady_state


def build_and_time(grid: int):
    plan = ev6_floorplan()
    config = oil_silicon_package(
        plan.die_width, plan.die_height, include_secondary=True,
        ambient=celsius(45.0),
    )
    t0 = time.perf_counter()
    model = ThermalGridModel(plan, config, nx=grid, ny=grid)
    power = model.node_power({"IntReg": 3.0, "Dcache": 8.0})
    steady_state(model.network, power)  # + factorization
    t_build = time.perf_counter() - t0

    t0 = time.perf_counter()
    for _ in range(20):
        steady_state(model.network, power)  # cached factor
    t_solve = (time.perf_counter() - t0) / 20

    stepper = TrapezoidalStepper(model.network, dt=1e-3)
    x = np.zeros(model.n_nodes)
    t0 = time.perf_counter()
    for _ in range(100):
        x = stepper.step(x, power)
    t_transient = time.perf_counter() - t0
    return model.n_nodes, t_build, t_solve, t_transient


@pytest.mark.parametrize("grid", [16, 32, 48])
def test_bench_solver_scaling(benchmark, grid):
    n_nodes, t_build, t_solve, t_transient = benchmark.pedantic(
        build_and_time, args=(grid,), rounds=1, iterations=1
    )
    print(f"\n  grid {grid}x{grid}: {n_nodes} nodes | build+factor "
          f"{1e3 * t_build:.1f} ms | steady resolve "
          f"{1e6 * t_solve:.0f} us | 100 transient steps "
          f"{1e3 * t_transient:.1f} ms")
    # cached steady solves must be much cheaper than the first
    # build+factorization, and everything stays interactive
    assert t_solve < t_build
    assert t_transient < 10.0
