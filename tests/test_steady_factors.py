"""Steady solves own their factor: one factorization per call.

``steady_state`` factors, solves and drops the factor; nothing is
cached on the network.  The callers that solve many powers on one
network reuse one factor in plain sight: a ``(n_nodes, K)`` power for
the response matrix, the variation study and the batched trace starts,
and one :func:`steady_factor` for the leakage fixed point.  Each must
factor once and give bitwise the per-vector solves.
"""

import numpy as np
import pytest

from repro import obs
from repro.analysis import power_variation_study
from repro.analysis.reverse_power import block_response_matrix
from repro.campaign import JobSpec, ModelSpec
from repro.errors import SolverError
from repro.experiments.fig12 import fig12_ensemble_campaign
from repro.solver import steady_state, steady_state_with_leakage
from repro.solver.backends import LINEAR_BACKEND


@pytest.fixture(scope="module")
def model():
    return ModelSpec(nx=8, ny=8, uniform_h=True).build()


def _counted(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the steady factorizations it made."""
    before = obs.metrics().snapshot()
    result = fn(*args, **kwargs)
    delta = obs.snapshot_diff(obs.metrics().snapshot(), before)["counters"]
    return result, delta.get("solver.steady.factorizations", 0)


def _fresh_solve(model, block_power):
    """The per-vector solve: a new factor for one power vector."""
    factor = LINEAR_BACKEND.factorize(model.network.system_matrix)
    return factor.solve(model.node_power(block_power))


def test_columns_are_bitwise_the_vector_solves(model):
    rng = np.random.default_rng(1)
    powers = np.column_stack([
        model.node_power(rng.uniform(0.0, 4.0, model.n_blocks))
        for _ in range(5)
    ])
    rises, factorizations = _counted(steady_state, model.network, powers)
    assert factorizations == 1
    assert rises.shape == powers.shape
    for k in range(5):
        assert np.array_equal(rises[:, k],
                              steady_state(model.network, powers[:, k]))


@pytest.mark.parametrize("extra, columns", [(1, ()), (1, (2,)), (0, (2, 1))],
                         ids=["long-vector", "long-columns", "3-d"])
def test_power_of_the_wrong_shape_rejected(model, extra, columns):
    bad = np.ones((model.n_nodes + extra,) + columns)
    with pytest.raises(SolverError, match="expected"):
        steady_state(model.network, bad)


def test_response_matrix_factors_once(model):
    response, factorizations = _counted(block_response_matrix, model)
    assert factorizations == 1
    for j, unit in enumerate(np.eye(model.n_blocks)):
        assert np.array_equal(response[:, j],
                              model.block_rise(_fresh_solve(model, unit)))


def test_variation_study_factors_once(model):
    study, factorizations = _counted(
        power_variation_study, model, {"IntReg": 3.0, "Dcache": 8.0},
        n_samples=12, seed=3,
    )
    assert factorizations == 1
    ambient = model.config.ambient
    for power, temps in zip(study.power_samples, study.samples):
        expected = model.block_rise(_fresh_solve(model, power)) + ambient
        assert np.array_equal(temps, expected)


def test_leakage_loop_factors_once(model):
    areas = model.floorplan.areas()

    def leakage(block_temps):
        return 2e4 * areas * np.exp(0.015 * (block_temps - 318.15))

    dynamic = np.full(model.n_blocks, 1.0)
    result, factorizations = _counted(
        steady_state_with_leakage, model, dynamic, leakage)
    assert result.converged and result.iterations >= 2
    assert factorizations == 1
    assert np.array_equal(result.rise,
                          _fresh_solve(model, dynamic + result.leakage))


def test_batched_trace_starts_factor_once(monkeypatch):
    from repro.campaign.batching import batch_trace_transient
    from repro.campaign.runners import run_trace_transient

    monkeypatch.setenv("REPRO_DISK_CACHE", "0")
    spec_model = fig12_ensemble_campaign(
        [0], package="oil", nx=8, ny=8).jobs[0].model
    jobs = [
        JobSpec.make(
            "trace_transient", tag=f"seed{seed}", model=spec_model,
            duration=0.002, instructions=20_000, seed=seed,
            thermal_stride=10, init=init,
        )
        for seed, init in ((0, "steady"), (1, "ambient"), (2, "steady"))
    ]
    results, factorizations = _counted(batch_trace_transient, jobs)
    assert factorizations == 1
    for job in jobs:
        assert results[job.tag].same_values(run_trace_transient(job))
