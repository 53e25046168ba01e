"""Tests for repro.obs: metrics, logging, CLI."""

import logging

from repro import obs
from repro.campaign import (
    CampaignSpec,
    JobSpec,
    ModelSpec,
    ResultCache,
    run_campaign,
)
from repro.obs.metrics import MetricsRegistry

TWO_BLOCK_POWER = (("IntReg", 3.0), ("Dcache", 2.0))


def steady_job(tag="job", nx=6):
    return JobSpec.make(
        "steady_blocks",
        tag=tag,
        model=ModelSpec(chip="ev6", package="oil", nx=nx, ny=nx,
                        direction="left_to_right", ambient_c=45.0),
        power="blocks", power_blocks=TWO_BLOCK_POWER,
    )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    counter = reg.counter("events")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    assert reg.counter("events") is counter  # get-or-create
    assert reg.snapshot() == {"counters": {"events": 3.5}}


def test_snapshot_diff_and_merge_across_registries():
    worker = MetricsRegistry()
    worker.counter("idle").inc()
    before = worker.snapshot()
    worker.counter("solves").inc(3)
    delta = obs.snapshot_diff(worker.snapshot(), before)
    assert delta == {"counters": {"solves": 3.0}}  # zero deltas dropped

    parent = MetricsRegistry()
    parent.counter("solves").inc(1)
    parent.merge(delta)
    parent.merge(delta)  # merging twice adds twice (caller de-dupes)
    assert parent.counter("solves").value == 7.0
    assert parent.snapshot() == {"counters": {"solves": 7.0}}


def test_solver_metrics_count_factorizations_and_steps():
    from repro.floorplan import ev6_floorplan
    from repro.package import oil_silicon_package
    from repro.rcmodel import ThermalGridModel
    from repro.solver import steady_state, transient_simulate

    before = obs.metrics().snapshot()
    plan = ev6_floorplan()
    config = oil_silicon_package(plan.die_width, plan.die_height)
    model = ThermalGridModel(plan, config, nx=6, ny=6)
    power = model.node_power({"IntReg": 3.0})
    steady_state(model.network, power)
    transient_simulate(model.network, power, t_end=0.01, dt=0.001)
    counters = obs.snapshot_diff(obs.metrics().snapshot(), before)["counters"]
    assert counters["rcmodel.grid.assemblies"] == 1.0
    assert counters["solver.steady.solves"] == 1.0
    assert counters["solver.transient.steps"] == 10.0
    assert counters["solver.transient.matrix_builds"] == 1.0


# ---------------------------------------------------------------------------
# campaign integration
# ---------------------------------------------------------------------------


def test_cache_counters_and_stats(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    campaign = CampaignSpec(name="obs-cache", jobs=(steady_job("a"),))
    before = obs.metrics().snapshot()
    run_campaign(campaign, jobs=1, cache=cache)
    run_campaign(campaign, jobs=1, cache=cache)
    counters = obs.snapshot_diff(obs.metrics().snapshot(), before)["counters"]
    assert counters["campaign.cache.misses"] == 1
    assert counters["campaign.cache.stores"] == 1
    assert counters["campaign.cache.hits"] == 1
    stats = cache.stats()
    assert stats["n_results"] == 1 and stats["bytes"] > 0


# ---------------------------------------------------------------------------
# logging
# ---------------------------------------------------------------------------


def test_verbosity_level_mapping():
    assert obs.verbosity_level(-3) == logging.ERROR
    assert obs.verbosity_level(-1) == logging.WARNING
    assert obs.verbosity_level(0) == logging.INFO
    assert obs.verbosity_level(2) == logging.DEBUG


def test_logging_setup_is_idempotent():
    logger = obs.logging_setup(0)
    obs.logging_setup(1)
    marked = [h for h in logger.handlers
              if getattr(h, "_repro_obs_handler", False)]
    assert len(marked) == 1
    assert logger.level == logging.DEBUG


def test_executor_logs_progress_lines(caplog):
    # logging_setup turns propagation off on "repro"; caplog listens on
    # the root logger, so re-enable propagation for the capture window.
    parent = logging.getLogger("repro")
    was_propagating = parent.propagate
    parent.propagate = True
    try:
        campaign = CampaignSpec(name="obs-log", jobs=(steady_job("tagged"),))
        with caplog.at_level(logging.INFO, logger="repro.campaign"):
            run_campaign(campaign, jobs=1)
    finally:
        parent.propagate = was_propagating
    lines = [r.message for r in caplog.records]
    assert any("tagged" in line and "OK" in line for line in lines)
