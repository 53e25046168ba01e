"""Bench: model-predictive DTM vs reactive DTM on the slow package.

Extension of Section 5.1: the oil-cooled die's slow response makes
reactive DTM late -- the die is committed to a long excursion before
the sensor crosses the threshold.  Forecasting with the thermal model
(one coarse trapezoidal step per sample) engages earlier; this bench
quantifies the violation-time reduction predictive control buys on
each package for the same policy, threshold, and engagement duration.
"""


from repro.dtm import (
    ClockGating,
    DTMController,
    PredictiveDTMController,
    time_above_threshold,
)
from repro.experiments.common import uniform_package_specs
from repro.floorplan import ev6_floorplan
from repro.power import pulse_train
from repro.sensors import SensorArray, place_at_block


def run_comparison():
    plan = ev6_floorplan()
    trace = pulse_train(
        plan, "Dcache", on_power=14.0, on_time=0.02, off_time=0.04,
        cycles=6, dt=1e-3, base_power={"Dcache": 4.0},
    )
    sensors = SensorArray([place_at_block(plan, "Dcache")])
    policy = ClockGating(0.2, targets=["Dcache", "IntReg", "IntExec"])
    rows = {}
    for package, spec in uniform_package_specs(16, 16, ambient_c=45.0).items():
        model = spec.build()
        threshold = model.config.ambient + 20.0
        common = dict(threshold=threshold, engagement_duration=10e-3)
        reactive = DTMController(
            model, sensors, policy, **common
        ).run(trace)
        predictive = PredictiveDTMController(
            model, sensors, policy, horizon=10e-3, **common
        ).run(trace)
        rows[package] = (threshold, reactive, predictive)
    return rows


def test_bench_predictive_dtm(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    print("\nReactive vs predictive DTM (same policy/threshold/duration)")
    print(f"  {'pkg':<4} {'controller':<11} {'peak rise(K)':>13} "
          f"{'violation(ms)':>14} {'perf':>6}")
    metrics = {}
    for package, (threshold, reactive, predictive) in rows.items():
        for name, run in (("reactive", reactive),
                          ("predictive", predictive)):
            violation = time_above_threshold(
                run.times, run.true_max, threshold
            )
            metrics[(package, name)] = (run, violation)
            peak_rise = run.peak_temperature - (45.0 + 273.15)
            print(f"  {package:<4} {name:<11} {peak_rise:13.1f} "
                  f"{1e3 * violation:14.1f} {run.performance:6.2f}")

    for package in ("oil", "air"):
        react_run, react_violation = metrics[(package, "reactive")]
        pred_run, pred_violation = metrics[(package, "predictive")]
        # forecasting never makes the thermal picture worse
        assert pred_run.peak_temperature <= react_run.peak_temperature \
            + 1e-9
        assert pred_violation <= react_violation + 1e-9
    # and it buys the most on the slow (oil) package
    _, oil_react = metrics[("oil", "reactive")]
    _, oil_pred = metrics[("oil", "predictive")]
    if oil_react > 0:
        assert oil_pred < oil_react
