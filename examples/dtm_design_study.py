"""DTM design study: how the package changes the right DTM parameters.

The paper's Section 5.1 argues that a chip characterized under the
IR-imaging oil setup would be tuned with longer DTM engagement
durations than the same chip needs under its real heatsink.  This
script makes that concrete: it runs the closed DTM loop (sensor ->
threshold -> clock gating) over a bursty workload for both packages,
sweeping the engagement duration, and reports the peak temperature and
performance for each choice.

Run:  python examples/dtm_design_study.py
"""

from repro.dtm import ClockGating, DTMController
from repro.experiments.common import uniform_package_specs
from repro.floorplan import ev6_floorplan
from repro.power import pulse_train
from repro.sensors import SensorArray, place_at_block
from repro.units import ZERO_CELSIUS_IN_KELVIN as ZC


def main() -> None:
    plan = ev6_floorplan()

    # A bursty workload on the D-cache: 15 ms bursts at high power over
    # a warm background, the Fig. 8 pattern that stresses DTM.
    trace = pulse_train(
        plan, "Dcache", on_power=14.0, on_time=0.015, off_time=0.035,
        cycles=8, dt=1e-3, base_power={"Dcache": 4.0, "IntReg": 1.0},
    )

    specs = uniform_package_specs(20, 20, ambient_c=45.0)
    models = {
        "OIL-SILICON": specs["oil"].build(),
        "AIR-SINK": specs["air"].build(),
    }
    sensors = SensorArray([place_at_block(plan, "Dcache")])
    policy = ClockGating(0.2, targets=["Dcache", "IntReg", "IntExec"])

    print("closed-loop DTM: clock gating at 20% duty on trigger,")
    print("one absolute reliability threshold (ambient + 22 C) for both "
          "packages")
    print(f"{'package':<12} {'engage(ms)':>11} {'peak(C)':>9} "
          f"{'violation(ms)':>14} {'perf':>6} {'triggers':>9}")
    for name, model in models.items():
        threshold = model.config.ambient + 22.0
        for engagement in (2e-3, 5e-3, 15e-3, 40e-3):
            controller = DTMController(
                model, sensors, policy,
                threshold=threshold, engagement_duration=engagement,
            )
            run = controller.run(trace)
            import numpy as np
            violation = float(
                np.sum(run.true_max >= threshold) * trace.dt
            )
            print(f"{name:<12} {1e3 * engagement:11.0f} "
                  f"{run.peak_temperature - ZC:9.1f} "
                  f"{1e3 * violation:14.1f} "
                  f"{run.performance:6.2f} {run.n_engagements:9d}")
        print()

    print("reading the table: against the same absolute limit, the "
          "air-cooled chip\nnever (or barely) violates -- the copper "
          "absorbs the bursts -- while the\noil-cooled chip runs hot and "
          "stays in violation through short engagements,\nre-triggering "
          "until only long engagements (with their large performance\n"
          "cost) calm it.  DTM parameters tuned on the oil bench are "
          "therefore far\nmore conservative than the real air-cooled "
          "product needs (Section 5.1).")


if __name__ == "__main__":
    main()
