"""Tests for thermal-map statistics, time constants, reverse power."""

import numpy as np
import pytest

from repro.analysis import (
    block_ranking,
    coolest_block,
    hottest_block,
    reverse_engineer_power,
    rise_time,
)
from repro.analysis.reverse_power import block_response_matrix
from repro.analysis.time_constants import (
    max_rate_of_change,
    required_sampling_interval,
)
from repro.errors import SolverError
from repro.floorplan import multicore_floorplan
from repro.package import oil_silicon_package
from repro.rcmodel import ThermalGridModel
from repro.solver import steady_state


class TestMaps:
    def test_hottest_and_coolest(self):
        temps = {"a": 50.0, "b": 80.0, "blank1": 30.0}
        assert hottest_block(temps) == ("b", 80.0)
        assert coolest_block(temps) == ("blank1", 30.0)
        assert coolest_block(temps, exclude_prefixes=("blank",)) == ("a", 50.0)

    def test_coolest_all_excluded(self):
        with pytest.raises(ValueError):
            coolest_block({"blank1": 1.0}, exclude_prefixes=("blank",))

    def test_ranking(self):
        temps = {"a": 1.0, "b": 3.0, "c": 2.0}
        assert [n for n, _ in block_ranking(temps)] == ["b", "c", "a"]


class TestTimeConstants:
    def test_rise_time_interpolates(self):
        times = np.linspace(0, 5, 500)
        values = 10.0 * (1 - np.exp(-times))
        assert rise_time(times, values, fraction=0.632) == pytest.approx(
            1.0, rel=0.02
        )

    def test_max_rate_and_sampling_interval(self):
        times = np.linspace(0, 1, 101)
        values = 5.0 * times  # 5 K/s
        assert max_rate_of_change(times, values) == pytest.approx(5.0)
        # 0.1 K resolution at 5 K/s -> 20 ms
        assert required_sampling_interval(times, values, 0.1) == pytest.approx(
            0.02
        )

    def test_papers_sampling_rule_of_thumb(self):
        # Section 5.2: 5 C in 3 ms at 0.1 C resolution -> 60 us.
        rate = 5.0 / 3e-3
        assert 0.1 / rate == pytest.approx(60e-6)


class TestReversePower:
    @pytest.fixture(scope="class")
    def multicore_model(self):
        plan = multicore_floorplan(3, 1, 5e-3, 5e-3)
        config = oil_silicon_package(
            plan.die_width, plan.die_height, uniform_h=True,
            include_secondary=False, ambient=300.0,
        )
        return ThermalGridModel(plan, config, nx=18, ny=6)

    def test_response_matrix_is_positive(self, multicore_model):
        response = block_response_matrix(multicore_model)
        assert response.shape == (3, 3)
        assert np.all(response > 0)
        # self-heating dominates coupling
        assert np.all(np.diag(response) >= response.max(axis=1) - 1e-12)

    def test_inversion_recovers_true_power(self, multicore_model):
        true_power = np.array([2.0, 1.0, 3.0])
        rise = steady_state(
            multicore_model.network, multicore_model.node_power(true_power)
        )
        measured = multicore_model.block_rise(rise)
        estimated = reverse_engineer_power(measured, multicore_model)
        np.testing.assert_allclose(estimated, true_power, rtol=1e-6)

    def test_shape_validation(self, multicore_model):
        with pytest.raises(SolverError):
            reverse_engineer_power(np.zeros(5), multicore_model)
