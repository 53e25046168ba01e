"""The analytic (Green's-function / FFT) steady engine.

Pins the accuracy contract of DESIGN.md §8: exactness (to roundoff)
on rim-free configurations, convergence of the non-uniform h(x)
fixed-point correction, the measured few-percent envelope on
overhanging (rimmed) packages, kernel caching, and input guards.
"""

import numpy as np
import pytest

from repro import obs
from repro.errors import SolverError
from repro.floorplan import ev6_floorplan
from repro.package import air_sink_package, oil_silicon_package
from repro.rcmodel import ThermalGridModel
from repro.solver import steady_block_temperatures, steady_state
from repro.solver.analytic import (
    AnalyticSteadyEngine,
    accuracy_envelope,
    analytic_block_temperatures,
    envelope_bounds,
    envelope_table,
    even_extend,
    forward_modes,
    get_kernel,
    inverse_modes,
    kernel_cache_clear,
    neumann_eigenvalues,
    stack_from_model,
)
from repro.units import celsius_to_kelvin

PLAN = ev6_floorplan()
W, H = PLAN.die_width, PLAN.die_height


def _gcc_like_power():
    rng = np.random.default_rng(7)
    return {name: float(p) for name, p in
            zip(PLAN.names, rng.uniform(0.5, 8.0, len(PLAN.names)))}


def _rc_cell_rise(model, block_power):
    return model.silicon_cell_rise(
        steady_state(model.network, model.node_power(block_power))
    )


# -- spectral transforms -----------------------------------------------------

def test_even_extension_round_trips():
    rng = np.random.default_rng(0)
    field = rng.normal(size=(6, 9))
    extended = even_extend(field)
    assert extended.shape == (12, 18)
    # mirror symmetry about both half-sample axes
    np.testing.assert_allclose(extended, extended[::-1, :])
    np.testing.assert_allclose(extended, extended[:, ::-1])
    modes = forward_modes(field)
    np.testing.assert_allclose(inverse_modes(modes, 6, 9), field, atol=1e-12)


def test_modes_diagonalize_the_neumann_laplacian():
    """The (ny, nx) modes carry the even extension's DFT spectrum: the
    path Laplacian acts on each mode as ``lam_y + lam_x``."""
    ny, nx = 6, 9
    field = np.random.default_rng(1).normal(size=(ny, nx))

    def path_laplacian(n):
        lap = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        lap[0, 0] = lap[-1, -1] = 1.0
        return lap

    applied = path_laplacian(ny) @ field + field @ path_laplacian(nx)
    lam = (neumann_eigenvalues(ny, ny)[:, np.newaxis]
           + neumann_eigenvalues(nx, nx)[np.newaxis, :])
    np.testing.assert_allclose(forward_modes(applied),
                               lam * forward_modes(field), atol=1e-12)
    # the same spectrum as the image-extended periodic grid, whose
    # lower-left (ny, nx) block of modes differs only by phase
    # and a known scale: sqrt(2n) per axis, sqrt(2) more on mode 0
    extended = np.fft.rfft2(even_extend(field))[:ny, :nx]
    scale = np.outer(np.sqrt(2.0 * ny) * np.where(np.arange(ny), 1.0, np.sqrt(2.0)),
                     np.sqrt(2.0 * nx) * np.where(np.arange(nx), 1.0, np.sqrt(2.0)))
    np.testing.assert_allclose(np.abs(extended),
                               scale * np.abs(forward_modes(field)),
                               atol=1e-9)


def test_neumann_eigenvalues_match_closed_form():
    n = 8
    lam = neumann_eigenvalues(n, 2 * n)
    assert lam[0] == 0.0  # repro-ok: float-equality
    q = np.arange(2 * n)
    np.testing.assert_allclose(lam, 4.0 * np.sin(np.pi * q / (2 * n)) ** 2,
                               atol=1e-12)


# -- exactness on rim-free configurations ------------------------------------

def test_exact_on_rim_free_uniform_h():
    """No overhang + uniform h: the spectral basis is exact, not approximate."""
    config = oil_silicon_package(W, H, uniform_h=True,
                                 include_secondary=False)
    model = ThermalGridModel(PLAN, config, nx=16, ny=16)
    power = _gcc_like_power()
    reference = _rc_cell_rise(model, power)
    solution = AnalyticSteadyEngine(model).solve(power)
    assert solution.converged and solution.iterations == 0
    np.testing.assert_allclose(solution.active_rise, reference,
                               rtol=1e-9, atol=1e-9)


def test_exact_on_rim_free_nonuniform_h():
    """The h(x) fixed-point correction converges to the exact answer."""
    config = oil_silicon_package(W, H, uniform_h=False,
                                 include_secondary=False)
    model = ThermalGridModel(PLAN, config, nx=16, ny=16)
    power = _gcc_like_power()
    reference = _rc_cell_rise(model, power)
    solution = AnalyticSteadyEngine(model).solve(power)
    assert solution.converged
    assert 0 < solution.iterations <= 60
    scale = float(np.abs(reference).max())
    assert float(np.abs(solution.active_rise - reference).max()) < 1e-6 * scale


def test_h_correction_flag_matters():
    """Without the correction a non-uniform boundary is mean-h only."""
    config = oil_silicon_package(W, H, uniform_h=False,
                                 include_secondary=False)
    model = ThermalGridModel(PLAN, config, nx=16, ny=16)
    power = _gcc_like_power()
    reference = _rc_cell_rise(model, power)
    corrected = AnalyticSteadyEngine(model, h_correction=True).solve(power)
    mean_only = AnalyticSteadyEngine(model, h_correction=False).solve(power)
    assert mean_only.iterations == 0
    err_corrected = float(np.abs(corrected.active_rise - reference).max())
    err_mean = float(np.abs(mean_only.active_rise - reference).max())
    assert err_mean > 100 * err_corrected


# -- mixed absolute/relative convergence (regression) ------------------------

def _tiny_delta_engine(scale):
    """An engine whose ambient fluctuations are scaled toward zero.

    The kernel depends only on the stack's structural content (the
    per-cell ambient deltas enter at apply time, see
    ``SlabStack.kernel_fingerprint``), so scaling ``ambient_delta``
    in place keeps the cached kernel valid.
    """
    import dataclasses

    config = oil_silicon_package(W, H, uniform_h=False,
                                 include_secondary=False)
    model = ThermalGridModel(PLAN, config, nx=8, ny=8)
    engine = AnalyticSteadyEngine(model)
    stack = engine.stack
    layers = tuple(
        dataclasses.replace(
            layer,
            ambient_delta=(None if layer.ambient_delta is None
                           else layer.ambient_delta * scale),
        )
        for layer in stack.layers
    )
    engine.stack = dataclasses.replace(stack, layers=layers)
    return engine


def test_near_zero_ambient_delta_accepted_absolutely():
    """Corrections that legitimately shrink toward zero must converge.

    With a purely relative residual (``norm(update) / norm(target)``)
    a vanishing target makes the ratio noise-dominated; the mixed
    criterion accepts the first sweep outright because the update is
    absolutely negligible.
    """
    engine = _tiny_delta_engine(1e-20)
    power = _gcc_like_power()
    solution = engine.solve(power)
    assert solution.converged
    assert solution.iterations == 1
    # and the answer is indistinguishable from the mean-h solve
    mean_only = AnalyticSteadyEngine(
        engine.model, h_correction=False
    ).solve(power)
    np.testing.assert_allclose(solution.active_rise,
                               mean_only.active_rise,
                               rtol=1e-12, atol=1e-12)


def test_mixed_criterion_accepts_below_atol_despite_tight_rtol():
    """``atol`` alone can certify convergence when ``rtol`` is below
    the float roundoff floor (where a relative-only test would spin
    until ``max_iterations`` and report failure)."""
    config = oil_silicon_package(W, H, uniform_h=False,
                                 include_secondary=False)
    model = ThermalGridModel(PLAN, config, nx=8, ny=8)
    solution = AnalyticSteadyEngine(
        model, rtol=1e-30, atol=1e-9
    ).solve(_gcc_like_power())
    assert solution.converged


def test_engine_validates_atol():
    config = oil_silicon_package(W, H, uniform_h=True,
                                 include_secondary=False)
    model = ThermalGridModel(PLAN, config, nx=8, ny=8)
    with pytest.raises(SolverError, match="atol"):
        AnalyticSteadyEngine(model, atol=0.0)


# -- rimmed (overhanging) packages: the documented envelope ------------------

@pytest.mark.parametrize("config_name", ["oil_secondary", "air_sink"])
def test_rimmed_packages_stay_inside_envelope(config_name):
    """Overhang handled via rim Schur elimination: few-percent accurate."""
    if config_name == "oil_secondary":
        config = oil_silicon_package(W, H, uniform_h=True,
                                     include_secondary=True)
    else:
        config = air_sink_package(W, H, convection_resistance=1.0)
    model = ThermalGridModel(PLAN, config, nx=16, ny=16)
    power = _gcc_like_power()
    reference = _rc_cell_rise(model, power)
    predicted = AnalyticSteadyEngine(model).solve(power).active_rise
    peak = float(reference.max())
    rel = float(np.abs(predicted - reference).max()) / peak
    # measured ~2.5% on both packages; pin the documented 5% envelope
    # and that it is a genuine approximation (not accidentally exact)
    assert rel < 0.05
    assert rel > 1e-6
    assert abs(float(predicted.max()) - peak) / peak < 0.05


def test_surface_field_shape_and_smoothing():
    """The engine also returns the IR-visible die back-surface field."""
    config = oil_silicon_package(W, H, uniform_h=True,
                                 include_secondary=False)
    model = ThermalGridModel(PLAN, config, nx=16, ny=16)
    solution = AnalyticSteadyEngine(model).solve(_gcc_like_power())
    assert solution.surface_rise.shape == solution.active_rise.shape
    assert np.all(np.isfinite(solution.surface_rise))
    # vertical conduction smooths the field: smaller spatial spread
    spread = lambda f: float(f.max() - f.min())  # noqa: E731
    assert spread(solution.surface_rise) <= spread(solution.active_rise)


def test_block_temperatures_match_steady_solver():
    """analytic_block_temperatures mirrors steady_block_temperatures."""
    config = oil_silicon_package(W, H, uniform_h=True,
                                 include_secondary=False)
    model = ThermalGridModel(PLAN, config, nx=16, ny=16)
    power = _gcc_like_power()
    reference = steady_block_temperatures(model, power)
    predicted = analytic_block_temperatures(model, power)
    assert set(predicted) == set(reference)
    for name in reference:
        assert predicted[name] == pytest.approx(reference[name], abs=1e-6)
        assert predicted[name] > celsius_to_kelvin(45.0)


# -- kernel cache ------------------------------------------------------------

def test_kernel_cache_hits_on_same_fingerprint():
    kernel_cache_clear()
    builds = obs.metrics().counter("solver.analytic.kernel_builds")
    hits = obs.metrics().counter("solver.analytic.kernel_cache_hits")
    config = oil_silicon_package(W, H, uniform_h=True,
                                 include_secondary=False)
    model = ThermalGridModel(PLAN, config, nx=8, ny=8)
    b0, h0 = builds.value, hits.value
    first = AnalyticSteadyEngine(model)
    assert builds.value == b0 + 1
    second = AnalyticSteadyEngine(
        ThermalGridModel(PLAN, config, nx=8, ny=8)
    )
    assert builds.value == b0 + 1  # same fingerprint: no rebuild
    assert hits.value == h0 + 1
    assert second.kernel is first.kernel
    # a different grid is a different kernel
    AnalyticSteadyEngine(ThermalGridModel(PLAN, config, nx=12, ny=12))
    assert builds.value == b0 + 2


def test_cached_kernel_responses_are_read_only():
    """The LRU-shared response tensor is frozen: a would-be in-place
    corruption of a cached kernel now raises instead of silently
    poisoning every later solve on the same stack."""
    kernel_cache_clear()
    config = oil_silicon_package(W, H, uniform_h=True,
                                 include_secondary=False)
    model = ThermalGridModel(PLAN, config, nx=8, ny=8)
    engine = AnalyticSteadyEngine(model)
    stack = engine.stack
    view = engine.kernel.response(stack.surface_index, stack.active_index)
    assert not view.flags.writeable
    with pytest.raises(ValueError):
        view *= 2.0
    with pytest.raises(ValueError):
        view[0, 0] = 1.0
    # the sanctioned path still works: copy, then mutate freely
    scratch = view.copy()
    scratch *= 2.0
    assert scratch.flags.writeable
    # and the cached kernel still solves correctly afterwards
    power = _gcc_like_power()
    reference = steady_block_temperatures(model, power)
    predicted = analytic_block_temperatures(model, power)
    for name in reference:
        assert predicted[name] == pytest.approx(reference[name], abs=1e-6)


def test_flow_directions_share_one_kernel():
    """δh is excluded from the fingerprint: fig11's 4 directions, 1 build."""
    from repro.convection.flow import ALL_DIRECTIONS

    kernel_cache_clear()
    fingerprints = set()
    kernels = set()
    for direction in ALL_DIRECTIONS:
        config = oil_silicon_package(W, H, direction=direction,
                                     include_secondary=False)
        model = ThermalGridModel(PLAN, config, nx=8, ny=8)
        stack = stack_from_model(model)
        fingerprints.add(stack.kernel_fingerprint)
        kernels.add(id(get_kernel(stack)))
    assert len(fingerprints) == 1
    assert len(kernels) == 1


# -- guards ------------------------------------------------------------------

def test_rejects_wrong_shape_and_nonfinite_power():
    config = oil_silicon_package(W, H, uniform_h=True,
                                 include_secondary=False)
    model = ThermalGridModel(PLAN, config, nx=8, ny=8)
    engine = AnalyticSteadyEngine(model)
    with pytest.raises(SolverError, match="shape"):
        engine.solve_cells(np.ones(7))
    bad = np.ones(model.mapping.n_cells)
    bad[3] = np.nan
    with pytest.raises(SolverError, match="non-finite"):
        engine.solve_cells(bad)
    with pytest.raises(SolverError):
        AnalyticSteadyEngine(model, max_iterations=0)
    with pytest.raises(SolverError):
        AnalyticSteadyEngine(model, rtol=0.0)


# -- the envelope module -----------------------------------------------------

def test_accuracy_envelope_sweep():
    config = oil_silicon_package(W, H, uniform_h=True,
                                 include_secondary=False)
    points = accuracy_envelope(PLAN, config, grid_sizes=(8,))
    assert {p.power for p in points} == {"uniform", "hot_block",
                                         "checkerboard"}
    worst_abs, worst_rel = envelope_bounds(points)
    # rim-free: exact to roundoff across all probe maps
    assert worst_rel < 1e-9
    assert worst_abs < 1e-6
    table = envelope_table(points)
    assert "| grid | power map |" in table
    assert "8x8" in table
    assert envelope_bounds([]) == (0.0, 0.0)


def test_accuracy_envelope_rimmed_is_approximate():
    config = oil_silicon_package(W, H, uniform_h=True,
                                 include_secondary=True)
    points = accuracy_envelope(PLAN, config, grid_sizes=(8,))
    _, worst_rel = envelope_bounds(points)
    assert 1e-6 < worst_rel < 0.05
