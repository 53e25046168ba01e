"""Outside-in layer tracer for the end-to-end benchmark.

:data:`LAYERS` maps each layer name to the public callables that enter
it.  :class:`Tracer` wraps those callables at run time, so the
program under test is not edited and untraced iterations run the
original code.  Each wrapped call pushes a frame on a per-tracer call
stack.  A layer's self time is its wrapped time minus the time of the
wrapped callees beneath it, so the self times of all layers add up to
the traced wall time minus whatever ran outside every layer and in
the count hooks.

Two rules keep wrapping from changing behaviour:

* Module-level functions are wrapped by identity: every loaded
  ``repro.*`` namespace that binds the original function object gets
  the wrapper, which catches ``from module import fn`` bindings too.
* Methods are wrapped only where a class defines them in its own
  ``__dict__``, walking the named class and its loaded subclasses.
  Wrapping an inherited attribute would install the base-class
  function on the subclass and shadow its override.

:data:`INCLUSIVE` lists per-figure timers.  They record inclusive time
only and do not take part in self-time accounting.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

#: ``count(stats, args, kwargs, result)`` records work counts for one
#: call; for a generator it runs once per yielded item.
CountHook = Callable[["LayerStats", tuple, dict, Any], None]


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module`` plus ``func`` or ``Class.method``."""

    module: str
    qualname: str
    count: Optional[CountHook] = None


@dataclass
class LayerStats:
    """What the wrappers of one layer measured."""

    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)
    keys: Set[Any] = field(default_factory=set)

    def add(self, name: str, value: float) -> None:
        """Add ``value`` to the named work count."""
        self.counts[name] = self.counts.get(name, 0) + value

    def as_dict(self) -> Dict[str, Any]:
        """JSON form; distinct keys collapse to their number."""
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "counts": dict(self.counts),
            "distinct": len(self.keys),
        }


def _count_simulation(stats: LayerStats, args: tuple, kwargs: dict,
                      result: Any) -> None:
    simulator = args[0]
    workload = args[1] if len(args) > 1 else kwargs["workload"]
    stats.add("instructions", simulator.last_summary.instructions)
    stats.keys.add((workload.name, workload.seed, workload.total_instructions))


def _count_item(stats: LayerStats, args: tuple, kwargs: dict,
                result: Any) -> None:
    stats.add("items", 1)


def _count_cache_accesses(stats: LayerStats, args: tuple, kwargs: dict,
                          result: Any) -> None:
    stats.add("accesses", result.l1i_accesses + result.l1d_accesses
              + result.l2_accesses)


def _count_branches(stats: LayerStats, args: tuple, kwargs: dict,
                    result: Any) -> None:
    stats.add("branches", len(args[1]))


def _count_model(stats: LayerStats, args: tuple, kwargs: dict,
                 result: Any) -> None:
    stats.add("nodes", args[0].network.n_nodes)


def _count_factorization(stats: LayerStats, args: tuple, kwargs: dict,
                         result: Any) -> None:
    from repro.solver.steady import system_fingerprint

    matrix = args[1]
    stats.keys.add(system_fingerprint(matrix))
    # L+U fill of a SuperLU factor; other engines report the input nnz
    lu = getattr(result, "_lu", None)
    stats.add("nnz", lu.nnz if lu is not None else matrix.nnz)


def _count_jobs(stats: LayerStats, args: tuple, kwargs: dict,
                result: Any) -> None:
    stats.add("jobs", len(result.outcomes))


def _count_lookup(stats: LayerStats, args: tuple, kwargs: dict,
                  result: Any) -> None:
    stats.add("hits", result is not None)


_FD = "repro.validation.reference_fd"
_FD_METHODS = ("__init__", "uniform_power", "rect_power", "steady_rise",
               "surface_rise", "bottom_rise", "probe_index", "transient_probe")

#: Layer name -> the public callables that enter the layer.
LAYERS: Dict[str, Tuple[Target, ...]] = {
    "microarch.simulate": (
        Target("repro.microarch.simulator", "MicroarchSimulator.run",
               _count_simulation),
    ),
    "microarch.workload": (
        Target("repro.microarch.workload", "SyntheticWorkload.chunks",
               _count_item),
    ),
    "microarch.caches": (
        Target("repro.microarch.caches", "CacheHierarchy.simulate_chunk",
               _count_cache_accesses),
    ),
    "microarch.bpred": (
        Target("repro.microarch.bpred", "BimodalPredictor.predict_and_update",
               _count_branches),
    ),
    "microarch.synthesis": (
        Target("repro.microarch.synthesis", "TraceSynthesizer.__init__"),
        Target("repro.microarch.synthesis", "TraceSynthesizer.synthesize"),
    ),
    "floorplan.grid_map": (
        Target("repro.floorplan.grid_map", "GridMapping.__init__"),
        Target("repro.floorplan.grid_map", "GridMapping.block_power_to_cells"),
        Target("repro.floorplan.grid_map", "GridMapping.cell_to_block_average"),
    ),
    "rcmodel.assemble": (
        Target("repro.rcmodel.grid", "ThermalGridModel.__init__", _count_model),
    ),
    "rcmodel.network": tuple(
        Target("repro.rcmodel.network", f"NetworkBuilder.{name}")
        for name in ("connect_many", "to_ambient_many", "add_capacitances",
                     "build")
    ),
    "solver.factorize": (
        Target("repro.solver.backends", "LinearBackend.factorize",
               _count_factorization),
    ),
    "solver.solve": (
        Target("repro.solver.backends", "Factor.solve"),
        Target("repro.solver.backends", "Factor.solve_columns"),
    ),
    "solver.step": (
        Target("repro.solver.transient", "_ImplicitStepper.step"),
        Target("repro.solver.transient", "_ImplicitStepper.step_effective"),
    ),
    "solver.drive": (
        Target("repro.solver.steady", "steady_state"),
        Target("repro.solver.transient", "transient_simulate"),
        Target("repro.solver.events", "simulate_schedule"),
        Target("repro.solver.batched", "batched_transient_simulate"),
        Target("repro.solver.batched", "batched_simulate_schedules"),
        Target("repro.solver.adaptive", "AdaptiveTransientSolver.integrate"),
        Target("repro.dtm.controller", "DTMController.run"),
        Target("repro.dtm.batch", "run_dtm_batch"),
    ),
    "validation.reference_fd": tuple(
        Target(_FD, f"ReferenceFDSolver.{name}") for name in _FD_METHODS
    ),
    "campaign.execute": (
        Target("repro.campaign.executor", "run_campaign", _count_jobs),
    ),
    "campaign.cache.get": (
        Target("repro.campaign.cache", "ResultCache.get", _count_lookup),
    ),
    "campaign.cache.put": (
        Target("repro.campaign.cache", "ResultCache.put"),
    ),
    "campaign.trace_store.get": (
        Target("repro.campaign.cache", "ResultCache.get_trace", _count_lookup),
    ),
    "campaign.trace_store.put": (
        Target("repro.campaign.cache", "ResultCache.put_trace"),
    ),
}

#: Figures of ``run_all_experiments``: inclusive timers, not layers.
FIGURES = tuple(f"fig{n:02d}" for n in range(2, 13))
INCLUSIVE: Dict[str, Tuple[Target, ...]] = {
    f"experiments.{fig}": (Target(f"repro.experiments.{fig}", f"run_{fig}"),)
    for fig in FIGURES
}


def _with_subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _with_subclasses(sub) if c not in found)
    return found


def _repro_namespaces() -> List[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Installs timing wrappers on :data:`LAYERS` and :data:`INCLUSIVE`.

    Use as a context manager, or call :meth:`install` and
    :meth:`uninstall`.  Not thread-safe: the benchmark runs one job at a
    time in one thread.
    """

    def __init__(
        self,
        layers: Optional[Dict[str, Tuple[Target, ...]]] = None,
        inclusive: Optional[Dict[str, Tuple[Target, ...]]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.layers = LAYERS if layers is None else layers
        self.inclusive = INCLUSIVE if inclusive is None else inclusive
        self._clock = clock
        self.stats: Dict[str, LayerStats] = {
            name: LayerStats() for name in (*self.layers, *self.inclusive)
        }
        #: Time spent in count hooks, charged to no layer.
        self.hook_s = 0.0
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- wrappers -----------------------------------------------------------

    def _finish(self, stats: LayerStats, frame: List[float],
                elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        stats.self_s += elapsed - frame[0]
        stats.total_s += elapsed
        if stack:
            stack[-1][0] += elapsed

    def _count(self, stats: LayerStats, count: CountHook, args: tuple,
               kwargs: dict, result: Any) -> None:
        start = self._clock()
        count(stats, args, kwargs, result)
        spent = self._clock() - start
        self.hook_s += spent
        if self._stack:
            self._stack[-1][0] += spent

    def _wrap(self, fn: Callable[..., Any], stats: LayerStats,
              count: Optional[CountHook], layered: bool) -> Callable[..., Any]:
        clock = self._clock
        stack = self._stack

        if not layered:
            @functools.wraps(fn)
            def timed(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    stats.calls += 1
                    stats.total_s += clock() - start
            return timed

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def timed_generator(*args: Any, **kwargs: Any) -> Any:
                inner = fn(*args, **kwargs)
                stats.calls += 1
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._finish(stats, frame, clock() - start)
                    if count is not None:
                        self._count(stats, count, args, kwargs, item)
                    yield item
            return timed_generator

        @functools.wraps(fn)
        def timed_call(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(stats, frame, clock() - start)
                stats.calls += 1
            if count is not None:
                self._count(stats, count, args, kwargs, result)
            return result
        return timed_call

    # -- installation -------------------------------------------------------

    def _install_target(self, target: Target, stats: LayerStats,
                        layered: bool) -> None:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            for cls in _with_subclasses(getattr(module, owner_name)):
                original = cls.__dict__.get(attr)
                if original is None:
                    continue  # inherited: the defining class is wrapped
                if not inspect.isfunction(original):
                    raise TypeError(f"{cls.__qualname__}.{attr} is not a "
                                    "plain function")
                setattr(cls, attr, self._wrap(original, stats, target.count,
                                              layered))
                self._undo.append((cls, attr, original))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(original, stats, target.count, layered)
        for namespace in _repro_namespaces():
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapper)
                    self._undo.append((namespace, key, original))

    def install(self) -> "Tracer":
        """Wrap every target; import target modules that are not loaded."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for table, layered in ((self.layers, True), (self.inclusive, False)):
            for name, targets in table.items():
                for target in targets:
                    self._install_target(target, self.stats[name], layered)
        return self

    def uninstall(self) -> None:
        """Restore every original binding, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def snapshot(self) -> Dict[str, Any]:
        """Per-layer measurements in JSON form."""
        return {
            "layers": {name: s.as_dict() for name, s in self.stats.items()},
            "hook_s": self.hook_s,
        }


# -- per-layer metrics ---------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    traced: Dict[str, Any],
    counters: Dict[str, float],
    wall_s: float,
    untraced_wall_s: float,
    warmup_s: float,
) -> Dict[str, float]:
    """The per-layer metrics of one traced iteration.

    ``traced`` is :meth:`Tracer.snapshot` output, ``counters`` the
    iteration's delta of ``repro.obs`` counters, ``wall_s`` the traced
    wall time, ``untraced_wall_s`` the median untraced wall time of the
    same run and ``warmup_s`` the untimed trace-store warm-up.
    """
    layers = traced["layers"]

    def self_s(name: str) -> float:
        return float(layers[name]["self_s"])

    def calls(name: str) -> int:
        return int(layers[name]["calls"])

    def count(name: str, what: str) -> float:
        return float(layers[name]["counts"].get(what, 0))

    def repeat_ratio(name: str) -> float:
        return _ratio(calls(name) - layers[name]["distinct"], calls(name))

    counter = lambda name: float(counters.get(name, 0.0))  # noqa: E731
    simulate = layers["microarch.simulate"]
    instructions = count("microarch.simulate", "instructions")
    accesses = count("microarch.caches", "accesses")
    attributed = sum(self_s(name) for name in LAYERS)
    factor_hits = counter("solver.steady.factor_cache_hits")

    metrics: Dict[str, float] = {
        "microarch.simulate.self_s": self_s("microarch.simulate"),
        "microarch.simulate.calls": calls("microarch.simulate"),
        "microarch.simulate.repeat_ratio": repeat_ratio("microarch.simulate"),
        "microarch.instructions": instructions,
        "microarch.minstr_per_s": _ratio(instructions / 1e6,
                                         simulate["total_s"]),
        "microarch.workload.self_s": self_s("microarch.workload"),
        "microarch.workload.chunks": count("microarch.workload", "items"),
        "microarch.caches.self_s": self_s("microarch.caches"),
        "microarch.caches.accesses": accesses,
        "microarch.caches.maccess_per_s": _ratio(
            accesses / 1e6, self_s("microarch.caches")),
        "microarch.bpred.self_s": self_s("microarch.bpred"),
        "microarch.bpred.branches": count("microarch.bpred", "branches"),
        "microarch.synthesis.self_s": self_s("microarch.synthesis"),
        "floorplan.grid_map.self_s": self_s("floorplan.grid_map"),
        "floorplan.grid_map.calls": calls("floorplan.grid_map"),
        "rcmodel.assemble.self_s": self_s("rcmodel.assemble"),
        "rcmodel.assemble.models": calls("rcmodel.assemble"),
        "rcmodel.assemble.nodes": count("rcmodel.assemble", "nodes"),
        "rcmodel.network.self_s": self_s("rcmodel.network"),
        "solver.factorize.self_s": self_s("solver.factorize"),
        "solver.factorize.calls": calls("solver.factorize"),
        "solver.factorize.distinct": layers["solver.factorize"]["distinct"],
        "solver.factorize.repeat_ratio": repeat_ratio("solver.factorize"),
        "solver.factorize.nnz": count("solver.factorize", "nnz"),
        "solver.solve.self_s": self_s("solver.solve"),
        "solver.solve.calls": calls("solver.solve"),
        "solver.solve.us_per_call": _ratio(1e6 * self_s("solver.solve"),
                                           calls("solver.solve")),
        "solver.step.self_s": self_s("solver.step"),
        "solver.step.calls": calls("solver.step"),
        "solver.drive.self_s": self_s("solver.drive"),
        "solver.steady.factor_cache_hit_ratio": _ratio(
            factor_hits,
            factor_hits + counter("solver.steady.factorizations")),
        "solver.transient.steps": counter("solver.transient.steps"),
        "validation.reference_fd.self_s": self_s("validation.reference_fd"),
        "campaign.execute.self_s": self_s("campaign.execute"),
        "campaign.execute.jobs": count("campaign.execute", "jobs"),
        "campaign.cache.get_s": self_s("campaign.cache.get"),
        "campaign.cache.put_s": self_s("campaign.cache.put"),
        "campaign.cache.hit_ratio": _ratio(
            count("campaign.cache.get", "hits"), calls("campaign.cache.get")),
        "campaign.trace_store.get_s": self_s("campaign.trace_store.get"),
        "campaign.trace_store.put_s": self_s("campaign.trace_store.put"),
        "campaign.trace_store.hit_ratio": _ratio(
            count("campaign.trace_store.get", "hits"),
            calls("campaign.trace_store.get")),
        "campaign.trace_store.warmup_s": warmup_s,
    }
    for name in INCLUSIVE:
        metrics[f"{name}.s"] = float(layers[name]["total_s"])
    metrics.update({
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - attributed,
        "trace.coverage": _ratio(attributed, wall_s),
        "trace.overhead": _ratio(wall_s, untraced_wall_s) - 1.0,
    })
    return {name: float(value) for name, value in metrics.items()}
