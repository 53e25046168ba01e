"""Import guards: the package loads no numpy/scipy module it does not
run, and every name a module exports in ``__all__`` exists.

Every ``benchmarks/e2e`` worker and every reproduce run starts by
importing ``repro``, ``repro.experiments`` and ``repro.campaign``.  The
solvers need numpy, ``scipy.sparse`` and ``scipy.sparse.linalg``
(``splu``); a scipy subpackage that only an unreached function needs
(``scipy.optimize`` for ``reverse_engineer_power``'s ``nnls``) is
imported inside that function.  This test compares the package import
against that floor in fresh interpreters, so it holds whatever modules
a given numpy/scipy release splits itself into.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import repro

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

FLOOR = "import numpy, scipy.sparse, scipy.sparse.linalg"
PACKAGE = "import repro, repro.experiments, repro.campaign"


def loaded_modules(statement):
    """The names in ``sys.modules`` after ``statement`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = f"{statement}; import json, sys; print(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_package_import_loads_no_numpy_or_scipy_beyond_sparse_linalg():
    floor = loaded_modules(FLOOR)
    package = loaded_modules(PACKAGE)
    extra = sorted(
        name for name in package - floor
        if name.split(".")[0] in ("numpy", "scipy")
    )
    assert not extra, (
        f"`{PACKAGE}` loads {len(extra)} numpy/scipy module(s) that "
        f"`{FLOOR}` does not; import a subpackage that only an unreached "
        f"function needs (e.g. scipy.optimize) inside that function: "
        f"{extra[:20]}"
    )


def test_every_public_name_resolves():
    """A stale ``__all__`` entry (a deleted function still re-exported)
    breaks ``from repro.x import *``; ruff and mypy catch it only in CI."""
    checked = 0
    missing = []
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
        # importing __main__ runs the command line
        if info.name != "repro.__main__"
    ]
    for module_name in names:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            checked += 1
            if not hasattr(module, name):
                missing.append(f"{module_name}.{name}")
    assert checked > 0
    assert missing == []
