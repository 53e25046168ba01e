"""Every transient entry point reproduces its pinned outputs bit for bit.

``tests/golden/stepping.npz`` was written by
``tests/golden/stepping_cases.py`` (run it to regenerate after an
intended change of the numbers).  Each array must match exactly: the
stepping entry points are wrappers of one core, and a refactor of that
core may change the cost of a run, never its numbers.
"""

import os

import numpy as np
import pytest

from tests.golden.stepping_cases import GOLDEN, cases


@pytest.fixture(scope="module")
def computed():
    return cases()


@pytest.fixture(scope="module")
def golden():
    assert os.path.exists(GOLDEN), "run tests/golden/stepping_cases.py"
    with np.load(GOLDEN) as data:
        return {name: data[name] for name in data.files}


def test_same_entries(computed, golden):
    assert sorted(computed) == sorted(golden)


def test_every_entry_bitwise_equal(computed, golden):
    moved = [
        name for name in sorted(golden)
        if name in computed
        and not (computed[name].dtype == golden[name].dtype
                 and np.array_equal(computed[name], golden[name],
                                    equal_nan=computed[name].dtype.kind == "f"))
    ]
    assert moved == []
