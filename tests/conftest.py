import sys

import numpy as np
import pytest

from elmkit import linalg


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(20240615)


@pytest.fixture
def blas():
    """The bundled OpenBLAS's controls and routines; skips the test without it."""
    found = linalg._openblas()
    if found is None:
        pytest.skip("numpy does not use its bundled OpenBLAS")
    return found


@pytest.fixture
def blas_threads(blas):
    """The caller's OpenBLAS thread count set to 2; yields the count getter."""
    set_threads, get_threads = blas.set_threads, blas.get_threads
    before = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(before)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion pass/fail lines after the test run."""
    module = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(module, "CRITERION_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
