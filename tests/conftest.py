import sys

import numpy as np
import pytest

from elmkit import linalg, mlp


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


@pytest.fixture
def lstsq_route(monkeypatch):
    """min_norm_lstsq as on a numpy without its bundled OpenBLAS (the macOS arm64
    wheels use Accelerate): every input goes to np.linalg.lstsq, never to QR."""
    def no_qr(*args):
        raise AssertionError("the QR route ran without the OpenBLAS binding")

    monkeypatch.setattr(linalg, "_openblas", lambda: None)
    monkeypatch.setattr(linalg, "_qr_solve", no_qr)


@pytest.fixture
def mlp_pass():
    """run(features, targets, w_hidden, b_hidden, w_out, b_out) -> (loss, gradients): one
    ``mlp._Pass``, the pass ``train_mlp`` runs, at the four parameter arrays stacked as
    two ``[W | b]`` layers, on one BLAS thread with exp's overflow muted.  The gradients
    come back in parameter order, each in its parameter's shape."""
    def run(features, targets, w_hidden, b_hidden, w_out, b_out):
        layers = np.column_stack([w_hidden, b_hidden]), np.column_stack([w_out, b_out])
        with linalg._one_blas_thread(), np.errstate(over="ignore", under="ignore"):
            loss, grads = mlp._Pass(features, targets, len(b_hidden))(*layers)
        return loss, tuple(part for g in grads for part in (g[:, :-1], g[:, -1]))

    return run


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion pass/fail lines after the test run."""
    module = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(module, "CRITERION_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
