"""``tools/erf_fit.py`` reproduces the float32 erf constants that
``tosca.numerics`` commits."""

import importlib.util
from pathlib import Path

import numpy as np

from tosca import numerics

_SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "erf_fit.py"


def _erf_fit():
    spec = importlib.util.spec_from_file_location("erf_fit", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_erf_fit_reproduces_the_committed_constants():
    erf_fit = _erf_fit()
    P, Q, rel = erf_fit.fit()
    # numerics lists them highest degree first, without Q's leading 1
    assert Q[-1] == 1.0
    np.testing.assert_allclose(P[::-1], numerics._ERF_P, rtol=1e-9, atol=0)
    np.testing.assert_allclose(Q[::-1][1:], numerics._ERF_Q, rtol=1e-9, atol=0)
    assert rel < 2.4e-9
    # the clamp is a function of the committed coefficients alone
    P = np.array(numerics._ERF_P)[::-1]
    Q = np.concatenate([[1.0], numerics._ERF_Q])[::-1]
    assert erf_fit.clamp(P, Q) == numerics._ERF_CLAMP
