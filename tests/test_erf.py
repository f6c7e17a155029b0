"""GELU's ``erf`` is scipy's compiled ufunc, loaded without scipy.special's package init.

Each check runs in a fresh interpreter, since this test process may already
have imported ``scipy.special``: then the module takes that ``erf`` directly.
"""

import json
import os
import subprocess
import sys

import pytest

# Imports signscribe.cli, evaluates erf on a dense grid before scipy.special
# is imported, then imports it and compares; warnings are errors throughout.
PROBE = """
import json, sys
import numpy as np
import signscribe.cli
from signscribe.nn import autograd

absent = [m for m in ("scipy.special", "numpy.f2py", "numpy.testing") if m not in sys.modules]
specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -1e-310,
            2.2250738585072014e-308, -2.2250738585072014e-308]
edges = []
for x in (1.0, -1.0, 6.0, -6.0, 8.0, -8.0):
    steps = np.arange(-200, 201, dtype=np.float64)
    edges += [x + steps * np.spacing(x), x + steps * 2.0 ** -30]  # ulps, then wider
grid = np.concatenate([specials, np.linspace(-10.0, 10.0, 400001), *edges])
ours = autograd.erf(grid).tobytes()

import scipy.special
print(json.dumps({
    "absent": absent,
    "same_object": autograd.erf is scipy.special.erf,
    "bytes_equal": ours == scipy.special.erf(grid).tobytes(),
    "grid_size": grid.size,
}))
"""

# Hides the compiled file: no extension suffix matches it, so the package import runs.
FALLBACK = """
import importlib.machinery, json, sys
importlib.machinery.EXTENSION_SUFFIXES[:] = [".missing"]
from signscribe.nn import autograd
loaded = "scipy.special" in sys.modules
import scipy.special
print(json.dumps({"loaded": loaded, "same_object": autograd.erf is scipy.special.erf}))
"""


def run_python(code: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    return json.loads(out)


@pytest.fixture(scope="module")
def probe():
    return run_python(PROBE)


def test_cli_import_skips_scipy_special_init(probe):
    assert probe["absent"] == ["scipy.special", "numpy.f2py", "numpy.testing"]


def test_later_scipy_special_import_shares_the_ufunc(probe):
    assert probe["same_object"]


def test_erf_bytes_match_scipy_special_erf(probe):
    assert probe["grid_size"] > 400_000
    assert probe["bytes_equal"]


def test_missing_compiled_file_falls_back_to_scipy_special():
    assert run_python(FALLBACK) == {"loaded": True, "same_object": True}
