"""Demos run to completion, so a name they import cannot vanish unnoticed.

Demos 03 and 04 train their own models, 4-9 s each, and are not run here.
Demo 05 trains its own too, but it is the one demo that reads an annotation
document field by field, so it runs (about 8 s on a 2-vCPU host).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "name",
    ["01_gloss_notation", "02_ctc_forced_alignment", "05_annotation_pipeline", "06_evaluation_metrics"],
)
def test_quick_demo_runs(tmp_path, name):
    result = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
