"""Set-up probe: what every CLI invocation pays before its first video.

``python3 perfbench/probe.py <model dir>`` imports ``signscribe.cli`` and
loads both models from the directory, then prints the two durations as
JSON. ``run.py`` times the whole child process from outside, interpreter
start and exit included, and reports the median over several probes as
``setup_s``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    start = time.perf_counter()
    from signscribe import cli  # noqa: F401  (what the CLI entry point imports)

    imported = time.perf_counter()
    from signscribe import fingerspelling, isr

    root = Path(sys.argv[1])
    fingerspelling.load_fingerspelling_model(root / "fingerspelling")
    isr.load_isr_model(root / "isr")
    loaded = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "load_s": loaded - imported}))
