"""The benchmark's span hooks still find the layers they wrap.

``perfbench/spans.py`` wraps package modules, classes and functions by name
from outside. A module or class it names that is gone aborts every traced
benchmark run; a function or method that is gone drops its span to 0 and is
listed in the run's ``unwrapped``. This loads that file as it is, instruments
the package and puts it back, so a rename fails here first.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# The wrapped names the package no longer has: the shared feature build and
# the single parse replaced them, and their work counts in the spans that call it.
KNOWN_MISSING = [
    "signscribe.fingerspelling.build_features",
    "signscribe.fingerspelling.prepare_sequence",
    "signscribe.isr.build_features",
    "signscribe.isr.prepare_sequence",
    "signscribe.pipeline.parse_gloss_sequence",
]


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_the_package_and_restore_puts_it_back():
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer, 0.3)
        wrapped = list(tracer._undo)
        assert all(getattr(owner, attr) is not original for owner, attr, original in wrapped)
    finally:
        tracer.restore()
    assert wrapped
    assert all(getattr(owner, attr) is original for owner, attr, original in wrapped)
    assert sorted(tracer.missing) == KNOWN_MISSING
