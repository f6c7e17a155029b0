"""The benchmark's span hooks still find the layers they wrap.

``perfbench/spans.py`` wraps package modules, classes and functions by name
from outside. A module or class it names that is gone aborts every traced
benchmark run; a function or method that is gone drops its span to 0 and is
listed in the run's ``unwrapped``. This loads that file as it is, instruments
the package and puts it back, so a rename fails here first. It also runs one
unit of each annotate workload, and two of the ``train`` workload, through
``perfbench/workloads.py`` as it is.
"""

import importlib.util
import json
import sys
from pathlib import Path

from signscribe import gloss, pipeline

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


def load_perfbench(name: str, monkeypatch):
    """``perfbench/<name>.py`` as module ``name``, which the scripts import each other by."""
    spec = importlib.util.spec_from_file_location(name, SPANS.with_name(f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_untraced_units_pass_their_checks(tmp_path, model_root, monkeypatch):
    """One unit of each annotate workload, built from ``perfbench/inputs.py``'s
    seeded inputs over the session models and checked as a benchmark run
    checks it, so a change to a name or an error type the benchmark reads
    fails here before it fails a run."""
    inputs = load_perfbench("inputs", monkeypatch)
    workloads = load_perfbench("workloads", monkeypatch)
    for name, workload in (("long_clip", workloads.LongClip), ("batch_short", workloads.BatchShort)):
        inputs.write_inputs(name, 1, tmp_path / name)
        wl = workload(tmp_path / name, model_root)
        assert wl.check(0, wl.run(0)) == []

    def count(line):
        return len(gloss.parse_gloss_sequence(line).tokens)

    data = json.loads(wl.checker.first["clip00"])
    data["candidates"][0]["rank"] = "first"
    problems = workloads.check_document(data, count, wl.clips[0]["frames"], pipeline.validate_document)
    assert problems == ["schema: DocumentError: $.candidates[0].rank: is not of type 'integer'"]


def test_train_units_pass_their_checks(monkeypatch):
    """Two units of the ``train`` workload, checked as a benchmark run checks
    them: the trainer signatures it calls, the ``val_loss`` history rows it
    reads, and that the second training reproduces the first."""
    load_perfbench("inputs", monkeypatch)
    workloads = load_perfbench("workloads", monkeypatch)
    wl = workloads.Train(1)
    for _ in range(2):
        assert wl.check(0, wl.run(0)) == []
