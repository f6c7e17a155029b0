"""signscribe benchmark: one workload, one seed, one timed run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload batch_short|long_clip|train \\
        --seed N --seconds S --trace 0|1

The run trains the model fixture if this source tree has none yet (see
fixture.py), times the set-up probe, writes the seeded inputs to
``.perfbench/work/``, runs ``--seconds`` of whole units of work over them
(see workloads.py), checks every unit's outputs, and prints as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the ``end_to_end`` list of
BENCHMARK.json, ``frames_per_ref_s`` counting time in reference seconds
(see hostspeed.py); with ``--trace 1`` they are the ``per_layer`` list, each
per traced unit, measured by span wrappers (spans.py) that are switched on
for the second unit of each untraced/traced pair; the pairs give the
tracing overhead.

Everything else a run learns (environment, model digests, workload shape,
quality, document digest, per-span self times) goes to
``.perfbench/results/<workload>-seed<N>-trace<T>.json``, and traced spans
to the ``.spans.jsonl`` beside it.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import common

common.pin_blas_threads()

import hostspeed  # noqa: E402  (imports numpy, so after the pinning)

PROBES = 5
PROBE_TIMEOUT_S = 60
WORKLOADS = ("batch_short", "long_clip", "train")


def _parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _git_sha() -> str | None:
    if not (common.ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "--git-dir", str(common.ROOT / ".git"), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    return done.stdout.strip() or None


def _probe_setup(model_dir) -> dict:
    """Median wall time of fresh processes that import the CLI and load both models."""
    walls, inner = [], []
    for _ in range(PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(common.ROOT / "perfbench" / "probe.py"), str(model_dir)],
            cwd=common.ROOT,
            env=common.child_env(),
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        walls.append(time.perf_counter() - start)
        inner.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median(walls),
        "samples": walls,
        "import_s_p50": statistics.median(p["import_s"] for p in inner),
        "load_s_p50": statistics.median(p["load_s"] for p in inner),
    }


def _build(workload: str, seed: int, work, model_dir):
    import workloads

    if workload == "train":
        return workloads.Train(seed)
    subprocess.run(
        [sys.executable, str(common.ROOT / "perfbench" / "inputs.py"), workload, str(seed), str(work)],
        cwd=common.ROOT,
        env=common.child_env(),
        check=True,
        timeout=120,
    )
    cls = workloads.BatchShort if workload == "batch_short" else workloads.LongClip
    return cls(work, model_dir)


def _measure(wl, seconds: float, tracer) -> list[tuple[bool, object, list[str]]]:
    """Units round-robin over the inputs until ``seconds`` have passed.

    Untraced, at least one unit more than there are inputs runs, so some
    input runs twice and must reproduce its outputs. Traced, each unit runs
    twice in a row, untraced and then traced: the pair gives the tracing
    overhead, and the traced copy must reproduce the untraced one. The
    reference loop runs before the first unit and after each one. A
    unit's output is dropped once checked, so that memory, and with it
    ``peak_rss_mb``, does not grow with the number of units a run fits in.
    """
    runs = []
    modes = (False, True) if tracer is not None else (False,)
    min_units = 1 if tracer is not None else wl.size + 1
    deadline = time.perf_counter() + seconds
    i = 0
    hostspeed.reference_seconds()  # warm-up: the first run of the loop is slower
    before = hostspeed.reference_seconds()
    while i < min_units or time.perf_counter() < deadline:
        k = i % wl.size
        for traced in modes:
            if tracer is not None:
                tracer.enabled = traced
            try:
                unit = wl.run(k)
            finally:
                if tracer is not None:
                    tracer.enabled = False
            after = hostspeed.reference_seconds()
            unit.ref_seconds = hostspeed.to_reference(unit.seconds, before, after)
            before = after
            runs.append((traced, unit, wl.check(k, unit)))
            unit.output = None
        i += 1
    return runs


def _throughput(units, seconds=lambda u: u.seconds) -> float:
    """Frames per second over all the units: total frames / total time."""
    return sum(u.frames for u in units) / sum(seconds(u) for u in units)


def _ref_throughput(units) -> float:
    """Frames per reference second (hostspeed.py) over all the units."""
    return _throughput(units, lambda u: u.ref_seconds)


def _per_layer(tracer, traced_units: int, overhead: float) -> dict[str, float]:
    """Per-layer values, each per traced unit: every span's inclusive
    seconds as ``<span>_s`` (summed over the batch CLI's worker threads),
    every count, and the two yield ratios."""
    counts = {k: v / traced_units for k, v in tracer.counts.items()}
    values = {f"{name}_s": row["total_s"] for name, row in tracer.summary(traced_units).items()}
    values.update(counts)

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    values["fingerspelling.anchor_share"] = ratio("fingerspelling.anchors", "fingerspelling.words")
    values["llm.candidate_yield"] = ratio("llm.returned", "llm.requested")
    values["trace.overhead_share"] = overhead
    return values


def main() -> int:
    args = _parse_args()
    common.import_package()
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import numpy as np

    import fixture
    import spans

    model_dir = fixture.ensure_models()
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = common.STATE / "work" / f"{run_name}-{os.getpid()}"
    results_dir = common.STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)

    warnings = spans.CountingHandler()
    pkg_logger = logging.getLogger("signscribe")
    pkg_logger.addHandler(warnings)
    pkg_logger.propagate = False

    tracer = None
    try:
        work.mkdir(parents=True)
        setup = _probe_setup(model_dir)
        wl = _build(args.workload, args.seed, work, model_dir)
        if args.trace:
            from signscribe.pipeline import PipelineConfig

            tracer = spans.Tracer()
            spans.instrument(tracer, fs_threshold=PipelineConfig().fs_threshold)
        runs = _measure(wl, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)

    plain = [u for traced, u, _ in runs if not traced]
    traced = [u for is_traced, u, _ in runs if is_traced]
    attempted = sum(u.items for _, u, _ in runs)
    failures = [reason for _, _, failed in runs for reason in failed]
    values = {
        "setup_s": setup["setup_s"],
        "frames_per_ref_s": _ref_throughput(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        overhead = statistics.median(t.ref_seconds / p.ref_seconds for p, t in zip(plain, traced)) - 1.0
        values.update(_per_layer(tracer, len(traced), overhead))

    if args.trace:  # a layer the workload never calls reads 0
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_sha": _git_sha(),
            "source_sha256": common.source_digest(),
            "blas_threads": {v: os.environ.get(v) for v in common.BLAS_THREAD_VARS},
        },
        "model_weights_sha256": fixture.weight_digests(model_dir),
        "shape": wl.shape,
        "units": {"untraced": len(plain), "traced": len(traced)},
        "unit_s_p50": statistics.median(u.seconds for u in plain),
        "unit_seconds": [[is_traced, u.seconds, u.ref_seconds] for is_traced, u, _ in runs],
        "frames_per_s": _throughput(plain),
        "setup": setup,
        "attempted": attempted,
        "failed": len(failures),
        "failed_share": len(failures) / attempted,
        "failures": failures[:20],
        "quality": wl.quality(),
        "package_log_records": dict(warnings.by_template),
        "metrics": values,
    }
    if tracer is not None:
        record["frames_per_ref_s"] = {"untraced": _ref_throughput(plain), "traced": _ref_throughput(traced)}
        record["spans_per_unit"] = tracer.summary(len(traced))
        record["counts_per_unit"] = {k: v / len(traced) for k, v in sorted(tracer.counts.items())}
        record["unwrapped"] = tracer.missing
        tracer.write_jsonl(results_dir / f"{run_name}.spans.jsonl")
    (results_dir / f"{run_name}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(
        f"perfbench {run_name}: {len(plain)} untraced + {len(traced)} traced units, "
        f"unit p50 {record['unit_s_p50']:.3f} s, {len(failures)}/{attempted} failed"
    )
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print("quality: " + json.dumps(record["quality"], sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    print(f"results: {(results_dir / f'{run_name}.json').relative_to(common.ROOT)}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
