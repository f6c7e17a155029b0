"""Span tracer that measures the package's layers from outside.

:func:`instrument` replaces module and class attributes with timing
wrappers, each under the name its callers look it up by (a function
imported by name is wrapped in the importing module). Nothing in the
package changes; :meth:`Tracer.restore` puts every original back.

A span records name, start, end, parent span, thread id and the video being
processed. Each thread keeps its own span stack, so the batch CLI's worker
threads nest correctly. Spans stay in memory and are written as JSON Lines
when the run ends. Wrappers also add counts taken from the call's arguments
and results, such as DP cells, so the ratios are measured where the work
happens.
"""

from __future__ import annotations

import functools
import json
import logging
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []  # (id, parent, name, start, end, thread, video)
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = iter(range(1, 1 << 62))
        self._undo: list[tuple] = []

    # --- recording ----------------------------------------------------------

    def add(self, **counts: float) -> None:
        with self._lock:
            self.counts.update(counts)

    def set_video(self, video_id: str) -> None:
        self._local.video = video_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, name, start, end, threading.get_ident(), getattr(self._local, "video", ""))
            )

    # --- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Time calls to ``owner.attr`` as span ``name`` while enabled.

        ``before(args, kwargs)`` runs before the call and ``after(args,
        kwargs, result)`` after it, both only while enabled. A missing
        attribute is recorded in :attr:`missing` and left alone.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            result = tracer.call(name, original, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- reporting ----------------------------------------------------------

    def summary(self, units: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, per traced unit."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for span_id, _, name, start, end, _, _ in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[span_id]
        for row in out.values():
            for key in row:
                row[key] /= units
        return dict(sorted(out.items()))

    def write_jsonl(self, path: Path) -> None:
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, thread, video in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent or None,
                            "name": name,
                            "start_s": start - t0,
                            "end_s": end - t0,
                            "thread": thread,
                            "video": video,
                        }
                    )
                    + "\n"
                )


class CountingHandler(logging.Handler):
    """Counts a logger's records by message template instead of printing them."""

    def __init__(self) -> None:
        super().__init__(logging.DEBUG)
        self.by_template: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        self.by_template[record.msg] += 1


def _frames(scores) -> int:
    return int(scores.probs.shape[0])


def _dp_counts(args, kwargs) -> tuple[int, int]:
    """Sum of m*n and count of the inter-anchor intervals a call aligns.

    Mirrors the grouping of ``isr.align_glosses_scores``: interval g runs
    from the end of anchor g-1 to the start of anchor g, and holds the
    entries whose token index lies between the two anchors' indices.
    Intervals with no entries, or fewer frames than entries, run no DP.
    """
    names = ("scores", "vocabulary", "entries", "anchors")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    T = _frames(bound["scores"])
    anchors = bound["anchors"]
    starts = [0] + [det.end_frame + 1 for _, det in anchors]
    ends = [det.start_frame - 1 for _, det in anchors] + [T - 1]
    positions = [idx for idx, _ in anchors]
    sizes = [0] * (len(anchors) + 1)
    for entry in bound["entries"]:
        sizes[sum(1 for p in positions if p < entry.token_index)] += 1
    cells = intervals = 0
    for m, lo, hi in zip(sizes, starts, ends):
        n = hi - lo + 1
        if m and n >= m:
            cells += m * n
            intervals += 1
    return cells, intervals


def instrument(tracer: Tracer, fs_threshold: float) -> None:
    """Wrap the public functions of every measured layer.

    ``fs_threshold`` is the anchor threshold the workload's pipeline uses;
    a word aligned at or above it counts as an anchor.
    """
    from signscribe import cli, ctc, fingerspelling, isr, nn, pipeline, pose
    from signscribe.nn import autograd, optim, tcn

    def set_video_from_path(args, kwargs):
        tracer.set_video(Path(args[0] if args else kwargs["path"]).stem)

    def set_video_from_poses(args, kwargs):
        poses = args[1] if len(args) > 1 else kwargs["poses"]
        tracer.set_video(poses.video_id)

    def count_prepare(args, kwargs, result):
        seq = args[0] if args else kwargs["seq"]
        tracer.add(**{"pose.prepare_frames": len(seq.frames)})

    def count_lattice(counter: str):
        """T * S cells of the CTC lattice of a (scores, target, ...) call."""

        def after(args, kwargs, result):
            scores = args[0] if args else kwargs["scores"]
            target = args[1] if len(args) > 1 else kwargs["target"]
            tracer.add(**{counter: _frames(scores) * (2 * len(target) + 1)})

        return after

    def count_words(args, kwargs, result):
        tracer.add(
            **{
                "fingerspelling.words": len(result),
                "fingerspelling.anchors": sum(1 for d in result if d.score >= fs_threshold),
            }
        )

    def count_dp(args, kwargs, result):
        cells, intervals = _dp_counts(args, kwargs)
        tracer.add(**{"isr.dp_cells": cells, "isr.dp_intervals": intervals})

    def count_candidates(args, kwargs, result):
        k = args[2] if len(args) > 2 else kwargs.get("k", 10)
        tracer.add(**{"llm.requested": k, "llm.returned": len(result.candidates)})

    # pose layer
    tracer.wrap(cli, "read_pose_jsonl", "pose.read", before=set_video_from_path)
    tracer.wrap(pose, "read_pose_jsonl", "pose.read", before=set_video_from_path)
    for mod in (fingerspelling, isr):
        tracer.wrap(mod, "prepare_sequence", "pose.prepare", after=count_prepare)
        tracer.wrap(mod, "build_features", "pose.features")
    # nn layer
    tracer.wrap(tcn.Tcn, "forward", "nn.tcn_forward")
    tracer.wrap(autograd.Tensor, "backward", "nn.backward")
    tracer.wrap(optim.AdamW, "step", "nn.optim_step")
    tracer.wrap(nn, "clip_grad_norm", "nn.clip_grad")
    tracer.wrap(fingerspelling, "load_fingerspelling_model", "nn.load")
    tracer.wrap(isr, "load_isr_model", "nn.load")
    # ctc layer
    tracer.wrap(fingerspelling, "forced_align", "ctc.forced_align", after=count_lattice("ctc.align_cells"))
    tracer.wrap(ctc, "ctc_loss", "ctc.loss", after=count_lattice("ctc.loss_cells"))
    # fingerspelling layer
    tracer.wrap(fingerspelling, "frame_scores", "fingerspelling.frame_scores")
    tracer.wrap(fingerspelling, "align_words_scores", "fingerspelling.align_words", after=count_words)
    tracer.wrap(fingerspelling, "train_toy", "fingerspelling.train")
    # isr layer
    tracer.wrap(isr, "isr_scores", "isr.isr_scores")
    tracer.wrap(isr, "align_glosses_scores", "isr.align_glosses", after=count_dp)
    tracer.wrap(isr, "train_toy_isr", "isr.train")
    # cli, llm, gloss, pipeline, training layers
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(pipeline, "translate_candidates", "llm.translate", after=count_candidates)
    tracer.wrap(pipeline, "parse_gloss_sequence", "gloss.parse")
    tracer.wrap(pipeline, "annotate", "pipeline.annotate", before=set_video_from_poses)
    tracer.wrap(pipeline, "document_bytes", "pipeline.serialize")
    tracer.wrap(pipeline, "validate_document", "pipeline.validate")
    for mod in (fingerspelling, isr):
        tracer.wrap(mod, "stratified_split", "training.split")
