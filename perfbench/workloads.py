"""The three workloads: one timed unit of work each, and its output checks.

A unit is what a user waits for, and what ``frames_per_ref_s`` and the
per-layer numbers are counted per:

- ``batch_short``: one ``annotate`` batch CLI call over all short clips,
  ``--jobs 2``, default stub LLM.
- ``long_clip``: one long clip through the library path the single-video
  CLI uses (read, annotate, serialize, validate, write) with its injected
  k=10 candidate table. Units cycle through the clips.
- ``train``: one training of both toy models on the seeded corpora.

Outputs are checked outside the timed region and untraced. The first
output of each input is checked in full; every repeat must reproduce it
exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import inputs


@dataclass
class Unit:
    seconds: float
    frames: int
    items: int  # videos or trainings attempted in the unit
    output: object  # what Workload.check judges; dropped once checked
    ref_seconds: float = 0.0  # ``seconds`` at the reference host speed, set by run.py


class Workload:
    """Inputs loaded and models ready before the first unit is timed."""

    size: int  # distinct units: one round over the inputs
    shape: dict  # input sizes, recorded with the results

    def run(self, k: int) -> Unit:
        """Time unit ``k`` (0 <= k < size)."""
        raise NotImplementedError

    def check(self, k: int, unit: Unit) -> list[str]:
        """One reason per failed item of the unit; empty when all pass."""
        raise NotImplementedError

    def quality(self) -> dict:
        """Output quality and digests, for the results file."""
        raise NotImplementedError


def check_document(data: dict, line_count, num_frames: int, validate) -> list[str]:
    """Problems with one annotation document; empty when it passes.

    ``line_count(gloss)`` gives the token count of a candidate's gloss line.
    """
    try:
        validate(data)
    except Exception as exc:  # jsonschema.ValidationError, or a document too malformed to test
        return [f"schema: {exc.__class__.__name__}: {str(exc)[:200]}"]
    problems = []
    cands = data["candidates"]
    if not cands:
        problems.append(f"no candidates ({data['errors']})")
    if [c["rank"] for c in cands] != list(range(1, len(cands) + 1)):
        problems.append("ranks do not run 1..n")
    for c in cands:
        where = f"candidate {c['candidate_index']}"
        if len(c["per_sign"]) != line_count(c["gloss"]):
            problems.append(f"{where}: per_sign entries do not match its tokens")
        for s in c["per_sign"]:
            spans = [s["interval"]] + ([s["fingerspelled_region"]] if "fingerspelled_region" in s else [])
            for lo, hi in spans:
                if not 0 <= lo <= hi <= num_frames - 1:
                    problems.append(f"{where}: interval [{lo}, {hi}] outside [0, {num_frames - 1}]")
            if "peak_frame" in s and not 0 <= s["peak_frame"] <= num_frames - 1:
                problems.append(f"{where}: peak frame {s['peak_frame']} outside the video")
    return problems


class _DocumentChecker:
    """Checks each video's first document in full; repeats must be byte-identical."""

    def __init__(self, clips: list[dict]):
        from signscribe import gloss, pipeline

        self.frames = {c["video_id"]: c["frames"] for c in clips}
        self._validate = pipeline.validate_document  # taken before any tracing wrapper
        self._count = lambda line: len(gloss.parse_gloss_sequence(line).tokens)
        self.first: dict[str, bytes] = {}
        self._problems: dict[str, list[str]] = {}

    def check(self, video_id: str, payload: bytes | None) -> str | None:
        """A failure reason for this video's document, or None."""
        if payload is None:
            return f"{video_id}: no document"
        if video_id not in self.first:
            self.first[video_id] = payload
            try:
                data = json.loads(payload)
            except ValueError as exc:
                self._problems[video_id] = [f"unreadable document: {exc}"]
            else:
                self._problems[video_id] = check_document(
                    data, self._count, self.frames[video_id], self._validate
                )
        elif payload != self.first[video_id]:
            return f"{video_id}: document differs from its first run"
        problems = self._problems[video_id]
        return f"{video_id}: {'; '.join(problems[:3])}" if problems else None

    def digest(self) -> str:
        """sha256 over every video's first document, in video-id order."""
        h = hashlib.sha256()
        for video_id in sorted(self.first):
            h.update(video_id.encode() + b"\0" + self.first[video_id] + b"\0")
        return h.hexdigest()


def _shape(clips: list[dict]) -> dict:
    frames = [c["frames"] for c in clips]
    return {
        "clips": len(clips),
        "frames": sum(frames),
        "frames_min": min(frames),
        "frames_max": max(frames),
        "tokens": sum(c["tokens"] for c in clips),
        "fs_words": sum(c["fs_words"] for c in clips),
    }


def _manifest(work: Path) -> list[dict]:
    return json.loads((work / "manifest.json").read_text(encoding="utf-8"))["clips"]


class BatchShort(Workload):
    JOBS = 2  # nproc of the reference box

    def __init__(self, work: Path, model_dir: Path):
        from signscribe import cli

        self.cli = cli
        self.clips = _manifest(work)
        self.size, self.shape = 1, _shape(self.clips)
        self.out = work / "out"
        self.argv = [
            "annotate",
            "--transcripts", str(work / "transcripts.jsonl"),
            "--poses-dir", str(work),
            "--out", str(self.out),
            "--model-dir", str(model_dir),
            "--jobs", str(self.JOBS),
        ]
        self.checker = _DocumentChecker(self.clips)

    def run(self, k: int) -> Unit:
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = self.cli.main(self.argv)
            seconds = time.perf_counter() - start
        return Unit(seconds, self.shape["frames"], len(self.clips), code)

    def check(self, k: int, unit: Unit) -> list[str]:
        failed = []
        for clip in self.clips:
            path = self.out / f"{clip['video_id']}.json"
            payload = path.read_bytes() if unit.output == 0 and path.is_file() else None
            reason = self.checker.check(clip["video_id"], payload)
            if reason:
                failed.append(reason)
        return failed

    def quality(self) -> dict:
        return {"doc_digest": self.checker.digest()}


class LongClip(Workload):
    def __init__(self, work: Path, model_dir: Path):
        from signscribe import fingerspelling, isr, pipeline, pose
        from signscribe.llm import StubClient

        self.pose, self.pipeline = pose, pipeline
        self.clips = _manifest(work)
        self.size, self.shape = len(self.clips), _shape(self.clips)
        self.work = work
        self.out = work / "out"
        self.out.mkdir(exist_ok=True)
        tables = json.loads((work / "candidates.json").read_text(encoding="utf-8"))
        self.client = StubClient(translations=tables)
        self.config = pipeline.PipelineConfig(k=inputs.LONG_K)
        self.models = pipeline.Models(
            fingerspelling=fingerspelling.load_fingerspelling_model(model_dir / "fingerspelling"),
            isr=isr.load_isr_model(model_dir / "isr"),
        )
        self.checker = _DocumentChecker(self.clips)

    def _annotate(self, clip: dict) -> bytes:
        poses = self.pose.read_pose_jsonl(self.work / f"{clip['video_id']}.jsonl")
        doc = self.pipeline.annotate(clip["english"], poses, self.models, self.config, self.client)
        payload = self.pipeline.document_bytes(doc)
        self.pipeline.validate_document(json.loads(payload))
        (self.out / f"{clip['video_id']}.json").write_bytes(payload)
        return payload

    def run(self, k: int) -> Unit:
        clip = self.clips[k]
        start = time.perf_counter()
        try:
            output = self._annotate(clip)
        except Exception:  # a failing video is counted, and the run goes on
            output = traceback.format_exc(limit=3)
        return Unit(time.perf_counter() - start, clip["frames"], 1, output)

    def check(self, k: int, unit: Unit) -> list[str]:
        video_id = self.clips[k]["video_id"]
        if isinstance(unit.output, str):
            return [f"{video_id}: {unit.output}"]
        reason = self.checker.check(video_id, unit.output)
        return [reason] if reason else []

    def quality(self) -> dict:
        """Rank of the composed line among each video's candidates."""
        ranks = []
        for clip in self.clips:
            payload = self.checker.first.get(clip["video_id"])
            if payload is not None:
                cands = json.loads(payload)["candidates"]
                ranks.append(next((c["rank"] for c in cands if c["gloss"] == clip["line"]), None))
        found = [r for r in ranks if r is not None]
        return {
            "videos_ranked": len(ranks),
            "true_line_missing": len(ranks) - len(found),
            "top1_true_share": sum(r == 1 for r in found) / len(ranks) if ranks else None,
            "true_rank_mean": sum(found) / len(found) if found else None,
            "true_ranks": ranks,
            "doc_digest": self.checker.digest(),
        }


def _weights_digest(tcns) -> str:
    h = hashlib.sha256()
    for tcn in tcns:
        for name, arr in sorted(tcn.state_arrays().items()):
            h.update(name.encode() + b"\0" + arr.tobytes())
    return h.hexdigest()


class Train(Workload):
    def __init__(self, seed: int):
        from signscribe import fingerspelling, isr

        self.fs, self.isr = fingerspelling, isr
        self.world, self.fs_corpus, self.isr_corpus, self.train_seed = inputs.train_corpora(seed)
        fs_frames = sum(len(s.poses.frames) for s in self.fs_corpus)
        isr_frames = sum(len(s.poses.frames) for s in self.isr_corpus)
        self.size = 1
        self.shape = {
            "fs_phrases": len(self.fs_corpus),
            "fs_frames": fs_frames,
            "isr_clips": len(self.isr_corpus),
            "isr_frames": isr_frames,
            "epochs": inputs.TRAIN_EPOCHS,
            "channels": inputs.TRAIN_CHANNELS,
            "train_seed": self.train_seed,
        }
        # Frames per unit: every corpus frame, once per epoch.
        self.frames = inputs.TRAIN_EPOCHS * (fs_frames + isr_frames)
        self.first: tuple | None = None

    def run(self, k: int) -> Unit:
        start = time.perf_counter()
        fs_model = self.fs.train_toy(
            self.fs_corpus,
            self.world.alphabet,
            epochs=inputs.TRAIN_EPOCHS,
            seed=self.train_seed,
            channels=inputs.TRAIN_CHANNELS,
        )
        isr_model = self.isr.train_toy_isr(
            self.isr_corpus,
            self.world.vocabulary,
            epochs=inputs.TRAIN_EPOCHS,
            seed=self.train_seed,
            channels=inputs.TRAIN_CHANNELS,
            lr=1e-3,
        )
        return Unit(time.perf_counter() - start, self.frames, 1, (fs_model, isr_model))

    def check(self, k: int, unit: Unit) -> list[str]:
        fs_model, isr_model = unit.output
        history = fs_model.history + isr_model.history
        outcome = (
            [h["val_loss"] for h in fs_model.history],
            [h["val_loss"] for h in isr_model.history],
            _weights_digest([fs_model.tcn, isr_model.two_hand, isr_model.one_hand]),
        )
        failed = []
        if len(history) != 2 * inputs.TRAIN_EPOCHS:
            failed.append("training stopped before the requested epochs")
        if not all(math.isfinite(h[key]) for h in history for key in ("train_loss", "val_loss")):
            failed.append("non-finite loss")
        if self.first is None:
            self.first = outcome
        elif outcome != self.first:
            failed.append("training is not deterministic: losses or weights differ from the first run")
        return failed

    def quality(self) -> dict:
        fs_val, isr_val, digest = self.first
        return {"train_val_loss_fs": min(fs_val), "train_val_loss_isr": min(isr_val), "weights_digest": digest}
