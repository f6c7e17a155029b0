"""Command-line surface.

Subcommands: ``train`` (toy synthetic training), ``recognize`` (greedy
fingerspelling decode), ``annotate`` (full pipeline to a JSON document,
single video or batch), ``render-timeline`` (SVG plot of one candidate),
and ``eval`` (metrics report against truth annotations).

Exit codes: 0 success, 1 domain error, 2 usage error, 130 a batch
``annotate`` stopped by Ctrl-C (SIGINT) after its summary.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import fingerspelling as fs_mod
from . import isr as isr_mod
from . import llm as llm_mod
from . import metrics as metrics_mod
from . import nn
from . import pipeline as pipe_mod
from . import synthetic as synth_mod
from . import timeline as timeline_mod
from .pose import read_pose_jsonl

DEFAULT_SEED = 12345


class DomainError(RuntimeError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signscribe",
        description="Pseudo-annotation toolkit for signed video.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a toy model on a synthetic corpus")
    p_train.add_argument("--kind", choices=["fingerspelling", "isr"], required=True)
    p_train.add_argument("--corpus", required=True, help="corpus spec JSON file")
    p_train.add_argument("--out", required=True, help="output model directory")
    p_train.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--channels", type=int, default=None)

    p_rec = sub.add_parser("recognize", help="greedy fingerspelling recognition")
    p_rec.add_argument("--poses", required=True)
    p_rec.add_argument("--model-dir", required=True)
    p_rec.add_argument("--llm", choices=["none", "stub", "http"], default="none",
                       help="optionally run the error-correction pass")

    p_ann = sub.add_parser("annotate", help="run the full annotation pipeline")
    p_ann.add_argument("--english", help="English sentence (single-video mode)")
    p_ann.add_argument("--poses", help="pose JSONL file (single-video mode)")
    p_ann.add_argument("--transcripts", help="JSONL of {video_id, english} (batch mode)")
    p_ann.add_argument("--poses-dir", help="directory of <video_id>.jsonl files (batch mode)")
    p_ann.add_argument("--out", required=True, help="output file (or directory in batch mode)")
    p_ann.add_argument("--model-dir", required=True,
                       help="directory holding fingerspelling/ and isr/ subdirectories")
    p_ann.add_argument("--vocab", help="override vocabulary manifest (JSON list)")
    p_ann.add_argument("--k", type=int, default=10)
    p_ann.add_argument("--threshold", type=float, default=0.3)
    p_ann.add_argument("--min-sign-duration", type=int, default=3)
    p_ann.add_argument("--llm", choices=["stub", "http"], default="stub")
    p_ann.add_argument("--jobs", type=int, default=1,
                       help="batch mode: videos annotated at once, each in a worker process "
                            "(forked where available) holding its own copy of the models and "
                            "pinned to one CPU; 1 annotates in this process, where a long "
                            "video's network forwards use every CPU it may run on "
                            "(restrict them with taskset)")

    p_tl = sub.add_parser("render-timeline", help="render one candidate as SVG")
    p_tl.add_argument("--doc", required=True, help="annotation document JSON")
    p_tl.add_argument("--rank", type=int, default=1)
    p_tl.add_argument("--out", required=True, help="output SVG path")

    p_eval = sub.add_parser("eval", help="score predictions against truth annotations")
    p_eval.add_argument("--pred", nargs="+", required=True,
                        help="annotation document files or directories")
    p_eval.add_argument("--truth", required=True,
                        help="JSONL of {video_id, gloss, fs_words?}")
    p_eval.add_argument("--out", help="write the report JSON here (default stdout)")
    p_eval.add_argument("--threshold", type=float, default=0.3)
    return parser


def _require_paths(parser: argparse.ArgumentParser, *paths: str | None) -> None:
    for p in paths:
        if p is not None and not Path(p).exists():
            parser.error(f"path does not exist: {p}")


# --- train ----------------------------------------------------------------


# The keys a corpus spec of each kind may set besides "kind" and "world_seed":
# the parameters of its synthetic.make_*_corpus builder.
_CORPUS_KEYS = {
    "fingerspelling": ("num_phrases", "num_signers", "seed"),
    "isr": ("clips_per_class", "num_signers", "seed"),
}


def _cmd_train(args, parser) -> int:
    if args.epochs is not None and args.epochs < 1:
        parser.error(f"argument --epochs: must be at least 1, got {args.epochs}")
    if args.channels is not None:
        # The network's own rule, checked before the corpus is built.
        make_config = nn.fingerspelling_config if args.kind == "fingerspelling" else nn.isr_config
        try:
            make_config(input_dim=1, output_classes=1, channels=args.channels)
        except ValueError as exc:
            parser.error(f"argument --channels: {exc}")
    _require_paths(parser, args.corpus)
    spec = _read_spec(Path(args.corpus), args.kind)
    corpus_args = {key: spec[key] for key in _CORPUS_KEYS[args.kind] if key in spec}
    world = synth_mod.make_world(seed=spec.get("world_seed", synth_mod.DEFAULT_WORLD_SEED))
    out = Path(args.out)
    kwargs = {}
    if args.epochs is not None:
        kwargs["epochs"] = args.epochs
    if args.channels is not None:
        kwargs["channels"] = args.channels

    if args.kind == "fingerspelling":
        corpus = synth_mod.make_fingerspelling_corpus(world, **corpus_args)
        model = fs_mod.train_toy(corpus, world.alphabet, seed=args.seed, **kwargs)
        fs_mod.save_fingerspelling_model(out, model)
        history = model.history
    else:
        corpus = synth_mod.make_isr_corpus(world, **corpus_args)
        model = isr_mod.train_toy_isr(corpus, world.vocabulary, seed=args.seed, **kwargs)
        isr_mod.save_isr_model(out, model)
        history = model.history
    log_path = out / "training_log.jsonl"
    log_path.write_text(
        "".join(json.dumps(rec) + "\n" for rec in history), encoding="utf-8"
    )
    print(f"wrote model to {out} ({len(history)} epochs)")
    return 0


def _read_spec(path: Path, kind: str) -> dict:
    """The spec of a ``kind`` corpus, its counts and seeds made integers.

    A malformed spec, one for another kind or one with a key the kind does
    not take is a domain error.
    """
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(spec, dict):
            raise ValueError(f"a corpus spec is a JSON object, not a JSON {type(spec).__name__}")
        if spec.get("kind") != kind:
            raise ValueError(f"corpus spec is for kind {spec.get('kind')!r}, requested {kind!r}")
        keys = ("world_seed", *_CORPUS_KEYS[kind])
        unknown = [key for key in spec if key not in ("kind", *keys)]
        if unknown:
            raise ValueError(f"a corpus spec of kind {kind!r} takes no key {unknown[0]!r}")
        for key in keys:
            if key in spec:
                try:
                    spec[key] = int(spec[key])
                except (TypeError, ValueError, OverflowError):
                    raise ValueError(f"{key!r} must be an integer, not {spec[key]!r}") from None
    except ValueError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    return spec


# --- recognize --------------------------------------------------------------


def _cmd_recognize(args, parser) -> int:
    _require_paths(parser, args.poses, args.model_dir)
    model = fs_mod.load_fingerspelling_model(args.model_dir)
    poses = read_pose_jsonl(args.poses)
    text = fs_mod.recognize(model, poses)
    if args.llm != "none":
        client = llm_mod.make_client(args.llm)
        try:
            text = llm_mod.correct_fingerspelling(client, text)
        except llm_mod.LlmError as exc:
            print(f"correction unavailable, using raw decode: {exc}", file=sys.stderr)
    print(text)
    return 0


# --- annotate ---------------------------------------------------------------


def _load_models(model_dir: str, vocab_path: str | None) -> pipe_mod.Models:
    root = Path(model_dir)
    fsm = fs_mod.load_fingerspelling_model(root / "fingerspelling")
    isrm = isr_mod.load_isr_model(root / "isr")
    if vocab_path:
        vocab = isr_mod.load_vocabulary(vocab_path)
        if vocab.size != isrm.vocabulary.size:
            raise DomainError("vocabulary override size does not match the model head")
        isrm.vocabulary = vocab
    return pipe_mod.Models(fingerspelling=fsm, isr=isrm)


def _pipeline_config(args) -> pipe_mod.PipelineConfig:
    return pipe_mod.PipelineConfig(
        k=args.k,
        fs_threshold=args.threshold,
        min_sign_duration=args.min_sign_duration,
        llm_mode=args.llm,
    )


# Shared state of a batch worker process and the parent's stop event, set
# once by the pool initializer.
_worker: tuple | None = None
# What a worker returns for a record it took after the parent was interrupted.
_NOT_RUN = "not run"


def _init_worker(state: tuple, parent: int, stop, cpus: list[int], started) -> None:
    """Take the shared state and the stop event, leave Ctrl-C to the parent,
    and end this worker once ``parent``, the pid that forked it, is gone: a
    killed batch leaves no worker behind.

    The worker also pins itself to one of ``cpus``, the parent's affinity
    mask, taken round-robin by ``started``, a shared count of the workers
    started so far: two workers do not share one CPU while another idles, and
    each worker's forwards run on its own CPU alone (see :mod:`cpus`).
    """
    import signal
    import threading
    import time

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if cpus:
        with started.get_lock():
            slot = started.value
            started.value += 1
        os.sched_setaffinity(0, {cpus[slot % len(cpus)]})

    def exit_when_orphaned() -> None:
        while os.getppid() == parent:
            time.sleep(0.25)
        os._exit(1)

    global _worker
    _worker = (state, stop)
    threading.Thread(target=exit_when_orphaned, daemon=True).start()


def _annotate_in_worker(line_no: int, line: str) -> dict | str | None:
    state, stop = _worker
    return _NOT_RUN if stop.is_set() else _annotate_record(state, line_no, line)


def _write_document(pipeline: tuple, english: str, poses_path: Path, out_path: Path) -> None:
    """Annotate one pose file with (models, config, client); write its validated document.

    The bytes go to a temporary name beside ``out_path``, which is then
    renamed onto it: a worker ended mid-write leaves the old document, not a
    truncated one. The temporary name does not end in ``.json``, so ``eval``
    never reads it.
    """
    poses = read_pose_jsonl(poses_path)
    doc = pipe_mod.annotate(english, poses, *pipeline)
    payload = pipe_mod.document_bytes(doc)
    pipe_mod.validate_document(json.loads(payload))
    partial = out_path.with_name(f".{out_path.name}.{os.getpid()}.part")
    try:
        partial.write_bytes(payload)
        os.replace(partial, out_path)
    except OSError:
        partial.unlink(missing_ok=True)
        raise


def _annotate_record(state: tuple, line_no: int, line: str) -> dict | None:
    """Parse and annotate one transcript line; return its failure instead of raising it."""
    pipeline, poses_dir, out_dir = state
    try:
        rec = _parse_record(line)
        video_id = _file_stem(rec["video_id"])
        _write_document(
            pipeline, rec["english"], poses_dir / f"{video_id}.jsonl", out_dir / f"{video_id}.json"
        )
    except Exception as exc:  # one bad record must not lose the batch
        return _failure(line_no, line, exc)
    return None


def _parse_record(line: str) -> dict:
    rec = json.loads(line)
    if not isinstance(rec, dict):
        raise TypeError(f"the line is a JSON {type(rec).__name__}, not an object")
    return rec


def _file_stem(video_id) -> str:
    """``video_id`` if it is a plain file name, so its files stay inside their directories."""
    if not isinstance(video_id, str) or video_id in ("", ".", "..") or Path(video_id).name != video_id:
        raise ValueError(f"video_id {video_id!r} is not a plain file name")
    return video_id


def _video_id(line: str):
    """The line's ``video_id`` value; None when the line has none or is no JSON object."""
    try:
        return _parse_record(line).get("video_id")
    except (ValueError, TypeError):
        return None


def _failure(line_no: int, line: str, exc: BaseException) -> dict:
    """The summary entry of a failed line; ``video_id`` is null when the line has none."""
    return {"video_id": _video_id(line), "line": line_no, "error": f"{type(exc).__name__}: {exc}"}


def _repeats(lines: list[tuple[int, str]]) -> tuple[list[tuple[int, str]], list[dict]]:
    """The lines to run, and the failures of the lines whose ``video_id`` string
    an earlier line already has: running both would write one document twice."""
    first: dict[str, int] = {}
    run, repeats = [], []
    for line_no, line in lines:
        video_id = _video_id(line)
        if isinstance(video_id, str) and video_id in first:
            error = ValueError(f"video_id {video_id!r} repeats line {first[video_id]}")
            repeats.append(_failure(line_no, line, error))
        else:
            if isinstance(video_id, str):
                first[video_id] = line_no
            run.append((line_no, line))
    return run, repeats


def _annotate_in_pool(
    state: tuple, lines: list[tuple[int, str]], workers: int
) -> list[dict | None]:
    """Annotate ``lines`` in ``workers`` processes; a dead worker fails what it left undone.

    Ctrl-C cancels the records still in the parent and waits for the rest;
    a worker returns the records it takes after that unrun. The outcomes
    returned, in line order, are those of the records that ran.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    # Forked workers inherit the loaded models instead of unpickling a copy.
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    context = multiprocessing.get_context(method)
    stop = context.Event()
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    futures = []
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=context,
        initializer=_init_worker,
        initargs=(state, os.getpid(), stop, cpus, context.Value("i", 0)),
    ) as pool:
        try:
            for item in lines:
                futures.append(pool.submit(_annotate_in_worker, *item))
            wait(futures)
        except KeyboardInterrupt:
            # The pool's call queue holds up to workers + 1 records that
            # shutdown cannot cancel; the event stops them in the workers.
            stop.set()
            pool.shutdown(cancel_futures=True)
    results = []
    for item, future in zip(lines, futures):
        if future.cancelled():
            continue
        try:
            result = future.result()
        except BrokenProcessPool as exc:
            result = _failure(*item, exc)
        if result != _NOT_RUN:
            results.append(result)
    return results


# The annotate option that sets each PipelineConfig field.
_CONFIG_OPTIONS = {"k": "--k", "fs_threshold": "--threshold", "min_sign_duration": "--min-sign-duration"}


def _cmd_annotate(args, parser) -> int:
    batch = args.transcripts is not None
    if batch == (args.english is not None or args.poses is not None):
        parser.error("use either --english/--poses or --transcripts/--poses-dir")
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    try:
        config = _pipeline_config(args)
    except pipe_mod.ConfigError as exc:
        parser.error(f"argument {_CONFIG_OPTIONS[exc.field]}: {exc}")
    _require_paths(parser, args.model_dir, args.vocab)
    if not batch:
        if args.english is None or args.poses is None:
            parser.error("single-video mode needs both --english and --poses")
        _require_paths(parser, args.poses)
        if not Path(args.out).parent.is_dir():
            parser.error(f"argument --out: no directory {Path(args.out).parent}")
    models = _load_models(args.model_dir, args.vocab)
    pipeline = (models, config, llm_mod.make_client(args.llm))

    if not batch:
        _write_document(pipeline, args.english, Path(args.poses), Path(args.out))
        print(f"wrote {args.out}")
        return 0

    _require_paths(parser, args.transcripts, args.poses_dir)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # (1-based line number, text) of each non-blank line; each is parsed with its record.
    lines = [
        (n, line)
        for n, line in enumerate(Path(args.transcripts).read_text(encoding="utf-8").splitlines(), 1)
        if line.strip()
    ]
    lines, repeats = _repeats(lines)
    state = (pipeline, Path(args.poses_dir), out_dir)
    workers = min(args.jobs, len(lines))
    results: list[dict | None] = []
    if workers <= 1:
        try:
            for item in lines:
                results.append(_annotate_record(state, *item))
        except KeyboardInterrupt:
            pass
    else:
        results = _annotate_in_pool(state, lines, workers)
    failed = [f for f in results if f is not None]
    written, not_run = len(results) - len(failed), len(lines) - len(results)
    failed = sorted(failed + repeats, key=lambda f: f["line"])
    summary = {"written": written, "failed": failed, **({"not_run": not_run} if not_run else {})}
    print(json.dumps(summary), file=sys.stderr)
    print(f"wrote {written} documents to {out_dir}")
    if not_run:
        return 130  # 128 + SIGINT, as a shell reports a process Ctrl-C ended
    return 1 if failed else 0


# --- render-timeline -----------------------------------------------------------


def _read_document(path: Path) -> dict:
    """Load an annotation document from outside; bad JSON or a schema fault is a domain error."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        pipe_mod.validate_document(doc)
    except ValueError as exc:  # json.JSONDecodeError or pipeline.DocumentError
        raise DomainError(f"{path} is not a valid annotation document: {exc}") from exc
    return doc


def _cmd_render_timeline(args, parser) -> int:
    _require_paths(parser, args.doc)
    doc = _read_document(Path(args.doc))
    try:
        svg = timeline_mod.render_timeline(doc, rank=args.rank)
    except timeline_mod.TimelineError as exc:
        raise DomainError(str(exc)) from exc
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


# --- eval -----------------------------------------------------------------------


def _collect_docs(paths: list[str]) -> list[dict]:
    """The documents of the files and directories in ``paths``; a ``video_id``
    in two of them (a file given twice, say) is a domain error naming both."""
    docs, file_of = [], {}
    for p in paths:
        path = Path(p)
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for f in files:
            doc = _read_document(f)
            video_id = doc["video_id"]
            if video_id in file_of:
                raise DomainError(f"{f}: video_id {video_id!r} repeats {file_of[video_id]}")
            file_of[video_id] = f
            docs.append(doc)
    return docs


def _eval_report(docs: list[dict], truths: dict[str, dict], threshold: float) -> dict:
    pairs = [(d, truths[d["video_id"]]) for d in docs if d["video_id"] in truths]
    if not pairs:
        raise DomainError("no prediction matches a truth record")
    cer_values, chrf_values = [], []
    samples_by_stratum = {s: [] for s in metrics_mod.WORD_LENGTH_STRATA}
    pred_spans, truth_spans = [], []
    for doc, truth in pairs:
        top = [c for c in doc["candidates"] if c["rank"] == 1]
        if not top:
            continue
        predicted = top[0]["gloss"]
        cer_values.append(metrics_mod.cer(truth["gloss"], predicted))
        chrf_values.append(metrics_mod.chrf(truth["gloss"], predicted))
        truth_words = {w["word"].upper() for w in truth.get("fs_words", [])}
        for sign in top[0]["per_sign"]:
            if sign["kind"] != "fingerspelled":
                continue
            label = sign["token"].upper() in truth_words
            for stratum, holds in metrics_mod.WORD_LENGTH_STRATA.items():
                if holds(sign["token"]):
                    samples_by_stratum[stratum].append(
                        metrics_mod.LabeledScore(score=sign["score"], label=label)
                    )
            region = sign.get("fingerspelled_region", sign["interval"])
            pred_spans.append(
                metrics_mod.TimedSpan(
                    id=f"{doc['video_id']}:{sign['token']}",
                    start_frame=region[0],
                    end_frame=region[1],
                    video=doc["video_id"],
                )
            )
        for w in truth.get("fs_words", []):
            truth_spans.append(
                metrics_mod.TimedSpan(
                    id=f"{doc['video_id']}:{w['word']}",
                    start_frame=int(w["start"]),
                    end_frame=int(w["end"]),
                    video=doc["video_id"],
                )
            )

    if not cer_values:
        raise DomainError("no matched prediction has a ranked candidate")
    report = {"videos": len(pairs), "metrics": []}

    def add(name: str, value: float | None, stratum: str, count: int) -> None:
        report["metrics"].append(
            {
                "name": name,
                "value": None if value is None else round(float(value), 6),
                "stratum": stratum,
                "count": count,
            }
        )

    add("gloss_cer", sum(cer_values) / len(cer_values), "all", len(cer_values))
    add("gloss_chrf", sum(chrf_values) / len(chrf_values), "all", len(chrf_values))
    for stratum, samples in samples_by_stratum.items():
        if not samples:
            continue
        try:
            auc = metrics_mod.roc_auc(samples)
        except metrics_mod.SingleClassError:
            auc = None
        add("fs_detection_auc", auc, stratum, len(samples))
        precision, recall, f1 = metrics_mod.op_point(samples, threshold)
        add(f"fs_detection_precision@{threshold}", precision, stratum, len(samples))
        add(f"fs_detection_recall@{threshold}", recall, stratum, len(samples))
        add(f"fs_detection_f1@{threshold}", f1, stratum, len(samples))
    if truth_spans:
        precision, recall, f1 = metrics_mod.temporal_f1(pred_spans, truth_spans)
        add("fs_temporal_precision", precision, "all", len(truth_spans))
        add("fs_temporal_recall", recall, "all", len(truth_spans))
        add("fs_temporal_f1", f1, "all", len(truth_spans))
    return report


def _read_truth(path: Path) -> dict[str, dict]:
    """Truth records by video id. A malformed line, or one that repeats an earlier
    line's ``video_id``, is a domain error naming its file and lines."""
    truths, line_of = {}, {}
    for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = _parse_record(line)
            _check_truth(rec)
        except (ValueError, TypeError) as exc:
            raise DomainError(f"{path}:{n}: {exc}") from exc
        video_id = rec["video_id"]
        if video_id in truths:
            raise DomainError(f"{path}:{n}: video_id {video_id!r} repeats line {line_of[video_id]}")
        truths[video_id], line_of[video_id] = rec, n
    return truths


def _check_truth(rec: dict) -> None:
    for key in ("video_id", "gloss"):
        if not isinstance(rec.get(key), str):
            raise ValueError(f"{key!r} must be a string")
    words = rec.get("fs_words", [])
    if not isinstance(words, list):
        raise ValueError("'fs_words' must be a list")
    for i, word in enumerate(words):
        if not isinstance(word, dict) or not word.keys() >= {"word", "start", "end"}:
            raise ValueError(f"fs_words[{i}] must be an object with 'word', 'start' and 'end'")
        if not isinstance(word["word"], str):
            raise ValueError(f"fs_words[{i}]: 'word' must be a string")
        try:  # the frames are read with int()
            int(word["start"]), int(word["end"])
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"fs_words[{i}]: 'start' and 'end' must be integers") from None


def _cmd_eval(args, parser) -> int:
    try:  # annotate's detection threshold, so annotate's range
        pipe_mod.PipelineConfig(fs_threshold=args.threshold)
    except pipe_mod.ConfigError as exc:
        parser.error(f"argument --threshold: {exc}")
    _require_paths(parser, args.truth, *args.pred)
    docs = _collect_docs(args.pred)
    if not docs:
        raise DomainError("empty prediction set")
    report = _eval_report(docs, _read_truth(Path(args.truth)), args.threshold)
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        print(payload, end="")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "recognize": _cmd_recognize,
    "annotate": _cmd_annotate,
    "render-timeline": _cmd_render_timeline,
    "eval": _cmd_eval,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
