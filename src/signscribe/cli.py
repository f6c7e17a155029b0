"""Command-line surface.

Subcommands: ``train`` (toy synthetic training), ``recognize`` (greedy
fingerspelling decode), ``annotate`` (full pipeline to a JSON document,
single video or batch), ``render-timeline`` (SVG plot of one candidate),
and ``eval`` (metrics report against truth annotations).

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import jsonschema

from . import fingerspelling as fs_mod
from . import isr as isr_mod
from . import llm as llm_mod
from . import metrics as metrics_mod
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
    p_ann.add_argument("--score-mode", choices=["mean", "sum"], default="mean")
    p_ann.add_argument("--min-sign-duration", type=int, default=3)
    p_ann.add_argument("--llm", choices=["stub", "http"], default="stub")
    p_ann.add_argument("--jobs", type=int, default=1,
                       help="batch mode: videos annotated at once, each in a worker process "
                            "(forked where available) holding its own copy of the models; "
                            "1 annotates in this process")
    p_ann.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="reserved; has no effect on annotate")

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


def _cmd_train(args, parser) -> int:
    _require_paths(parser, args.corpus)
    spec = json.loads(Path(args.corpus).read_text(encoding="utf-8"))
    world = synth_mod.make_world(seed=int(spec.get("world_seed", synth_mod.DEFAULT_WORLD_SEED)))
    out = Path(args.out)
    kwargs = {}
    if args.epochs is not None:
        kwargs["epochs"] = args.epochs
    if args.channels is not None:
        kwargs["channels"] = args.channels

    if args.kind != spec.get("kind"):
        raise DomainError(
            f"corpus spec is for kind {spec.get('kind')!r}, requested {args.kind!r}"
        )
    if args.kind == "fingerspelling":
        corpus = synth_mod.make_fingerspelling_corpus(
            world,
            num_phrases=int(spec.get("num_phrases", 500)),
            num_signers=int(spec.get("num_signers", 10)),
            seed=int(spec.get("seed", 7)),
        )
        model = fs_mod.train_toy(corpus, world.alphabet, seed=args.seed, **kwargs)
        fs_mod.save_fingerspelling_model(out, model)
        history = model.history
    else:
        corpus = synth_mod.make_isr_corpus(
            world,
            clips_per_class=int(spec.get("clips_per_class", 15)),
            num_signers=int(spec.get("num_signers", 10)),
            seed=int(spec.get("seed", 11)),
        )
        model = isr_mod.train_toy_isr(corpus, world.vocabulary, seed=args.seed, **kwargs)
        isr_mod.save_isr_model(out, model)
        history = model.history
    log_path = out / "training_log.jsonl"
    log_path.write_text(
        "".join(json.dumps(rec) + "\n" for rec in history), encoding="utf-8"
    )
    print(f"wrote model to {out} ({len(history)} epochs)")
    return 0


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
        score_mode=pipe_mod.ScoreMode(args.score_mode),
        min_sign_duration=args.min_sign_duration,
        llm_mode=args.llm,
    )


# Shared state of a batch worker process, set once by the pool initializer.
_worker_state: tuple | None = None


def _init_worker(state: tuple) -> None:
    global _worker_state
    _worker_state = state


def _annotate_in_worker(rec: dict) -> dict | None:
    return _annotate_record(_worker_state, rec)


def _annotate_record(state: tuple, rec: dict) -> dict | None:
    """Annotate one batch record; return its failure instead of raising it."""
    models, config, client, poses_dir, out_dir = state
    try:
        video_id = rec["video_id"]
        poses = read_pose_jsonl(poses_dir / f"{video_id}.jsonl")
        doc = pipe_mod.annotate(rec["english"], poses, models, config, client)
        payload = pipe_mod.document_bytes(doc)
        pipe_mod.validate_document(json.loads(payload))
        (out_dir / f"{video_id}.json").write_bytes(payload)
    except Exception as exc:  # one bad record must not lose the batch
        return _failure(rec, exc)
    return None


def _failure(rec: dict, exc: BaseException) -> dict:
    return {"video_id": rec.get("video_id"), "error": f"{type(exc).__name__}: {exc}"}


def _annotate_in_pool(state: tuple, records: list[dict], workers: int) -> list[dict | None]:
    """Annotate ``records`` in ``workers`` processes; a dead worker fails what it left undone."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # Forked workers inherit the loaded models instead of unpickling a copy.
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(method),
        initializer=_init_worker,
        initargs=(state,),
    ) as pool:
        futures = [pool.submit(_annotate_in_worker, rec) for rec in records]
        results = []
        for rec, future in zip(records, futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                results.append(_failure(rec, exc))
    return results


def _cmd_annotate(args, parser) -> int:
    batch = args.transcripts is not None
    if batch == (args.english is not None or args.poses is not None):
        parser.error("use either --english/--poses or --transcripts/--poses-dir")
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    _require_paths(parser, args.model_dir, args.vocab)
    models = _load_models(args.model_dir, args.vocab)
    config = _pipeline_config(args)
    client = llm_mod.make_client(args.llm)

    if not batch:
        if args.english is None or args.poses is None:
            parser.error("single-video mode needs both --english and --poses")
        _require_paths(parser, args.poses)
        poses = read_pose_jsonl(args.poses)
        doc = pipe_mod.annotate(args.english, poses, models, config, client)
        payload = pipe_mod.document_bytes(doc)
        pipe_mod.validate_document(json.loads(payload))
        Path(args.out).write_bytes(payload)
        print(f"wrote {args.out}")
        return 0

    _require_paths(parser, args.transcripts, args.poses_dir)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = [
        json.loads(line)
        for line in Path(args.transcripts).read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    state = (models, config, client, Path(args.poses_dir), out_dir)
    workers = min(args.jobs, len(records))
    if workers <= 1:
        results = [_annotate_record(state, rec) for rec in records]
    else:
        results = _annotate_in_pool(state, records, workers)
    failed = [f for f in results if f is not None]
    written = len(records) - len(failed)
    print(json.dumps({"written": written, "failed": failed}), file=sys.stderr)
    print(f"wrote {written} documents to {out_dir}")
    return 1 if failed else 0


# --- render-timeline -----------------------------------------------------------


def _read_document(path: Path) -> dict:
    """Load an annotation document from outside; a schema violation is a domain error."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    try:
        pipe_mod.validate_document(doc)
    except jsonschema.ValidationError as exc:
        raise DomainError(f"{path} is not a valid annotation document: {exc.message}") from exc
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
    docs = []
    for p in paths:
        path = Path(p)
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for f in files:
            docs.append(_read_document(f))
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
            for stratum in metrics_mod.WORD_LENGTH_STRATA:
                if metrics_mod.in_stratum(sign["token"], stratum):
                    samples_by_stratum[stratum].append(
                        metrics_mod.LabeledScore(score=sign["score"], label=label)
                    )
            region = sign.get("fingerspelled_region", sign["interval"])
            pred_spans.append(
                metrics_mod.TimedSpan(
                    id=f"{doc['video_id']}:{sign['token']}",
                    start_frame=region[0],
                    end_frame=region[1],
                )
            )
        for w in truth.get("fs_words", []):
            truth_spans.append(
                metrics_mod.TimedSpan(
                    id=f"{doc['video_id']}:{w['word']}",
                    start_frame=int(w["start"]),
                    end_frame=int(w["end"]),
                )
            )

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


def _cmd_eval(args, parser) -> int:
    _require_paths(parser, args.truth, *args.pred)
    docs = _collect_docs(args.pred)
    if not docs:
        raise DomainError("empty prediction set")
    truths = {}
    for line in Path(args.truth).read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            truths[rec["video_id"]] = rec
    report = _eval_report(docs, truths, args.threshold)
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
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
