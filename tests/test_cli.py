"""Command-line surface: exit codes, hermetic determinism, file artifacts."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from signscribe import pipeline as pipe_mod
from signscribe import synthetic as syn
from signscribe.cli import main
from signscribe.gloss import parse_gloss_sequence
from signscribe.pose import write_pose_jsonl

WORKED_LINE = "fs-BOB TRAVEL TO fs-FRICK PARK WITH DOG"
WORKED_ENGLISH = "Bob travels to Frick Park with his dog."


@pytest.fixture(scope="module")
def worked_poses_file(world, tmp_path_factory):
    seq = parse_gloss_sequence(WORKED_LINE)
    poses, _ = syn.compose_sentence_video(world, seq, seed=5, video_id="cli01")
    path = tmp_path_factory.mktemp("poses") / "cli01.jsonl"
    write_pose_jsonl(path, poses)
    return path


def batch_inputs(world, tmp_path, count=3):
    """Pose files b0.. and the transcripts file of a small batch."""
    poses_dir = tmp_path / "poses"
    poses_dir.mkdir()
    records = []
    for i in range(count):
        seq = parse_gloss_sequence("CAT SLEEP HOUSE")
        poses, _ = syn.compose_sentence_video(world, seq, seed=i, video_id=f"b{i}")
        write_pose_jsonl(poses_dir / f"b{i}.jsonl", poses)
        records.append({"video_id": f"b{i}", "english": "The cat sleeps at home"})
    transcripts = tmp_path / "transcripts.jsonl"
    transcripts.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return transcripts, poses_dir


def malformed_document(directory):
    """The fixture document with its top candidate's per_sign list removed."""
    doc = json.loads(Path("tests/data/doc_fixture.json").read_text())
    del doc["candidates"][0]["per_sign"]
    path = directory / "malformed.json"
    path.write_text(json.dumps(doc))
    return path


def tiny_corpus_spec(tmp_path, kind):
    spec = {
        "kind": kind,
        "world_seed": 1207,
        "seed": 3,
        "num_signers": 3,
        "num_phrases": 15,
        "clips_per_class": 3,
    }
    path = tmp_path / f"{kind}_corpus.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def test_cli_import_loads_no_process_pool():
    """The pool is imported only by batch mode, so plain CLI start-up never pays for it."""
    code = (
        "import sys, signscribe.cli\n"
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert out.strip() == "[]"


class TestUsageErrors:
    def test_missing_corpus_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main([
                "train", "--kind", "fingerspelling",
                "--corpus", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "out"),
            ])
        assert exc_info.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 2

    def test_annotate_requires_an_input_mode(self, tmp_path, model_root):
        with pytest.raises(SystemExit) as exc_info:
            main([
                "annotate", "--out", str(tmp_path / "o.json"),
                "--model-dir", str(model_root),
            ])
        assert exc_info.value.code == 2


class TestTrain:
    def test_writes_model_dir_and_log(self, tmp_path):
        corpus = tiny_corpus_spec(tmp_path, "fingerspelling")
        out = tmp_path / "model"
        code = main([
            "train", "--kind", "fingerspelling", "--corpus", str(corpus),
            "--out", str(out), "--epochs", "2", "--channels", "12", "--seed", "7",
        ])
        assert code == 0
        assert (out / "manifest.json").is_file()
        assert (out / "weights.bin").is_file()
        log_lines = (out / "training_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 2
        record = json.loads(log_lines[0])
        assert {"epoch", "train_loss", "val_loss", "lr"} <= set(record)

    def test_same_seed_identical_blobs(self, tmp_path):
        corpus = tiny_corpus_spec(tmp_path, "fingerspelling")
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "train", "--kind", "fingerspelling", "--corpus", str(corpus),
                "--out", str(out), "--epochs", "2", "--channels", "12", "--seed", "7",
            ]) == 0
            blobs.append((out / "weights.bin").read_bytes())
        assert blobs[0] == blobs[1]

    def test_kind_mismatch_is_domain_error(self, tmp_path, capsys):
        corpus = tiny_corpus_spec(tmp_path, "isr")
        code = main([
            "train", "--kind", "fingerspelling", "--corpus", str(corpus),
            "--out", str(tmp_path / "out"), "--epochs", "1",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRecognize:
    def test_prints_transcript(self, world, model_root, tmp_path, capsys, rng):
        signer = syn.make_signers(1, rng)[0]
        poses, _ = syn.fingerspelling_clip(world, ("CAT", "DOG"), signer, rng, video_id="r")
        path = tmp_path / "clip.jsonl"
        write_pose_jsonl(path, poses)
        code = main([
            "recognize", "--poses", str(path),
            "--model-dir", str(model_root / "fingerspelling"),
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "CAT DOG"


class TestAnnotate:
    def test_single_video_schema_valid(self, worked_poses_file, model_root, tmp_path):
        out = tmp_path / "doc.json"
        code = main([
            "annotate",
            "--english", WORKED_ENGLISH,
            "--poses", str(worked_poses_file),
            "--model-dir", str(model_root),
            "--out", str(out),
            "--llm", "stub",
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == "v1"
        assert doc["video_id"] == "cli01"
        assert len(doc["candidates"]) >= 1

    def test_k_flag(self, worked_poses_file, model_root, tmp_path):
        out = tmp_path / "doc.json"
        assert main([
            "annotate", "--english", WORKED_ENGLISH,
            "--poses", str(worked_poses_file),
            "--model-dir", str(model_root), "--out", str(out),
            "--k", "3",
        ]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["candidates"]) == 3

    def test_score_mode_flag(self, worked_poses_file, model_root, tmp_path):
        docs = {}
        for mode in ("mean", "sum"):
            out = tmp_path / f"{mode}.json"
            assert main([
                "annotate", "--english", WORKED_ENGLISH,
                "--poses", str(worked_poses_file),
                "--model-dir", str(model_root), "--out", str(out),
                "--score-mode", mode, "--k", "2",
            ]) == 0
            docs[mode] = json.loads(out.read_text())
        assert docs["sum"]["config"]["score_mode"] == "sum"
        sum_score = docs["sum"]["candidates"][0]["aggregate_score"]
        mean_score = docs["mean"]["candidates"][0]["aggregate_score"]
        assert sum_score > mean_score

    def test_batch_mode_with_jobs(self, world, model_root, tmp_path, capsys):
        transcripts, poses_dir = batch_inputs(world, tmp_path)
        documents, summaries = {}, {}
        for jobs in ("1", "2", "5"):  # 5: more workers asked for than records
            out_dir = tmp_path / f"docs{jobs}"
            assert main([
                "annotate", "--transcripts", str(transcripts),
                "--poses-dir", str(poses_dir),
                "--model-dir", str(model_root), "--out", str(out_dir),
                "--jobs", jobs, "--k", "2",
            ]) == 0
            documents[jobs] = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.json"))}
            summaries[jobs] = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert sorted(documents["1"]) == ["b0.json", "b1.json", "b2.json"]
        assert documents["2"] == documents["1"]
        assert documents["5"] == documents["1"]
        assert summaries["1"] == summaries["2"] == summaries["5"] == {"written": 3, "failed": []}

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_usage_error(self, world, model_root, tmp_path, jobs):
        transcripts, poses_dir = batch_inputs(world, tmp_path, count=1)
        with pytest.raises(SystemExit) as exc_info:
            main([
                "annotate", "--transcripts", str(transcripts),
                "--poses-dir", str(poses_dir),
                "--model-dir", str(model_root), "--out", str(tmp_path / "docs"),
                "--jobs", jobs,
            ])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_batch_keeps_going_past_a_failed_record(self, world, model_root, tmp_path, capsys, jobs):
        transcripts, poses_dir = batch_inputs(world, tmp_path)
        (poses_dir / "b1.jsonl").unlink()
        out_dir = tmp_path / "docs"
        code = main([
            "annotate", "--transcripts", str(transcripts),
            "--poses-dir", str(poses_dir),
            "--model-dir", str(model_root), "--out", str(out_dir),
            "--jobs", jobs, "--k", "2",
        ])
        assert code == 1
        assert sorted(p.name for p in out_dir.glob("*.json")) == ["b0.json", "b2.json"]
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["written"] == 2
        assert [f["video_id"] for f in summary["failed"]] == ["b1"]
        assert "b1.jsonl" in summary["failed"][0]["error"]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="workers inherit the patched pipeline only when forked",
    )
    def test_batch_reports_a_dead_worker(self, world, model_root, tmp_path, capsys, monkeypatch):
        transcripts, poses_dir = batch_inputs(world, tmp_path)
        annotate = pipe_mod.annotate

        def die_on_b1(english, poses, *rest):
            if poses.video_id == "b1":
                os._exit(1)
            return annotate(english, poses, *rest)

        monkeypatch.setattr(pipe_mod, "annotate", die_on_b1)
        out_dir = tmp_path / "docs"
        code = main([
            "annotate", "--transcripts", str(transcripts),
            "--poses-dir", str(poses_dir),
            "--model-dir", str(model_root), "--out", str(out_dir),
            "--jobs", "2", "--k", "2",
        ])
        assert code == 1
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        failed = {f["video_id"]: f["error"] for f in summary["failed"]}
        # Which other records the dead worker takes down depends on timing;
        # every record is either written or reported, never lost.
        assert "b1" in failed
        assert list(failed) == sorted(failed)  # record order
        assert summary["written"] + len(failed) == 3
        assert all(error.startswith("BrokenProcessPool: ") for error in failed.values())
        for video_id in {"b0", "b1", "b2"} - set(failed):
            assert (out_dir / f"{video_id}.json").is_file()


class TestRenderTimeline:
    def test_renders_fixture(self, tmp_path):
        out = tmp_path / "t.svg"
        assert main([
            "render-timeline", "--doc", "tests/data/doc_fixture.json",
            "--rank", "1", "--out", str(out),
        ]) == 0
        assert out.read_text().startswith("<svg")

    def test_rank_out_of_range_is_domain_error(self, tmp_path, capsys):
        code = main([
            "render-timeline", "--doc", "tests/data/doc_fixture.json",
            "--rank", "42", "--out", str(tmp_path / "t.svg"),
        ])
        assert code == 1

    def test_malformed_document_is_domain_error(self, tmp_path, capsys):
        doc_path = malformed_document(tmp_path)
        code = main([
            "render-timeline", "--doc", str(doc_path), "--out", str(tmp_path / "t.svg"),
        ])
        assert code == 1
        assert f"{doc_path} is not a valid annotation document" in capsys.readouterr().err
        assert not (tmp_path / "t.svg").exists()


class TestEval:
    def _truth_file(self, tmp_path, video_id="fixture01"):
        truth = {
            "video_id": video_id,
            "gloss": "fs-BOB TRAVEL TO fs-FRICK PARK",
            "fs_words": [
                {"word": "BOB", "start": 3, "end": 20},
                {"word": "FRICK", "start": 50, "end": 71},
            ],
        }
        path = tmp_path / "truth.jsonl"
        path.write_text(json.dumps(truth) + "\n")
        return path

    def test_report_structure(self, tmp_path, capsys):
        truth = self._truth_file(tmp_path)
        out = tmp_path / "report.json"
        assert main([
            "eval", "--pred", "tests/data/doc_fixture.json",
            "--truth", str(truth), "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        names = {m["name"] for m in report["metrics"]}
        assert "gloss_cer" in names
        assert "gloss_chrf" in names
        assert "fs_temporal_f1" in names
        strata = {m["stratum"] for m in report["metrics"] if m["name"].startswith("fs_detection")}
        assert "all" in strata and "len_ge_3" in strata and "len_gt_3" in strata

    def test_perfect_match_scores(self, tmp_path):
        truth = self._truth_file(tmp_path)
        out = tmp_path / "report.json"
        main([
            "eval", "--pred", "tests/data/doc_fixture.json",
            "--truth", str(truth), "--out", str(out),
        ])
        metrics = {
            (m["name"], m["stratum"]): m["value"]
            for m in json.loads(out.read_text())["metrics"]
        }
        assert metrics[("gloss_cer", "all")] == 0.0
        assert metrics[("gloss_chrf", "all")] == 1.0
        assert metrics[("fs_temporal_f1", "all")] == 1.0

    def test_no_matching_truth_is_domain_error(self, tmp_path, capsys):
        truth = self._truth_file(tmp_path, video_id="someone-else")
        code = main([
            "eval", "--pred", "tests/data/doc_fixture.json",
            "--truth", str(truth),
        ])
        assert code == 1

    def test_malformed_document_is_domain_error(self, tmp_path, capsys):
        truth = self._truth_file(tmp_path)
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        doc_path = malformed_document(pred_dir)
        code = main(["eval", "--pred", str(pred_dir), "--truth", str(truth)])
        assert code == 1
        assert f"{doc_path} is not a valid annotation document" in capsys.readouterr().err
