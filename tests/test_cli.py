"""Command-line surface: exit codes, hermetic determinism, file artifacts."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from signscribe import fingerspelling as fs_mod
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


# (key path in the fixture document, the value put there or None to delete
# the key, the "<path>: <rule>" the CLI names): one case per kind of fault.
INVALID_DOCUMENTS = [
    pytest.param(("candidates", 0, "per_sign"), None,
                 "$.candidates[0]: lacks required property 'per_sign'", id="missing-key"),
    pytest.param(("config", "seed"), 1, "$.config.seed: is not allowed", id="extra-key"),
    pytest.param(("fps",), "30", "$.fps: is not of type 'number'", id="wrong-type"),
    pytest.param(("config", "k"), 0, "$.config.k: must be >= 1", id="out-of-range"),
    pytest.param(("config", "score_mode"), "median",
                 "$.config.score_mode: is not one of ['mean', 'sum']", id="unknown-member"),
]


def invalid_document(directory, path, value):
    doc = json.loads(Path("tests/data/doc_fixture.json").read_text())
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if value is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    out = directory / "invalid.json"
    out.write_text(json.dumps(doc))
    return out


# (malformed pose file text, the error text after "<path>:")
BAD_POSE_LINES = [
    ("[1, 2]", "1: the header must be an object with an 'fps'"),
    ('{"video_id": "v"}', "1: the header must be an object with an 'fps'"),
    ('{"fps": 30}\n\n[1, 2]', "3: a frame must be an object with a 't'"),
    ('{"fps": 30}\n{"hand_left": null}', "2: a frame must be an object with a 't'"),
    ('{"fps": 30}\n{"t": 0, "body": [1, 2]}', "2: 'body' must be an object or null"),
    ('{"fps": null}', "1: 'fps' must be a finite number"),
    ('{"fps": 30}\n{"t": 0, "hand_', "2: not a JSON value"),
    ('{"fps": 30}\n{"t": NaN}', "2: not a JSON value"),
]


def bad_pose_file(tmp_path, text):
    path = tmp_path / "bad.jsonl"
    path.write_text(text + "\n")
    return path


def _proc_stat(pid):
    """The fields of ``/proc/<pid>/stat`` after the command name, or None once
    the process is gone; field 0 is the state and field 1 the parent pid."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()


def _alive(pid):
    stat = _proc_stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


def _forked_children(parent):
    """Pids of the children of ``parent`` that run its own command line: the
    forked workers, not any helper process that was exec'd."""
    cmdline = Path(f"/proc/{parent}/cmdline").read_bytes()
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            stat = _proc_stat(entry.name)
            try:
                if stat and int(stat[1]) == parent and (entry / "cmdline").read_bytes() == cmdline:
                    found.append(int(entry.name))
            except OSError:
                pass
    return found


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
    """The pool is imported only by batch mode and urllib.request only by the
    HTTP client, so plain CLI start-up never pays for either; jsonschema is no
    dependency at all."""
    modules = {"concurrent.futures.process", "multiprocessing", "jsonschema", "urllib.request"}
    code = f"import sys, signscribe.cli\nprint(sorted({modules!r} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    assert out.strip() == "[]"


def test_invalid_document_is_reported_without_jsonschema(tmp_path):
    """jsonschema is blocked from import; both readers still refuse the document."""
    doc_path = malformed_document(tmp_path)
    truth = tmp_path / "truth.jsonl"
    truth.write_text(json.dumps({"video_id": "fixture01", "gloss": "CAT"}) + "\n")
    render = ["render-timeline", "--doc", str(doc_path), "--out", str(tmp_path / "t.svg")]
    evaluate = ["eval", "--pred", str(doc_path), "--truth", str(truth)]
    code = (
        "import sys\n"
        "sys.modules['jsonschema'] = None  # any import of it now fails\n"
        "from signscribe.cli import main\n"
        f"print(main({render!r}), main({evaluate!r}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.stdout == "1 1\n", done.stderr
    assert done.stderr.count(f"{doc_path} is not a valid annotation document: $.candidates[0]: ") == 2


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

    def bad_channels(self, tmp_path, capsys, monkeypatch, kind, channels):
        """The usage error of ``train --channels channels``, raised before any corpus is built."""

        def no_corpus(*args, **kwargs):
            raise AssertionError("a corpus was built")

        monkeypatch.setattr(syn, "make_fingerspelling_corpus", no_corpus)
        monkeypatch.setattr(syn, "make_isr_corpus", no_corpus)
        corpus = tiny_corpus_spec(tmp_path, kind)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc_info:
            main([
                "train", "--kind", kind, "--corpus", str(corpus), "--out", str(out),
                "--epochs", "1", "--channels", str(channels),
            ])
        assert exc_info.value.code == 2
        assert not out.exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("kind, channels", [("fingerspelling", 0), ("isr", -3)])
    def test_non_positive_channels_is_an_error(self, tmp_path, capsys, monkeypatch, kind, channels):
        err = self.bad_channels(tmp_path, capsys, monkeypatch, kind, channels)
        assert f"argument --channels: channels must be >= 1, got {channels}" in err

    @pytest.mark.parametrize("kind", ["fingerspelling", "isr"])
    def test_channels_not_divisible_by_branches_is_usage_error(
        self, tmp_path, capsys, monkeypatch, kind
    ):
        err = self.bad_channels(tmp_path, capsys, monkeypatch, kind, 5)
        assert "argument --channels: channels must divide evenly across branches" in err

    def test_non_finite_loss_is_an_error(self, tmp_path, capsys, monkeypatch):
        def diverged(*args, **kwargs):
            raise FloatingPointError("epoch 0: train loss is nan")

        monkeypatch.setattr(fs_mod, "fit", diverged)
        corpus = tiny_corpus_spec(tmp_path, "fingerspelling")
        out = tmp_path / "out"
        code = main([
            "train", "--kind", "fingerspelling", "--corpus", str(corpus), "--out", str(out),
            "--epochs", "1", "--channels", "12",
        ])
        assert code == 1
        assert "error: epoch 0: train loss is nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("epochs", ["0", "-2"])
    def test_epochs_below_one_is_usage_error(self, tmp_path, capsys, epochs):
        corpus = tiny_corpus_spec(tmp_path, "fingerspelling")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc_info:
            main([
                "train", "--kind", "fingerspelling", "--corpus", str(corpus),
                "--out", str(out), "--epochs", epochs,
            ])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --epochs: must be at least 1, got {epochs}" in err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "a corpus spec is a JSON object, not a JSON list"),
        ('{"kind": "isr", "clips_per_class": null}', "'clips_per_class' must be an integer, not None"),
    ])
    def test_malformed_spec_is_domain_error(self, tmp_path, capsys, text, message):
        corpus = tmp_path / "spec.json"
        corpus.write_text(text)
        out = tmp_path / "out"
        code = main(["train", "--kind", "isr", "--corpus", str(corpus), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {corpus}: {message}\n"
        assert not out.exists()

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
        poses = syn.fingerspelling_clip(world, ("CAT", "DOG"), signer, rng, video_id="r")
        path = tmp_path / "clip.jsonl"
        write_pose_jsonl(path, poses)
        code = main([
            "recognize", "--poses", str(path),
            "--model-dir", str(model_root / "fingerspelling"),
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "CAT DOG"

    @pytest.mark.parametrize("line, message", BAD_POSE_LINES)
    def test_malformed_pose_line_is_an_error(self, model_root, tmp_path, capsys, line, message):
        path = bad_pose_file(tmp_path, line)
        code = main([
            "recognize", "--poses", str(path),
            "--model-dir", str(model_root / "fingerspelling"),
        ])
        assert code == 1
        assert f"error: {path}:{message}" in capsys.readouterr().err


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
        pipe_mod.validate_document(doc)

    @pytest.mark.parametrize("line, message", BAD_POSE_LINES)
    def test_malformed_pose_line_is_an_error(self, model_root, tmp_path, capsys, line, message):
        path = bad_pose_file(tmp_path, line)
        code = main([
            "annotate", "--english", WORKED_ENGLISH, "--poses", str(path),
            "--model-dir", str(model_root), "--out", str(tmp_path / "doc.json"), "--jobs", "1",
        ])
        assert code == 1
        assert f"error: {path}:{message}" in capsys.readouterr().err
        assert not (tmp_path / "doc.json").exists()

    @pytest.mark.parametrize("option, value", [
        ("--k", "0"),
        ("--threshold", "1.5"),
        ("--min-sign-duration", "0"),
    ])
    def test_out_of_range_option_is_usage_error(
        self, worked_poses_file, model_root, tmp_path, capsys, option, value
    ):
        out = tmp_path / "doc.json"
        with pytest.raises(SystemExit) as exc_info:
            main([
                "annotate", "--english", WORKED_ENGLISH,
                "--poses", str(worked_poses_file),
                "--model-dir", str(model_root), "--out", str(out),
                option, value,
            ])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: " in err and value in err
        assert "Traceback" not in err
        assert not out.exists()

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
        for payload in documents["1"].values():
            pipe_mod.validate_document(json.loads(payload))
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
        assert [(f["video_id"], f["line"]) for f in summary["failed"]] == [("b1", 2)]
        assert "b1.jsonl" in summary["failed"][0]["error"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_malformed_lines_fail_alone(self, world, model_root, tmp_path, capsys, jobs):
        transcripts, poses_dir = batch_inputs(world, tmp_path)
        good = transcripts.read_text().splitlines()
        # Lines 2 and 5 are bad; the blank line 4 still counts in the numbering.
        transcripts.write_text("\n".join([good[0], "{not json", good[1], "", "[1, 2]", good[2]]) + "\n")
        out_dir = tmp_path / "docs"
        code = main([
            "annotate", "--transcripts", str(transcripts),
            "--poses-dir", str(poses_dir),
            "--model-dir", str(model_root), "--out", str(out_dir),
            "--jobs", jobs, "--k", "2",
        ])
        assert code == 1
        assert sorted(p.name for p in out_dir.glob("*.json")) == ["b0.json", "b1.json", "b2.json"]
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["written"] == 3
        assert [(f["video_id"], f["line"]) for f in summary["failed"]] == [(None, 2), (None, 5)]
        assert summary["failed"][0]["error"].startswith("JSONDecodeError: ")
        assert summary["failed"][1]["error"].startswith("TypeError: ")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_video_id_cannot_leave_the_directories(self, world, model_root, tmp_path, capsys, jobs):
        transcripts, poses_dir = batch_inputs(world, tmp_path)
        (tmp_path / "escape.jsonl").write_bytes((poses_dir / "b1.jsonl").read_bytes())
        good = transcripts.read_text().splitlines()
        bad_ids = ["../escape", "poses/b1", "..", ".", "", 7, None]
        bad = [json.dumps({"video_id": v, "english": "The cat sleeps at home"}) for v in bad_ids]
        transcripts.write_text("\n".join([good[0], *bad, good[2]]) + "\n")
        before = sorted(tmp_path.rglob("*"))
        out_dir = tmp_path / "docs"
        code = main([
            "annotate", "--transcripts", str(transcripts),
            "--poses-dir", str(poses_dir),
            "--model-dir", str(model_root), "--out", str(out_dir),
            "--jobs", jobs, "--k", "2",
        ])
        assert code == 1
        assert sorted(p.name for p in out_dir.iterdir()) == ["b0.json", "b2.json"]
        assert sorted(p for p in tmp_path.rglob("*") if out_dir not in p.parents) == sorted(before + [out_dir])
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary["written"] == 2
        assert [(f["video_id"], f["line"]) for f in summary["failed"]] == list(zip(bad_ids, range(2, 9)))
        assert all(f["error"].startswith("ValueError: video_id ") for f in summary["failed"])

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

    @pytest.mark.skipif(
        not hasattr(os, "mkfifo") or not Path("/proc/self/stat").exists(),
        reason="finds the workers through /proc and blocks them on named pipes",
    )
    def test_killed_batch_leaves_no_worker(self, model_root, tmp_path):
        """Both workers block opening a pose file that is a named pipe with no
        writer, so only their parent's death can end them."""
        poses_dir = tmp_path / "poses"
        poses_dir.mkdir()
        for video_id in ("p0", "p1"):
            os.mkfifo(poses_dir / f"{video_id}.jsonl")
        transcripts = tmp_path / "transcripts.jsonl"
        transcripts.write_text("".join(
            json.dumps({"video_id": v, "english": "The cat sleeps"}) + "\n" for v in ("p0", "p1")
        ))
        parent = subprocess.Popen(
            [sys.executable, "-m", "signscribe.cli", "annotate",
             "--transcripts", str(transcripts), "--poses-dir", str(poses_dir),
             "--model-dir", str(model_root), "--out", str(tmp_path / "docs"), "--jobs", "2"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2:
                assert parent.poll() is None, parent.stderr.read().decode()
                assert time.monotonic() < deadline, "the workers never started"
                time.sleep(0.05)
                workers = _forked_children(parent.pid)
            assert len(workers) == 2
            parent.send_signal(signal.SIGTERM)
            assert parent.wait(timeout=10) == -signal.SIGTERM
            deadline = time.monotonic() + 5
            while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(_alive(pid) for pid in workers), "a worker outlived its parent"
        finally:
            for pid in [parent.pid, *workers]:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            parent.wait(timeout=10)
            parent.stderr.close()


    @pytest.mark.skipif(
        not hasattr(os, "mkfifo") or not Path("/proc/self/stat").exists(),
        reason="finds the workers through /proc and blocks them on named pipes",
    )
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupted_batch_summarises_what_it_wrote(self, world, model_root, tmp_path, jobs):
        """Ctrl-C stops a batch: the records no worker has taken are not run, the
        taken ones finish, and the summary counts what was written and exits 130.

        Records b0 and b1 have pose files; the eight after them have named pipes,
        so each blocks its worker until this test closes the pipe's write end,
        which ends the record as a failure. SIGINT comes once every worker is
        blocked, so b0 and b1 are written by then."""
        transcripts, poses_dir = batch_inputs(world, tmp_path, count=2)
        fifos = [f"p{i}" for i in range(8)]
        for video_id in fifos:
            os.mkfifo(poses_dir / f"{video_id}.jsonl")
        with transcripts.open("a") as fh:
            fh.writelines(
                json.dumps({"video_id": v, "english": "The cat sleeps at home"}) + "\n"
                for v in fifos
            )
        out_dir = tmp_path / "docs"
        parent = subprocess.Popen(
            [sys.executable, "-m", "signscribe.cli", "annotate",
             "--transcripts", str(transcripts), "--poses-dir", str(poses_dir),
             "--model-dir", str(model_root), "--out", str(out_dir), "--jobs", str(jobs)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            # A shell without job control starts background commands with SIGINT
            # ignored, and a Python started so never raises KeyboardInterrupt.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        opened = {}  # video id -> write end of its pipe, or None once closed

        def open_taken_pipes():
            """Open the write end of every pipe a record is reading."""
            for video_id in fifos:
                if video_id not in opened:
                    try:
                        fd = os.open(poses_dir / f"{video_id}.jsonl", os.O_WRONLY | os.O_NONBLOCK)
                    except OSError:  # ENXIO: no reader yet
                        continue
                    opened[video_id] = fd

        def close_pipes():
            for video_id, fd in opened.items():
                if fd is not None:
                    os.close(fd)
                    opened[video_id] = None

        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(opened) < jobs:
                assert parent.poll() is None, parent.stderr.read().decode()
                assert time.monotonic() < deadline, "the workers never reached the pipes"
                time.sleep(0.05)
                open_taken_pipes()
            workers = _forked_children(parent.pid)
            assert len(workers) == (jobs if jobs > 1 else 0)
            parent.send_signal(signal.SIGINT)
            time.sleep(1.0)  # let the parent cancel before the blocked records end
            deadline = time.monotonic() + 30
            while parent.poll() is None:
                assert time.monotonic() < deadline, "the batch did not stop"
                close_pipes()
                time.sleep(0.05)
                open_taken_pipes()
            err = parent.stderr.read().decode()
            assert parent.returncode == 130, err
            assert "Traceback" not in err
            summary = json.loads(err.strip().splitlines()[-1])
            assert sorted(p.name for p in out_dir.glob("*.json")) == ["b0.json", "b1.json"]
            assert summary["written"] == 2
            assert {f["video_id"] for f in summary["failed"]} <= set(opened)
            assert summary["written"] + len(summary["failed"]) + summary["not_run"] == 10
            # Each pool worker holds one record; the rest were cancelled in the
            # parent or returned unrun by the workers that took them.
            assert len(summary["failed"]) <= (jobs if jobs > 1 else 0)
            assert not any(_alive(pid) for pid in workers), "a worker outlived the batch"
        finally:
            for pid in [parent.pid, *workers]:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
            parent.wait(timeout=10)
            parent.stderr.close()
            close_pipes()

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

    @pytest.mark.parametrize("path, value, fault", INVALID_DOCUMENTS)
    def test_invalid_document_names_path_and_rule(self, tmp_path, capsys, path, value, fault):
        doc_path = invalid_document(tmp_path, path, value)
        code = main(["render-timeline", "--doc", str(doc_path), "--out", str(tmp_path / "t.svg")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {doc_path} is not a valid annotation document: {fault}\n"


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

    @pytest.mark.parametrize("value", ["2", "-1", "0", "1", "nan"])
    def test_threshold_outside_unit_interval_is_usage_error(self, tmp_path, capsys, value):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc_info:
            main([
                "eval", "--pred", "tests/data/doc_fixture.json",
                "--truth", str(self._truth_file(tmp_path)), "--out", str(out),
                "--threshold", value,
            ])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --threshold: fs_threshold must lie in (0, 1), got {float(value)}" in err
        assert not out.exists()

    def test_no_matching_truth_is_domain_error(self, tmp_path, capsys):
        truth = self._truth_file(tmp_path, video_id="someone-else")
        code = main([
            "eval", "--pred", "tests/data/doc_fixture.json",
            "--truth", str(truth),
        ])
        assert code == 1

    def test_no_ranked_candidate_is_domain_error(self, tmp_path, capsys):
        doc = json.loads(Path("tests/data/doc_fixture.json").read_text())
        doc["candidates"] = []  # what a failed translation writes
        pred = tmp_path / "failed.json"
        pred.write_text(json.dumps(doc))
        code = main(["eval", "--pred", str(pred), "--truth", str(self._truth_file(tmp_path))])
        assert code == 1
        assert "error: no matched prediction has a ranked candidate" in capsys.readouterr().err

    def test_malformed_document_is_domain_error(self, tmp_path, capsys):
        truth = self._truth_file(tmp_path)
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        doc_path = malformed_document(pred_dir)
        code = main(["eval", "--pred", str(pred_dir), "--truth", str(truth)])
        assert code == 1
        assert f"{doc_path} is not a valid annotation document" in capsys.readouterr().err

    def test_unparsable_document_names_its_file(self, tmp_path, capsys):
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        (pred_dir / "a.json").write_text('{"video_id": ')
        code = main(["eval", "--pred", str(pred_dir), "--truth", str(self._truth_file(tmp_path))])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: {pred_dir / 'a.json'} is not a valid annotation document: Expecting value"
        )

    @pytest.mark.parametrize("path, value, fault", INVALID_DOCUMENTS)
    def test_invalid_document_names_path_and_rule(self, tmp_path, capsys, path, value, fault):
        doc_path = invalid_document(tmp_path, path, value)
        code = main(["eval", "--pred", str(doc_path), "--truth", str(self._truth_file(tmp_path))])
        assert code == 1
        assert capsys.readouterr().err == f"error: {doc_path} is not a valid annotation document: {fault}\n"

    @pytest.mark.parametrize("line, message", [
        pytest.param("{", "Expecting property name enclosed in double quotes", id="not-json"),
        pytest.param("[1, 2]", "the line is a JSON list, not an object", id="not-an-object"),
        pytest.param('{"gloss": "CAT"}', "'video_id' must be a string", id="no-video-id"),
        pytest.param('{"video_id": 7, "gloss": "CAT"}', "'video_id' must be a string", id="video-id-type"),
        pytest.param('{"video_id": "v"}', "'gloss' must be a string", id="no-gloss"),
        pytest.param('{"video_id": "v", "gloss": ["CAT"]}', "'gloss' must be a string", id="gloss-type"),
        pytest.param('{"video_id": "v", "gloss": "CAT", "fs_words": [{"word": "BOB", "start": 3}]}',
                     "fs_words[0] must be an object with 'word', 'start' and 'end'", id="fs-word-no-end"),
        pytest.param('{"video_id": "v", "gloss": "CAT", "fs_words": [{"start": 3, "end": 4}]}',
                     "fs_words[0] must be an object with 'word', 'start' and 'end'", id="fs-word-no-word"),
        pytest.param('{"video_id": "v", "gloss": "CAT", "fs_words": [{"word": 5, "start": 3, "end": 4}]}',
                     "fs_words[0]: 'word' must be a string", id="fs-word-type"),
        pytest.param('{"video_id": "v", "gloss": "CAT", "fs_words": [{"word": "BOB", "start": null, "end": 4}]}',
                     "fs_words[0]: 'start' and 'end' must be integers", id="fs-word-null-start"),
        pytest.param('{"video_id": "v", "gloss": "CAT", "fs_words": {"word": "BOB"}}',
                     "'fs_words' must be a list", id="fs-words-type"),
    ])
    def test_malformed_truth_line_names_file_and_line(self, tmp_path, capsys, line, message):
        truth = self._truth_file(tmp_path)
        truth.write_text(truth.read_text() + "\n" + line + "\n")
        code = main(["eval", "--pred", "tests/data/doc_fixture.json", "--truth", str(truth)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {truth}:3: {message}")
        assert "Traceback" not in err
