"""Seeded workload inputs, written to a scratch directory before timing.

``python3 perfbench/inputs.py <workload> <seed> <out dir>`` writes, for the
annotate workloads, one pose JSON Lines file per clip, ``transcripts.jsonl``
({video_id, english} per line, the batch CLI's input), ``candidates.json``
(the injected k-candidate tables, long_clip only) and ``manifest.json``
(frame and token counts and the composed gloss line of every clip). The
same seed writes the same bytes. The train workload's corpora are built in
the measured process by :func:`train_corpora`, as the CLI ``train``
command builds them from a spec.

Sentences come from the seeded generator as drawn; none is picked or
filtered, so whatever the ranking does with them is the baseline.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# batch_short: the batch CLI over many short clips at the default stub.
BATCH_CLIPS = 24
BATCH_GLOSSES = (3, 6)  # inclusive range of vocabulary glosses per clip
BATCH_FS_WORDS = (0, 2)  # inclusive range of fingerspelled words per clip
WORKED_LINE = "fs-BOB TRAVEL TO fs-FRICK PARK WITH DOG"
WORKED_ENGLISH = "Bob travels to Frick Park with his dog."
WORKED_COMPOSE_SEED = 5

# long_clip: long clips, few anchors, k=10 injected candidates. The two
# fingerspelled words sit near the thirds of each line, so every clip has
# long inter-anchor intervals of similar size.
LONG_CLIPS = 8
LONG_GLOSSES = 48
LONG_FS_WORDS = 2
LONG_K = 10

# train: the two toy trainers on small fixed-size corpora.
TRAIN_FS_PHRASES = 120
TRAIN_ISR_CLIPS_PER_CLASS = 6
TRAIN_SIGNERS = 10
TRAIN_EPOCHS = 2
TRAIN_CHANNELS = 48


def _fs_word(rng, alphabet) -> str:
    letters = [c for c in alphabet.chars if c.isalpha()]
    return "".join(letters[int(i)] for i in rng.integers(0, len(letters), size=int(rng.integers(3, 6))))


def _random_line(rng, world, n_glosses: int, n_fs: int, spaced: bool = False) -> str:
    """A gloss line of vocabulary glosses with fingerspelled words inserted.

    ``spaced`` puts word j within three tokens of position (j+1)/(n_fs+1) of
    the line instead of anywhere.
    """
    vocab = world.vocabulary.glosses
    tokens = [vocab[int(i)] for i in rng.integers(0, len(vocab), size=n_glosses)]
    for j in reversed(range(n_fs)):
        if spaced:
            pos = round(n_glosses * (j + 1) / (n_fs + 1)) + int(rng.integers(-3, 4))
        else:
            pos = int(rng.integers(0, len(tokens) + 1))
        tokens.insert(pos, "fs-" + _fs_word(rng, world.alphabet))
    return " ".join(tokens)


def _english(line: str) -> str:
    """An English-looking sentence whose naive glossing is the line's words."""
    words = [t[3:].capitalize() if t.startswith("fs-") else t.lower() for t in line.split()]
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def write_inputs(workload: str, seed: int, out: Path) -> dict:
    import numpy as np

    from signscribe import gloss as gloss_mod
    from signscribe import pose as pose_mod
    from signscribe import synthetic as syn

    world = syn.make_world()  # the world the fixture models were trained on
    rng = np.random.default_rng([seed, {"batch_short": 1, "long_clip": 2}[workload]])
    out.mkdir(parents=True, exist_ok=True)
    clips, transcripts, tables = [], [], {}
    n_clips = BATCH_CLIPS if workload == "batch_short" else LONG_CLIPS
    for i in range(n_clips):
        video_id = f"clip{i:02d}"
        compose_seed = int(rng.integers(0, 2**31))
        if workload == "batch_short" and i == 0:
            line, english, compose_seed = WORKED_LINE, WORKED_ENGLISH, WORKED_COMPOSE_SEED
        elif workload == "batch_short":
            n_gloss = int(rng.integers(BATCH_GLOSSES[0], BATCH_GLOSSES[1] + 1))
            n_fs = int(rng.integers(BATCH_FS_WORDS[0], BATCH_FS_WORDS[1] + 1))
            line = _random_line(rng, world, n_gloss, n_fs)
            english = _english(line)
        else:
            line = _random_line(rng, world, LONG_GLOSSES, LONG_FS_WORDS, spaced=True)
            english = _english(line)
        seq = gloss_mod.parse_gloss_sequence(line)
        poses, _ = syn.compose_sentence_video(world, seq, seed=compose_seed, video_id=video_id)
        pose_mod.write_pose_jsonl(out / f"{video_id}.jsonl", poses)
        frames, line = len(poses), gloss_mod.render(seq)
        if workload == "long_clip":
            others = [gloss_mod.render(syn.perturb_sequence(seq, world, rng)) for _ in range(LONG_K - 1)]
            others.insert(int(rng.integers(0, LONG_K)), line)
            tables[english] = {str(j + 1): c for j, c in enumerate(others)}
        transcripts.append({"video_id": video_id, "english": english})
        clips.append(
            {
                "video_id": video_id,
                "english": english,
                "line": line,
                "frames": frames,
                "tokens": len(seq.tokens),
                "fs_words": sum(t.startswith("fs-") for t in line.split()),
            }
        )
    (out / "transcripts.jsonl").write_text(
        "".join(json.dumps(t, sort_keys=True) + "\n" for t in transcripts), encoding="utf-8"
    )
    if tables:
        (out / "candidates.json").write_text(json.dumps(tables, indent=1, sort_keys=True), encoding="utf-8")
    manifest = {"workload": workload, "seed": seed, "clips": clips}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8")
    return manifest


def train_corpora(seed: int):
    """World and the two seeded training corpora of the train workload."""
    import numpy as np

    from signscribe import synthetic as syn

    world = syn.make_world()
    fs_seed, isr_seed, train_seed = (int(s) for s in np.random.default_rng([seed, 3]).integers(0, 2**31, size=3))
    fs_corpus = syn.make_fingerspelling_corpus(
        world, num_phrases=TRAIN_FS_PHRASES, num_signers=TRAIN_SIGNERS, seed=fs_seed
    )
    isr_corpus = syn.make_isr_corpus(
        world, clips_per_class=TRAIN_ISR_CLIPS_PER_CLASS, num_signers=TRAIN_SIGNERS, seed=isr_seed
    )
    return world, fs_corpus, isr_corpus, train_seed


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in ("batch_short", "long_clip"):
        raise SystemExit("usage: python3 perfbench/inputs.py batch_short|long_clip <seed> <out dir>")
    write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
