"""Full pseudo-annotation pipeline on a composed video with the offline
LLM stub: candidate glossings, fingerspelling anchors, sign alignment,
ranking, and an SVG timeline of the best candidate.

Run: python demos/05_annotation_pipeline.py
Writes: demo_annotation.json, demo_timeline.svg
"""

import json
from pathlib import Path

from signscribe import synthetic as syn
from signscribe.fingerspelling import train_toy
from signscribe.gloss import parse_gloss_sequence
from signscribe.isr import train_toy_isr
from signscribe.llm import StubClient
from signscribe.pipeline import Models, PipelineConfig, annotate, document_bytes, validate_document
from signscribe.timeline import render_timeline

ENGLISH = "Bob travels to Frick Park with his dog."
TRUE_GLOSS = "fs-BOB TRAVEL TO fs-FRICK PARK WITH DOG"

world = syn.make_world()
print("training compact toy models (about a minute)...")
fs_model = train_toy(
    syn.make_fingerspelling_corpus(world, num_phrases=150, num_signers=6, seed=7),
    world.alphabet, epochs=25, seed=0, channels=48,
)
isr_model = train_toy_isr(
    syn.make_isr_corpus(world, clips_per_class=8, num_signers=5, seed=11),
    world.vocabulary, epochs=20, seed=0, channels=48, lr=1e-3,
)
models = Models(fingerspelling=fs_model, isr=isr_model)

poses, spans = syn.compose_sentence_video(
    world, parse_gloss_sequence(TRUE_GLOSS), seed=5, video_id="demo"
)
print(f"video: {len(poses)} frames at {poses.fps} fps")

stub = StubClient(translations={ENGLISH: {
    "1": "BOB TRAVEL TO FRICK PARK WITH DOG",
    "2": "fs-BOB GO fs-FRICK PARK WITH DOG",
    "3": TRUE_GLOSS,
    "4": "DOG WITH fs-BOB TRAVEL fs-FRICK PARK",
    "5": "fs-BOB TRAVEL fs-FRICK PARK",
}})
doc = annotate(ENGLISH, poses, models, PipelineConfig(k=5), stub)

print(f"\nranked candidates for: {ENGLISH}")
for cand in doc["candidates"]:
    print(f"  #{cand['rank']} score={cand['aggregate_score']:.3f}  {cand['gloss']}")

top = doc["candidates"][0]
print("\nbest candidate sign-by-sign:")
for sign in top["per_sign"]:
    marker = "anchor" if sign["anchored"] else (
        "in-vocab" if sign["in_vocabulary"] else "out-of-vocab"
    )
    print(f"  {sign['notation']:12s} score={sign['score']:.3f} "
          f"frames {sign['interval'][0]:3d}-{sign['interval'][1]:3d} [{marker}]")

payload = json.loads(document_bytes(doc))
validate_document(payload)
Path("demo_annotation.json").write_bytes(document_bytes(doc))
Path("demo_timeline.svg").write_text(render_timeline(payload, rank=1), encoding="utf-8")
print("\nwrote demo_annotation.json and demo_timeline.svg")
