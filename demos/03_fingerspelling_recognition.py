"""Train a small fingerspelling recognizer on synthetic clips, then decode
and align words. A compact corpus keeps this to about a minute; the test
suite trains the full 500-phrase configuration.

Run: python demos/03_fingerspelling_recognition.py
"""

import numpy as np

from signscribe import synthetic as syn
from signscribe.fingerspelling import align_words_scores, frame_scores, recognize, train_toy
from signscribe.metrics import cer
from signscribe.training import stratified_split

world = syn.make_world()
corpus = syn.make_fingerspelling_corpus(world, num_phrases=150, num_signers=6, seed=7)
print(f"corpus: {len(corpus)} phrases, e.g. {' '.join(corpus[0].words)!r}")

model = train_toy(corpus, world.alphabet, epochs=25, seed=0, channels=48)
best = min(model.history, key=lambda h: h["val_loss"])
print(f"trained {len(model.history)} epochs; kept epoch {best['epoch']}, "
      f"validation CER {best['val_loss']:.3f}")

_, _, test = stratified_split(corpus, np.random.default_rng(0))
errors = [cer(" ".join(s.words), recognize(model, s.poses)) for s in test]
print(f"held-out CER: {np.mean(errors):.4f} over {len(test)} clips\n")

sample = test[0]
print(f"truth:  {' '.join(sample.words)}")
print(f"decode: {recognize(model, sample.poses)}")

scores = frame_scores(model, sample.poses)
detections = align_words_scores(scores, list(sample.words), model.alphabet)
rng = np.random.default_rng(1)
decoys = [syn.decoy_word(rng, world.alphabet) for _ in sample.words]
decoy_detections = align_words_scores(scores, decoys, model.alphabet)
print("\nword alignment (true words vs decoys):")
for det in detections:
    print(f"  TRUE  {det.word:10s} score={det.score:.3f} frames {det.start_frame}-{det.end_frame}")
for det in decoy_detections:
    print(f"  DECOY {det.word:10s} score={det.score:.3f}")
