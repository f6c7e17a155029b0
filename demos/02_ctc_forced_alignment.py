"""CTC loss and forced alignment on a tiny alphabet, next to a path
enumeration you can check by hand.

Run: python demos/02_ctc_forced_alignment.py
"""

import itertools

import numpy as np

from signscribe import Alphabet, FrameScores, ctc_loss, forced_align
from signscribe.fingerspelling import align_words_scores
from signscribe.gloss import to_ctc_tokens

alpha = Alphabet(chars=("A", "B", "|"))
rng = np.random.default_rng(3)

# Frame scores leaning toward "| A B |" over six frames.
logits = rng.normal(size=(6, alpha.size))
logits[0, alpha.pipe_id] += 4
logits[1, alpha.index("A")] += 4
logits[2, alpha.index("A")] += 4
logits[3, alpha.index("B")] += 4
logits[4, alpha.pipe_id] += 4
probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
scores = FrameScores(probs=probs)

target = to_ctc_tokens(["AB"], alpha)
loss, grad = ctc_loss(scores, target)
print(f"target ids: {target}")
print(f"ctc loss:   {loss:.6f} (gradient shape {grad.shape})")

# Brute force over all 4^6 paths for comparison.
def collapse(path):
    out, prev = [], -1
    for c in path:
        if c != prev and c != alpha.blank_id:
            out.append(c)
        prev = c
    return out

total = 0.0
for path in itertools.product(range(alpha.size), repeat=6):
    if collapse(path) == target:
        p = 1.0
        for t, c in enumerate(path):
            p *= probs[t, c]
        total += p
print(f"brute force -log(path sum): {-np.log(total):.6f}")

result = forced_align(scores, target, alpha)
print("\nper-character alignment:")
for unit in result.units:
    print(f"  {unit.symbol!r}: frames {unit.start_frame}-{unit.end_frame}, score {unit.score:.3f}")
for word in align_words_scores(scores, ["AB"], alpha):
    print(f"word {word.word!r}: frames {word.start_frame}-{word.end_frame}, score {word.score:.3f}")
