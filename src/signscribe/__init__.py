"""signscribe: pseudo-annotation toolkit for signed video.

Combines k-candidate LLM glossings, a CTC fingerspelling recognizer and
aligner, and a per-frame isolated sign recognizer into ranked,
time-stamped candidate gloss annotations. The submodules hold the API;
the names below are the few the quick-start demos use.
"""

from .ctc import Alphabet, FrameScores, ctc_loss, forced_align
from .gloss import parse_gloss_sequence, render, stem_normalize

__version__ = "0.1.0"
