"""Correctness checks, computed apart from the code under test.

Each function returns a list of problems; an empty list means the output
passed. The recomputations they compare against (CTC forward-backward,
teacher-forced replay through the model's autograd layers, the LM's
sequence score, finite differences of the loss) use other code paths than
the search and the optimiser that produced the outputs.
"""

from __future__ import annotations

import math

from levenshtein import word_errors

# a word counts as covered when an entry spans it up to this many seconds
# at either edge: SAD works on a 10 ms grid and tone words ramp in and out
EDGE_TOL_S = 0.03


def word_error_rate(ref: list[str], hyp: list[str]) -> float:
    return word_errors(ref, hyp) / max(len(ref), 1)


def wer_problems(rate: float, bound: float) -> list[str]:
    return [] if rate <= bound else [f"WER {100 * rate:.1f}% above {100 * bound:.0f}%"]


def coverage_problems(spans, truth, max_len: float) -> list[str]:
    """spans: (start, end) pairs of the output; truth: world.Truth.

    Spans must be sorted, non-overlapping and at most max_len long; every
    generated word must lie inside one span; no span may lie wholly in
    non-speech (silence or clicks)."""
    out = []
    prev_end = 0.0
    for s, e in spans:
        if not (prev_end <= s < e):
            out.append(f"span ({s}, {e}) unsorted or overlapping")
        if e - s > max_len + 1e-9:
            out.append(f"span ({s}, {e}) longer than {max_len} s")
        prev_end = e
    for ws, we, w in truth.words:
        if not any(s <= ws + EDGE_TOL_S and we - EDGE_TOL_S <= e for s, e in spans):
            out.append(f"word {w} at {ws:.2f}-{we:.2f} s outside every span")
    for s, e in spans:
        if not any(min(e, we) > max(s, ws) for ws, we, _ in truth.words):
            out.append(f"span ({s}, {e}) holds no speech")
    return out


def joint_score(ctc: float, att: float, lm: float, ctc_weight: float, lm_weight: float) -> float:
    return ctc_weight * ctc + (1.0 - ctc_weight) * att + lm_weight * lm


def score_problems(score: float, expected: float) -> list[str]:
    """A best score must equal the joint score of its recomputed parts."""
    if math.isfinite(score) and abs(score - expected) <= 1e-6 * max(1.0, abs(expected)):
        return []
    return [f"score {score!r} != recomputed {expected!r}"]


def gradient_problems(predicted: float, central: float, rel_tol: float = 2e-3) -> list[str]:
    """Directional derivative g.d against (L(p+hd) - L(p-hd)) / 2h along the
    update d; the float64 loss keeps this within about 1e-4."""
    if not (math.isfinite(predicted) and math.isfinite(central)):
        return [f"non-finite gradient check ({predicted}, {central})"]
    if abs(predicted - central) <= rel_tol * abs(central) + 1e-9:
        return []
    return [f"gradient predicts {predicted:.6g}, loss changes by {central:.6g}"]
