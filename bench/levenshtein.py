"""Word edit distance, written apart from imsk.scoring so the benchmark's
WER check does not trust the code it measures."""

from __future__ import annotations


def word_errors(ref: list[str], hyp: list[str]) -> int:
    """Minimum substitutions + insertions + deletions turning ref into hyp."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, 1):
            cur[j] = min(prev[j - 1] + (r != h), prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[-1]
