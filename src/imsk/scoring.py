"""Word error rate from edit-distance alignment, plus timing ratios.

Hypotheses are aligned to references with unit-cost edits; corpus WER
pools edit and reference-word counts over all utterances (total edits
over total reference words, not a mean of per-utterance rates). Words
are whitespace-separated and compared case-sensitively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COR, SUB, INS, DEL = "cor", "sub", "ins", "del"


@dataclass(frozen=True)
class AlignmentResult:
    """Edit counts for one utterance and the aligned operation sequence.

    `ops` is a tuple of (op, ref_word, hyp_word); insertions carry no
    ref word and deletions no hyp word.
    """

    substitutions: int
    insertions: int
    deletions: int
    correct: int
    ref_words: int
    ops: tuple[tuple[str, str | None, str | None], ...]

    def __post_init__(self):
        if min(self.substitutions, self.insertions, self.deletions, self.correct) < 0:
            raise ValueError("counts must be >= 0")
        if self.substitutions + self.deletions + self.correct != self.ref_words:
            raise ValueError("sub + del + correct must equal the reference length")

    @property
    def edits(self) -> int:
        return self.substitutions + self.insertions + self.deletions


def _words(text) -> list[str]:
    if isinstance(text, str):
        return text.split()
    return [str(w) for w in text]


def align(ref, hyp) -> AlignmentResult:
    """Minimal-edit alignment of two word sequences.

    Inputs are strings (split on whitespace) or word iterables; either
    may be empty. When several alignments share the minimal cost, the
    backtrace prefers substitution over insertion over deletion.
    """
    r, h = _words(ref), _words(hyp)
    R, H = len(r), len(h)
    d = np.zeros((R + 1, H + 1), dtype=np.int64)
    d[:, 0] = np.arange(R + 1)
    d[0, :] = np.arange(H + 1)
    for i in range(1, R + 1):
        for j in range(1, H + 1):
            diag = d[i - 1, j - 1] + (r[i - 1] != h[j - 1])
            d[i, j] = min(diag, d[i, j - 1] + 1, d[i - 1, j] + 1)

    ops: list[tuple[str, str | None, str | None]] = []
    i, j = R, H
    while i > 0 or j > 0:
        here = d[i, j]
        if i > 0 and j > 0 and here == d[i - 1, j - 1] + (r[i - 1] != h[j - 1]):
            op = COR if r[i - 1] == h[j - 1] else SUB
            ops.append((op, r[i - 1], h[j - 1]))
            i, j = i - 1, j - 1
        elif j > 0 and here == d[i, j - 1] + 1:
            ops.append((INS, None, h[j - 1]))
            j -= 1
        else:
            ops.append((DEL, r[i - 1], None))
            i -= 1
    ops.reverse()

    n = {COR: 0, SUB: 0, INS: 0, DEL: 0}
    for op, _, _ in ops:
        n[op] += 1
    return AlignmentResult(n[SUB], n[INS], n[DEL], n[COR], R, tuple(ops))


@dataclass(frozen=True)
class CorpusScore:
    """Pooled edit counts over a corpus."""

    substitutions: int
    insertions: int
    deletions: int
    correct: int
    ref_words: int

    @property
    def edits(self) -> int:
        return self.substitutions + self.insertions + self.deletions

    @property
    def wer(self) -> float:
        return 100.0 * self.edits / self.ref_words


def corpus_score(pairs) -> CorpusScore:
    """Pool alignment counts over (ref, hyp) pairs.

    Raises ValueError when the corpus has no reference words; a rate
    over zero words is undefined.
    """
    s = i = d = c = n = 0
    for ref, hyp in pairs:
        a = align(ref, hyp)
        s += a.substitutions
        i += a.insertions
        d += a.deletions
        c += a.correct
        n += a.ref_words
    if n == 0:
        raise ValueError("corpus has no reference words")
    return CorpusScore(s, i, d, c, n)


def rt_factor(processing_seconds: float, audio_seconds: float) -> float:
    """Processing time over audio time; below 1 is faster than real time."""
    if audio_seconds <= 0.0:
        raise ValueError("audio duration must be positive")
    if processing_seconds < 0.0:
        raise ValueError("processing time must be >= 0")
    return processing_seconds / audio_seconds
