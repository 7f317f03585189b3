"""Unigram-LM subword vocabulary: EM training, pruning, Viterbi segmentation.

A vocabulary is a set of character-span pieces with probabilities summing to
one.  A text's segmentation score is the sum of piece log-probabilities and
segment() returns the argmax sequence.  Training seeds the vocabulary with
frequent substrings, refines probabilities by EM over the segmentation
lattice, and repeatedly prunes the multi-character pieces whose removal
costs the least corpus likelihood until the target size is reached.  Single
characters are never pruned, so any training-alphabet string stays
segmentable.

Every pass reads one lattice: `_arcs` lists a word's arcs (start, end,
piece, log-probability) by end, shortest piece first.  Viterbi (segment(),
and pruning's best segmentation of a piece without its own arc), the
forward pass and the expected counts take them in that order, so a piece's
count adds its occurrences in start order.  The backward pass takes them
by start descending, then end ascending.

Whitespace handling: each space is replaced by a visible marker glyph
prefixed to the following word, so word boundaries survive encode/decode
round-trips.  Words are segmented independently; pieces never span a word
boundary.  Runs of whitespace collapse to single spaces.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .util import read_text

MARKER = "▁"  # visible stand-in for a space, attached to the next word
UNK_GLYPH = "<unk>"
SOS_EOS_GLYPH = "<sos/eos>"
BLANK_GLYPH = "<blank>"
UNK_ID = 0
SOS_EOS_ID = 1
BLANK_ID = 2
N_SPECIALS = 3
LOG_P_UNK = math.log(1e-10)

DEFAULT_TARGET_SIZE = 100
DEFAULT_SEED_MAX_LEN = 8
DEFAULT_PRUNE_FRACTION = 0.2
EM_ITERS_PER_ROUND = 2


def teacher_forcing(labels, dtype):
    """(inputs, targets, mask), each (B, 1 + longest length): step u reads
    inputs[:, u] and is scored on targets[:, u]; a sequence is read after
    sos, closed by eos, and masked to 0 past its eos."""
    u_max = max(len(y) for y in labels) + 1
    inputs = np.full((len(labels), u_max), SOS_EOS_ID, dtype=np.int64)
    targets = np.full((len(labels), u_max), SOS_EOS_ID, dtype=np.int64)
    mask = np.zeros((len(labels), u_max), dtype=dtype)
    for b, y in enumerate(labels):
        inputs[b, 1 : len(y) + 1] = y
        targets[b, : len(y)] = y
        mask[b, : len(y) + 1] = 1.0
    return inputs, targets, mask


@dataclass(frozen=True)
class SubwordVocab:
    """Ordered pieces (specials excluded) with log-probabilities."""

    pieces: tuple[str, ...]
    log_probs: tuple[float, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.pieces) != len(self.log_probs):
            raise ValueError("pieces and log_probs must align")
        if any(not p for p in self.pieces):
            raise ValueError("empty piece")
        if len(set(self.pieces)) != len(self.pieces):
            raise ValueError("duplicate piece")
        with np.errstate(over="ignore"):  # an overflow to inf fails the check below
            total = float(np.sum(np.exp(np.asarray(self.log_probs, dtype=np.float64))))
        if not abs(total - 1.0) <= 1e-9:  # also rejects a NaN log-probability
            raise ValueError(f"piece probabilities sum to {total!r}, not 1")
        object.__setattr__(
            self, "_index", {p: i for i, p in enumerate(self.pieces)}
        )

    @property
    def size(self) -> int:
        """Total id count including the three specials."""
        return N_SPECIALS + len(self.pieces)

    @cached_property
    def max_piece_len(self) -> int:
        return max(len(p) for p in self.pieces)

    @cached_property
    def _log_p(self) -> dict:
        """Piece -> log-probability, built on the first segmentation."""
        return dict(zip(self.pieces, self.log_probs))

    def has_piece(self, piece: str) -> bool:
        return piece in self._index

    def log_prob(self, piece: str) -> float:
        i = self._index.get(piece)
        return LOG_P_UNK if i is None else self.log_probs[i]

    def piece_to_id(self, piece: str) -> int:
        i = self._index.get(piece)
        return UNK_ID if i is None else N_SPECIALS + i

    def id_to_piece(self, idx: int) -> str:
        if idx == UNK_ID:
            return UNK_GLYPH
        if idx == SOS_EOS_ID:
            return SOS_EOS_GLYPH
        if idx == BLANK_ID:
            return BLANK_GLYPH
        if N_SPECIALS <= idx < self.size:
            return self.pieces[idx - N_SPECIALS]
        raise ValueError(f"id {idx} out of range for vocabulary of size {self.size}")


@dataclass(frozen=True)
class Segmentation:
    """A piece sequence whose concatenation equals the source string."""

    pieces: tuple[str, ...]
    log_prob: float


def mark_words(line: str) -> list[str]:
    """Split on whitespace; non-initial words carry the boundary marker."""
    words = line.split()
    return [w if i == 0 else MARKER + w for i, w in enumerate(words)]


# ---------------------------------------------------------------------------
# the segmentation lattice
# ---------------------------------------------------------------------------


def _arcs(word: str, log_p: dict, max_len: int, unk: float | None = None) -> list:
    """Every arc (start, end, piece, log-probability) of ``word``'s lattice:
    each span of at most ``max_len`` characters that is a piece of
    ``log_p``, by end, shortest piece first.  With ``unk``, a character that
    is not a piece is an arc of log-probability ``unk``."""
    arcs = []
    for j in range(1, len(word) + 1):
        for i in range(j - 1, max(j - max_len, 0) - 1, -1):
            piece = word[i:j]
            lp = log_p.get(piece, unk if j - i == 1 else None)
            if lp is not None:
                arcs.append((i, j, piece, lp))
    return arcs


def _best_path(n: int, arcs) -> tuple:
    """(score, piece count, pieces) of the best path through the lattice of
    an ``n``-character string, given its arcs by end.  Ties break toward
    fewer pieces, then the lexicographically smallest piece sequence."""
    best: list[tuple | None] = [(0.0, 0, ())] + [None] * n
    for i, j, piece, lp in arcs:
        prev, cur = best[i], best[j]
        if prev is None:
            continue
        cand = (prev[0] + lp, prev[1] + 1, prev[2] + (piece,))
        if cur is None or (-cand[0], cand[1], cand[2]) < (-cur[0], cur[1], cur[2]):
            best[j] = cand
    return best[n]


def segment(text: str, vocab: SubwordVocab) -> Segmentation:
    """Most probable segmentation of ``text``.

    Characters missing from the vocabulary fall back to an unknown piece
    with probability 1e-10.  Ties break toward fewer pieces, then the
    lexicographically smallest piece sequence.
    """
    if not text:
        raise ValueError("cannot segment empty text")
    arcs = _arcs(text, vocab._log_p, vocab.max_piece_len, unk=LOG_P_UNK)
    score, _, pieces = _best_path(len(text), arcs)
    return Segmentation(pieces=pieces, log_prob=score)


def encode(text: str, vocab: SubwordVocab) -> list[int]:
    """Ids of the best segmentation, word by word; no sos/eos added."""
    ids = []
    for word in mark_words(text):
        for piece in segment(word, vocab).pieces:
            ids.append(vocab.piece_to_id(piece))
    return ids


def decode(ids, vocab: SubwordVocab) -> str:
    """Inverse of encode; sos/eos and blank ids are dropped."""
    parts = []
    for idx in ids:
        if idx in (SOS_EOS_ID, BLANK_ID):
            continue
        parts.append(vocab.id_to_piece(int(idx)))
    return "".join(parts).replace(MARKER, " ")


def em_step(word_counts: Counter, log_p: dict) -> tuple[dict, float, dict]:
    """One EM iteration.

    Returns (new log-probabilities, corpus log-likelihood under the OLD
    probabilities, expected piece counts).  Expected counts come from
    forward-backward posteriors over each word's segmentation lattice.  A
    piece whose share of the expected counts underflows gets probability 0.
    """
    max_len = max(len(p) for p in log_p)
    counts = {p: 0.0 for p in log_p}
    total_ll = 0.0
    for word, c in sorted(word_counts.items()):
        n = len(word)
        arcs = _arcs(word, log_p, max_len)
        alpha = np.full(n + 1, -np.inf)
        alpha[0] = 0.0
        for i, j, _, lp in arcs:
            if alpha[i] != -np.inf:
                alpha[j] = np.logaddexp(alpha[j], alpha[i] + lp)
        beta = np.full(n + 1, -np.inf)
        beta[n] = 0.0
        for i, j, _, lp in sorted(arcs, key=lambda a: -a[0]):  # stable: ends ascend
            if beta[j] != -np.inf:
                beta[i] = np.logaddexp(beta[i], beta[j] + lp)
        z = alpha[n]
        if z == -np.inf:
            raise ValueError(f"word {word!r} is not segmentable with current pieces")
        total_ll += c * z
        for i, j, piece, lp in arcs:
            if alpha[i] != -np.inf and beta[j] != -np.inf:
                counts[piece] += c * math.exp(alpha[i] + lp + beta[j] - z)
    total = sum(counts.values())
    shares = {p: cnt / total if cnt > 0.0 else 0.0 for p, cnt in counts.items()}
    new_log_p = {p: math.log(r) if r > 0.0 else -np.inf for p, r in shares.items()}
    return new_log_p, total_ll, counts


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _normalized(log_p: dict) -> dict:
    norm = float(np.logaddexp.reduce(np.array(list(log_p.values()))))
    return {p: lp - norm for p, lp in log_p.items()}


def _floor_and_clean(log_p: dict) -> dict:
    """Drop zero-probability multi-char pieces; keep starved single
    characters alive at the unk floor so the alphabet stays segmentable."""
    return _normalized({
        p: lp if math.isfinite(lp) else LOG_P_UNK
        for p, lp in log_p.items() if math.isfinite(lp) or len(p) == 1
    })


def train_unigram(
    corpus,
    target_size: int = DEFAULT_TARGET_SIZE,
    seed_max_len: int = DEFAULT_SEED_MAX_LEN,
    prune_fraction: float = DEFAULT_PRUNE_FRACTION,
) -> SubwordVocab:
    """Learn a subword vocabulary of at most ``target_size`` pieces.

    The seeds are the single characters and the ``20 * target_size`` most
    frequent substrings of 2 to ``seed_max_len`` characters seen twice.
    Rounds alternate EM refinement with pruning of the ``prune_fraction`` of
    multi-character pieces scoring lowest on likelihood impact: expected
    count times (own log-probability minus the best alternative
    segmentation of the same span).  Single characters are kept
    unconditionally.  If the corpus offers fewer than ``target_size``
    distinct frequent substrings the result is smaller than requested.
    """
    if not 0.0 < prune_fraction < 1.0:
        raise ValueError("prune_fraction must be in (0, 1)")
    word_counts = Counter()
    for line in corpus:
        for word in mark_words(line):
            word_counts[word] += 1
    if not word_counts:
        raise ValueError("empty corpus")
    freq = Counter()  # every substring of at most seed_max_len characters
    span = max(seed_max_len, 1)
    for word, c in word_counts.items():
        for i in range(len(word)):
            for j in range(i + 1, min(i + span, len(word)) + 1):
                freq[word[i:j]] += c
    singles = sorted(s for s in freq if len(s) == 1)
    if target_size < len(singles):
        raise ValueError(
            f"target size {target_size} below alphabet size {len(singles)}"
        )
    multis = sorted((s for s, f in freq.items() if len(s) > 1 and f >= 2), key=lambda s: (-freq[s], s))
    seeds = multis[: 20 * target_size] + singles
    total = sum(float(freq[p]) for p in seeds)
    log_p = {p: math.log(float(freq[p]) / total) for p in seeds}

    n_target_multi = target_size - len(singles)
    while True:
        counts = {}
        for _ in range(EM_ITERS_PER_ROUND):
            log_p, _, counts = em_step(word_counts, log_p)
        log_p = _floor_and_clean(log_p)
        current_multis = [p for p in log_p if len(p) > 1]
        if len(current_multis) <= n_target_multi:
            break
        n_drop = max(1, int(round(prune_fraction * len(current_multis))))
        n_drop = min(n_drop, len(current_multis) - n_target_multi)
        max_len = max(len(p) for p in log_p)
        impacts = []
        for p in current_multis:
            alt = _best_path(len(p), [a for a in _arcs(p, log_p, max_len) if a[2] != p])[0]
            impacts.append((counts.get(p, 0.0) * (log_p[p] - alt), p))
        impacts.sort(key=lambda t: (t[0], t[1]))
        for _, p in impacts[:n_drop]:
            del log_p[p]
        log_p = _normalized(log_p)

    order = sorted(log_p, key=lambda p: (-log_p[p], p))
    probs = np.exp(np.array([log_p[p] for p in order], dtype=np.float64))
    probs /= probs.sum()
    return SubwordVocab(pieces=tuple(order), log_probs=tuple(np.log(probs)))


# ---------------------------------------------------------------------------
# vocabulary file
# ---------------------------------------------------------------------------


def _vocab_text(vocab: SubwordVocab) -> str:
    """The canonical text of a vocabulary: piece TAB natural-log
    probability per line, specials first."""
    rows = [(UNK_GLYPH, f"{LOG_P_UNK:.17g}"), (SOS_EOS_GLYPH, "0"), (BLANK_GLYPH, "0")]
    rows += [(piece, f"{lp:.17g}") for piece, lp in zip(vocab.pieces, vocab.log_probs)]
    return "".join(f"{piece}\t{lp}\n" for piece, lp in rows)


def save_vocab(path, vocab: SubwordVocab) -> None:
    """Write the canonical text of `vocab` as a UTF-8 TSV file."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(_vocab_text(vocab))


def load_vocab(path) -> SubwordVocab:
    """Read a save_vocab file. Any malformed content raises ValueError
    whose message starts with the path, or with `path:line` for a
    malformed row."""
    rows = [(n, line) for n, line in enumerate(read_text(path).split("\n"), 1) if line]
    if len(rows) < N_SPECIALS:
        raise ValueError(f"{path}: vocabulary file too short")
    expected = [UNK_GLYPH, SOS_EOS_GLYPH, BLANK_GLYPH]
    for (lineno, line), glyph in zip(rows, expected):
        if line.split("\t")[0] != glyph:
            raise ValueError(f"{path}:{lineno}: must be special {glyph!r}")
    pieces, log_probs = [], []
    for lineno, line in rows[N_SPECIALS:]:
        try:
            piece, lp = line.split("\t")
            log_probs.append(float(lp))
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: expected 'piece TAB log-probability': {e}") from None
        pieces.append(piece)
    try:
        return SubwordVocab(pieces=tuple(pieces), log_probs=tuple(log_probs))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def vocab_fingerprint(vocab: SubwordVocab) -> str:
    """sha256 of the canonical text, the bytes save_vocab writes; used to
    pair artifacts."""
    return hashlib.sha256(_vocab_text(vocab).encode("utf-8")).hexdigest()
