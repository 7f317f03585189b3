"""Unigram-LM subword vocabulary: EM training, pruning, Viterbi segmentation.

A vocabulary is a set of character-span pieces with probabilities summing to
one.  A text's segmentation score is the sum of piece log-probabilities and
segment() returns the argmax sequence.  Training seeds the vocabulary with
frequent substrings, refines probabilities by EM over the segmentation
lattice, and repeatedly prunes the multi-character pieces whose removal
costs the least corpus likelihood until the target size is reached.  Single
characters are never pruned, so any training-alphabet string stays
segmentable.

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

    @property
    def max_piece_len(self) -> int:
        return max(len(p) for p in self.pieces)

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
# Viterbi segmentation
# ---------------------------------------------------------------------------


def segment(text: str, vocab: SubwordVocab) -> Segmentation:
    """Most probable segmentation of ``text``.

    Characters missing from the vocabulary fall back to an unknown piece
    with probability 1e-10.  Ties break toward fewer pieces, then the
    lexicographically smallest piece sequence.
    """
    if not text:
        raise ValueError("cannot segment empty text")
    n = len(text)
    max_len = vocab.max_piece_len
    # per position: (score, piece_count, pieces) of the best prefix
    best: list[tuple | None] = [None] * (n + 1)
    best[0] = (0.0, 0, ())
    for j in range(1, n + 1):
        for l in range(1, min(max_len, j) + 1):
            prev = best[j - l]
            if prev is None:
                continue
            piece = text[j - l : j]
            if vocab.has_piece(piece):
                lp = vocab.log_prob(piece)
            elif l == 1:
                lp = LOG_P_UNK
            else:
                continue
            cand = (prev[0] + lp, prev[1] + 1, prev[2] + (piece,))
            cur = best[j]
            if cur is None or _better(cand, cur):
                best[j] = cand
    score, _, pieces = best[n]
    return Segmentation(pieces=pieces, log_prob=score)


def _better(a: tuple, b: tuple) -> bool:
    if a[0] != b[0]:
        return a[0] > b[0]
    if a[1] != b[1]:
        return a[1] < b[1]
    return a[2] < b[2]


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


# ---------------------------------------------------------------------------
# EM over the segmentation lattice
# ---------------------------------------------------------------------------


def _forward_log(word: str, log_p: dict, max_len: int) -> np.ndarray:
    n = len(word)
    alpha = np.full(n + 1, -np.inf)
    alpha[0] = 0.0
    for j in range(1, n + 1):
        for l in range(1, min(max_len, j) + 1):
            lp = log_p.get(word[j - l : j])
            if lp is not None and alpha[j - l] != -np.inf:
                alpha[j] = np.logaddexp(alpha[j], alpha[j - l] + lp)
    return alpha


def _backward_log(word: str, log_p: dict, max_len: int) -> np.ndarray:
    n = len(word)
    beta = np.full(n + 1, -np.inf)
    beta[n] = 0.0
    for i in range(n - 1, -1, -1):
        for l in range(1, min(max_len, n - i) + 1):
            lp = log_p.get(word[i : i + l])
            if lp is not None and beta[i + l] != -np.inf:
                beta[i] = np.logaddexp(beta[i], beta[i + l] + lp)
    return beta


def em_step(word_counts: Counter, log_p: dict) -> tuple[dict, float, dict]:
    """One EM iteration.

    Returns (new log-probabilities, corpus log-likelihood under the OLD
    probabilities, expected piece counts).  Expected counts come from
    forward-backward posteriors over each word's segmentation lattice.
    """
    max_len = max(len(p) for p in log_p)
    counts = {p: 0.0 for p in log_p}
    total_ll = 0.0
    for word, c in sorted(word_counts.items()):
        n = len(word)
        alpha = _forward_log(word, log_p, max_len)
        beta = _backward_log(word, log_p, max_len)
        z = alpha[n]
        if z == -np.inf:
            raise ValueError(f"word {word!r} is not segmentable with current pieces")
        total_ll += c * z
        for i in range(n):
            if alpha[i] == -np.inf:
                continue
            for l in range(1, min(max_len, n - i) + 1):
                piece = word[i : i + l]
                lp = log_p.get(piece)
                if lp is not None and beta[i + l] != -np.inf:
                    counts[piece] += c * math.exp(alpha[i] + lp + beta[i + l] - z)
    total = sum(counts.values())
    new_log_p = {}
    for p, cnt in counts.items():
        new_log_p[p] = math.log(cnt / total) if cnt > 0.0 else -np.inf
    return new_log_p, total_ll, counts


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _seed_pieces(word_counts: Counter, seed_max_len: int, cap: int):
    """Single characters plus frequent substrings up to seed_max_len."""
    singles = set()
    substr_freq = Counter()
    for word, c in word_counts.items():
        n = len(word)
        for i in range(n):
            singles.add(word[i])
            for l in range(2, min(seed_max_len, n - i) + 1):
                substr_freq[word[i : i + l]] += c
    multis = [s for s, f in substr_freq.items() if f >= 2]
    multis.sort(key=lambda s: (-substr_freq[s], s))
    return sorted(singles), multis[:cap], substr_freq


def _viterbi_log_prob(text: str, log_p: dict, max_len: int) -> float:
    """Best segmentation score of ``text`` under ``log_p`` (no unk)."""
    n = len(text)
    best = np.full(n + 1, -np.inf)
    best[0] = 0.0
    for j in range(1, n + 1):
        for l in range(1, min(max_len, j) + 1):
            lp = log_p.get(text[j - l : j])
            if lp is not None:
                best[j] = max(best[j], best[j - l] + lp)
    return best[n]


def _floor_and_clean(log_p: dict) -> dict:
    """Drop zero-probability multi-char pieces; keep starved single
    characters alive at the unk floor so the alphabet stays segmentable."""
    out = {}
    for p, lp in log_p.items():
        if math.isfinite(lp):
            out[p] = lp
        elif len(p) == 1:
            out[p] = LOG_P_UNK
    logs = np.array(list(out.values()))
    norm = float(np.logaddexp.reduce(logs))
    return {p: lp - norm for p, lp in out.items()}


def train_unigram(
    corpus,
    target_size: int = DEFAULT_TARGET_SIZE,
    seed_max_len: int = DEFAULT_SEED_MAX_LEN,
    prune_fraction: float = DEFAULT_PRUNE_FRACTION,
) -> SubwordVocab:
    """Learn a subword vocabulary of at most ``target_size`` pieces.

    Rounds alternate EM refinement with pruning of the ``prune_fraction``
    of multi-character pieces scoring lowest on likelihood impact: expected
    count times (own log-probability minus the best alternative segmentation
    of the same span).  Single characters are kept unconditionally.  If the
    corpus offers fewer than ``target_size`` distinct frequent substrings
    the result is smaller than requested.
    """
    if not 0.0 < prune_fraction < 1.0:
        raise ValueError("prune_fraction must be in (0, 1)")
    word_counts = Counter()
    for line in corpus:
        for word in mark_words(line):
            word_counts[word] += 1
    if not word_counts:
        raise ValueError("empty corpus")
    singles, multis, substr_freq = _seed_pieces(
        word_counts, seed_max_len, cap=20 * target_size
    )
    if target_size < len(singles):
        raise ValueError(
            f"target size {target_size} below alphabet size {len(singles)}"
        )
    char_freq = Counter()
    for word, c in word_counts.items():
        for ch in word:
            char_freq[ch] += c
    freq = {p: float(substr_freq[p]) for p in multis}
    freq.update({ch: float(char_freq[ch]) for ch in singles})
    total = sum(freq.values())
    log_p = {p: math.log(f / total) for p, f in freq.items()}

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
            others = dict(log_p)
            del others[p]
            alt = _viterbi_log_prob(p, others, max_len)
            impacts.append((counts.get(p, 0.0) * (log_p[p] - alt), p))
        impacts.sort(key=lambda t: (t[0], t[1]))
        for _, p in impacts[:n_drop]:
            del log_p[p]
        # renormalize the surviving mass
        logs = np.array(list(log_p.values()))
        norm = float(np.logaddexp.reduce(logs))
        log_p = {p: lp - norm for p, lp in log_p.items()}

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
