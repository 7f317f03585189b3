"""Edit-distance alignment, corpus WER pooling, real-time factor."""

import itertools

import numpy as np
import pytest

from imsk.scoring import AlignmentResult, align, corpus_score, rt_factor
from imsk.util import make_rng


def _lev(a, b):
    """Independent single-row Levenshtein distance."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


# -- align ---------------------------------------------------------------------


def test_align_identical_zero_edits():
    a = align("the quick fox", "the quick fox")
    assert (a.substitutions, a.insertions, a.deletions) == (0, 0, 0)
    assert a.correct == a.ref_words == 3
    assert all(op == "cor" for op, _, _ in a.ops)


def test_align_single_substitution():
    a = align("a b c", "a x c")
    assert (a.substitutions, a.insertions, a.deletions, a.correct) == (1, 0, 0, 2)
    assert [op for op, _, _ in a.ops] == ["cor", "sub", "cor"]


def test_align_empty_sides():
    assert align("a b c", "").deletions == 3
    assert align("", "x y").insertions == 2
    both = align("", "")
    assert both.ref_words == 0 and both.ops == ()


def test_align_tie_prefers_substitution():
    # del+cor+ins also costs 2; the backtrace must pick the double substitution
    a = align("a x", "x a")
    assert a.substitutions == 2 and a.correct == 0
    assert a.insertions == a.deletions == 0


def test_align_accepts_word_sequences():
    assert align(["a", "b"], ("a", "b")).edits == 0
    assert align("a\t b\n c", "a b c").edits == 0


def test_align_ops_reconstruct_inputs():
    rng = make_rng(5)
    vocab = ["a", "b", "c", "d"]
    for _ in range(50):
        ref = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(0, 7))]
        hyp = [vocab[i] for i in rng.integers(0, 4, size=rng.integers(0, 7))]
        a = align(ref, hyp)
        assert a.substitutions + a.deletions + a.correct == len(ref)
        assert [w for op, w, _ in a.ops if op != "ins"] == ref
        assert [w for op, _, w in a.ops if op != "del"] == hyp


def test_align_matches_levenshtein_exhaustively():
    seqs = [
        list(s)
        for n in range(6)
        for s in itertools.product("ab", repeat=n)
    ]
    for ref, hyp in itertools.product(seqs, seqs):
        assert align(ref, hyp).edits == _lev(ref, hyp)


def test_alignment_result_validates_counts():
    with pytest.raises(ValueError, match=">= 0"):
        AlignmentResult(-1, 0, 0, 1, 0, ())
    with pytest.raises(ValueError, match="equal the reference"):
        AlignmentResult(1, 0, 0, 1, 3, ())


# -- wer -----------------------------------------------------------------------


def test_wer_single_utterance():
    w = corpus_score([("a b c", "a x c")]).wer
    assert abs(w - 100.0 / 3.0) < 1e-9
    assert round(w, 2) == 33.33


def test_wer_pools_over_corpus():
    w = corpus_score([("a b c", "a b c"), ("d e f", "d e x")]).wer
    assert abs(w - 100.0 / 6.0) < 1e-9
    assert round(w, 2) == 16.67


def test_wer_pools_counts_not_rates():
    # 1 edit over 6 pooled words = 16.67%; the mean of per-utterance rates is 10%
    pairs = [("a", "a"), ("b c d e f", "b c d e x")]
    assert abs(corpus_score(pairs).wer - 100.0 / 6.0) < 1e-9


def test_wer_can_exceed_100():
    assert corpus_score([("a", "a b c d")]).wer == 300.0


def test_wer_order_invariant_and_zero_on_match():
    rng = make_rng(8)
    pairs = []
    for _ in range(10):
        n = int(rng.integers(1, 6))
        words = [str(i) for i in rng.integers(0, 9, size=n)]
        pairs.append((" ".join(words), " ".join(words[: max(1, n - 1)])))
    shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
    assert corpus_score(pairs).wer == corpus_score(shuffled).wer
    assert corpus_score([(r, r) for r, _ in pairs]).wer == 0.0


def test_wer_rejects_empty_reference_corpus():
    with pytest.raises(ValueError, match="no reference words"):
        corpus_score([("", "x y")]).wer


def test_corpus_score_counts():
    cs = corpus_score([("a b c", "a x c"), ("d e", "d"), ("f", "f g")])
    assert (cs.substitutions, cs.insertions, cs.deletions) == (1, 1, 1)
    assert cs.correct == 4 and cs.ref_words == 6
    assert cs.edits == 3


# -- rt_factor -----------------------------------------------------------------


def test_rt_factor_values():
    assert rt_factor(7.0, 10.0) == 0.7
    assert rt_factor(4.2, 4.2) == 1.0
    assert rt_factor(0.0, 3.0) == 0.0


def test_rt_factor_errors():
    with pytest.raises(ValueError, match="audio duration"):
        rt_factor(1.0, 0.0)
    with pytest.raises(ValueError, match="processing time"):
        rt_factor(-0.5, 2.0)
