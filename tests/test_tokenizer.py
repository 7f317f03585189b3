"""Subword tokenizer tests: Viterbi oracle, EM behavior, training, file io."""

import hashlib
import inspect
import itertools
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import corrupt
from imsk import tokenizer as tok
from imsk.tokenizer import (
    BLANK_ID,
    LOG_P_UNK,
    MARKER,
    SOS_EOS_ID,
    UNK_GLYPH,
    UNK_ID,
    Segmentation,
    SubwordVocab,
    decode,
    em_step,
    encode,
    mark_words,
    segment,
    train_unigram,
)


def make_vocab(probs: dict) -> SubwordVocab:
    pieces = tuple(probs)
    return SubwordVocab(pieces=pieces, log_probs=tuple(math.log(probs[p]) for p in pieces))


def oracle_segmentations(text, vocab, max_len):
    """Every way to split text into vocab pieces or unknown single chars."""
    if not text:
        yield ()
        return
    for l in range(1, min(max_len, len(text)) + 1):
        piece = text[:l]
        if vocab.has_piece(piece) or l == 1:
            for rest in oracle_segmentations(text[l:], vocab, max_len):
                yield (piece,) + rest


def all_segmentations(word, log_p):
    """Every way to split word into pieces of log_p (no unknown pieces)."""
    if not word:
        yield ()
        return
    for l in range(1, len(word) + 1):
        if word[:l] in log_p:
            for rest in all_segmentations(word[l:], log_p):
                yield (word[:l],) + rest


def oracle_best(text, vocab):
    best = None
    for pieces in oracle_segmentations(text, vocab, vocab.max_piece_len):
        score = 0.0
        for p in pieces:
            score = score + vocab.log_prob(p)
        cand = (score, len(pieces), pieces)
        if (
            best is None
            or cand[0] > best[0]
            or (cand[0] == best[0] and cand[1] < best[1])
            or (cand[0] == best[0] and cand[1] == best[1] and cand[2] < best[2])
        ):
            best = cand
    return best


class TestSegment:
    def test_documented_two_piece_example(self):
        v = make_vocab({"a": 0.5, "b": 0.3, "ab": 0.2})
        s = segment("ab", v)
        assert s.pieces == ("ab",)
        assert np.isclose(s.log_prob, math.log(0.2))

    def test_single_character(self):
        v = make_vocab({"a": 0.5, "b": 0.5})
        assert segment("a", v).pieces == ("a",)

    def test_matches_enumeration_small_vocab(self):
        v = make_vocab({"a": 0.3, "b": 0.2, "ab": 0.2, "ba": 0.2, "aab": 0.1})
        for n in range(1, 8):
            for chars in itertools.product("ab", repeat=n):
                text = "".join(chars)
                got = segment(text, v)
                score, count, pieces = oracle_best(text, v)
                assert got.pieces == pieces, text
                assert got.log_prob == score, text

    def test_matches_enumeration_eight_piece_vocab(self):
        v = make_vocab(
            {
                "a": 0.25,
                "b": 0.2,
                "c": 0.05,
                "ab": 0.15,
                "bc": 0.1,
                "abc": 0.15,
                "cab": 0.05,
                "bb": 0.05,
            }
        )
        for n in range(1, 6):
            for chars in itertools.product("abc", repeat=n):
                text = "".join(chars)
                got = segment(text, v)
                score, count, pieces = oracle_best(text, v)
                assert got.pieces == pieces, text
                assert got.log_prob == score, text
        # a couple of length-10 strings including unknown characters
        for text in ["abcabcabca", "abxcabbbca", "cccccccccc"]:
            got = segment(text, v)
            score, _, pieces = oracle_best(text, v)
            assert got.pieces == pieces and got.log_prob == score

    def test_unknown_character_uses_unk_probability(self):
        v = make_vocab({"a": 1.0})
        s = segment("z", v)
        assert s.pieces == ("z",)
        assert s.log_prob == LOG_P_UNK

    def test_dominates_single_character_segmentation(self):
        v = make_vocab({"a": 0.3, "b": 0.2, "ab": 0.3, "ba": 0.2})
        rng = np.random.default_rng(5)
        for _ in range(30):
            text = "".join(rng.choice(list("ab"), size=rng.integers(1, 11)))
            singles_score = 0.0
            for ch in text:
                singles_score = singles_score + v.log_prob(ch)
            assert segment(text, v).log_prob >= singles_score

    def test_tie_prefers_fewer_pieces(self):
        # log p(aa) exactly equals log p(a) + log p(a)
        lp_a, lp_aa = -1.0, -2.0
        p_rest = 1.0 - math.exp(lp_a) - math.exp(lp_aa)
        v = SubwordVocab(
            pieces=("a", "aa", "z"),
            log_probs=(lp_a, lp_aa, math.log(p_rest)),
        )
        assert segment("aa", v).pieces == ("aa",)

    def test_tie_prefers_lexicographic_sequence(self):
        # [a, ba] and [ab, a] score identically; former is lex smaller
        lp = math.log(0.2)
        lp_single = math.log(0.25)
        rest = 1.0 - 2 * 0.2 - 2 * 0.25
        v = SubwordVocab(
            pieces=("ab", "ba", "a", "b", "q"),
            log_probs=(lp, lp, lp_single, lp_single, math.log(rest)),
        )
        assert segment("aba", v).pieces == ("a", "ba")

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            segment("", make_vocab({"a": 1.0}))

    def test_concatenation_invariant(self):
        v = make_vocab({"a": 0.4, "b": 0.3, "ab": 0.3})
        for text in ["ab", "ba", "aabba", "xyz"]:
            assert "".join(segment(text, v).pieces) == text


class TestEncodeDecode:
    def test_round_trip_abc(self):
        v = make_vocab({"a": 0.3, "b": 0.3, "c": 0.4})
        assert decode(encode("abc", v), v) == "abc"

    def test_round_trip_with_spaces(self):
        v = make_vocab({"a": 0.3, "b": 0.3, MARKER: 0.2, "ab": 0.2})
        assert decode(encode("ab ba", v), v) == "ab ba"

    def test_whitespace_normalized(self):
        v = make_vocab({"a": 0.5, MARKER: 0.5})
        assert decode(encode("  a   a ", v), v) == "a a"

    def test_decode_unk_glyph(self):
        v = make_vocab({"a": 1.0})
        assert decode([UNK_ID], v) == UNK_GLYPH

    def test_decode_skips_structural_ids(self):
        v = make_vocab({"a": 1.0})
        ids = [SOS_EOS_ID] + encode("a", v) + [BLANK_ID, SOS_EOS_ID]
        assert decode(ids, v) == "a"

    def test_encode_follows_segment_boundaries(self):
        v = make_vocab({"a": 0.5, "b": 0.3, "ab": 0.2})
        pieces = segment("ab", v).pieces
        assert encode("ab", v) == [v.piece_to_id(p) for p in pieces]

    def test_unknown_character_becomes_unk_id(self):
        v = make_vocab({"a": 1.0})
        assert encode("z", v) == [UNK_ID]

    def test_out_of_range_id(self):
        v = make_vocab({"a": 1.0})
        with pytest.raises(ValueError):
            decode([17], v)

    def test_mark_words(self):
        assert mark_words("ab cd e") == ["ab", MARKER + "cd", MARKER + "e"]
        assert mark_words("abab") == ["abab"]


class TestEm:
    def corpus_counts(self):
        counts = Counter()
        for line in ["abab abab", "aab ab", "abab", "bb aab"]:
            for w in mark_words(line):
                counts[w] += 1
        return counts

    def test_likelihood_monotone(self):
        counts = self.corpus_counts()
        pieces = sorted({ch for w in counts for ch in w}) + ["ab", "ba", "aab", MARKER + "ab"]
        log_p = {p: math.log(1.0 / len(pieces)) for p in pieces}
        lls = []
        for _ in range(15):
            log_p, ll, _ = em_step(counts, log_p)
            lls.append(ll)
        for prev, cur in zip(lls, lls[1:]):
            assert cur >= prev - 1e-9 * abs(prev)

    def test_probabilities_sum_to_one_each_step(self):
        counts = self.corpus_counts()
        pieces = sorted({ch for w in counts for ch in w}) + ["ab", "ba"]
        log_p = {p: math.log(1.0 / len(pieces)) for p in pieces}
        for _ in range(5):
            log_p, _, _ = em_step(counts, log_p)
            total = sum(math.exp(lp) for lp in log_p.values() if lp != -np.inf)
            assert abs(total - 1.0) < 1e-9

    def test_expected_counts_match_two_path_hand_case(self):
        # word "ab": paths [a,b] and [ab]; posteriors are the path weights
        counts = Counter({"ab": 1})
        log_p = {"a": math.log(0.5), "b": math.log(0.3), "ab": math.log(0.2)}
        _, ll, exp_counts = em_step(counts, log_p)
        z = 0.5 * 0.3 + 0.2
        assert np.isclose(ll, math.log(z))
        assert np.isclose(exp_counts["a"], 0.15 / z)
        assert np.isclose(exp_counts["b"], 0.15 / z)
        assert np.isclose(exp_counts["ab"], 0.2 / z)

    def test_matches_exhaustive_enumeration(self):
        # every word of 1 to 6 characters over {a, b, c}: the likelihood sums
        # the probability of every segmentation, and a piece's expected count
        # adds its occurrences in each segmentation weighted by its posterior
        probs = {"a": 0.2, "b": 0.15, "c": 0.1, "ab": 0.15, "bc": 0.1,
                 "ca": 0.05, "bb": 0.05, "abc": 0.1, "cab": 0.05, "abca": 0.05}
        log_p = {p: math.log(q) for p, q in probs.items()}
        words = ["".join(t) for n in range(1, 7) for t in itertools.product("abc", repeat=n)]
        word_counts = Counter({w: 1 + i % 3 for i, w in enumerate(words)})
        new_log_p, ll, counts = em_step(word_counts, log_p)
        want_ll, want = 0.0, dict.fromkeys(log_p, 0.0)
        for word, c in word_counts.items():
            paths = list(all_segmentations(word, log_p))
            weights = [math.prod(probs[p] for p in path) for path in paths]
            z = math.fsum(weights)
            want_ll += c * math.log(z)
            for path, w in zip(paths, weights):
                for p in path:
                    want[p] += c * w / z
        assert ll == pytest.approx(want_ll, rel=1e-12)
        for p in log_p:
            assert counts[p] == pytest.approx(want[p], rel=1e-12), p
            assert math.exp(new_log_p[p]) == pytest.approx(want[p] / sum(want.values()), rel=1e-12), p

    def test_underflowing_count_share_is_probability_zero(self):
        # "ab"'s expected count is positive but divided by the total it
        # underflows to 0.0, whose log once raised a math domain error
        log_p = {"a": math.log(0.5), "b": math.log(0.5), "ab": -740.0}
        new_log_p, _, counts = em_step(Counter({"ab": 1, "a": 1000}), log_p)
        assert counts["ab"] > 0.0
        assert new_log_p["ab"] == -np.inf
        assert math.exp(new_log_p["a"]) + math.exp(new_log_p["b"]) == pytest.approx(1.0, rel=1e-12)
        # training drops such a piece like any other starved one
        assert train_unigram(PINNED_CORPUS, target_size=20).size == 20 + 3


class TestTraining:
    def test_degenerate_single_character_corpus(self):
        v = train_unigram(["aaaaaaaa"], target_size=1)
        assert v.pieces == ("a",)
        assert np.isclose(math.exp(v.log_probs[0]), 1.0)

    def test_degenerate_corpus_with_space(self):
        v = train_unigram(["aaaa aaaa"], target_size=2)
        assert set(v.pieces) == {"a", MARKER}
        probs = {p: math.exp(lp) for p, lp in zip(v.pieces, v.log_probs)}
        # "aaaa" and marked "aaaa" together: eight a's, one marker
        assert np.isclose(probs["a"], 8.0 / 9.0)
        assert np.isclose(probs[MARKER], 1.0 / 9.0)

    def test_abab_corpus_contains_ab_and_matches_likelihood_oracle(self):
        corpus = ["abab"] * 50
        v = train_unigram(corpus, target_size=3, seed_max_len=2)
        assert v.size == 3 + 3
        assert "ab" in v.pieces

        # oracle: EM-converge every 3-piece vocabulary {a, b, multi} built
        # from the length-2 substrings and compare corpus likelihoods
        counts = Counter({"abab": 50})
        results = {}
        for extra in ["ab", "ba"]:
            log_p = {p: math.log(1.0 / 3.0) for p in ["a", "b", extra]}
            for _ in range(30):
                log_p, _, _ = em_step(counts, log_p)
            results[extra] = em_step(counts, log_p)[1]  # the likelihood under log_p
        assert max(results, key=results.get) == "ab"

    def test_default_target_size_is_100(self):
        assert tok.DEFAULT_TARGET_SIZE == 100
        sig = inspect.signature(train_unigram)
        assert sig.parameters["target_size"].default == 100

    def test_target_below_alphabet_rejected(self):
        with pytest.raises(ValueError):
            train_unigram(["abc"], target_size=2)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_unigram(["", "   "], target_size=5)

    def test_prune_fraction_validated(self):
        with pytest.raises(ValueError):
            train_unigram(["ab"], target_size=2, prune_fraction=1.0)

    def test_trained_vocab_properties(self):
        corpus = ["the cat sat on the mat", "the cat ran", "a cat sat"] * 5
        v = train_unigram(corpus, target_size=20)
        assert v.size <= 20 + 3
        singles = {ch for line in corpus for w in mark_words(line) for ch in w}
        assert singles <= set(v.pieces)
        total = sum(math.exp(lp) for lp in v.log_probs)
        assert abs(total - 1.0) < 1e-9
        # anything over the training alphabet segments without unk
        s = segment("tacocat", v)
        assert all(v.has_piece(p) for p in s.pieces)
        assert math.isfinite(s.log_prob)

    def test_multi_character_pieces_learned_on_repetitive_corpus(self):
        corpus = ["hello world"] * 30
        v = train_unigram(corpus, target_size=14)
        assert any(len(p) > 1 for p in v.pieces)


# 120 lines of syllable words; training at 30 or 60 pieces runs more than
# 10 prune rounds, and at 20 an expected-count share underflows
_SYLLABLES = ["da", "re", "mi", "fa", "so", "la", "ti", "ka"]
_WORDS = ["".join(t) for t in itertools.product(_SYLLABLES, repeat=2)] + [
    "".join(t) for t in itertools.product(_SYLLABLES[:4], repeat=3)
]
PINNED_CORPUS = [
    " ".join(_WORDS[(7 * i + k * k) % len(_WORDS)] for k in range(1 + i % 6)) for i in range(120)
]


@pytest.mark.parametrize("target_size, digest", [
    (30, "5fe9bf91c7bb363b1a75d15570c49bbba247dd9a5f73dc2147a13be46921f8fa"),
    (60, "b90446eec3c1163fd836f7a84ddf4541394f784e154ca5be913e5f18c3ab8c15"),
])
def test_training_writes_pinned_vocabulary_bytes(monkeypatch, target_size, digest):
    # the sha256 of the save_vocab bytes guards every bit of seeding, EM and pruning
    em_calls = []
    monkeypatch.setattr(tok, "em_step", lambda *a: em_calls.append(1) or em_step(*a))
    v = train_unigram(PINNED_CORPUS, target_size=target_size)
    assert len(em_calls) // tok.EM_ITERS_PER_ROUND - 1 >= 3  # prune rounds
    assert tok.vocab_fingerprint(v) == digest


_CORRUPTIBLE = train_unigram(["abab abba"] * 10, target_size=8)


class TestVocabFile:
    def test_round_trip_exact(self, tmp_path):
        v = train_unigram(["abab abba"] * 10, target_size=8)
        path = tmp_path / "vocab.tsv"
        tok.save_vocab(path, v)
        back = tok.load_vocab(path)
        assert back.pieces == v.pieces
        assert back.log_probs == v.log_probs

    def test_specials_written_first(self, tmp_path):
        v = make_vocab({"a": 1.0})
        path = tmp_path / "vocab.tsv"
        tok.save_vocab(path, v)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].split("\t")[0] == UNK_GLYPH
        assert lines[1].split("\t")[0] == tok.SOS_EOS_GLYPH
        assert lines[2].split("\t")[0] == tok.BLANK_GLYPH
        assert lines[3].split("\t")[0] == "a"

    def test_bad_specials_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("a\t0\nb\t0\nc\t0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            tok.load_vocab(path)

    def test_nan_log_probability_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        tok.save_vocab(path, make_vocab({"a": 1.0}))
        path.write_text(path.read_text(encoding="utf-8") + "b\tnan\n", encoding="utf-8")
        with pytest.raises(ValueError, match="sum to nan"):
            tok.load_vocab(path)
        with pytest.raises(ValueError):
            SubwordVocab(pieces=("a", "b"), log_probs=(0.0, math.nan))

    @pytest.mark.parametrize("row", ["b", "b\t0\t0", "b\tzero"])
    def test_row_errors_name_path_and_line(self, tmp_path, row):
        path = tmp_path / "vocab.tsv"
        tok.save_vocab(path, make_vocab({"a": 1.0}))
        # the blank line still counts toward the reported line number
        path.write_text(path.read_text(encoding="utf-8") + f"\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:6: expected 'piece TAB"):
            tok.load_vocab(path)

    @pytest.mark.parametrize("tail", [b"b\t0\n", b"\xff\xfe\n"])
    def test_content_errors_name_the_path(self, tmp_path, tail):
        # probabilities that no longer sum to 1, and bytes that are not UTF-8
        path = tmp_path / "vocab.tsv"
        tok.save_vocab(path, make_vocab({"a": 1.0}))
        path.write_bytes(path.read_bytes() + tail)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            tok.load_vocab(path)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corruptions_raise_only_value_error(self, tmp_path, data):
        path = tmp_path / "vocab.tsv"
        tok.save_vocab(path, _CORRUPTIBLE)
        path.write_bytes(corrupt(data, path.read_bytes()))
        try:
            tok.load_vocab(path)
        except ValueError:
            pass

    def test_fingerprint_distinguishes_vocabs(self):
        v1 = make_vocab({"a": 0.5, "b": 0.5})
        v2 = make_vocab({"a": 0.4, "b": 0.6})
        assert tok.vocab_fingerprint(v1) != tok.vocab_fingerprint(v2)
        assert tok.vocab_fingerprint(v1) == tok.vocab_fingerprint(v1)

    def test_fingerprint_is_the_hash_of_the_saved_file(self, tmp_path):
        # the artifacts record the fingerprint of a vocabulary file, so it
        # must be the sha256 of the bytes save_vocab writes, non-ASCII
        # pieces included; the benchmark fixture's vocabulary is one such file
        v = train_unigram(["\u00e9t\u00e9 d\u00e9j\u00e0 \u00e9t\u00e9"] * 10, target_size=10)
        path = tmp_path / "vocab.tsv"
        tok.save_vocab(path, v)
        assert tok.vocab_fingerprint(v) == hashlib.sha256(path.read_bytes()).hexdigest()
        fixture = Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "vocab.tsv"
        assert tok.vocab_fingerprint(tok.load_vocab(fixture)) == hashlib.sha256(fixture.read_bytes()).hexdigest()


class TestVocabType:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            SubwordVocab(pieces=("a", "b"), log_probs=(math.log(0.5), math.log(0.4)))

    def test_duplicate_piece_rejected(self):
        with pytest.raises(ValueError):
            SubwordVocab(pieces=("a", "a"), log_probs=(math.log(0.5), math.log(0.5)))

    def test_id_mapping(self):
        v = make_vocab({"a": 0.6, "b": 0.4})
        assert v.piece_to_id("a") == 3
        assert v.id_to_piece(3) == "a"
        assert v.piece_to_id("zz") == UNK_ID
        assert v.size == 5
