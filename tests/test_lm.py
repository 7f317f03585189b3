"""Subword LM: stepping, perplexity, training, persistence."""

import math

import numpy as np
import pytest

from helpers import record_requires_grad
import imsk.lm as lm_mod
from imsk.lm import (
    LM_ENGLISH,
    LM_GERMAN,
    LmConfig,
    LstmLm,
    perplexity,
    sequence_log_prob,
    train_lm,
)
from imsk.nn import tensor as tt
from imsk.nn.layers import Module
from imsk.nn.optim import DivergedError
from imsk.tokenizer import SOS_EOS_ID

A, B_TOK = 3, 4  # ids after the three specials


def tiny_lm(vocab=7, layers=1, units=8, seed=0, dtype=np.float32):
    return LstmLm(vocab, layers, units, np.random.default_rng(seed), dtype)


class TestConfigs:
    def test_defaults(self):
        cfg = LmConfig()
        assert (cfg.layers, cfg.units) == (2, 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            LmConfig(layers=0)
        with pytest.raises(ValueError):
            LmConfig(units=0)
        with pytest.raises(ValueError):
            LmConfig(optimizer="rmsprop")
        with pytest.raises(ValueError):
            LmConfig(batch=0)
        with pytest.raises(ValueError):
            LmConfig(epochs=0)

    def test_language_presets(self):
        assert (LM_ENGLISH.layers, LM_ENGLISH.units, LM_ENGLISH.optimizer) == (2, 650, "sgd")
        assert (LM_GERMAN.layers, LM_GERMAN.units, LM_GERMAN.optimizer) == (2, 3000, "adam")


class TestLmStep:
    def test_normalized_at_every_step(self):
        lm = tiny_lm()
        state = lm.initial_state(1)
        rng = np.random.default_rng(5)
        for _ in range(10):
            tok = np.array([rng.integers(0, 7)])
            logp, state = lm.lm_step(state, tok)
            assert abs(np.exp(logp.data).sum() - 1.0) < 1e-6

    def test_normalized_for_random_state(self):
        lm = tiny_lm()
        rng = np.random.default_rng(9)
        state = [
            (tt.Tensor(rng.normal(size=(2, 8)).astype(np.float32)),
             tt.Tensor(rng.normal(size=(2, 8)).astype(np.float32)))
        ]
        logp, _ = lm.lm_step(state, np.array([2, 6]))
        assert np.allclose(np.exp(logp.data).sum(axis=1), 1.0, atol=1e-6)

    def test_deterministic(self):
        lm = tiny_lm()
        state = lm.initial_state(1)
        a1, s1 = lm.lm_step(state, np.array([3]))
        a2, s2 = lm.lm_step(state, np.array([3]))
        assert np.array_equal(a1.data, a2.data)
        assert np.array_equal(s1[0][0].data, s2[0][0].data)

    def test_one_row_and_batch_agree(self):
        lm = tiny_lm()
        single, _ = lm.lm_step(lm.initial_state(1), np.array([4]))
        assert single.shape == (1, 7)
        batch, _ = lm.lm_step(lm.initial_state(2), np.array([4, 5]))
        assert batch.shape == (2, 7)
        assert np.allclose(batch.data[0], single.data[0], atol=1e-6)

    def test_out_of_range_token(self):
        lm = tiny_lm()
        with pytest.raises(ValueError):
            lm.lm_step(lm.initial_state(1), np.array([7]))
        with pytest.raises(ValueError):
            lm.lm_step(lm.initial_state(1), np.array([-1]))

    def test_sequence_score_is_sum_of_steps(self):
        lm = tiny_lm()
        ids = [3, 5, 4]
        state = lm.initial_state(1)
        total = 0.0
        prev = SOS_EOS_ID
        for t in ids + [SOS_EOS_ID]:
            logp, state = lm.lm_step(state, np.array([prev]))
            total += float(logp.data[0, t])
            prev = t
        assert sequence_log_prob(lm, ids) == pytest.approx(total, abs=1e-12)
        no_eos = sequence_log_prob(lm, ids, include_eos=False)
        assert no_eos > sequence_log_prob(lm, ids)


class _TableLm(Module):
    """Scores depend only on the input token, via a fixed row table; a
    Module with no parameters, so `perplexity` can take a constant copy."""

    dtype = np.float64

    def __init__(self, rows: dict, vocab: int):
        self.rows = rows
        self.vocab = vocab

    def initial_state(self, batch: int = 1):
        return None

    def lm_step(self, state, token):
        ids = np.atleast_1d(np.asarray(token))
        out = np.stack([self.rows[int(t)] for t in ids])
        return tt.Tensor(out), state


class TestPerplexity:
    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            perplexity([], tiny_lm())

    def test_uniform_model_gives_vocab_size(self):
        lm = tiny_lm(vocab=7, dtype=np.float64)
        lm.out.w.data[:] = 0.0
        lm.out.b.data[:] = 0.0
        pp = perplexity([[3, 4, 5], [6]], lm)
        assert pp == pytest.approx(7.0, abs=1e-9)

    def test_builds_no_graph(self, monkeypatch):
        lm = tiny_lm(vocab=7)
        corpus = [[3, 4, 5, 6], [4, 4]]
        expected = perplexity(corpus, lm)
        made = record_requires_grad(monkeypatch)
        assert perplexity(corpus, lm) == expected
        assert made and not any(made)

    def test_untrained_model_is_roughly_uniform(self):
        lm = tiny_lm(vocab=7)
        pp = perplexity([[3, 4, 5, 6], [4, 4]], lm)
        assert abs(pp - 7.0) / 7.0 < 0.15

    def test_one_hot_perfect_model(self):
        V = 5
        hot = {}
        for src, dst in ((SOS_EOS_ID, A), (A, B_TOK), (B_TOK, SOS_EOS_ID)):
            row = np.full(V, -1e30)
            row[dst] = 0.0
            hot[src] = row
        assert perplexity([[A, B_TOK]], _TableLm(hot, V)) == 1.0

    def test_hand_computed_three_token_corpus(self):
        # p(a|sos)=1/2, p(b|a)=1/4, p(eos|b)=1/8; mean nll = 2 ln 2
        V = 5
        rows = {}
        for src, dst, p in ((SOS_EOS_ID, A, 0.5), (A, B_TOK, 0.25), (B_TOK, SOS_EOS_ID, 0.125)):
            probs = np.full(V, (1.0 - p) / (V - 1))
            probs[dst] = p
            rows[src] = np.log(probs)
        pp = perplexity([[A, B_TOK]], _TableLm(rows, V))
        assert pp == pytest.approx(4.0, abs=1e-9)
        assert pp == pytest.approx(math.exp(2.0 * math.log(2.0)), abs=1e-9)


class TestTrainLm:
    def test_perplexity_non_increasing_early(self):
        corpus = [[A, B_TOK, A, B_TOK], [A, B_TOK], [B_TOK, A]] * 2
        r = train_lm(corpus, 6, LmConfig(layers=1, units=8, epochs=3, batch=3), seed=0)
        assert len(r.perplexities) == 3
        assert r.perplexities[0] >= r.perplexities[1] >= r.perplexities[2]

    def test_single_sentence_overfit(self):
        r = train_lm(
            [[A, B_TOK]], 5,
            LmConfig(layers=1, units=16, optimizer="sgd", batch=1, epochs=300),
            seed=0,
        )
        logp, _ = r.model.lm_step(r.model.initial_state(1), np.array([SOS_EOS_ID]))
        assert float(np.exp(logp.data[0, A])) > 0.95
        assert r.perplexities[-1] < 1.1

    def test_adam_also_learns(self):
        r = train_lm(
            [[A, B_TOK]], 5,
            LmConfig(layers=1, units=16, optimizer="adam", batch=1, epochs=60),
            seed=0,
        )
        assert r.perplexities[-1] < r.perplexities[0]

    def test_rejects_bad_corpus(self):
        with pytest.raises(ValueError):
            train_lm([], 5)
        with pytest.raises(ValueError):
            train_lm([[3, 9]], 5, LmConfig(layers=1, units=4, epochs=1))

    def test_divergence_names_epoch_and_batch(self, monkeypatch):
        def nan_for_the_long_line(model, lines):
            nll, n = batch_nll(model, lines)
            if lines == [[A, B_TOK]]:
                nll = tt.mul(nll, tt.Tensor(np.asarray(np.nan, dtype=model.dtype)))
            return nll, n

        batch_nll = lm_mod._batch_nll
        monkeypatch.setattr(lm_mod, "_batch_nll", nan_for_the_long_line)
        # batches sort by length, so the long line is batch 1
        with pytest.raises(DivergedError, match="at epoch 1, batch 1$"):
            train_lm([[A, B_TOK], [A]], 5, LmConfig(layers=1, units=4, epochs=1, batch=1), seed=0)
