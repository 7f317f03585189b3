"""Beam search: contracts, batching equality, score bookkeeping."""

import os
import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import decode_one, extend_one, run_at_blas_threads
from imsk import beam
from imsk.asr import AsrModel, AttentionConfig, DecoderConfig, EncoderConfig
from imsk.beam import (
    DecodeConfig,
    Hypothesis,
    decode_batch,
    decode_nbest,
    rescore,
)
from imsk.ctc import ctc_prefix_initial
from imsk.lm import LstmLm
from imsk.nn import tensor as tt
from imsk.nn.layers import frozen
from imsk.tokenizer import BLANK_ID, SOS_EOS_ID

VOCAB = 9


def tiny_model(seed=7, att=AttentionConfig(attn_dim=5, conv_channels=2, conv_filters=3)):
    enc = EncoderConfig(input_dim=8, vgg_channels=(2, 3), blstm_layers=1, blstm_units=4)
    dec = DecoderConfig(layers=1, units=6, embed_dim=4)
    return AsrModel(VOCAB, enc, att, dec, np.random.default_rng(seed))


def tiny_lm(seed=3):
    return LstmLm(VOCAB, 1, 8, np.random.default_rng(seed))


def feats(n, seed=0, lo=8, hi=20):
    rng = np.random.default_rng(seed)
    return [rng.normal(0, 0.5, (int(rng.integers(lo, hi)), 8)) for _ in range(n)]


def greedy_attention(m, f):
    """Argmax attention-only decoding, written directly on the model."""
    h = m.encode(f)
    T = h.shape[0]
    hb = tt.reshape(h, (1, T, h.shape[1]))
    vh = m.precompute_attention(hb)
    a = tt.Tensor(np.full((1, T), 1.0 / T, dtype=np.float32))
    state = m.initial_decoder_state(1)
    y = SOS_EOS_ID
    out = []
    for _ in range(T):
        a, r = m.attend(a, m.decoder_query(state), hb, vh)
        logp, state = m.decode_step(r, state, np.array([y]))
        row = logp.data[0].copy()
        row[BLANK_ID] = -np.inf
        y = int(np.argmax(row))
        if y == SOS_EOS_ID:
            break
        out.append(y)
    return tuple(out)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DecodeConfig(beam=0)
        with pytest.raises(ValueError):
            DecodeConfig(ctc_weight=1.5)
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lm_weight must be finite and >= 0"):
                DecodeConfig(lm_weight=bad)
        with pytest.raises(ValueError):
            DecodeConfig(max_ratio=0.0)
        with pytest.raises(ValueError):
            DecodeConfig(max_ratio=1.2)

    def test_defaults(self):
        cfg = DecodeConfig()
        assert (cfg.beam, cfg.ctc_weight, cfg.lm_weight, cfg.max_ratio) == (20, 0.5, 0.5, 1.0)


class TestErrors:
    def test_empty_features(self):
        m = tiny_model()
        with pytest.raises(ValueError, match="empty"):
            decode_one(np.zeros((0, 8)), m)

    def test_vocab_hash_mismatch(self):
        m, lm = tiny_model(), tiny_lm()
        m.vocab_hash, lm.vocab_hash = "aaa", "bbb"
        with pytest.raises(ValueError, match="mismatch"):
            decode_one(feats(1)[0], m, lm)

    def test_vocab_size_mismatch(self):
        m = tiny_model()
        lm = LstmLm(VOCAB + 1, 1, 8, np.random.default_rng(0))
        with pytest.raises(ValueError, match="mismatch"):
            decode_one(feats(1)[0], m, lm)

    def test_lm_without_hash_decodes_when_sizes_agree(self):
        m, lm = tiny_model(), tiny_lm()
        m.vocab_hash = "aaa"
        assert np.isfinite(decode_one(feats(1)[0], m, lm).score)

    def test_lm_size_mismatch_names_both(self):
        lm = LstmLm(VOCAB + 1, 1, 8, np.random.default_rng(0))
        message = f"^lm vocabulary size {VOCAB + 1} mismatches asr model size {VOCAB}$"
        with pytest.raises(ValueError, match=message):
            decode_nbest(feats(1), tiny_model(), lm)

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            decode_batch(feats(1), tiny_model(), batch_size=0)


class TestDegenerate:
    def test_beam1_attention_only_equals_greedy(self):
        m = tiny_model()
        cfg = DecodeConfig(beam=1, ctc_weight=0.0, lm_weight=0.0)
        for f in feats(4, seed=2):
            assert decode_one(f, m, cfg=cfg).output_ids == greedy_attention(m, f)

    def test_zero_lm_weight_equals_no_lm(self):
        m, lm = tiny_model(), tiny_lm()
        cfg = DecodeConfig(beam=3, ctc_weight=0.5, lm_weight=0.0)
        for f in feats(3, seed=4):
            with_lm = decode_one(f, m, lm, cfg)
            without = decode_one(f, m, None, cfg)
            assert with_lm.tokens == without.tokens
            assert with_lm.score == without.score
            assert with_lm.score_lm == 0.0

    def test_pure_ctc_weight_runs(self):
        m = tiny_model()
        h = decode_one(feats(1)[0], m, cfg=DecodeConfig(beam=2, ctc_weight=1.0, lm_weight=0.0))
        assert np.isfinite(h.score)


class TestSearchProperties:
    def test_deterministic(self):
        m, lm = tiny_model(), tiny_lm()
        f = feats(1, seed=9)[0]
        cfg = DecodeConfig(beam=4, lm_weight=0.3)
        h1, h2 = decode_one(f, m, lm, cfg), decode_one(f, m, lm, cfg)
        assert h1.tokens == h2.tokens and h1.score == h2.score

    def test_beam_monotone_scores(self):
        m = tiny_model()
        f = feats(1, seed=11)[0]
        scores = [
            decode_one(f, m, cfg=DecodeConfig(beam=b, lm_weight=0.0)).score
            for b in (1, 2, 5, 10, 20)
        ]
        for lo, hi in zip(scores, scores[1:]):
            assert hi >= lo - 1e-12

    def test_length_cap(self):
        m = tiny_model()
        f = feats(1, seed=5, lo=16, hi=17)[0]
        t_out = 4  # ceil(ceil(16/2)/2)
        full = decode_one(f, m, cfg=DecodeConfig(beam=2, lm_weight=0.0))
        assert len(full.output_ids) <= t_out
        capped = decode_one(f, m, cfg=DecodeConfig(beam=2, lm_weight=0.0, max_ratio=0.5))
        assert len(capped.output_ids) <= 2
        empty = decode_one(f, m, cfg=DecodeConfig(beam=2, lm_weight=0.0, max_ratio=0.05))
        assert np.isfinite(capped.score) and empty.output_ids == ()

    def test_combined_score_invariant(self):
        m, lm = tiny_model(), tiny_lm()
        cfg = DecodeConfig(beam=3, ctc_weight=0.3, lm_weight=0.7)
        for f in feats(3, seed=6):
            h = decode_one(f, m, lm, cfg)
            combo = 0.3 * h.score_ctc + 0.7 * h.score_att + 0.7 * h.score_lm
            assert abs(h.score - combo) < 1e-9

    def test_components_match_replay(self):
        m, lm = tiny_model(), tiny_lm()
        cfg = DecodeConfig(beam=3, ctc_weight=0.4, lm_weight=0.6)
        f = feats(1, seed=8)[0]
        h = decode_one(f, m, lm, cfg)
        att, ctc, lms = rescore(f, m, h.output_ids, lm)
        assert h.score_att == pytest.approx(att, abs=1e-9)
        assert h.score_ctc == pytest.approx(ctc, abs=1e-9)
        assert h.score_lm == pytest.approx(lms, abs=1e-9)

    def test_output_ids_drop_sos(self):
        h = Hypothesis(tokens=(SOS_EOS_ID, 4, 5), score=0.0, score_att=0.0,
                       score_ctc=0.0, score_lm=0.0)
        assert h.output_ids == (4, 5)


class TestBatched:
    def test_token_identity_across_batch_sizes(self):
        m, lm = tiny_model(), tiny_lm()
        cfg = DecodeConfig(beam=3, ctc_weight=0.5, lm_weight=0.3)
        fs = feats(6, seed=0)
        seq = [decode_one(f, m, lm, cfg) for f in fs]
        for bs in (1, 2, 4, 6):
            got = decode_batch(fs, m, lm, cfg, batch_size=bs)
            assert [h.tokens for h in got] == [h.tokens for h in seq]
            assert [h.score for h in got] == [h.score for h in seq]

    def test_order_matches_inputs(self):
        m = tiny_model()
        cfg = DecodeConfig(beam=2, lm_weight=0.0)
        fs = feats(4, seed=13)
        got = decode_batch(fs, m, cfg=cfg, batch_size=4)
        for f, h in zip(fs, got):
            assert decode_one(f, m, cfg=cfg).tokens == h.tokens

    @settings(max_examples=12, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=8),
        batch_size=st.integers(1, 8),
        max_ratio=st.sampled_from([1.0, 0.5, 0.05]),
        seed=st.integers(0, 2**16),
    )
    @example(lengths=[1, 40, 4, 16, 9], batch_size=3, max_ratio=1.0, seed=0)
    @example(lengths=[2, 13, 7], batch_size=2, max_ratio=0.05, seed=1)
    def test_batches_equal_sequential_for_random_length_mixes(
        self, lengths, batch_size, max_ratio, seed
    ):
        # inputs of 1-16 frames give 1-4 encoder frames; max_ratio 0.05
        # caps utterances under 20 encoder frames at 0 output tokens
        m, lm = tiny_model(), tiny_lm()
        rng = np.random.default_rng(seed)
        fs = [rng.normal(0, 0.5, (n, 8)) for n in lengths]
        cfg = DecodeConfig(beam=3, ctc_weight=0.5, lm_weight=0.3, max_ratio=max_ratio)
        seq = [decode_one(f, m, lm, cfg) for f in fs]
        got = decode_batch(fs, m, lm, cfg, batch_size=batch_size)
        assert [_fields(h) for h in got] == [_fields(h) for h in seq]

    def test_desk_scale_batches_equal_sequential(self):
        # At the desk encoder's size (80-dim input, VGG (8, 16)) a padded
        # batch changes the bits of short utterances' conv products, which
        # the tiny model's never do: this catches padded VGG blocks.
        m, lm = AsrModel(VOCAB, rng=np.random.default_rng(5)), tiny_lm()
        rng = np.random.default_rng(8)
        fs = [rng.normal(0, 1, (n, 80)) for n in (3, 12, 20, 90)]
        cfg = DecodeConfig(beam=4, ctc_weight=0.5, lm_weight=0.3)
        for n in (1, 3):
            seq = [decode_nbest([f], m, lm, cfg, n)[0] for f in fs]
            got = decode_nbest(fs, m, lm, cfg, n, batch_size=4)
            assert [list(map(_fields, hs)) for hs in got] == [list(map(_fields, hs)) for hs in seq]

    def test_blocked_weights_batches_equal_sequential(self):
        # A 256-unit decoder and a 2x256 LM, whose cells' float64 weights
        # are 2-4 MB each, with 1024 output columns.
        enc = EncoderConfig(input_dim=8, vgg_channels=(2, 3), blstm_layers=1, blstm_units=4)
        m = AsrModel(VOCAB, enc, AttentionConfig(attn_dim=16), DecoderConfig(1, 256, 64),
                     np.random.default_rng(9))
        lm = LstmLm(VOCAB, 2, 256, np.random.default_rng(10))
        rng = np.random.default_rng(11)
        fs = [rng.normal(0, 0.5, (int(k), 8)) for k in rng.integers(4, 40, size=8)]
        cfg = DecodeConfig(beam=4, ctc_weight=0.5, lm_weight=0.3)
        fields = lambda ranked: [list(map(_fields, hs)) for hs in ranked]
        for n in (1, 3):
            seq = fields([decode_nbest([f], m, lm, cfg, n)[0] for f in fs])
            for bs in (1, 3, 8):
                assert fields(decode_nbest(fs, m, lm, cfg, n, batch_size=bs)) == seq


def _fields(h):
    return h.tokens, h.score, h.score_ctc, h.score_att, h.score_lm


def _hex_fields(h):
    return h.tokens, *(x.hex() for x in (h.score, h.score_ctc, h.score_att, h.score_lm))


@contextmanager
def usable_cores(n):
    """Make the process look as if it may use `n` cores."""
    saved = getattr(os, "sched_getaffinity", None)
    os.sched_getaffinity = lambda pid: set(range(n))
    try:
        yield
    finally:
        if saved is None:
            del os.sched_getaffinity
        else:
            os.sched_getaffinity = saved


def check_lane_groups_equal_alone():
    """`decode_nbest` with a batch's lanes split over 2, 3 or 7 concurrent
    groups gives every utterance the hypotheses decoding it alone gives,
    tokens and float hex of all four scores: lanes of mixed lengths, with
    and without the LM, n = 1 and n = 5, on the tiny model and at the desk
    encoder's size. Run at fixed BLAS thread counts by the test below, since
    the groups call the BLAS from two threads at once. The interpreter
    that runs it switches threads every 10 us, so that the groups' steps
    interleave finely."""
    sys.setswitchinterval(1e-5)
    rng = np.random.default_rng(21)
    tiny = (tiny_model(), [rng.normal(0, 0.5, (n, 8)) for n in (3, 40, 9, 17, 1, 28, 12)])
    desk = (AsrModel(VOCAB, rng=np.random.default_rng(5)),
            [rng.normal(0, 1, (n, 80)) for n in (3, 12, 20, 90, 41)])
    cfg = DecodeConfig(beam=4, ctc_weight=0.5, lm_weight=0.3)
    fields = lambda ranked: [list(map(_hex_fields, hs)) for hs in ranked]
    for m, fs in (tiny, desk):
        for lm in (None, tiny_lm()):
            for n in (1, 5):
                alone = fields([decode_nbest([f], m, lm, cfg, n)[0] for f in fs])
                for cores in (2, 3, 7):
                    with usable_cores(cores):
                        got = decode_nbest(fs, m, lm, cfg, n, batch_size=len(fs))
                    assert fields(got) == alone, (cores, lm is not None, n)


@pytest.mark.parametrize("threads", [1, 2])
def test_lane_groups_equal_alone(threads):
    run_at_blas_threads(threads, "test_beam.check_lane_groups_equal_alone")


def check_mid_config_batches_equal_sequential():
    """`decode_nbest` n=3 of the `cuts` benchmark's "mid" config (V=500,
    3x256 BLSTM, 256-unit decoder, 2x256 LM, seeded random weights) gives
    the same tokens and float hex of all four scores at batch sizes 1, 3
    and 8, at the benchmark's beam. Its cells have 1024 output columns, so
    their products take one BLAS call over all rows (tt.SINGLE_CALL_WIDTH),
    which the toy widths of the other decoding tests never reach; its
    output layers, 500 wide, keep their tiles, and a batch gives them up
    to 40 rows a step. Run at fixed BLAS thread counts by the test below."""
    rng = np.random.default_rng(25)
    enc = EncoderConfig(input_dim=80, vgg_channels=(8, 16), blstm_layers=3, blstm_units=256)
    m = AsrModel(500, enc, AttentionConfig(), DecoderConfig(1, 256, 64), rng)
    lm = LstmLm(500, 2, 256, rng)
    fs = [rng.normal(0, 1, (int(k), 80)) for k in rng.integers(12, 60, size=8)]
    cfg = DecodeConfig(beam=10, ctc_weight=0.5, lm_weight=0.5)
    fields = lambda ranked: [list(map(_hex_fields, hs)) for hs in ranked]
    alone = fields(decode_nbest(fs, m, lm, cfg, 3, batch_size=1))
    for bs in (3, 8):
        assert fields(decode_nbest(fs, m, lm, cfg, 3, batch_size=bs)) == alone, bs


@pytest.mark.parametrize("threads", [1, 2])
def test_mid_config_batches_equal_sequential(threads):
    run_at_blas_threads(threads, "test_beam.check_mid_config_batches_equal_sequential")


class TestLaneGroups:
    def test_groups_search_at_once_on_their_own_threads(self, monkeypatch):
        searched, barrier = [], None
        search = beam._search

        def spy(lanes, *args):
            searched.append((threading.current_thread(), len(lanes)))
            barrier.wait()  # returns only once every group is searching
            return search(lanes, *args)

        monkeypatch.setattr(beam, "_search", spy)
        fs, cfg = feats(5, seed=3), DecodeConfig(beam=3)
        for cores in (1, 2, 4, 9):
            searched.clear()
            barrier = threading.Barrier(min(cores, 5), timeout=10)
            with usable_cores(cores):
                decode_nbest(fs, tiny_model(), cfg=cfg, batch_size=5)
            assert len(searched) == min(cores, 5) and sum(n for _, n in searched) == 5
            threads = {t for t, _ in searched}
            if cores == 1:
                assert threads == {threading.main_thread()}
            else:
                assert len(threads) == len(searched) and threading.main_thread() not in threads

    def test_an_error_in_one_group_reaches_the_caller(self, monkeypatch):
        # the 60-frame utterance is the only lane with 15 encoder frames
        fs = feats(5, seed=6, lo=8, hi=20) + [np.zeros((60, 8))]
        prefix_scores = beam._prefix_scores
        lost = RuntimeError("beam search lost all hypotheses")

        def failing(lane, *args):
            if lane.T == 15:
                raise lost
            return prefix_scores(lane, *args)

        monkeypatch.setattr(beam, "_prefix_scores", failing)
        before = threading.active_count()
        for cores in (1, 2, 3):
            with usable_cores(cores), pytest.raises(RuntimeError) as info:
                decode_nbest(fs, tiny_model(), cfg=DecodeConfig(beam=3), batch_size=6)
            assert info.value is lost
            assert threading.active_count() == before

    @settings(max_examples=60, deadline=None)
    @given(frames=st.lists(st.integers(1, 500), min_size=1, max_size=12), data=st.data())
    def test_assignment_is_a_function_of_the_frame_counts(self, frames, data):
        n_groups = data.draw(st.integers(1, len(frames)))
        groups = beam._lane_groups(frames, n_groups)
        assert groups == beam._lane_groups(list(frames), n_groups)
        assert len(groups) == n_groups and all(groups)
        assert sorted(k for g in groups for k in g) == list(range(len(frames)))
        assert all(g == sorted(g) for g in groups)
        # longest first, each to the lightest group: no group's load exceeds
        # the lightest one's by more than its own smallest lane
        loads = [sum(frames[k] for k in g) for g in groups]
        assert all(load - min(loads) <= min(frames[k] for k in g)
                   for g, load in zip(groups, loads))

    def test_assignment_examples(self):
        assert beam._lane_groups([5, 9, 9, 2, 7], 2) == [[1, 4], [0, 2, 3]]
        assert beam._lane_groups([4, 4, 4], 3) == [[0], [1], [2]]
        assert beam._lane_groups([1, 2, 3], 1) == [[0, 1, 2]]


def _leaf(module, path):
    for part in path.split("."):
        module = module[int(part)] if part.isdigit() else getattr(module, part)
    return module


class TestFrozen:
    @settings(max_examples=30, deadline=None)
    @given(
        length=st.one_of(st.integers(1, 4), st.integers(5, 40)),
        seed=st.integers(0, 2**16),
    )
    @example(length=1, seed=0)
    @example(length=4, seed=1)
    def test_encodings_equal_the_model(self, length, seed):
        # at the toy size and at the desk size (80-dim input, VGG (8, 16))
        for m in (tiny_model(seed), AsrModel(VOCAB, rng=np.random.default_rng(seed))):
            f = np.random.default_rng(seed).normal(0, 0.5, (length, m.enc_cfg.input_dim))
            h, lengths = m.encode_batch([f])
            h2, lengths2 = frozen(m, m.dtype).encode_batch([f])
            assert np.array_equal(h2.data, h.data) and np.array_equal(lengths2, lengths)
            assert h.requires_grad
            assert not h2.requires_grad and h2._parents == ()

    def test_keep_shares_arrays_and_casts_the_rest(self):
        m = tiny_model()
        keep = ("block1", "blstms")
        twin = frozen(m, np.float64, keep)
        assert twin.params() == [] and twin.dtype == np.float64
        for path, p in m.named_params():
            q = _leaf(twin, path)
            assert type(q) is tt.Tensor and not q.requires_grad
            if path.split(".")[0] in keep:
                assert q.data.dtype == np.float32 and np.shares_memory(q.data, p.data)
            else:
                assert q.data.dtype == np.float64 and not np.shares_memory(q.data, p.data)
                assert np.array_equal(q.data, p.data)

    def test_decoding_leaves_the_models_as_they_are(self):
        m, lm = tiny_model(), tiny_lm()
        rng = np.random.default_rng(2)
        params = m.named_params() + lm.named_params()
        for _, p in params:
            p.grad = rng.normal(0, 1, p.shape).astype(p.dtype)
        before = [(p, p.data, p.data.copy(), p.grad.copy()) for _, p in params]
        fs = feats(3, seed=4)
        decode_nbest(fs, m, lm, DecodeConfig(beam=3), n=2, batch_size=2)
        rescore(fs[0], m, (3, 4), lm)
        assert [p for _, p in m.named_params() + lm.named_params()] == [b[0] for b in before]
        for p, data, values, grad in before:
            assert p.requires_grad and p.data is data
            assert np.array_equal(p.data, values) and np.array_equal(p.grad, grad)

    def test_decoding_builds_no_graph(self, monkeypatch):
        made = []
        result = tt.Tensor._result

        def recording(data, parents, backward):
            out = result(data, parents, backward)
            made.append(out.requires_grad)
            return out

        monkeypatch.setattr(tt.Tensor, "_result", staticmethod(recording))
        fs = feats(3, seed=5)
        decode_nbest(fs, tiny_model(), tiny_lm(), DecodeConfig(beam=3), n=2, batch_size=2)
        rescore(fs[0], tiny_model(), (3, 4), tiny_lm())
        assert made and not any(made)


def tied_model():
    """Output layer with label 0 a copy of end-of-sequence, and label 4 a
    copy of label 3, so their attention scores tie exactly at every step."""
    m = tiny_model(seed=21)
    for dst, src in ((0, SOS_EOS_ID), (4, 3)):
        m.out.w.data[:, dst] = m.out.w.data[:, src]
        m.out.b.data[dst] = m.out.b.data[src]
    return m


def brute_force_search(m, f, cfg, lm=None):
    """Search that scores every extension of every live hypothesis, with
    no pruning, and sorts all of them by (-score, tokens). Returns the
    finished (score, tokens, ctc, att, lm) tuples best first, and whether a
    tie fell across the beam boundary."""
    m64 = frozen(m, np.float64)
    lm64 = frozen(lm, np.float64) if lm is not None and cfg.lm_weight > 0.0 else None
    h = tt.Tensor(m.encode(f).data[None].astype(np.float64))
    T = h.shape[1]
    vh = m64.precompute_attention(h)
    ctc_logp = tt.log_softmax(m64.ctc_out(h)).data[0]
    lam, cap = cfg.ctc_weight, int(T * cfg.max_ratio)
    gam = cfg.lm_weight if lm64 is not None else 0.0

    def total(p_ctc, att, lm_s):
        return (
            (lam * p_ctc if lam > 0.0 else 0.0)
            + (1.0 - lam) * att
            + (gam * lm_s if lm64 is not None else 0.0)
        )

    start = ctc_prefix_initial(ctc_logp, BLANK_ID)
    a0 = tt.Tensor(np.full((1, T), 1.0 / T))
    lm0 = lm64.initial_state(1) if lm64 is not None else None
    live = [((SOS_EOS_ID,), 0.0, 0.0, start, 0.0, a0, m64.initial_decoder_state(1), lm0)]
    finished, tie_at_cut = [], False
    while live:
        cands = []
        for tokens, _, att, ctc, lm_s, a, state, lm_state in live:
            a2, r = m64.attend(a, m64.decoder_query(state), h, vh)
            logp, state2 = m64.decode_step(r, state, np.array([tokens[-1]]))
            logp = logp.data[0]
            logp_lm = np.zeros_like(logp)
            lm_state2 = None
            if lm64 is not None:
                logp_lm, lm_state2 = lm64.lm_step(lm_state, np.array([tokens[-1]]))
                logp_lm = logp_lm.data[0]
            att_eos, lm_eos = att + logp[SOS_EOS_ID], lm_s + logp_lm[SOS_EOS_ID]
            ctc_eos = float(ctc.final_log_probs()[0]) if lam > 0.0 else 0.0
            cands.append((total(ctc_eos, att_eos, lm_eos), tokens, ctc_eos, att_eos, lm_eos,
                          None, None, None, None))
            if len(tokens) - 1 < cap:
                for c in range(m.vocab_size):
                    if c not in (BLANK_ID, SOS_EOS_ID):
                        psi, ctc2 = extend_one(ctc, c, ctc_logp, BLANK_ID)
                        att2, lm2 = att + logp[c], lm_s + logp_lm[c]
                        cands.append((total(psi, att2, lm2), tokens + (c,), psi if lam > 0.0 else 0.0,
                                      att2, lm2, ctc2, a2, state2, lm_state2))
        cands.sort(key=lambda x: (-x[0], x[1]))
        if len(cands) > cfg.beam and cands[cfg.beam - 1][0] == cands[cfg.beam][0]:
            tie_at_cut = True
        live = []
        for score, tokens, p_ctc, att, lm_s, ctc, a, state, lm_state in cands[: cfg.beam]:
            if a is None:
                finished.append((score, tokens, p_ctc, att, lm_s))
            else:
                live.append((tokens, score, att, ctc, lm_s, a, state, lm_state))
        if finished:
            best = min(finished, key=lambda x: (-x[0], x[1]))[0]
            if not live or max(x[1] for x in live) <= best:
                break
    return sorted(finished, key=lambda x: (-x[0], x[1])), tie_at_cut


def _found(h):
    return h.score, h.tokens, h.score_ctc, h.score_att, h.score_lm


class TestTieBreak:
    def _check(self, m, cfg, fs):
        ties = 0
        for f in fs:
            ref, tied = brute_force_search(m, f, cfg)
            got = decode_nbest([f], m, None, cfg, n=len(ref) + 1)[0]
            assert [_found(h) for h in got] == ref
            ties += tied
        return ties

    def test_exact_ties_follow_brute_force_order(self):
        m = tied_model()
        ties = sum(
            self._check(m, DecodeConfig(beam=beam, ctc_weight=0.0, lm_weight=0.0),
                        feats(3, seed=17, lo=6, hi=24))
            for beam in (1, 2, 3, 5)
        )
        assert ties

    def test_infeasible_ctc_ties_across_parents(self):
        # with 2 encoder frames a repeated label has CTC probability 0: at
        # step 2 the 7 repeats, one per parent, tie at -inf across the cut
        # of a beam that holds all 49 other candidates. A low end-of-sequence
        # bias keeps the search going until the kept repeat finishes, and a
        # low bias of label 0 puts its row, first by tokens, last by score.
        m = tiny_model(seed=4)
        m.out.b.data[SOS_EOS_ID] -= 8.0
        m.out.b.data[0] -= 4.0
        cfg = DecodeConfig(beam=50, ctc_weight=0.5, lm_weight=0.0)
        assert self._check(m, cfg, feats(4, seed=3, lo=5, hi=9))


def skewed_model(seed, ties, impossible):
    """A tiny model whose label biases differ enough that many candidates
    cannot reach the beam. With `ties`, label 4 is a copy of label 3 in the
    attention, CTC and LM outputs, so their scores tie exactly; labels in
    `impossible` get CTC probability 0, so their prefix scores are -inf."""
    m, lm = tiny_model(seed), tiny_lm(seed)
    rng = np.random.default_rng(seed)
    m.out.b.data += rng.normal(0, 5, VOCAB).astype(m.dtype)
    lm.out.b.data += rng.normal(0, 2.5, VOCAB).astype(lm.dtype)
    m.ctc_out.w.data *= 4.0
    if ties:
        for layer in (m.out, m.ctc_out, lm.out):
            layer.w.data[:, 4] = layer.w.data[:, 3]
            layer.b.data[4] = layer.b.data[3]
    for c in impossible:
        m.ctc_out.b.data[c] = -np.inf
    return m, lm


class TestPruning:
    """The search scores only the CTC columns that can still reach the
    beam; the result must equal the unpruned search's bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        length=st.integers(4, 44),
        beam=st.integers(1, 12),
        ctc_weight=st.sampled_from([0.3, 0.5, 1.0]),
        lm_weight=st.sampled_from([0.0, 0.6]),
        max_ratio=st.sampled_from([1.0, 0.5, 0.05]),
        ties=st.booleans(),
        impossible=st.sampled_from([(), (5,), (2, 7)]),
    )
    @example(seed=0, length=30, beam=4, ctc_weight=0.5, lm_weight=0.6, max_ratio=1.0,
             ties=True, impossible=(5,))
    @example(seed=1, length=12, beam=3, ctc_weight=0.5, lm_weight=0.6, max_ratio=0.05,
             ties=False, impossible=())
    def test_pruned_search_equals_unpruned(
        self, seed, length, beam, ctc_weight, lm_weight, max_ratio, ties, impossible
    ):
        m, lm = skewed_model(seed, ties, impossible)
        f = np.random.default_rng(seed).normal(0, 0.5, (length, 8))
        cfg = DecodeConfig(beam=beam, ctc_weight=ctc_weight, lm_weight=lm_weight,
                           max_ratio=max_ratio)
        ref, _ = brute_force_search(m, f, cfg, lm)
        got = decode_nbest([f], m, lm, cfg, n=len(ref) + 1)[0]
        assert [_found(h) for h in got] == ref

    def test_pruning_skips_columns(self, monkeypatch):
        # the property above means something only if columns are skipped
        import imsk.beam as beam_mod

        scored, columns = [], []
        score_all, prefix_scores = beam_mod.ctc_prefix_score_all, beam_mod._prefix_scores

        def counting(prefixes, rows, labels, *rest):
            scored.append(len(labels))
            return score_all(prefixes, rows, labels, *rest)

        def offered(lane, *rest):
            columns.append(len(lane.tokens) * rest[-1].size)
            return prefix_scores(lane, *rest)

        monkeypatch.setattr(beam_mod, "ctc_prefix_score_all", counting)
        monkeypatch.setattr(beam_mod, "_prefix_scores", offered)
        m, lm = skewed_model(5, False, ())
        f = np.random.default_rng(5).normal(0, 0.5, (44, 8))
        cfg = DecodeConfig(beam=3, ctc_weight=0.5, lm_weight=0.6)
        ref, _ = brute_force_search(m, f, cfg, lm)
        scored.clear()
        assert [_found(h) for h in decode_nbest([f], m, lm, cfg, n=len(ref) + 1)[0]] == ref
        assert len(columns) > 3 and sum(scored) < 0.6 * sum(columns)


def random_rows(rng, R):
    """A random subset of range(R), in random order."""
    return rng.permutation(R)[: rng.integers(1, R + 1)]


class TestRowStability:
    """A row's search-step results are bit-equal whatever other rows share
    the call: what keeps batched decoding equal to sequential decoding."""

    @settings(max_examples=25, deadline=None)
    @given(
        R=st.integers(1, 12),
        T=st.integers(1, 60),
        conv_filters=st.sampled_from([1, 11, 31, 201]),
        conv_channels=st.sampled_from([1, 4, 10]),
        seed=st.integers(0, 2**16),
    )
    @example(R=9, T=57, conv_filters=201, conv_channels=10, seed=0)
    def test_attend(self, R, T, conv_filters, conv_channels, seed):
        att = AttentionConfig(attn_dim=64, conv_channels=conv_channels, conv_filters=conv_filters)
        m64 = frozen(tiny_model(seed, att), np.float64)
        rng = np.random.default_rng(seed)
        h = tt.Tensor(rng.normal(0, 1, (1, T, 2 * m64.enc_cfg.blstm_units)))
        vh = m64.precompute_attention(h)
        a_prev = rng.dirichlet(np.ones(T), size=R)
        q = rng.normal(0, 1, (R, m64.dec_cfg.units))
        rows = random_rows(rng, R)
        full = m64.attend(tt.Tensor(a_prev), tt.Tensor(q), h, vh)
        part = m64.attend(tt.Tensor(a_prev[rows]), tt.Tensor(q[rows]), h, vh)
        for f, p in zip(full, part):
            assert np.array_equal(f.data[rows], p.data)

    @settings(max_examples=20, deadline=None)
    @given(
        R=st.integers(1, 12),
        vocab=st.integers(3, 600),
        units=st.integers(1, 300),
        layers=st.integers(1, 2),
        seed=st.integers(0, 2**16),
    )
    def test_decode_step(self, R, vocab, units, layers, seed):
        enc = EncoderConfig(input_dim=8, vgg_channels=(2, 3), blstm_layers=1, blstm_units=4)
        dec = DecoderConfig(layers=layers, units=units, embed_dim=16)
        rng = np.random.default_rng(seed)
        m = AsrModel(vocab, enc, AttentionConfig(), dec, rng, dtype=np.float64)
        r = rng.normal(0, 1, (R, 8))
        state = [tuple(rng.normal(0, 1, (R, units)) for _ in "hc") for _ in range(layers)]
        y = rng.integers(0, vocab, R)
        rows = random_rows(rng, R)
        full = m.decode_step(tt.Tensor(r), [tuple(map(tt.Tensor, s)) for s in state], y)
        part = m.decode_step(
            tt.Tensor(r[rows]), [tuple(tt.Tensor(x[rows]) for x in s) for s in state], y[rows]
        )
        assert_rows_equal(full, part, rows)

    @settings(max_examples=20, deadline=None)
    @given(
        R=st.integers(1, 12),
        vocab=st.integers(2, 600),
        units=st.integers(1, 300),
        layers=st.integers(1, 2),
        seed=st.integers(0, 2**16),
    )
    def test_lm_step(self, R, vocab, units, layers, seed):
        rng = np.random.default_rng(seed)
        lm = LstmLm(vocab, layers, units, rng, dtype=np.float64)
        state = [tuple(rng.normal(0, 1, (R, units)) for _ in "hc") for _ in range(layers)]
        y = rng.integers(0, vocab, R)
        rows = random_rows(rng, R)
        full = lm.lm_step([tuple(map(tt.Tensor, s)) for s in state], y)
        part = lm.lm_step([tuple(tt.Tensor(x[rows]) for x in s) for s in state], y[rows])
        assert_rows_equal(full, part, rows)


def assert_rows_equal(full, part, rows):
    """(log-probs, [(h, c), ...]) of a row subset equal the full call's rows."""
    (logp, state), (logp_part, state_part) = full, part
    assert np.array_equal(logp.data[rows], logp_part.data)
    for layer, layer_part in zip(state, state_part):
        for x, x_part in zip(layer, layer_part):
            assert np.array_equal(x.data[rows], x_part.data)
