"""Recognizer model tests: encoder geometry, attention, losses, training."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    check_gradients,
    lstm_gates_composed,
    run_at_blas_threads,
    tanh_addmm_composed,
)
from imsk.asr import (
    AsrModel,
    AsrTrainConfig,
    AttentionConfig,
    DecoderConfig,
    EncoderConfig,
    HybridLossConfig,
    encoder_output_length,
    make_batches,
    train_asr,
)
from imsk.ctc import ctc_loss_op
from imsk.nn import tensor as tt
from imsk.nn.layers import frozen
import imsk.nn.layers as layers
import imsk.nn.optim as optim
from imsk.nn.optim import DivergedError
from imsk.lm import LmConfig, train_lm
from imsk.sad import SadConfig, SadTrainConfig, train_sad
from imsk.tokenizer import BLANK_ID, SOS_EOS_ID

RNG = np.random.default_rng(41)

TINY_ENC = EncoderConfig(input_dim=8, vgg_channels=(2, 3), blstm_layers=1, blstm_units=4)
TINY_ATT = AttentionConfig(attn_dim=5, conv_channels=2, conv_filters=3)
TINY_DEC = DecoderConfig(layers=1, units=6, embed_dim=4)
VOCAB = 7


def tiny_model(dtype=np.float64, seed=7):
    return AsrModel(
        VOCAB, TINY_ENC, TINY_ATT, TINY_DEC, np.random.default_rng(seed), dtype=dtype
    )


def feat(t, d=8, scale=0.5):
    return RNG.normal(0, scale, (t, d))


def desk_loss_and_grads(feats, dtype):
    """The desk-config hybrid loss of three utterances' `feats`, padded into
    one batch, and every parameter's gradient."""
    m = AsrModel(VOCAB, rng=np.random.default_rng(3), dtype=dtype)
    loss = m.hybrid_loss(feats, [[3, 4, 5], [6], [4, 3, 4, 5]], 0.3)
    loss.backward()
    return loss.data, [p.grad for p in m.params()]


class TestEncoder:
    def test_length_formula_examples(self):
        assert encoder_output_length(100) == 25
        assert encoder_output_length(7) == 2

    def test_length_formula_holds_for_all_t(self):
        m = tiny_model()
        for t in [4, 5, 6, 7, 9, 16, 33]:
            h, lengths = m.encode_batch([feat(t)])
            assert h.shape[1] == encoder_output_length(t) == lengths[0]

    def test_output_dim_and_finiteness(self):
        m = tiny_model()
        h = m.encode(feat(20))
        assert h.shape == (5, 2 * TINY_ENC.blstm_units)
        assert np.all(np.isfinite(h.data))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tiny_model().encode_batch([RNG.normal(0, 1, (10, 5))])

    def test_batch_lengths(self):
        m = tiny_model()
        h, lengths = m.encode_batch([feat(12), feat(7)])
        assert list(lengths) == [3, 2]
        assert h.shape[0] == 2

    def test_saturated_lstm_gates_warn_nothing(self):
        # exp(200) overflows float32: the gates are exactly 0, not a warning
        m = tiny_model(dtype=np.float32)
        m.blstms[0].fw.cell.b.data[:] = -200.0
        m.dec_cells[0].b.data[:] = -200.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            h = m.encode(feat(12))
            r = tt.Tensor(np.ones((1, h.shape[1]), dtype=np.float32))
            logp, _ = m.decode_step(r, m.initial_decoder_state(1), np.array([3]))
        assert np.all(np.isfinite(h.data)) and np.all(np.isfinite(logp.data))


@st.composite
def length_mixes(draw):
    """1-8 utterance lengths: all equal, or a mix of 1-60 frames with at
    least one of 1-7, at or below the 4x pooling of the VGG blocks."""
    if draw(st.booleans()):
        return [draw(st.integers(1, 60))] * draw(st.integers(1, 8))
    mix = draw(st.lists(st.integers(1, 60), min_size=0, max_size=6))
    short = draw(st.lists(st.integers(1, 7), min_size=1, max_size=2))
    return draw(st.permutations(mix + short))


@settings(max_examples=40, deadline=None)
@given(lengths=length_mixes(), seed=st.integers(0, 2**16))
@example(lengths=[3, 12, 20, 90], seed=8)
@example(lengths=[1, 60, 4, 7, 33, 2], seed=0)
@example(lengths=[41] * 5, seed=1)
def check_encoder_rows_equal_alone(lengths, seed):
    """Each row of `encode_batch` equals the utterance encoded alone, bit
    for bit, at the desk encoder's size (80-dim input, VGG (8, 16)), where
    a padded batch through the VGG blocks would change short utterances'
    bits. On the trainable model and both decoding copies: float64 keeping
    the float32 encoder, as the search uses, and all float32. Run at fixed
    BLAS thread counts by the test below."""
    m = AsrModel(VOCAB, rng=np.random.default_rng(5))
    rng = np.random.default_rng(seed)
    fs = [rng.normal(0, 1, (n, 80)) for n in lengths]
    for enc in (m, frozen(m, np.float64, keep=AsrModel.ENCODER_ATTRS), frozen(m, np.float32)):
        h, got = enc.encode_batch(fs)
        assert list(got) == [encoder_output_length(n) for n in lengths]
        for b, (f, n) in enumerate(zip(fs, got)):
            alone, _ = enc.encode_batch([f])
            row = h.data[b : b + 1, :n]
            assert row.shape == alone.shape and np.array_equal(row, alone.data), len(f)


@pytest.mark.parametrize("threads", [1, 2])
def test_encoder_rows_equal_alone(threads):
    run_at_blas_threads(threads, "test_asr.check_encoder_rows_equal_alone")


def attend_reference(m, a_prev, q, h):
    """One location-aware attention step for (R, T) weights, (R, U) queries
    and (R or 1, T, D) encodings, as plain loops over rows, frames and taps."""
    p = {name: t.data for name, t in m.named_params()}
    K, C = p["att_conv"].shape
    R, T = a_prev.shape
    a, ctx = np.zeros((R, T)), np.zeros((R, h.shape[2]))
    for i in range(R):
        hi = h[i % h.shape[0]]
        wq = q[i] @ p["att_dec.w"] + p["att_dec.b"]
        e = np.zeros(T)
        for t in range(T):
            f = np.zeros(C)
            for k in range(K):
                if 0 <= t + k - K // 2 < T:
                    f += a_prev[i, t + k - K // 2] * p["att_conv"][k]
            key = hi[t] @ p["att_enc.w"] + p["att_enc.b"]
            loc = f @ p["att_loc.w"] + p["att_loc.b"]
            e[t] = np.tanh(key + loc + wq) @ p["att_vec"]
        w = np.exp(e - e.max())
        a[i] = w / w.sum()
        for t in range(T):
            ctx[i] += a[i, t] * hi[t]
    return a, ctx


class TestAttention:
    @settings(max_examples=40, deadline=None)
    @given(
        T=st.integers(1, 40),
        R=st.integers(1, 4),
        conv_filters=st.sampled_from([1, 3, 5, 11, 41]),
        conv_channels=st.integers(1, 3),
        shared=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(T=2, R=3, conv_filters=11, conv_channels=2, shared=True, seed=0)
    @example(T=7, R=2, conv_filters=1, conv_channels=1, shared=False, seed=1)
    @example(T=1, R=1, conv_filters=41, conv_channels=3, shared=True, seed=2)
    def test_matches_loop_reference(self, T, R, conv_filters, conv_channels, shared, seed):
        att = AttentionConfig(attn_dim=5, conv_channels=conv_channels, conv_filters=conv_filters)
        m = AsrModel(VOCAB, TINY_ENC, att, TINY_DEC, dtype=np.float64)
        rng = np.random.default_rng(seed)
        for _, p in m.named_params():  # biases too, which start at zero
            p.data = rng.normal(0, 0.5, p.data.shape)
        h = rng.normal(0, 1, (1 if shared else R, T, 2 * TINY_ENC.blstm_units))
        a_prev = rng.dirichlet(np.ones(T), size=R)
        q = rng.normal(0, 1, (R, TINY_DEC.units))
        a, r = m.attend(tt.Tensor(a_prev), tt.Tensor(q), tt.Tensor(h))
        for got, ref in zip((a.data, r.data), attend_reference(m, a_prev, q, h)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_shared_encodings_equal_per_row_copies(self):
        m = tiny_model()
        h = RNG.normal(0, 1, (1, 9, 8))
        a0 = tt.Tensor(RNG.dirichlet(np.ones(9), size=5))
        q = tt.Tensor(RNG.normal(0, 1, (5, TINY_DEC.units)))
        shared = m.attend(a0, q, tt.Tensor(h))
        copies = m.attend(a0, q, tt.Tensor(np.repeat(h, 5, axis=0)))
        for s, c in zip(shared, copies):
            assert np.array_equal(s.data, c.data)

    def test_single_frame_gives_unit_weight(self):
        m = tiny_model()
        h = tt.Tensor(RNG.normal(0, 1, (1, 1, 8)))
        a0 = tt.Tensor(np.ones((1, 1)))
        q = tt.Tensor(np.zeros((1, TINY_DEC.units)))
        a, r = m.attend(a0, q, h)
        assert np.allclose(a.data, [[1.0]])
        assert np.allclose(r.data, h.data[:, 0])

    def test_weights_sum_to_one(self):
        m = tiny_model()
        h = tt.Tensor(RNG.normal(0, 1, (3, 6, 8)))
        a0 = tt.Tensor(np.full((3, 6), 1.0 / 6.0))
        q = tt.Tensor(RNG.normal(0, 1, (3, TINY_DEC.units)))
        a, _ = m.attend(a0, q, h)
        assert np.allclose(a.data.sum(axis=1), 1.0, atol=1e-6)

    def test_masked_frames_get_zero_weight(self):
        m = tiny_model()
        h = tt.Tensor(RNG.normal(0, 1, (2, 5, 8)))
        mask = np.array([[1, 1, 1, 1, 1], [1, 1, 0, 0, 0]], dtype=np.float64)
        a0 = tt.Tensor(mask / mask.sum(axis=1, keepdims=True))
        q = tt.Tensor(np.zeros((2, TINY_DEC.units)))
        a, _ = m.attend(a0, q, h, mask=mask)
        assert np.all(a.data[1, 2:] == 0.0)
        assert np.allclose(a.data.sum(axis=1), 1.0)

    def test_length_mismatch_rejected(self):
        m = tiny_model()
        h = tt.Tensor(RNG.normal(0, 1, (1, 4, 8)))
        with pytest.raises(ValueError):
            m.attend(tt.Tensor(np.ones((1, 3)) / 3), tt.Tensor(np.zeros((1, 6))), h)
        with pytest.raises(ValueError):
            rows = tt.Tensor(np.ones((3, 4)) / 4)
            m.attend(rows, tt.Tensor(np.zeros((3, 6))), tt.Tensor(RNG.normal(0, 1, (2, 4, 8))))

    def test_even_conv_filters_rejected(self):
        # an even width would give the location conv T + 1 frames
        with pytest.raises(ValueError, match="conv_filters must be odd, got 4"):
            AttentionConfig(attn_dim=5, conv_channels=2, conv_filters=4)

    def test_gradients_through_attend(self):
        m = tiny_model()
        h = tt.Tensor(RNG.normal(0, 1, (1, 4, 8)), requires_grad=True)
        q = tt.Tensor(RNG.normal(0, 1, (1, TINY_DEC.units)), requires_grad=True)
        a0 = tt.Tensor(np.full((1, 4), 0.25))

        def loss():
            a, r = m.attend(a0, q, h)
            return tt.sum_(tt.mul(r, r)) + tt.sum_(tt.mul(a, a))

        tensors = [h, q, m.att_conv, m.att_vec, m.att_enc.w, m.att_dec.w, m.att_loc.w]
        report = check_gradients(loss, tensors)
        assert report.passed(1e-5), report.per_tensor


    def test_fused_op_keeps_every_training_gradient(self, monkeypatch):
        # a padded float32 batch through the hybrid loss, with attention's
        # fused tanh(vh + f @ W + wq) and with the composition it replaced:
        # the loss and every parameter's gradient are bit-equal
        feats = [feat(t, 80) for t in (37, 12, 60)]
        fused = desk_loss_and_grads(feats, np.float32)
        monkeypatch.setattr(tt, "tanh_addmm", tanh_addmm_composed)
        composed = desk_loss_and_grads(feats, np.float32)
        assert np.array_equal(fused[0], composed[0])
        assert len(fused[1]) == len(composed[1])
        for f, c in zip(fused[1], composed[1]):
            assert np.array_equal(f, c)


class TestDecodeStep:
    def test_distribution_normalized(self):
        m = tiny_model()
        r = tt.Tensor(RNG.normal(0, 1, (2, 8)))
        state = m.initial_decoder_state(2)
        logp, _ = m.decode_step(r, state, np.array([SOS_EOS_ID, 3]))
        assert np.allclose(np.exp(logp.data).sum(axis=1), 1.0, atol=1e-6)

    def test_deterministic(self):
        m = tiny_model()
        r = tt.Tensor(RNG.normal(0, 1, (1, 8)))
        state = m.initial_decoder_state(1)
        a, _ = m.decode_step(r, state, np.array([3]))
        b, _ = m.decode_step(r, state, np.array([3]))
        assert np.array_equal(a.data, b.data)

    def test_composed_steps_equal_attention_loss(self):
        m = tiny_model()
        f = feat(15)
        y = [3, 5, 4]
        h, lengths = m.encode_batch([f])
        vh = m.precompute_attention(h)
        a = m._uniform_alignment(lengths)
        state = m.initial_decoder_state(1)
        inputs = [SOS_EOS_ID] + y
        targets = y + [SOS_EOS_ID]
        total = 0.0
        for u in range(len(inputs)):
            a, r = m.attend(a, m.decoder_query(state), h, vh)
            logp, state = m.decode_step(r, state, np.array([inputs[u]]))
            total += logp.data[0, targets[u]]
        loss = m.hybrid_loss([f], [y], 0.0)
        assert np.isclose(-total, loss.item(), atol=1e-9)


class TestLosses:
    def test_uniform_output_cross_entropy(self):
        m = tiny_model()
        m.out.w.data[:] = 0.0
        m.out.b.data[:] = 0.0
        y = [3, 4]
        loss = m.hybrid_loss([feat(12)], [y], 0.0)
        assert np.isclose(loss.item(), (len(y) + 1) * np.log(VOCAB), atol=1e-9)

    def test_loss_nonnegative(self):
        m = tiny_model()
        assert m.hybrid_loss([feat(10)], [[3]], 0.0).item() >= 0.0

    def test_empty_labels_rejected(self):
        for ctc_weight in (0.0, 0.5, 1.0):
            with pytest.raises(ValueError, match="utterance 0 of the batch: empty label sequence"):
                tiny_model().hybrid_loss([feat(10)], [[]], ctc_weight)

    @pytest.mark.parametrize("ctc_weight", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("bad, message", [
        ([-1], r"label id out of range \[0, 7\)"),
        ([-3, 4], r"label id out of range \[0, 7\)"),
        ([VOCAB], r"label id out of range \[0, 7\)"),
        ([3, BLANK_ID], "labels may not contain the blank id"),
    ], ids=["minus-1", "minus-3", "vocab-size", "blank"])
    def test_bad_labels_named_before_any_layer(self, ctc_weight, bad, message):
        m = tiny_model()
        m.encode_batch = None  # a layer that ran would raise a TypeError
        with pytest.raises(ValueError, match=f"utterance 1 of the batch: {message}"):
            m.hybrid_loss([feat(10), feat(10)], [[3], bad], ctc_weight)

    @pytest.mark.parametrize("bad, message", [
        ([-1], r"label id out of range \[0, 7\)"),
        ([], "empty label sequence"),
        ([BLANK_ID], "labels may not contain the blank id"),
    ], ids=["minus-1", "empty", "blank"])
    def test_accuracy_rejects_bad_labels_before_any_layer(self, bad, message):
        # the validation metric of train_asr scored these 0.5, 0.0 and 0.0
        m = tiny_model()
        m.encode_batch = None  # a layer that ran would raise a TypeError
        feats = [feat(10)] * 3
        with pytest.raises(ValueError, match=f"utterance 2 of the evaluated set: {message}"):
            m.teacher_forced_accuracy(feats, [[3], [4], bad], batch_size=2)

    def test_hybrid_boundaries(self):
        # weight 0 is the attention branch alone, weight 1 the CTC branch
        m = tiny_model()
        feats, labels = [feat(14)], [[3, 5]]
        h, lengths = m.encode_batch(feats)
        att = tt.mean_(m._attention_forward(h, lengths, labels)[0]).item()
        ctc = ctc_loss_op(m.ctc_out(tt.take(h, 0)), labels[0], BLANK_ID).item()
        assert np.isclose(m.hybrid_loss(feats, labels, 0.0).item(), att, atol=1e-12)
        assert np.isclose(m.hybrid_loss(feats, labels, 1.0).item(), ctc, atol=1e-12)

    def test_hybrid_linear_in_lambda(self):
        m = tiny_model()
        feats, labels = [feat(14), feat(9)], [[3, 5], [6]]
        l0 = m.hybrid_loss(feats, labels, 0.0).item()
        l1 = m.hybrid_loss(feats, labels, 1.0).item()
        lh = m.hybrid_loss(feats, labels, 0.5).item()
        assert abs(lh - 0.5 * (l0 + l1)) < 1e-9

    def test_hybrid_weight_validated(self):
        with pytest.raises(ValueError):
            HybridLossConfig(1.5)
        with pytest.raises(ValueError):
            tiny_model().hybrid_loss([feat(10)], [[3]], -0.1)

    def test_encoder_shared_between_branches(self):
        m = tiny_model()
        calls = []
        original = m.encode_batch

        def counting(feats):
            calls.append(1)
            return original(feats)

        m.encode_batch = counting
        m.hybrid_loss([feat(12)], [[3]], 0.5)
        assert len(calls) == 1

    def test_batched_loss_is_mean_of_singles(self):
        m = tiny_model()
        f1, f2 = feat(13), feat(13)
        y1, y2 = [3, 4], [5]
        lb = m.hybrid_loss([f1, f2], [y1, y2], 0.5).item()
        l1 = m.hybrid_loss([f1], [y1], 0.5).item()
        l2 = m.hybrid_loss([f2], [y2], 0.5).item()
        assert np.isclose(lb, 0.5 * (l1 + l2), atol=1e-9)

    def test_padded_batch_matches_short_run(self):
        # same utterance alone and padded inside a longer batch
        m = tiny_model()
        f_short, f_long = feat(9), feat(17)
        lb = m.hybrid_loss([f_long, f_short], [[3, 4], [5]], 0.5).item()
        l1 = m.hybrid_loss([f_long], [[3, 4]], 0.5).item()
        l2 = m.hybrid_loss([f_short], [[5]], 0.5).item()
        assert np.isclose(lb, 0.5 * (l1 + l2), atol=1e-9)

    def test_hybrid_gradients(self):
        m = tiny_model()
        feats, labels = [feat(9)], [[3, 5]]

        def loss():
            return m.hybrid_loss(feats, labels, 0.5)

        tensors = [
            m.block1.w1,
            m.blstms[0].fw.cell.w,
            m.att_conv,
            m.att_vec,
            m.att_dec.w,
            m.embed.table,
            m.dec_cells[0].w,
            m.out.w,
            m.ctc_out.w,
        ]
        report = check_gradients(loss, tensors)
        assert report.passed(1e-5), report.per_tensor

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_lstm_gates_keep_every_training_gradient(self, monkeypatch, dtype):
        # a padded batch through the hybrid loss at the desk config, with
        # the BLSTMs' and the decoder's gates fused and composed: the loss
        # and every parameter's gradient are bit-equal
        feats = [feat(t, 80) for t in (37, 12, 60)]
        fused = desk_loss_and_grads(feats, dtype)
        monkeypatch.setattr(layers, "lstm_gates", lstm_gates_composed)
        composed = desk_loss_and_grads(feats, dtype)
        assert np.array_equal(fused[0], composed[0])
        assert len(fused[1]) == len(composed[1])
        for f, c in zip(fused[1], composed[1]):
            assert f.dtype == dtype and np.array_equal(f, c)

    @pytest.mark.parametrize("lengths", [(20, 20), (37, 12)])
    def test_no_one_channel_convolution_needs_an_input_gradient(self, monkeypatch, lengths):
        # conv2d's per-tap input gradient keeps the bits of the product it
        # replaced for more than one input channel only; the one convolution
        # with one, block 1's first, reads the features, which need none.
        # Every convolution sees one utterance, as in decoding.
        seen = []
        conv2d = layers.conv2d

        def spy(x, w, b=None):
            seen.append((x.shape[0], x.shape[-1], x.requires_grad))
            return conv2d(x, w, b)

        monkeypatch.setattr(layers, "conv2d", spy)
        m = AsrModel(VOCAB, rng=np.random.default_rng(3))
        m.hybrid_loss([feat(t, 80) for t in lengths], [[3, 4], [5]], 0.3).backward()
        assert seen == [(1, 1, False), (1, 8, True), (1, 8, True), (1, 16, True)] * len(lengths)


def memorization_task(n=6):
    rng = np.random.default_rng(3)
    data = []
    for i in range(n):
        label = 3 + (i % 3)
        f = rng.normal(0, 0.1, (10, 8))
        f[:, (label - 3) * 2] += 2.0  # distinct spectral stripe per label
        data.append((f, [label]))
    return data


def _two_by_two_asr():
    m = tiny_model(dtype=np.float32, seed=11)
    data = memorization_task()
    res = train_asr(m, data, data, AsrTrainConfig(epochs=2, batch_size=3, seed=5))
    return [st.grad_norm_max for st in res.history]


def _two_by_two_lm():
    corpus = [[3, 4], [4, 3, 5], [5], [3, 3, 4]]
    return train_lm(corpus, 6, LmConfig(layers=1, units=4, epochs=2, batch=2), seed=0).grad_norms


def _two_by_two_sad():
    rng = np.random.default_rng(2)
    feats = [rng.normal(0, 1, (12, 4)) for _ in range(2)]
    labels = [np.arange(12) % 3] * 2
    cfg = SadTrainConfig(arch=SadConfig(input_dim=4, hidden=(3,), pool_radius=2), epochs=2, seed=5)
    return train_sad(feats, labels, cfg).grad_norms


# each trains two epochs of two batches and returns the per-epoch norms it reports
TWO_BY_TWO = {"asr": _two_by_two_asr, "lm": _two_by_two_lm, "sad": _two_by_two_sad}


class TestTrainLoop:
    def test_loss_decreases_and_history_recorded(self):
        m = tiny_model(dtype=np.float32, seed=11)
        data = memorization_task()
        res = train_asr(m, data, data, AsrTrainConfig(epochs=4, batch_size=3, seed=5))
        assert len(res.history) == 4
        assert res.history[-1].train_loss < res.history[0].train_loss
        assert 0.0 <= res.best_accuracy <= 1.0

    def test_best_epoch_not_last_and_eps_halving(self):
        m = tiny_model(dtype=np.float32, seed=11)
        data = memorization_task()
        scripted = iter([0.5, 0.9, 0.7, 0.6])
        res = train_asr(
            m,
            data,
            data,
            AsrTrainConfig(epochs=4, batch_size=3, seed=5),
            metric_fn=lambda model: next(scripted),
        )
        assert res.best_epoch == 2
        assert res.best_accuracy == 0.9
        # two consecutive non-improving epochs halve eps twice
        assert np.isclose(res.history[-1].eps, 2.5e-9)

    @pytest.mark.parametrize("trainer", ["asr", "lm", "sad"])
    def test_epoch_records_largest_pre_clip_norm(self, monkeypatch, trainer):
        norms = []

        def recording_clip(params, threshold):
            norms.append(clip(params, threshold))
            return norms[-1]

        clip = optim.clip_gradients
        monkeypatch.setattr(optim, "clip_gradients", recording_clip)
        reported = TWO_BY_TWO[trainer]()
        assert len(norms) == 4 and len(reported) == 2
        for got, epoch_norms in zip(reported, (norms[:2], norms[2:])):
            assert np.isfinite(got) and got > 0.0
            assert got == max(epoch_norms)

    def test_divergence_aborts_with_diagnostic(self):
        m = tiny_model(dtype=np.float32, seed=11)
        m.out.w.data[:] = np.nan
        data = memorization_task(3)
        with pytest.raises(DivergedError):
            train_asr(m, data, data, AsrTrainConfig(epochs=1, batch_size=3))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_asr(tiny_model(), [], [], AsrTrainConfig(epochs=1))

    @pytest.mark.parametrize("bad", [{"epochs": 0}, {"batch_size": 0}, {"ctc_weight": 1.5},
                                     {"ctc_weight": -0.1}])
    def test_config_validation(self, bad):
        with pytest.raises(ValueError):
            AsrTrainConfig(**bad)

    def test_make_batches_sorted_by_length(self):
        data = [(feat(t), [3]) for t in [30, 10, 20, 40]]
        batches = make_batches(data, 2)
        lengths = [[item[0].shape[0] for item in b] for b in batches]
        assert lengths == [[10, 20], [30, 40]]
