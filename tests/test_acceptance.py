"""Release gate: every core contract verified against an independent oracle.

Each test stands for one gate and prints as a single pass/fail line. The
heavyweight shared piece is a small recognizer overfitted on a template
corpus; the remaining gates use exhaustive enumeration, finite differences
or hand-computed values.
"""

import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest

from helpers import (
    check_gradients,
    decode_one,
    frame_accuracy,
    ids_to_words,
    sad_corpus,
    sad_recording,
    template_corpus,
)
from imsk.asr import (
    AsrModel,
    AsrTrainConfig,
    AttentionConfig,
    DecoderConfig,
    EncoderConfig,
    train_asr,
)
from imsk.audio import save_audio
from imsk.beam import DecodeConfig, decode_batch, rescore
from imsk.cli import run_cli
from imsk.ctc import InfeasibleAlignmentError, ctc_forward_backward, ctc_loss_op, min_frames
from imsk.lm import LmConfig, train_lm
from imsk.nn import tensor as tt
from imsk.nn.layers import Linear, LstmCell, VggBlock
from imsk.sad import (
    SadConfig,
    SadTrainConfig,
    SadTransform,
    SegmentList,
    postprocess,
    to_pseudo_likelihoods,
    train_sad,
    viterbi_path,
)
from imsk.scoring import align, corpus_score, rt_factor
from imsk.tokenizer import SubwordVocab, em_step, mark_words, segment, train_unigram
from imsk.util import make_rng


# -- shared toy recognizer -----------------------------------------------------


TOY_VOCAB = 15  # 12 template tokens plus the 3 special ids


@pytest.fixture(scope="module")
def toy():
    """Recognizer overfitted on the template corpus, with CPU time kept."""
    rng = make_rng(2024)
    train, templates = template_corpus(220, rng, min_tokens=2, max_tokens=5)
    valid, _ = template_corpus(24, rng, templates, min_tokens=2, max_tokens=5)
    v_feats = [f for f, _ in valid]
    v_labels = [y for _, y in valid]
    model = AsrModel(
        TOY_VOCAB,
        EncoderConfig(input_dim=20, vgg_channels=(4, 8), blstm_layers=1, blstm_units=64),
        AttentionConfig(attn_dim=32, conv_channels=4, conv_filters=5),
        DecoderConfig(layers=1, units=64, embed_dim=32),
        make_rng(1),
    )

    def smooth_metric(m):
        # exp keeps the metric above the trainer's -1 sentinel; validation
        # loss is smooth where early token accuracy plateaus, so the
        # plateau-triggered eps halving does not stall learning
        return float(np.exp(-m.hybrid_loss(v_feats, v_labels, 0.5).item() / 10.0))

    started = time.process_time()
    res = train_asr(
        model,
        train,
        valid,
        AsrTrainConfig(epochs=60, batch_size=8, eps=1e-5, ctc_weight=0.5, seed=7),
        metric_fn=smooth_metric,
    )
    cpu_s = time.process_time() - started
    model.load_state_dict(res.best_state)
    lm = train_lm(
        [y for _, y in train],
        TOY_VOCAB,
        LmConfig(layers=1, units=24, batch=16, epochs=3),
        seed=9,
    ).model
    return {"model": model, "lm": lm, "train": train, "valid": valid, "cpu_s": cpu_s}


# -- oracles -------------------------------------------------------------------


def _collapse(path, blank):
    out = []
    prev = None
    for z in path:
        if z != prev and z != blank:
            out.append(z)
        prev = z
    return tuple(out)


def _enumerate_segmentations(text, vocab, max_len):
    if not text:
        yield ()
        return
    for l in range(1, min(max_len, len(text)) + 1):
        piece = text[:l]
        if vocab.has_piece(piece) or l == 1:
            for rest in _enumerate_segmentations(text[l:], vocab, max_len):
                yield (piece,) + rest


def _best_segmentation(text, vocab):
    """Highest score, then fewest pieces, then lexicographic order."""
    best = None
    for pieces in _enumerate_segmentations(text, vocab, vocab.max_piece_len):
        score = sum(vocab.log_prob(p) for p in pieces)
        cand = (-score, len(pieces), pieces)
        if best is None or cand < best:
            best = cand
    return -best[0], best[2]


def _exhaustive_path(lik, p_stay):
    """Best 2-state path by enumeration; lexicographically smallest on ties."""
    lik = np.asarray(lik, dtype=np.float64)
    T = lik.shape[0]
    with np.errstate(divide="ignore"):
        ll = np.log(lik)
    lt = np.log(np.array([[p_stay, 1.0 - p_stay], [1.0 - p_stay, p_stay]]))
    cands = []
    for bits in itertools.product((0, 1), repeat=T):
        score = math.log(0.5) + ll[0, bits[0]]
        for t in range(1, T):
            score += lt[bits[t - 1], bits[t]] + ll[t, bits[t]]
        cands.append((score, bits))
    top = max(s for s, _ in cands)
    return min(b for s, b in cands if s == top)


def _edit_distance(ref, hyp):
    """Single-row Levenshtein, written independently of the aligner."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i]
        for j, h in enumerate(hyp, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (r != h)))
        prev = cur
    return prev[-1]


# -- gates ---------------------------------------------------------------------


def test_ctc_loss_matches_alignment_enumeration():
    rng = np.random.default_rng(5)
    for n_symbols in (1, 2, 3):
        v = n_symbols + 1  # ids 1..n plus blank 0
        for t in range(1, 7):
            p = rng.uniform(0.05, 1.0, (t, v))
            p /= p.sum(axis=1, keepdims=True)
            mass = {}
            for path in itertools.product(range(v), repeat=t):
                prob = 1.0
                for i, z in enumerate(path):
                    prob *= p[i, z]
                key = _collapse(path, 0)
                mass[key] = mass.get(key, 0.0) + prob
            for length in range(0, 4):
                for labels in itertools.product(range(1, v), repeat=length):
                    if min_frames(labels) > t:
                        with pytest.raises(InfeasibleAlignmentError):
                            ctc_forward_backward(np.log(p), list(labels), blank=0)
                        continue
                    loss = -ctc_forward_backward(np.log(p), list(labels), blank=0)[0]
                    ref = math.log(mass[labels])
                    assert abs((-loss - ref) / ref) <= 1e-10, (t, labels)


def test_gradient_checks_cover_every_layer():
    rng = np.random.default_rng(3)
    reports = {}

    lin = Linear(4, 3, rng, dtype=np.float64)
    x = tt.Tensor(rng.normal(0, 1, (2, 4)), requires_grad=True)
    reports["affine"] = check_gradients(
        lambda: tt.sum_(tt.mul(lin(x), lin(x))), [x, lin.w, lin.b]
    )

    cell = LstmCell(2, 3, rng, dtype=np.float64)
    xs = tt.Tensor(rng.normal(0, 1, (3, 1, 2)), requires_grad=True)

    def lstm_loss():
        h, c = cell.zero_state(1, np.float64)
        for t in range(3):
            h, c = cell(tt.take(xs, t), h, c)
        return tt.sum_(tt.mul(h, h))

    reports["lstm_cell"] = check_gradients(lstm_loss, [xs, cell.w, cell.b])

    block = VggBlock(1, 2, rng, dtype=np.float64)
    xb = tt.Tensor(rng.normal(0, 1, (1, 4, 4, 1)), requires_grad=True)

    def conv_loss():
        y = block(xb)
        return tt.sum_(tt.mul(y, y))

    reports["conv_block"] = check_gradients(conv_loss, [xb] + block.params())

    m = AsrModel(
        7,
        EncoderConfig(input_dim=8, vgg_channels=(2, 3), blstm_layers=1, blstm_units=4),
        AttentionConfig(attn_dim=5, conv_channels=2, conv_filters=3),
        DecoderConfig(layers=1, units=6, embed_dim=4),
        np.random.default_rng(7),
        dtype=np.float64,
    )
    henc = tt.Tensor(rng.normal(0, 1, (1, 4, 8)), requires_grad=True)
    q = tt.Tensor(rng.normal(0, 1, (1, 6)), requires_grad=True)
    a0 = tt.Tensor(np.full((1, 4), 0.25))

    def att_loss():
        a, r = m.attend(a0, q, henc)
        return tt.sum_(tt.mul(r, r)) + tt.sum_(tt.mul(a, a))

    reports["attention"] = check_gradients(
        att_loss, [henc, q, m.att_conv, m.att_vec, m.att_enc.w, m.att_dec.w, m.att_loc.w]
    )

    logits = tt.Tensor(rng.normal(0, 1, (5, 4)), requires_grad=True)
    reports["ctc"] = check_gradients(lambda: ctc_loss_op(logits, [1, 3], 0), [logits])

    feats = [rng.normal(0, 0.5, (9, 8))]
    labels = [[3, 5]]
    reports["hybrid_loss"] = check_gradients(
        lambda: m.hybrid_loss(feats, labels, 0.5),
        [m.block1.w1, m.blstms[0].fw.cell.w, m.att_conv, m.att_vec, m.att_dec.w,
         m.embed.table, m.dec_cells[0].w, m.out.w, m.ctc_out.w],
    )

    failures = {k: r.per_tensor for k, r in reports.items() if not r.passed(1e-5)}
    assert not failures, failures


def test_tokenizer_matches_exhaustive_segmentation_oracles():
    probs = {"a": 0.25, "b": 0.2, "c": 0.05, "ab": 0.15, "bc": 0.1,
             "abc": 0.15, "cab": 0.05, "bb": 0.05}
    vocab = SubwordVocab(
        pieces=tuple(probs), log_probs=tuple(math.log(p) for p in probs.values())
    )
    texts = [
        "".join(chars)
        for n in range(1, 6)
        for chars in itertools.product("abc", repeat=n)
    ] + ["abcabcabca", "abxcabbbca", "cccccccccc"]
    for text in texts:
        got = segment(text, vocab)
        score, pieces = _best_segmentation(text, vocab)
        assert got.pieces == pieces, text
        assert got.log_prob == score, text

    counts = Counter()
    for line in ["abab abab", "aab ab", "abab", "bb aab"]:
        for w in mark_words(line):
            counts[w] += 1
    pieces = sorted({ch for w in counts for ch in w}) + ["ab", "ba", "aab"]
    log_p = {p: math.log(1.0 / len(pieces)) for p in pieces}
    lls = []
    for _ in range(15):
        log_p, ll, _ = em_step(counts, log_p)
        lls.append(ll)
    assert all(cur >= prev - 1e-9 * abs(prev) for prev, cur in zip(lls, lls[1:]))

    trained = train_unigram(["abab"] * 50, target_size=3, seed_max_len=2)
    assert "ab" in trained.pieces


def test_toy_corpus_overfit_reaches_accuracy_and_wer_targets(toy):
    assert toy["model"].vocab_size <= 20
    assert toy["cpu_s"] <= 30 * 60
    acc = toy["model"].teacher_forced_accuracy(
        [f for f, _ in toy["valid"]], [y for _, y in toy["valid"]]
    )
    assert acc >= 0.95
    hyps = decode_batch(
        [f for f, _ in toy["train"]],
        toy["model"],
        None,
        DecodeConfig(beam=5, ctc_weight=0.5),
        batch_size=8,
    )
    pairs = [
        (ids_to_words(y), ids_to_words(h.output_ids))
        for (_, y), h in zip(toy["train"], hyps)
    ]
    assert corpus_score(pairs).wer <= 5.0


def test_joint_decoding_score_contracts(toy):
    model, lm = toy["model"], toy["lm"]
    feats = [f for f, _ in toy["train"][:10]]
    cfg = DecodeConfig(beam=5, ctc_weight=0.5, lm_weight=0.4)
    for f in feats:
        h = decode_one(f, model, lm, cfg)
        att_s, ctc_s, lm_s = rescore(f, model, h.output_ids, lm)
        assert h.score == pytest.approx(
            0.5 * ctc_s + 0.5 * att_s + 0.4 * lm_s, abs=1e-5
        )
    for f in feats[:3]:
        scores = [
            decode_one(f, model, lm, DecodeConfig(beam=b, ctc_weight=0.5, lm_weight=0.4)).score
            for b in (1, 2, 5, 10, 20)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:])), scores
    zero = DecodeConfig(beam=5, ctc_weight=0.5, lm_weight=0.0)
    for f in feats:
        assert decode_one(f, model, lm, zero).output_ids == decode_one(f, model, None, zero).output_ids


def test_batched_decoding_identical_and_faster(toy):
    model, lm = toy["model"], toy["lm"]
    feats = [f for f, _ in toy["train"][:20]]
    cfg = DecodeConfig(beam=10, ctc_weight=0.5, lm_weight=0.4)
    seq = decode_batch(feats, model, lm, cfg, batch_size=1)
    for bs in (2, 8):
        got = decode_batch(feats, model, lm, cfg, batch_size=bs)
        assert [h.output_ids for h in got] == [h.output_ids for h in seq]

    audio_s = sum(f.shape[0] for f in feats) * 0.01  # 10 ms frame shift

    # the two batch sizes take turns, so a slow spell of the host hits both
    best = {1: math.inf, 8: math.inf}
    for _ in range(5):
        for bs in best:
            started = time.perf_counter()
            decode_batch(feats, model, lm, cfg, batch_size=bs)
            best[bs] = min(best[bs], time.perf_counter() - started)

    def measured_rt(bs):
        return rt_factor(best[bs], audio_s)

    assert measured_rt(8) < measured_rt(1)


def test_speech_activity_detection_contracts():
    rng = np.random.default_rng(6)
    for t in (1, 2, 5, 9, 12):
        for _ in range(3):
            lik = rng.uniform(0.05, 1.0, (t, 2))
            assert viterbi_path(lik, 0.99).tolist() == list(_exhaustive_path(lik, 0.99))

    lik = to_pseudo_likelihoods(
        np.array([[0.6, 0.3, 0.1]]), SadTransform(priors=(1 / 3, 1 / 3, 1 / 3))
    )
    assert np.allclose(lik, [[1.8, 1.2]])

    merged = postprocess(SegmentList(spans=((0.0, 4.0), (5.0, 9.0))), 30.0, 10.0)
    assert merged.spans == ((0.0, 9.0),)
    kept = postprocess(SegmentList(spans=((0.0, 6.0), (7.0, 18.0))), 30.0, 10.0)
    assert kept.spans == ((0.0, 6.0), (7.0, 18.0))
    speech_lik = np.ones(4000)
    speech_lik[1700] = 0.01
    split = postprocess(
        SegmentList(spans=((0.0, 40.0),)), 30.0, 10.0,
        speech_lik=speech_lik, frame_shift_ms=10.0,
    )
    assert all(e - s <= 30.0 for s, e in split.spans)
    assert split.spans == postprocess(split, 30.0, 10.0, speech_lik=speech_lik).spans

    rng = make_rng(11)
    train_f, train_y = sad_corpus(24, rng)
    test_f, test_y = sad_corpus(8, rng)
    res = train_sad(
        train_f,
        train_y,
        SadTrainConfig(
            arch=SadConfig(input_dim=40, context=2, hidden=(32,), pool_radius=50),
            epochs=20,
            seed=5,
        ),
    )
    assert frame_accuracy(res.model, test_f, test_y) >= 0.90


def test_scoring_matches_levenshtein_and_pools_counts():
    seqs = [
        list(chars)
        for n in range(0, 7)
        for chars in itertools.product("ab", repeat=n)
    ]
    for ref in seqs:
        for hyp in seqs:
            a = align(ref, hyp)
            assert a.edits == _edit_distance(ref, hyp), (ref, hyp)
    rng = np.random.default_rng(8)
    words = ["da", "re", "mi", "fa", "so"]
    for _ in range(100):
        ref = [words[i] for i in rng.integers(0, 5, rng.integers(0, 7))]
        hyp = [words[i] for i in rng.integers(0, 5, rng.integers(0, 7))]
        if not ref and not hyp:
            continue
        assert align(ref, hyp).edits == _edit_distance(ref, hyp)

    assert corpus_score([("a b c", "a x c")]).wer == pytest.approx(100.0 / 3.0)
    assert round(corpus_score([("a b c", "a x c")]).wer, 2) == 33.33
    assert corpus_score([("a b c", "a x c"), ("d e f", "d e f")]).wer == pytest.approx(100.0 / 6.0)


def test_transcribe_runs_are_byte_identical(world, tmp_path, monkeypatch):
    monkeypatch.setenv("IMSK_SEED", "31337")
    wav, _ = sad_recording(make_rng(17), ["mi", "da", "so"])
    save_audio(tmp_path / "rec.wav", wav)
    outputs = []
    for name in ("first.tsv", "second.tsv"):
        assert run_cli(["transcribe", "--config", str(world["ini"]),
                        "--wav", str(tmp_path / "rec.wav"),
                        "--out", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]
