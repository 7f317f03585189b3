"""Speech activity detection: posteriors, Viterbi segmentation, post-processing."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import (
    check_gradients,
    corrupt,
    frame_accuracy,
    record_requires_grad,
    run_at_blas_threads,
    sad_corpus,
    unblocked_windowed_sum_data,
)
from imsk.audio import BLOCK
from imsk.nn import tensor as tt
from imsk.nn.checkpoint import CheckpointError
from imsk.nn.layers import frozen
from imsk.nn.optim import OPTIMIZERS, DivergedError
from imsk.sad import (
    GARBAGE,
    SILENCE,
    SPEECH,
    SadConfig,
    SadModel,
    SadTrainConfig,
    SadTransform,
    SegmentList,
    load_sad,
    path_to_segments,
    postprocess,
    read_segments,
    sad_posteriors,
    save_sad,
    to_pseudo_likelihoods,
    train_sad,
    viterbi_path,
    viterbi_segments,
    write_segments,
)
from imsk.util import make_rng

TINY = SadConfig(input_dim=5, context=1, hidden=(6,), pool_radius=2)


# -- model ---------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SadConfig(input_dim=0)
    with pytest.raises(ValueError):
        SadConfig(context=-1)
    with pytest.raises(ValueError):
        SadConfig(pool_radius=0)
    with pytest.raises(ValueError):
        SadConfig(hidden=())
    with pytest.raises(ValueError):
        SadTrainConfig(epochs=0)


def test_train_config_checks_the_optimizer_name():
    # checked when the config is built, not after train_sad has read the data
    with pytest.raises(ValueError, match="unknown optimizer: 'nope'"):
        SadTrainConfig(optimizer="nope")
    for name in OPTIMIZERS:
        assert SadTrainConfig(optimizer=name).optimizer == name


def test_posterior_rows_normalized():
    rng = make_rng(0)
    m = SadModel(TINY, rng)
    post = sad_posteriors(rng.standard_normal((13, 5)), m)
    assert post.shape == (13, 3)
    assert np.all(post > 0)
    np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-6)


@pytest.mark.parametrize(
    "cfg, T", [(TINY, 13), (SadConfig(), 13), (SadConfig(), 5000)], ids=["tiny-13", "default-13", "default-5000"]
)
def test_posteriors_build_no_graph(monkeypatch, cfg, T):
    # training's forward and the blocked constant copy: the same bits
    rng = make_rng(0)
    m = SadModel(cfg, rng)
    f = rng.standard_normal((T, cfg.input_dim))
    expected = np.exp(m.log_posteriors(f).data)
    made = record_requires_grad(monkeypatch)
    assert np.array_equal(sad_posteriors(f, m), expected)
    assert made and not any(made)
    assert all(p.requires_grad for p in m.params())


def _unblocked_sad_posteriors(f, model):
    """The whole-recording sad_posteriors that the blocked one replaced:
    each layer of a constant copy over one (1, T, ...) item, kept as its
    oracle."""
    net = frozen(model, model.dtype)
    T, c = f.shape[0], net.cfg.context
    idx = np.clip(np.arange(T)[:, None] + np.arange(-c, c + 1)[None, :], 0, T - 1)
    h = tt.reshape(tt.take(tt.Tensor(np.asarray(f, dtype=net.dtype)), idx), (1, T, -1))
    for lin in net.layers:
        h = tt.relu(lin(h))
    h = tt.reshape(net.pool(tt.reshape(h, (T, -1))), (1, T, -1))
    return np.exp(tt.log_softmax(tt.reshape(net.out(h), (T, 3))).data)


def check_blocked_posteriors_equal_unblocked():
    """Frame counts around one and two blocks, around a block edge plus or
    minus the overlap (context + pool_radius) and where the last block's
    first frame meets pool_radius, plus random ones; raises on a
    mismatch."""
    rng = np.random.default_rng(8)
    # a float64 model keeps the pooling's float64 sums unrounded, so a
    # wrong carry shows in the last bits
    for cfg, dtype in ((SadConfig(), np.float32), (SadConfig(input_dim=6, context=3, hidden=(8, 5), pool_radius=700), np.float32),
                       (SadConfig(input_dim=6, context=1, hidden=(7,), pool_radius=30), np.float64)):
        model = SadModel(cfg, make_rng(1), dtype)
        overlap = cfg.context + cfg.pool_radius
        counts = {1, 2, 2047, 2048, 2049, 4095, 4096, 4097, *rng.integers(3, 9000, size=4).tolist()}
        for k in (-1, 0, 1):
            for edge in (BLOCK, 2 * BLOCK):
                counts |= {edge - overlap + k, edge + overlap + k}
            counts.add(BLOCK + cfg.pool_radius + k)
        for T in sorted(counts):
            f = rng.normal(0, 1, (T, cfg.input_dim)).astype(dtype)
            assert np.array_equal(sad_posteriors(f, model), _unblocked_sad_posteriors(f, model)), (cfg, T)


@pytest.mark.parametrize("threads", [1, 2])
def test_blocked_posteriors_equal_unblocked(threads):
    run_at_blas_threads(threads, "test_sad.check_blocked_posteriors_equal_unblocked")


def test_posterior_dim_mismatch():
    m = SadModel(TINY, make_rng(0))
    with pytest.raises(ValueError, match="input_dim"):
        m.log_posteriors(np.zeros((4, 7)))


def test_stats_pooling_constant_input_has_zero_std():
    m = SadModel(TINY, make_rng(0))
    h = tt.Tensor(np.full((9, 6), 1.25))
    pooled = m.pool(h).data
    np.testing.assert_array_equal(pooled[:, 12:], 0.0)
    np.testing.assert_array_equal(pooled[:, 6:12], 1.25)


def test_full_stack_gradients():
    rng = make_rng(3)
    cfg = SadConfig(input_dim=3, context=1, hidden=(4,), pool_radius=2)
    m = SadModel(cfg, rng, dtype=np.float64)
    feat = rng.standard_normal((7, 3))
    labels = rng.integers(0, 3, size=7)
    rows = np.arange(7)

    def loss():
        logp = m.log_posteriors(feat)
        return tt.neg(tt.mean_(tt.take(logp, (rows, labels))))

    report = check_gradients(loss, m.params())
    assert report.passed(1e-5), report.per_tensor


# -- pseudo-likelihoods --------------------------------------------------------


def test_transform_validation():
    with pytest.raises(ValueError, match="positive"):
        SadTransform(priors=(0.5, 0.5, 0.0))
    with pytest.raises(ValueError, match="sum to 1"):
        SadTransform(priors=(0.5, 0.4, 0.2))
    with pytest.raises(ValueError, match="2x3"):
        SadTransform(proportions=((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="column"):
        SadTransform(proportions=((1.0, 0.5, 0.0), (0.5, 1.0, 0.5)))


def test_pseudo_likelihood_hand_example():
    lik = to_pseudo_likelihoods(np.array([[0.6, 0.3, 0.1]]), SadTransform())
    np.testing.assert_allclose(lik, [[1.8, 1.2]], atol=1e-12)


def test_pseudo_likelihood_at_priors_gives_row_sums():
    t = SadTransform(
        priors=(0.5, 0.25, 0.25),
        proportions=((0.2, 0.5, 0.1), (0.8, 0.5, 0.9)),
    )
    lik = to_pseudo_likelihoods(np.array([[0.5, 0.25, 0.25]] * 4), t)
    np.testing.assert_allclose(lik, [[0.8, 2.2]] * 4, atol=1e-12)


def test_pseudo_likelihood_positive_and_linear():
    rng = make_rng(1)
    t = SadTransform()
    p1 = rng.dirichlet((1.0, 1.0, 1.0), size=6)
    p2 = rng.dirichlet((2.0, 1.0, 0.5), size=6)
    assert np.all(to_pseudo_likelihoods(p1, t) > 0)
    combo = to_pseudo_likelihoods(0.3 * p1 + 0.7 * p2, t)
    parts = 0.3 * to_pseudo_likelihoods(p1, t) + 0.7 * to_pseudo_likelihoods(p2, t)
    np.testing.assert_allclose(combo, parts, atol=1e-12)


def test_pseudo_likelihood_shape_error():
    with pytest.raises(ValueError, match="shape"):
        to_pseudo_likelihoods(np.zeros((4, 2)), SadTransform())


# -- Viterbi -------------------------------------------------------------------


def _exhaustive_best(lik, p_stay):
    """Best path over all 2^T assignments; lexicographically smallest on ties."""
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


def test_dominant_state_single_segment():
    lik = np.array([[0.1, 10.0]] * 25)
    segs = viterbi_segments(lik, 0.99, frame_shift_ms=10.0)
    assert segs.spans == ((0.0, 0.25),)


@pytest.mark.parametrize("T", [1, 2, 5, 8, 12])
@pytest.mark.parametrize("p_stay", [0.6, 0.9, 0.99])
def test_viterbi_matches_exhaustive(T, p_stay):
    rng = make_rng(100 * T + int(100 * p_stay))
    for _ in range(3):
        lik = rng.uniform(0.05, 5.0, size=(T, 2))
        path = viterbi_path(lik, p_stay)
        assert tuple(path) == _exhaustive_best(lik, p_stay)


def test_viterbi_tie_prefers_silence():
    lik = np.ones((10, 2))
    assert np.all(viterbi_path(lik, 0.9) == SILENCE)
    assert tuple(viterbi_path(lik, 0.9)) == _exhaustive_best(lik, 0.9)


def _switches(path):
    return int(np.sum(path[1:] != path[:-1]))


def test_higher_p_stay_never_adds_switches():
    rng = make_rng(9)
    lik = rng.uniform(0.05, 5.0, size=(80, 2))
    grid = (0.55, 0.7, 0.9, 0.99, 0.999)
    counts = [_switches(viterbi_path(lik, p)) for p in grid]
    assert counts == sorted(counts, reverse=True)


def test_viterbi_errors():
    with pytest.raises(ValueError, match="shape"):
        viterbi_path(np.zeros((0, 2)), 0.99)
    with pytest.raises(ValueError, match="shape"):
        viterbi_path(np.zeros((4, 3)), 0.99)
    with pytest.raises(ValueError, match="p_stay"):
        viterbi_path(np.ones((4, 2)), p_stay=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
def test_viterbi_rejects_unscorable_likelihoods(bad):
    lik = np.ones((6, 2))
    lik[3, 1] = bad
    lik[5, 0] = bad
    with pytest.raises(ValueError, match=r"finite and >= 0; frame 3 has"):
        viterbi_path(lik, 0.9)


def test_viterbi_zero_likelihood_is_log_zero():
    lik = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    assert tuple(viterbi_path(lik, 0.9)) == _exhaustive_best(lik, 0.9)


def _numpy_viterbi(lik, p_stay):
    """The vectorised recursion viterbi_path replaced, kept as its oracle."""
    T = lik.shape[0]
    with np.errstate(divide="ignore"):
        ll = np.log(lik)
    lt = np.log(np.array([[p_stay, 1.0 - p_stay], [1.0 - p_stay, p_stay]]))
    suffix = np.zeros((T, 2))
    for t in range(T - 2, -1, -1):
        cont = lt + (ll[t + 1] + suffix[t + 1])[None, :]
        suffix[t] = cont.max(axis=1)
    path = np.empty(T, dtype=np.int64)
    start = math.log(0.5) + ll[0] + suffix[0]
    path[0] = int(np.argmax(start))
    for t in range(1, T):
        step = lt[path[t - 1]] + ll[t] + suffix[t]
        path[t] = int(np.argmax(step))
    return path


# a small value pool makes ties and zero likelihoods frequent
_LIK_VALUES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e-300, 1e300]),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(_LIK_VALUES, _LIK_VALUES), min_size=1, max_size=300),
    p_stay=st.one_of(
        st.sampled_from([1e-12, 1e-6, 0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-12]),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ),
    tied=st.booleans(),
)
def test_viterbi_equals_numpy_recursion(rows, p_stay, tied):
    lik = np.array(rows, dtype=np.float64)
    if tied:
        lik[:, 1] = lik[:, 0]
    assert np.array_equal(viterbi_path(lik, p_stay), _numpy_viterbi(lik, p_stay))


def test_path_to_segments():
    segs = path_to_segments(np.array([0, 1, 1, 0, 1]), frame_shift_ms=10.0)
    assert segs.spans == ((0.01, 0.03), (0.04, 0.05))
    tail = path_to_segments(np.array([0, 0, 1, 1]), frame_shift_ms=100.0)
    assert tail.spans == ((0.2, 0.4),)
    assert path_to_segments(np.zeros(6, dtype=int)).spans == ()


def test_viterbi_segments_composition():
    rng = make_rng(4)
    lik = rng.uniform(0.05, 5.0, size=(30, 2))
    direct = viterbi_segments(lik, 0.9, frame_shift_ms=20.0)
    assert direct.spans == path_to_segments(viterbi_path(lik, 0.9), 20.0).spans


# -- post-processing -----------------------------------------------------------


def test_segment_list_validation():
    with pytest.raises(ValueError, match="invalid span"):
        SegmentList(((1.0, 1.0),))
    with pytest.raises(ValueError, match="sorted"):
        SegmentList(((2.0, 3.0), (1.0, 4.0)))


def test_postprocess_merges_close_neighbours():
    out = postprocess(SegmentList(((0.0, 4.0), (5.0, 9.0))), 30.0, 10.0)
    assert out.spans == ((0.0, 9.0),)


def test_postprocess_leaves_wide_gap_alone():
    out = postprocess(SegmentList(((0.0, 6.0), (7.0, 12.0))), 30.0, 10.0)
    assert out.spans == ((0.0, 6.0), (7.0, 12.0))


def test_postprocess_splits_long_segment():
    out = postprocess(SegmentList(((0.0, 40.0),)), 30.0, 10.0)
    assert out.spans == ((0.0, 20.0), (20.0, 40.0))
    assert all(e - s <= 30.0 for s, e in out)
    assert out[0][0] == 0.0 and out[-1][1] == 40.0
    for (_, e), (s, _) in zip(out, out[1:]):
        assert e == s


def test_postprocess_splits_at_likelihood_minimum():
    lik = np.full(4000, 5.0)
    lik[1700] = 0.01
    out = postprocess(SegmentList(((0.0, 40.0),)), 30.0, 10.0, speech_lik=lik, frame_shift_ms=10.0)
    assert out.spans == ((0.0, 17.0), (17.0, 40.0))


def test_postprocess_minimum_outside_middle_half_ignored():
    lik = np.full(4000, 5.0)
    lik[100] = 0.01  # deepest dip, but outside the middle half of (0, 40)
    lik[2500] = 1.0
    out = postprocess(SegmentList(((0.0, 40.0),)), 30.0, 10.0, speech_lik=lik, frame_shift_ms=10.0)
    assert out.spans == ((0.0, 25.0), (25.0, 40.0))


def test_postprocess_idempotent():
    rng = make_rng(2)
    lik = rng.uniform(0.1, 4.0, size=9000)
    segs = SegmentList(((0.0, 3.0), (3.5, 8.0), (9.0, 14.0), (20.0, 65.0), (80.0, 90.0)))
    once = postprocess(segs, 30.0, 10.0, speech_lik=lik)
    twice = postprocess(once, 30.0, 10.0, speech_lik=lik)
    assert once.spans == twice.spans
    assert all(e - s <= 30.0 for s, e in once)


def test_postprocess_without_likelihoods_idempotent():
    segs = SegmentList(((0.0, 2.0), (2.5, 6.0), (10.0, 75.0)))
    once = postprocess(segs, 30.0, 10.0)
    assert once.spans == postprocess(once, 30.0, 10.0).spans


@pytest.mark.parametrize("bad", [float("nan"), 0.0, -1.0])
def test_postprocess_rejects_bad_limits(bad):
    # each once sent the split into unbounded recursion, and a NaN
    # merge_max turned merging off
    segs = SegmentList(((0.0, 5.0), (6.0, 9.0)))
    with pytest.raises(ValueError, match="max_speech"):
        postprocess(segs, bad, 1.0, speech_lik=np.zeros(1000))
    if bad != 0.0:
        with pytest.raises(ValueError, match="merge_max"):
            postprocess(segs, 30.0, bad, speech_lik=np.zeros(1000))


# -- training ------------------------------------------------------------------


def test_train_priors_and_decreasing_loss():
    rng = make_rng(11)
    feats, labels = sad_corpus(4, rng)
    cfg = SadTrainConfig(arch=SadConfig(hidden=(16,), pool_radius=50), epochs=3, seed=5)
    res = train_sad(feats, labels, cfg)
    counts = np.zeros(3)
    for y in labels:
        counts += np.bincount(y, minlength=3)
    np.testing.assert_allclose(res.priors, counts / counts.sum(), atol=1e-12)
    assert abs(sum(res.priors) - 1.0) < 1e-12
    assert res.losses[0] > res.losses[1] > res.losses[2]


def test_train_input_validation():
    f = [np.zeros((5, 40))]
    with pytest.raises(ValueError, match="lie in"):
        train_sad(f, [np.array([0, 1, 2, 3, 0])])
    with pytest.raises(ValueError, match="align"):
        train_sad(f, [np.zeros(4, dtype=int)])
    with pytest.raises(ValueError, match="non-empty"):
        train_sad([], [])


def test_train_rejects_a_class_with_no_frame():
    # priors from these labels would be (0.5, 0.5, 0.0), which no later
    # segment or transcribe run accepts
    f = [np.zeros((4, 5))]
    cfg = SadTrainConfig(arch=TINY, epochs=1)
    with pytest.raises(ValueError, match="no Garbage frame"):
        train_sad(f, [np.array([0, 1, 0, 1])], cfg)
    with pytest.raises(ValueError, match="no Silence or Garbage frame"):
        train_sad(f, [np.ones(4, dtype=int)], cfg)


def test_train_rejects_an_utterance_with_no_frame():
    # it failed inside the network with a bare reshape error
    f = [np.zeros((6, 5)), np.zeros((0, 5)), np.zeros((3, 5))]
    labels = [np.arange(6) % 3, np.zeros(0, dtype=int), np.zeros(3, dtype=int)]
    with pytest.raises(ValueError, match="^utterance 1 has no frames$"):
        train_sad(f, labels, SadTrainConfig(arch=TINY, epochs=1))


@pytest.mark.parametrize("entry", ["sad_posteriors", "log_posteriors"])
def test_no_frames_are_rejected(entry):
    m = SadModel(TINY)
    f = np.zeros((0, TINY.input_dim))
    with pytest.raises(ValueError, match="^SAD input has no frames$"):
        sad_posteriors(f, m) if entry == "sad_posteriors" else m.log_posteriors(f)


def test_load_rejects_a_zero_prior(tmp_path):
    path = tmp_path / "sad.ckpt"
    save_sad(path, SadModel(TINY), (0.46, 0.54, 0.0))
    with pytest.raises(CheckpointError, match=f"{path}: priors must be 3 positive values"):
        load_sad(path)


def test_train_divergence_names_epoch_and_batch():
    rng = make_rng(3)
    f = [rng.normal(0, 1, (6, 5)) for _ in range(2)]
    f[1][2, 0] = np.nan
    labels = [np.arange(6) % 3] * 2
    with pytest.raises(DivergedError, match="at epoch 1, batch 1$"):
        train_sad(f, labels, SadTrainConfig(arch=TINY, epochs=1, seed=5))


def test_train_is_unchanged_by_the_slice_windowed_sum(monkeypatch):
    # losses as float hex, and the trained state, against training through
    # the fancy-index windowed sum that the slices replaced
    feats, labels = sad_corpus(2, make_rng(4), dur_s=0.4)
    cfg = SadTrainConfig(arch=SadConfig(pool_radius=7), epochs=2, seed=3)
    got = train_sad(feats, labels, cfg)
    monkeypatch.setattr(tt, "_windowed_sum_data", lambda x, r: (unblocked_windowed_sum_data(x, r), None))
    ref = train_sad(feats, labels, cfg)
    assert [x.hex() for x in got.losses] == [x.hex() for x in ref.losses]
    state, ref_state = got.model.state_dict(), ref.model.state_dict()
    assert all(np.array_equal(state[k], ref_state[k]) for k in ref_state)


def test_synthetic_corpus_accuracy():
    rng = make_rng(11)
    train_f, train_y = sad_corpus(24, rng)
    test_f, test_y = sad_corpus(8, rng)
    cfg = SadTrainConfig(
        arch=SadConfig(input_dim=40, context=2, hidden=(32,), pool_radius=50),
        epochs=20,
        seed=5,
    )
    res = train_sad(train_f, train_y, cfg)
    assert frame_accuracy(res.model, test_f, test_y) >= 0.90


# -- segments file -------------------------------------------------------------


def test_segments_file_roundtrip(tmp_path):
    p = tmp_path / "segments.tsv"
    write_segments(
        p,
        [
            ("recA", SegmentList(((0.0, 1.5), (2.0, 3.756)))),
            ("recB", SegmentList(((0.25, 9.0),))),
        ],
    )
    text = p.read_text()
    assert "recA-0000\trecA\t0.00\t1.50" in text
    assert "recA-0001\trecA\t2.00\t3.76" in text
    rows = read_segments(p)
    assert rows == [
        ("recA-0000", "recA", 0.0, 1.5),
        ("recA-0001", "recA", 2.0, 3.76),
        ("recB-0000", "recB", 0.25, 9.0),
    ]


def test_segments_file_keeps_unicode_line_separators(tmp_path):
    # a line ends at a newline only, as the file iteration this reader
    # once used had it, not at the other separators str.splitlines knows
    p = tmp_path / "segments.tsv"
    write_segments(p, [("a\u2028b", SegmentList(((0.0, 1.5),))), ("c\x1cd\x85", SegmentList(((2.0, 3.0),)))])
    assert read_segments(p) == [
        ("a\u2028b-0000", "a\u2028b", 0.0, 1.5),
        ("c\x1cd\x85-0000", "c\x1cd\x85", 2.0, 3.0),
    ]


def test_segments_file_rejects_bad_row(tmp_path):
    p = tmp_path / "segments.tsv"
    p.write_text("only\tthree\tfields\n")
    with pytest.raises(ValueError, match="4 tab-separated"):
        read_segments(p)


@pytest.mark.parametrize(
    "row, message",
    [
        ("s\tr\t0.50\tx", "expected times 0 <= start <= end, got '0.50', 'x'"),
        ("s\tr\tnan\t1.00", "expected times 0 <= start <= end, got 'nan', '1.00'"),
        ("s\tr\t0.50\tinf", "expected times 0 <= start <= end, got '0.50', 'inf'"),
        ("s\tr\t2.00\t1.00", "expected times 0 <= start <= end, got '2.00', '1.00'"),
        ("s\tr\t-1.00\t1.00", "expected times 0 <= start <= end, got '-1.00', '1.00'"),
        ("s\tr\t0.50\t1.00\tx", "expected 4 tab-separated fields, got 5"),
    ],
    ids=["not a number", "nan", "inf", "start after end", "negative start", "five fields"],
)
def test_segments_file_names_the_bad_line(tmp_path, row, message):
    # a time that was not a number once raised float()'s error without the
    # file, and nan or a start after its end were read as segments
    p = tmp_path / "segments.tsv"
    p.write_text(f"a\tr\t0.00\t0.50\n\n{row}\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_segments(p)
    assert str(exc.value) == f"{p}:3: {message}"


def test_segments_file_rejects_bytes_that_are_not_utf8(tmp_path):
    # once a bare UnicodeDecodeError that named no file
    p = tmp_path / "segments.tsv"
    p.write_bytes(b"a\tr\t0.00\t0.50\nb\tr\xff\t0.50\t1.00\n")
    with pytest.raises(ValueError, match=f"^{p}: not UTF-8 text .* at byte 17, line 2"):
        read_segments(p)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_segments_file_corruptions_raise_only_value_error(tmp_path, data):
    p = tmp_path / "segments.tsv"
    write_segments(p, [("recA", SegmentList(((0.0, 1.5), (2.0, 3.756)))), ("recB", SegmentList(((0.25, 9.0),)))])
    p.write_bytes(corrupt(data, p.read_bytes()))
    try:
        rows = read_segments(p)
    except ValueError as exc:
        assert str(exc).startswith(f"{p}:") and len(str(exc)) > len(f"{p}: ")
    else:
        assert all(len(r) == 4 and 0.0 <= r[2] <= r[3] < math.inf for r in rows)


def test_segments_file_empty(tmp_path):
    p = tmp_path / "segments.tsv"
    write_segments(p, [])
    assert p.read_text() == ""
    assert read_segments(p) == []
