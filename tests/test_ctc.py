"""CTC tests: brute-force alignment oracle, gradients, prefix scoring."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from imsk import ctc
from imsk.ctc import (
    CtcPrefixState,
    InfeasibleAlignmentError,
    ctc_forward_backward,
    ctc_loss,
    ctc_loss_op,
    ctc_posteriors,
    ctc_prefix_ends,
    ctc_prefix_extend,
    ctc_prefix_initial,
    ctc_prefix_score,
    ctc_prefix_score_all,
    min_frames,
)
from imsk.nn import tensor as tt
from imsk.nn.gradcheck import check_gradients

RNG = np.random.default_rng(31)


def random_posteriors(t, v):
    p = RNG.uniform(0.05, 1.0, (t, v))
    return p / p.sum(axis=1, keepdims=True)


def collapse(path, blank):
    out = []
    prev = None
    for z in path:
        if z != prev and z != blank:
            out.append(z)
        prev = z
    return tuple(out)


def brute_force_log_prob(posteriors, labels, blank):
    """Sum the probability of every frame path that collapses to labels."""
    t, v = posteriors.shape
    total = 0.0
    for path in itertools.product(range(v), repeat=t):
        if collapse(path, blank) == tuple(labels):
            p = 1.0
            for i, z in enumerate(path):
                p *= posteriors[i, z]
            total += p
    return math.log(total) if total > 0 else -np.inf


class TestPosteriors:
    def test_rows_normalized(self):
        p = ctc_posteriors(RNG.normal(0, 3, (7, 5)))
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)

    def test_zero_logits_uniform(self):
        p = ctc_posteriors(np.zeros((3, 4)))
        assert np.allclose(p, 0.25)

    def test_width_is_vocab_plus_blank(self):
        assert ctc_posteriors(np.zeros((2, 6))).shape == (2, 6)


class TestLoss:
    def test_single_frame_single_label(self):
        p = random_posteriors(1, 3)
        loss, _ = ctc_loss(p, [1], blank=0)
        assert np.isclose(loss, -math.log(p[0, 1]))

    def test_two_frames_single_label_three_paths(self):
        p = random_posteriors(2, 3)
        loss, _ = ctc_loss(p, [1], blank=0)
        expected = p[0, 1] * p[1, 1] + p[0, 1] * p[1, 0] + p[0, 0] * p[1, 1]
        assert np.isclose(loss, -math.log(expected), rtol=1e-12)

    def test_repeat_needs_separating_blank(self):
        p = random_posteriors(2, 3)
        with pytest.raises(InfeasibleAlignmentError):
            ctc_loss(p, [1, 1], blank=0)
        # three frames suffice: a blank fits between the repeats
        loss, _ = ctc_loss(random_posteriors(3, 3), [1, 1], blank=0)
        assert np.isfinite(loss)

    def test_min_frames(self):
        assert min_frames([]) == 0
        assert min_frames([1]) == 1
        assert min_frames([1, 1]) == 3
        assert min_frames([1, 2, 2, 2]) == 6

    def test_matches_brute_force_everywhere(self):
        for v in [2, 3]:
            for t in range(1, 5):
                for length in range(0, 4):
                    for labels in itertools.product(range(1, v), repeat=length):
                        if min_frames(labels) > t:
                            continue
                        p = random_posteriors(t, v)
                        loss, _ = ctc_loss(p, list(labels), blank=0)
                        ref = brute_force_log_prob(p, labels, 0)
                        assert abs((-loss - ref) / ref) < 1e-10 or abs(-loss - ref) < 1e-12

    def test_total_probability_at_most_one(self):
        for t in [3, 4]:
            p = random_posteriors(t, 3)  # two labels plus blank
            total = 0.0
            for length in range(0, t + 1):
                for labels in itertools.product([1, 2], repeat=length):
                    if min_frames(labels) > t:
                        continue
                    loss, _ = ctc_loss(p, list(labels), blank=0)
                    total += math.exp(-loss)
            assert total <= 1.0 + 1e-9
            # every frame path collapses to something, so the sum is exactly 1
            assert np.isclose(total, 1.0, atol=1e-9)

    def test_gradient_rows_sum_to_zero(self):
        p = random_posteriors(5, 4)
        _, grad = ctc_loss(p, [1, 2, 3], blank=0)
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_label_validation(self):
        p = random_posteriors(3, 3)
        with pytest.raises(ValueError):
            ctc_loss(p, [0], blank=0)  # blank as label
        with pytest.raises(ValueError):
            ctc_loss(p, [7], blank=0)  # out of range

    def test_loss_against_finite_differences(self):
        for t, v, labels in [(4, 3, [1, 2]), (6, 4, [1, 1, 3]), (5, 3, [2])]:
            logits = tt.Tensor(RNG.normal(0, 1, (t, v)), requires_grad=True)
            report = check_gradients(lambda: ctc_loss_op(logits, labels, blank=0), [logits])
            assert report.passed(1e-6), report.per_tensor

    def test_loss_op_matches_numeric_loss(self):
        logits = RNG.normal(0, 1, (5, 4))
        loss_t = ctc_loss_op(tt.Tensor(logits), [1, 3], blank=0)
        loss_n, _ = ctc_loss(ctc_posteriors(logits), [1, 3], blank=0)
        assert np.isclose(loss_t.item(), loss_n, rtol=1e-10)


class TestPrefixScoring:
    def test_empty_prefix_blank_path(self):
        p = random_posteriors(4, 3)
        lp = np.log(p)
        state = ctc_prefix_initial(lp, blank=0)
        assert np.allclose(state.r_b, np.cumsum(lp[:, 0]))
        assert np.all(state.r_nb == -np.inf)
        assert np.isclose(state.final_log_prob(), lp[:, 0].sum())

    def test_full_sequence_matches_ctc_loss(self):
        for trial in range(20):
            t = int(RNG.integers(1, 7))
            v = int(RNG.integers(2, 4))
            length = int(RNG.integers(0, 4))
            labels = [int(RNG.integers(1, v)) for _ in range(length)]
            if min_frames(labels) > t:
                continue
            p = random_posteriors(t, v)
            lp = np.log(p)
            state = ctc_prefix_initial(lp, blank=0)
            for lab in labels:
                _, state = ctc_prefix_score(state, lab, lp, blank=0)
            loss, _ = ctc_loss(p, labels, blank=0)
            assert np.isclose(state.final_log_prob(), -loss, atol=1e-6)

    def test_prefix_probability_monotone(self):
        p = random_posteriors(6, 3)
        lp = np.log(p)
        state = ctc_prefix_initial(lp, blank=0)
        prev_psi = 0.0
        for lab in [1, 2, 1]:
            psi, state = ctc_prefix_score(state, lab, lp, blank=0)
            assert psi <= prev_psi + 1e-12
            prev_psi = psi
        assert state.final_log_prob() <= state.log_psi + 1e-12

    def test_vectorized_matches_scalar(self):
        p = random_posteriors(5, 4)
        lp = np.log(p)
        state = ctc_prefix_initial(lp, blank=0)
        _, state = ctc_prefix_score(state, 2, lp, blank=0)
        psi = full_psi([state], lp, blank=0)[0]
        labels = [1, 2, 3]
        extended = ctc_prefix_extend([state] * 3, labels, psi[labels], lp, blank=0)
        for lab, ext in zip(labels, extended):
            s_psi, s_state = ctc_prefix_score(state, lab, lp, blank=0)
            assert psi[lab] == s_psi
            assert np.array_equal(ext.r_nb, s_state.r_nb)
            assert np.array_equal(ext.r_b, s_state.r_b)
            assert ext.last_label == lab and ext.log_psi == s_psi
        assert psi[0] == -np.inf

    def test_blank_extension_rejected(self):
        p = random_posteriors(3, 3)
        state = ctc_prefix_initial(np.log(p), blank=0)
        with pytest.raises(ValueError):
            ctc_prefix_score(state, 0, np.log(p), blank=0)

    def test_repeat_label_requires_blank_frame(self):
        # T=2 cannot host (1,1); the prefix state must assign it -inf
        p = random_posteriors(2, 3)
        lp = np.log(p)
        state = ctc_prefix_initial(lp, blank=0)
        _, state = ctc_prefix_score(state, 1, lp, blank=0)
        _, state = ctc_prefix_score(state, 1, lp, blank=0)
        assert state.final_log_prob() == -np.inf


def reference_extend_all(r_nb_prev, r_b_prev, last, lp, blank):
    """One hypothesis extended by every label, frame by frame: returns
    (psi, r_nb, r_b) with (T, V) state matrices."""
    T, V = lp.shape
    phi = np.empty((T, V))
    for t in range(T):
        if t == 0:
            ended_b = 0.0 if last == -1 else -np.inf
            ended_nb = -np.inf
        else:
            ended_b, ended_nb = r_b_prev[t - 1], r_nb_prev[t - 1]
        phi[t] = np.logaddexp(ended_b, ended_nb)
        if last >= 0:
            phi[t, last] = ended_b
    phi[:, blank] = -np.inf
    r_nb = np.full((T, V), -np.inf)
    r_b = np.full((T, V), -np.inf)
    for c in range(V):
        if c == blank:
            continue
        for t in range(T):
            nb_prev = r_nb[t - 1, c] if t else -np.inf
            b_prev = r_b[t - 1, c] if t else -np.inf
            r_nb[t, c] = np.logaddexp(nb_prev, phi[t, c]) + lp[t, c]
            r_b[t, c] = np.logaddexp(b_prev, nb_prev) + lp[t, blank]
    psi = np.full(V, -np.inf)
    for c in range(V):
        if c != blank:
            acc = phi[0, c] + lp[0, c]
            for t in range(1, T):
                acc = np.logaddexp(acc, phi[t, c] + lp[t, c])
            psi[c] = acc
    return psi, r_nb, r_b


def random_prefix_states(rng, lp, blank, count):
    """States of random prefixes built by the reference recursion: the
    empty prefix, and label sequences with repeats, some infeasible."""
    T, V = lp.shape
    labels = [c for c in range(V) if c != blank]
    states = []
    for _ in range(count):
        r_nb = np.full(T, -np.inf)
        r_b = np.cumsum(lp[:, blank])
        last, log_psi = -1, 0.0
        for _ in range(int(rng.integers(0, 4))):
            c = last if last >= 0 and rng.random() < 0.4 else int(rng.choice(labels))
            psi, all_nb, all_b = reference_extend_all(r_nb, r_b, last, lp, blank)
            r_nb, r_b, last, log_psi = all_nb[:, c], all_b[:, c], c, psi[c]
        states.append(CtcPrefixState(r_nb.copy(), r_b.copy(), last, float(log_psi)))
    return states


def full_psi(states, lp, blank):
    """Oracle: the (R, V) prefix scores of every one-label extension, from
    one (T, R, V) reduction over frames."""
    r_b = np.stack([s.r_b for s in states], axis=1)
    r_nb = np.stack([s.r_nb for s in states], axis=1)
    first = np.array([0.0 if s.last_label == -1 else -np.inf for s in states])
    prev_b = np.concatenate([first[None], r_b[:-1]])
    prev_nb = np.concatenate([np.full((1, len(states)), -np.inf), r_nb[:-1]])
    phi = np.logaddexp(prev_b, prev_nb)[:, :, None] + lp[:, None, :]
    last = np.array([s.last_label for s in states])
    rows = np.flatnonzero(last >= 0)
    phi[:, rows, last[rows]] = prev_b[:, rows] + lp[:, last[rows]]
    with np.errstate(invalid="ignore"):
        psi = np.logaddexp.reduce(phi, axis=0)
    psi[:, blank] = -np.inf
    return psi


def pair_psi(states, lp, blank):
    """The (R, V) matrix of full_psi, from one pair-scorer call over every
    (row, non-blank label) pair."""
    R, V = len(states), lp.shape[1]
    rows, labels = np.divmod(np.arange(R * V), V)
    keep = labels != blank
    psi = np.full((R, V), -np.inf)
    ends = ctc_prefix_ends(states)
    psi[rows[keep], labels[keep]] = ctc_prefix_score_all(ends, rows[keep], labels[keep], lp)
    return psi


class TestPairScorer:
    """The (row, label) pair scorer against the full (T, R, V) reduction."""

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.integers(1, 60),
        v=st.integers(3, 30),
        n_states=st.integers(1, 6),
        impossible=st.integers(0, 2),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @example(t=1, v=3, n_states=1, impossible=0, seed=0, data=None)
    @example(t=40, v=5, n_states=4, impossible=2, seed=3, data=None)
    def test_pairs_equal_full_reduction(self, t, v, n_states, impossible, seed, data):
        # any subset of pairs in any order, repeats and single pairs
        # included; labels of probability 0 give -inf columns
        rng = np.random.default_rng(seed)
        blank = int(rng.integers(0, v))
        p = rng.uniform(0.05, 1.0, (t, v))
        p[:, rng.choice([c for c in range(v) if c != blank], impossible, replace=False)] = 0.0
        with np.errstate(divide="ignore"):
            lp = np.log(p / p.sum(axis=1, keepdims=True))
        states = random_prefix_states(rng, lp, blank, n_states)
        oracle = full_psi(states, lp, blank)
        assert np.array_equal(pair_psi(states, lp, blank), oracle)
        pairs = [(r, c) for r in range(n_states) for c in range(v) if c != blank]
        if data is None:
            picked = [pairs[-1]]
        else:
            picked = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3 * len(pairs)))
        rows, labels = map(np.array, zip(*picked))
        got = ctc_prefix_score_all(ctc_prefix_ends(states), rows, labels, lp)
        assert got.shape == (len(picked),)
        assert np.array_equal(got, oracle[rows, labels])

    def test_extensions_stay_within_the_pruning_slack(self):
        # psi(g+c) <= psi(g) exactly; computed, it may exceed the stored
        # psi(g) only by the rounding the search's margin allows for:
        # 8 T eps (1 + ln T + |psi(g)|)
        rng = np.random.default_rng(13)
        eps = np.finfo(np.float64).eps
        for _ in range(80):
            t, v = int(rng.integers(1, 200)), int(rng.integers(3, 12))
            blank = int(rng.integers(0, v))
            lp = np.log(random_posteriors(t, v))
            states = random_prefix_states(rng, lp, blank, int(rng.integers(1, 5)))
            psi = pair_psi(states, lp, blank)
            for st_, row in zip(states, psi):
                if st_.log_psi == -np.inf:
                    assert np.all(row == -np.inf)
                    continue
                slack = 8 * t * eps * (1 + np.log(t) + abs(st_.log_psi))
                assert np.all(row <= st_.log_psi + slack)


class TestLaneBatchedPrefix:
    """Lane-batched scores and survivor-only states against a
    per-hypothesis reference recursion, bit for bit."""

    def test_matches_reference_recursion(self):
        rng = np.random.default_rng(5)
        seen_empty = seen_repeat = 0
        for _ in range(60):
            t, v = int(rng.integers(1, 9)), int(rng.integers(3, 7))
            blank = int(rng.integers(0, v))
            lp = np.log(random_posteriors(t, v))
            states = random_prefix_states(rng, lp, blank, int(rng.integers(1, 6)))
            psi = pair_psi(states, lp, blank)
            assert psi.shape == (len(states), v)
            refs = [reference_extend_all(s.r_nb, s.r_b, s.last_label, lp, blank) for s in states]
            for row, (ref_psi, _, _) in zip(psi, refs):
                assert np.array_equal(row, ref_psi)

            # survivors: random (row, label) pairs, repeats of the last label included
            pairs = []
            for _ in range(int(rng.integers(1, 8))):
                r = int(rng.integers(len(states)))
                last = states[r].last_label
                if last >= 0 and rng.random() < 0.5:
                    c = last
                else:
                    c = int(rng.choice([c for c in range(v) if c != blank]))
                pairs.append((r, c))
            extended = ctc_prefix_extend(
                [states[r] for r, _ in pairs], [c for _, c in pairs],
                [psi[r, c] for r, c in pairs], lp, blank,
            )
            for (r, c), ext in zip(pairs, extended):
                _, ref_nb, ref_b = refs[r]
                assert np.array_equal(ext.r_nb, ref_nb[:, c])
                assert np.array_equal(ext.r_b, ref_b[:, c])
                assert ext.last_label == c and ext.log_psi == psi[r, c]
                seen_repeat += c == states[r].last_label
            seen_empty += sum(s.last_label == -1 for s in states)
        assert seen_empty and seen_repeat

    def test_joint_lanes_equal_one_call_per_lane(self):
        # one call over the survivors of several utterances (lanes) of
        # different lengths, each with its own posteriors, against one call
        # per lane; a lane may have no survivor
        rng = np.random.default_rng(17)
        seen = {"empty": 0, "repeat": 0, "no survivor": 0, "lengths differ": 0}
        for _ in range(60):
            v = int(rng.integers(3, 7))
            blank = int(rng.integers(0, v))
            lanes = []
            for _ in range(int(rng.integers(2, 5))):
                lp = np.log(random_posteriors(int(rng.integers(1, 9)), v))
                states = random_prefix_states(rng, lp, blank, int(rng.integers(1, 5)))
                psi = full_psi(states, lp, blank)
                grown = []
                for _ in range(int(rng.integers(0, 6))):
                    r = int(rng.integers(len(states)))
                    st = states[r]
                    if st.last_label >= 0 and rng.random() < 0.5:
                        c = st.last_label
                    else:
                        c = int(rng.choice([c for c in range(v) if c != blank]))
                    grown.append((st, c, psi[r, c]))
                    seen["repeat"] += c == st.last_label
                    seen["empty"] += st.last_label == -1
                seen["no survivor"] += not grown
                lanes.append((lp, grown))
            joint_in = [(lp, st, c, p) for lp, grown in lanes for st, c, p in grown]
            if not joint_in:
                continue
            seen["lengths differ"] += len({lp.shape[0] for lp, _ in lanes}) > 1
            lps, states, cs, psis = zip(*joint_in)
            joint = iter(ctc_prefix_extend(states, cs, psis, lps, blank))
            for lp, grown in lanes:
                if not grown:
                    continue
                alone = ctc_prefix_extend(*map(list, zip(*grown)), lp, blank)
                for one, both in zip(alone, joint):
                    assert np.array_equal(both.r_nb, one.r_nb)
                    assert np.array_equal(both.r_b, one.r_b)
                    assert both.last_label == one.last_label and both.log_psi == one.log_psi
            assert next(joint, None) is None
        assert all(seen.values()), seen

    def test_completed_sequences_match_forward_backward(self):
        rng = np.random.default_rng(9)
        checked = infeasible = 0
        for _ in range(40):
            t, v = int(rng.integers(1, 9)), int(rng.integers(3, 6))
            blank = int(rng.integers(0, v))
            labels = [c for c in range(v) if c != blank]
            lp = np.log(random_posteriors(t, v))
            seqs = [[int(c) for c in rng.choice(labels, int(rng.integers(0, 5)))]
                    for _ in range(int(rng.integers(1, 5)))]
            # extend every sequence in lockstep, one batched call per length
            states = [ctc_prefix_initial(lp, blank) for _ in seqs]
            for step in range(max(len(s) for s in seqs)):
                live = [i for i, s in enumerate(seqs) if len(s) > step]
                labels = [seqs[i][step] for i in live]
                ends = ctc_prefix_ends([states[i] for i in live])
                psi = ctc_prefix_score_all(ends, range(len(live)), labels, lp)
                grown = ctc_prefix_extend([states[i] for i in live], labels, psi, lp, blank)
                for i, st in zip(live, grown):
                    states[i] = st
            for seq, st in zip(seqs, states):
                if min_frames(seq) > t:
                    assert st.final_log_prob() == -np.inf
                    with pytest.raises(InfeasibleAlignmentError):
                        ctc_forward_backward(lp, seq, blank)
                    infeasible += 1
                    continue
                log_z, _ = ctc_forward_backward(lp, seq, blank)
                assert st.final_log_prob() == pytest.approx(log_z, rel=1e-12, abs=1e-12)
                checked += 1
        assert checked and infeasible
