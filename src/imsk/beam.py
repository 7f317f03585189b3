"""Joint CTC/attention beam search with shallow LM fusion.

Each step every live hypothesis is a candidate parent of every output
label; candidate scores combine the attention decoder, the CTC prefix
probability, and an optional language model:

    score = ctc_weight * log p_ctc + (1 - ctc_weight) * log p_att
          + lm_weight * log p_lm

Hypotheses that emit the end-of-sequence symbol move to a finished set
with their complete-sequence CTC probability. Search stops once no live
hypothesis can still beat the best finished one (component scores only
ever decrease along an extension) or at the output-length cap.

A step works on arrays per utterance. The attention and LM scores of
every candidate are cheap; its CTC prefix score is a sum over frames, and
only candidates that can still enter the beam get one. A prefix's CTC
probability never rises when it is extended, so the score with the
parent's CTC probability in place of the candidate's bounds the
candidate's score. The `beam` candidates best by that bound are scored
exactly, then every candidate whose bound reaches their beam-th best
score, less a rounding margin; the rest cannot enter the beam or tie with
it, and are skipped (`_prefix_scores` derives the margin). Each
hypothesis keeps its best `beam` labels, and the beam is ranked from
those by (-score, tokens). Every score is the same floating-point
expression, in the same order, as a loop over single candidates would
compute, so pruning changes no result. Then one CTC frame recursion
builds the states of the extensions that entered the beams of all
utterances.

The steps are the model's own layers (`AsrModel.attend`, `decode_step`,
`LstmLm.lm_step`), run on constant copies of the model and LM made once
per call by `nn.layers.frozen`, so decoding builds no autograd graph.
The copies compute in float64, except the encoder, which keeps the
model's float32 arrays. Each utterance (a lane) owns its float64 encoder
frames and the attention weights, decoder states and LM states of its
live hypotheses, and gathers them by parent row when the beam moves on.
Attention runs once per lane over the lane's own frames; the decoder and
LM steps stack the rows of all lanes.

Batched decoding is bit-identical to sequential decoding because a row's
result depends only on its own inputs and on shapes its lane fixes,
never on how many other rows share a call: every product goes through
`tt.matmul`, which multiplies each row, or each lane's item, on its own,
and every other operation is elementwise or reduces within a row. The
encoder (`AsrModel.encode_each`) runs its recurrences once for all lanes
but its convolutions and input projections per utterance: those are
products over all frames, and BLAS may round a row of a padded batch's
product differently when the padded length changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctc import (
    NEG_INF,
    CtcPrefixState,
    ctc_prefix_ends,
    ctc_prefix_extend,
    ctc_prefix_initial,
    ctc_prefix_score,
    ctc_prefix_score_all,
)
from .lm import sequence_log_prob
from .nn import tensor as tt
from .nn.layers import frozen
from .tokenizer import BLANK_ID, SOS_EOS_ID


@dataclass(frozen=True)
class DecodeConfig:
    beam: int = 20
    ctc_weight: float = 0.5
    lm_weight: float = 0.5  # published recipes: 0.5 for English, 1.1 for German
    max_ratio: float = 1.0

    def __post_init__(self):
        if self.beam < 1:
            raise ValueError("beam must be >= 1")
        if not 0.0 <= self.ctc_weight <= 1.0:
            raise ValueError("ctc_weight must lie in [0, 1]")
        if self.lm_weight < 0.0:
            raise ValueError("lm_weight must be >= 0")
        if not 0.0 < self.max_ratio <= 1.0:
            raise ValueError("max_ratio must lie in (0, 1]")


@dataclass
class Hypothesis:
    """One beam entry: sos-prefixed tokens plus component log-scores."""

    tokens: tuple[int, ...]
    score: float
    score_att: float
    score_ctc: float
    score_lm: float
    ctc_state: CtcPrefixState | None = None
    finished: bool = False

    @property
    def output_ids(self) -> tuple[int, ...]:
        return self.tokens[1:]


# attributes of the encoder, which decodes in float32 on the model's arrays
_ENCODER = ("block1", "block2", "blstms")


class _Lane:
    """Per-utterance search context: encodings, caps, live and done sets,
    and the (rows, .) attention, decoder and LM states of the live rows."""

    def __init__(self, h: tt.Tensor, m64, lm64, cfg: DecodeConfig):
        h = self.h = tt.Tensor(h.data.astype(np.float64))
        self.T = h.shape[1]
        self.vh = m64.precompute_attention(h)
        self.ctc_logp = tt.log_softmax(m64.ctc_out(h)).data[0]
        self.cap = int(self.T * cfg.max_ratio)
        start = Hypothesis(
            tokens=(SOS_EOS_ID,),
            score=0.0,
            score_att=0.0,
            score_ctc=0.0,
            score_lm=0.0,
            ctc_state=ctc_prefix_initial(self.ctc_logp, BLANK_ID),
        )
        self.active: list[Hypothesis] = [start]
        self.a = tt.Tensor(np.full((1, self.T), 1.0 / self.T))
        self.dec = m64.initial_decoder_state(1)
        self.lm = lm64.initial_state(1) if lm64 is not None else None
        self.finished: list[Hypothesis] = []
        self.done = False
        # the output step at which the lane next tries to skip CTC columns
        self.next_try = 0

    def best_finished(self) -> Hypothesis:
        return min(self.finished, key=lambda hy: (-hy.score, hy.tokens))


def _stack_states(per_lane: list) -> list:
    """Concatenate per-lane [(h, c), ...] layer states along rows."""
    return [tuple(tt.concat(part) for part in zip(*layer)) for layer in zip(*per_lane)]


def _check_vocab(model, lm):
    if lm is None:
        return
    mh = getattr(model, "vocab_hash", "")
    lh = getattr(lm, "vocab_hash", "")
    if mh and lh and mh != lh:
        raise ValueError(f"vocabulary mismatch: model hash {mh!r} != lm hash {lh!r}")
    if lm.vocab_size != model.vocab_size:
        raise ValueError(
            f"vocabulary mismatch: model size {model.vocab_size}, lm size {lm.vocab_size}"
        )


def _frames(feat) -> np.ndarray:
    arr = feat.frames if hasattr(feat, "frames") else np.asarray(feat)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError("empty feature matrix")
    return arr


def _label_order(vocab_size: int) -> np.ndarray:
    """Candidate labels in tie-break order: end-of-sequence first, since a
    finished hypothesis keeps its parent's tokens, which sort before any
    extension of them; then the other non-blank labels ascending."""
    rest = [c for c in range(vocab_size) if c not in (BLANK_ID, SOS_EOS_ID)]
    return np.array([SOS_EOS_ID] + rest, dtype=np.int64)


# Margin of the pruning bound, in units of T * eps * (1 + |s|); see
# _prefix_scores.
_PRUNE_ULPS = 256
_EPS = float(np.finfo(np.float64).eps)


def _joint(lam, ctc, att, gam, lm):
    """The combined score of candidates, or a bound on it: one expression,
    so that a bound and a score round alike."""
    return (
        (lam * ctc if ctc is not None else 0.0)
        + (1.0 - lam) * att
        + (gam * lm if lm is not None else 0.0)
    )


def _prefix_scores(lane, hyps, att, lm, lam, gam, beam, cols):
    """(R, V) CTC prefix scores of a lane's candidates: exact for every
    candidate that can still enter the beam and for end-of-sequence, -inf
    for the rest. `cols` are the label columns the lane may extend by.

    An alignment that starts with g+c starts with g, so psi(g+c) <= psi(g),
    and `ub`, the combined score with the parent's stored psi(g) for
    psi(g+c), bounds the candidate's score: correctly rounded +, * and
    logaddexp are monotone, so a computed bound stays a bound but for the
    rounding that can put a computed psi(g+c) above the stored psi(g). The
    `beam` candidates best by `ub` are scored first; s is the beam-th best
    of their scores and the end-of-sequence ones. Every other candidate
    with ub >= s - margin is scored too, and the rest are skipped. Where
    nothing can be skipped, as with a model whose CTC output is nearly
    flat, the first pass is wasted, so a lane tries again only at
    exponentially spaced steps while its tries skip nothing, and scores
    every candidate in one pass in between. A score's bits do not depend
    on the pass that computes it.

    The margin covers that rounding. A computed psi is a chain of at most
    2T frame steps (the extension recursions down to g, then the sum over
    frames), each a logaddexp and an addition that round by at most 4 ulps
    of what they combine. A logaddexp passes on its inputs' errors weighted
    by their shares of its result, and over the T terms of a sum the shares
    times the terms' magnitudes add up to at most |psi| + ln T. So a psi is
    within 4 T eps (1 + ln T + |psi|) of its exact value, and psi(g+c) can
    exceed the stored psi(g) by twice that. With every term a log
    probability (<= 0) a candidate's score is then at most
    e (1 + |ub|) over its bound, e = 8 T eps (1 + ln T), and a margin of
    2e (1 + |s|) skips only candidates scoring strictly below s: at least
    `beam` scored candidates beat each of them, so their -inf can neither
    enter the beam nor tie. For T up to 20,000, ln T < 10, so
    _PRUNE_ULPS = 256 > 2 * 8 * 11 covers the margin in units of
    T eps (1 + |s|). If s is -inf nothing is skipped, so -inf ties break
    as before.
    """
    states = [hy.ctc_state for hy in hyps]
    ctc = np.full(att.shape, NEG_INF)
    ctc[:, SOS_EOS_ID] = [st.final_log_prob() for st in states]
    if cols.size == 0:
        return ctc
    ends = ctc_prefix_ends(states)
    rest = np.ones((len(hyps), cols.size), dtype=bool)
    step = len(hyps[0].tokens) - 1
    if step >= lane.next_try and rest.size > beam:
        lm_cols = lm[:, cols] if lm is not None else None
        ub = _joint(lam, np.array([hy.score_ctc for hy in hyps])[:, None], att[:, cols], gam, lm_cols)
        rows, at = np.divmod(np.argpartition(-ub, beam - 1, axis=None)[:beam], cols.size)
        ctc[rows, cols[at]] = ctc_prefix_score_all(ends, rows, cols[at], lane.ctc_logp)
        # the columns not scored yet hold -inf, below every score in s's
        # place unless fewer than `beam` scores are finite
        known = _joint(lam, ctc, att, gam, lm)[:, np.append(SOS_EOS_ID, cols)]
        s = np.partition(known, known.size - beam, axis=None)[known.size - beam]
        rest = ub >= s - _PRUNE_ULPS * lane.T * _EPS * (1.0 + abs(s))
        if rest.all():
            # a try that skips nothing costs a pass, so after one at step t
            # the lane scores every candidate in one pass until step 2t + 1
            lane.next_try = 2 * step + 1
        rest[rows, at] = False
    rows, at = np.nonzero(rest)
    if rows.size:
        ctc[rows, cols[at]] = ctc_prefix_score_all(ends, rows, cols[at], lane.ctc_logp)
    return ctc


def _search(lanes: list[_Lane], m64, lm64, cfg: DecodeConfig):
    """Run the lanes to completion with the float64 model and LM copies;
    returns each lane's finished hypotheses, best first by (-score, tokens)."""
    lam = cfg.ctc_weight
    gam = cfg.lm_weight if lm64 is not None else 0.0
    # a zero weight times an infeasible -inf prefix score would poison the
    # sum with NaN, so without CTC weight skip CTC entirely
    run_ctc = lam > 0.0
    labels_all = _label_order(m64.vocab_size)
    labels_eos = labels_all[:1]

    while True:
        live = [lane for lane in lanes if not lane.done]
        if not live:
            break
        y_prev = np.array([hy.tokens[-1] for lane in live for hy in lane.active], dtype=np.int64)
        attended = [
            m64.attend(lane.a, m64.decoder_query(lane.dec), lane.h, lane.vh) for lane in live
        ]
        r = tt.concat([ctx for _, ctx in attended])
        logp_att, new_dec = m64.decode_step(r, _stack_states([lane.dec for lane in live]), y_prev)
        logp_att = logp_att.data
        logp_lm = new_lm = None
        if lm64 is not None:
            logp_lm, new_lm = lm64.lm_step(_stack_states([lane.lm for lane in live]), y_prev)
            logp_lm = logp_lm.data

        lo, picks = 0, []
        for lane in live:
            hyps = lane.active
            sl = slice(lo, lo + len(hyps))
            lo += len(hyps)

            # scores of every (row, label) extension; the end-of-sequence
            # column carries the complete-sequence CTC probability
            att = np.array([hy.score_att for hy in hyps])[:, None] + logp_att[sl]
            lm = ctc = None
            if logp_lm is not None:
                lm = np.array([hy.score_lm for hy in hyps])[:, None] + logp_lm[sl]
            emitted = len(hyps[0].tokens) - 1
            labels = labels_eos if emitted >= lane.cap else labels_all
            if run_ctc:
                ctc = _prefix_scores(lane, hyps, att, lm, lam, gam, cfg.beam, labels[1:])
            scores = _joint(lam, ctc, att, gam, lm)

            # All rows of a lane hold distinct token sequences of one
            # length, so the (-score, tokens) order of candidates equals
            # the order by (-score, rank of the parent's tokens, label
            # position). A candidate in the lane's top `beam` is in its
            # row's top `beam`, so only those are ranked across rows.
            sub = scores[:, labels]
            top = np.argsort(-sub, axis=1, kind="stable")[:, : cfg.beam]
            row_of = np.repeat(np.arange(len(hyps)), top.shape[1])
            pos = top.ravel()
            cand = sub[row_of, pos]
            parent_rank = np.argsort(sorted(range(len(hyps)), key=lambda i: hyps[i].tokens))
            keep = np.lexsort((pos, parent_rank[row_of], -cand))[: cfg.beam]
            picked = [(int(row_of[k]), int(labels[pos[k]]), float(cand[k])) for k in keep]
            picks.append((sl, att, lm, ctc, picked))

        if run_ctc:
            # frame states only for the extensions that entered a beam, of
            # all lanes in one recursion
            grown = [
                (lane.ctc_logp, lane.active[ri].ctc_state, c, ctc[ri, c])
                for lane, (_, _, _, ctc, picked) in zip(live, picks)
                for ri, c, _ in picked
                if c != SOS_EOS_ID
            ]
            if grown:
                logps, states, cs, psi = zip(*grown)
                new_states = iter(ctc_prefix_extend(states, cs, psi, logps, BLANK_ID))

        for lane, (a_new, _), (sl, att, lm, ctc, picked) in zip(live, attended, picks):
            hyps = lane.active
            new_active, parents = [], []
            for ri, c, s in picked:
                hyp = hyps[ri]
                att2 = float(att[ri, c])
                ctc2 = float(ctc[ri, c]) if run_ctc else 0.0
                lm2 = float(lm[ri, c]) if lm is not None else hyp.score_lm
                if c == SOS_EOS_ID:
                    lane.finished.append(
                        Hypothesis(
                            tokens=hyp.tokens,
                            score=s,
                            score_att=att2,
                            score_ctc=ctc2,
                            score_lm=lm2,
                            ctc_state=hyp.ctc_state,
                            finished=True,
                        )
                    )
                    continue
                parents.append(ri)
                new_active.append(
                    Hypothesis(
                        tokens=hyp.tokens + (c,),
                        score=s,
                        score_att=att2,
                        score_ctc=ctc2,
                        score_lm=lm2,
                        ctc_state=next(new_states) if run_ctc else hyp.ctc_state,
                    )
                )
            lane.active = new_active
            # the survivors' states, gathered from their parents' rows
            rows = np.array(parents, dtype=np.int64)
            g = sl.start + rows
            lane.a = a_new[rows]
            lane.dec = [(hh[g], cc[g]) for hh, cc in new_dec]
            if new_lm is not None:
                lane.lm = [(hh[g], cc[g]) for hh, cc in new_lm]
            if lane.finished:
                best_done = lane.best_finished().score
                if not lane.active or max(hy.score for hy in lane.active) <= best_done:
                    lane.done = True
                    lane.active = []
            elif not lane.active:
                raise RuntimeError("beam search lost all hypotheses")

    return [sorted(lane.finished, key=lambda hy: (-hy.score, hy.tokens)) for lane in lanes]


def decode_nbest(
    feats, model, lm=None, cfg: DecodeConfig | None = None, n: int = 1, batch_size: int = 1
) -> list[list[Hypothesis]]:
    """Top-n finished hypotheses of each utterance, best first.

    Ranking follows the (score, token sequence) order the search itself
    uses. Up to `batch_size` utterances share the encoder's recurrences
    and each search step, yet every list is identical to the one decoding
    its utterance alone gives. The model and LM are used through constant
    copies (`nn.layers.frozen`), so no autograd graph is built and their
    parameters and gradients are left as they are.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    cfg = cfg or DecodeConfig()
    _check_vocab(model, lm)
    m64 = frozen(model, np.float64, keep=_ENCODER)
    lm64 = frozen(lm, np.float64) if lm is not None and cfg.lm_weight > 0.0 else None
    arrs = [_frames(f) for f in feats]
    results: list[list[Hypothesis]] = []
    for i in range(0, len(arrs), batch_size):
        lanes = [_Lane(h, m64, lm64, cfg) for h in m64.encode_each(arrs[i : i + batch_size])]
        results.extend(ranked[:n] for ranked in _search(lanes, m64, lm64, cfg))
    return results


def decode_batch(
    feats, model, lm=None, cfg: DecodeConfig | None = None, batch_size: int = 1
) -> list[Hypothesis]:
    """Best hypothesis of each utterance. Up to `batch_size` utterances
    share each search step; a row's math never depends on the other rows
    of a call (see `tt.matmul`), so tokens and scores are bit-identical to
    decoding each utterance alone."""
    return [ranked[0] for ranked in decode_nbest(feats, model, lm, cfg, 1, batch_size)]


def decode(feat, model, lm=None, cfg: DecodeConfig | None = None) -> Hypothesis:
    """Best finished hypothesis for one utterance."""
    return decode_batch([feat], model, lm, cfg)[0]


def rescore(feat, model, tokens, lm=None):
    """Teacher-forced component scores of one finished token sequence.

    Returns (att, ctc, lm) log-probabilities of `tokens` (output ids, no
    sos/eos), replayed step by step through the calls the search makes,
    independent of any search state.
    """
    m64 = frozen(model, np.float64, keep=_ENCODER)
    (h,) = m64.encode_each([_frames(feat)])
    lane = _Lane(h, m64, None, DecodeConfig())
    a, state, att, prev = lane.a, lane.dec, 0.0, SOS_EOS_ID
    for t in list(tokens) + [SOS_EOS_ID]:
        a, r = m64.attend(a, m64.decoder_query(state), lane.h, lane.vh)
        logp, state = m64.decode_step(r, state, np.array([prev], dtype=np.int64))
        att += float(logp.data[0, t])
        prev = t

    ctc = lane.active[0].ctc_state
    for t in tokens:
        _, ctc = ctc_prefix_score(ctc, int(t), lane.ctc_logp, BLANK_ID)
    lm_score = sequence_log_prob(frozen(lm, np.float64), tokens) if lm is not None else 0.0
    return att, ctc.final_log_prob(), lm_score
