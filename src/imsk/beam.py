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
builds the prefix states of the extensions that entered the beams of all
the group's utterances and go on.

The steps are the model's own layers (`AsrModel.attend`, `decode_step`,
`LstmLm.lm_step`), run on constant copies of the model and LM made once
per call by `nn.layers.frozen`, so decoding builds no autograd graph.
The copies compute in float64, except the encoder, which keeps the
model's float32 arrays. Each utterance (a lane) owns its float64 encoder
frames and, for its live hypotheses (rows), their tokens, (R,) arrays of
their total and component scores, and their attention weights, decoder
states and LM states, and gathers them by parent row when the beam moves
on; a `Hypothesis` is made only for a row that finishes.
It owns their CTC prefix states as (T, R) arrays too (`ctc.CtcPrefixes`);
the frame recursion writes a lane's survivors as columns in beam order,
so they need no gather. Attention runs once per lane over the lane's own
frames; the decoder and LM steps stack the rows of all lanes in a group.

Batched decoding is bit-identical to sequential decoding because a row's
result depends only on its own inputs and on shapes its lane fixes,
never on how many other rows share a call: every product goes through
`tt.matmul`, which gives each row of a 2-D weight's product the bits of
its row in a zero-padded tile of `tt.TILE_ROWS` rows, whatever the other
rows are. It multiplies the tiles one BLAS call each, or all in one call
where the weight's output width is a multiple of `tt.SINGLE_CALL_WIDTH`
(the cells of LSTMs whose units are a multiple of 64), at which widths
the two give the same bits. Every other operation is elementwise or
reduces within a row. The encoder (`AsrModel.encode_batch`, on the
constant copy) runs its BLSTMs once on the padded batch of all lanes,
and its convolutional blocks per utterance.

After the encoder, a batch's lanes are split into one group per core the
process may use, at most one per lane, and each group runs its own search
on a worker thread (`_lane_groups`: longest lane first, each to the group
with the fewest encoder frames so far). Since a lane's result does not
depend on which lanes share its steps, and the searches only read the
copies, any split gives the same bits; numpy's elementwise operations
and BLAS products release the interpreter lock, so the groups overlap.
With one group the search runs on the calling thread, and no thread
outlives the call. Encoding stays sequential: run per group it would
hold several groups' im2col buffers at once.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ctc import NEG_INF, ctc_prefix_extend, ctc_prefix_initial, ctc_prefix_score_all
from .lm import sequence_log_prob
from .nn import tensor as tt
from .nn.layers import frozen
from .tokenizer import BLANK_ID, SOS_EOS_ID, vocab_fingerprint


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
        if not 0.0 <= self.lm_weight < np.inf:
            raise ValueError("lm_weight must be finite and >= 0")
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

    @property
    def output_ids(self) -> tuple[int, ...]:
        return self.tokens[1:]


class _Lane:
    """Per-utterance search context: encodings, caps, the finished set, and
    the live rows: their sos-prefixed tokens, (rows,) total, attention, CTC
    and LM scores, (rows, .) attention, decoder and LM states, and (T, rows)
    CTC prefix states."""

    def __init__(self, h: np.ndarray, m64, lm64, cfg: DecodeConfig):
        h = self.h = tt.Tensor(h.astype(np.float64))
        self.T = h.shape[1]
        self.vh = m64.precompute_attention(h)
        self.ctc_logp = tt.log_softmax(m64.ctc_out(h)).data[0]
        self.cap = int(self.T * cfg.max_ratio)
        self.tokens: list[tuple[int, ...]] = [(SOS_EOS_ID,)]
        self.score, self.score_att, self.score_ctc, self.score_lm = (np.zeros(1) for _ in range(4))
        self.a = tt.Tensor(np.full((1, self.T), 1.0 / self.T))
        self.dec = m64.initial_decoder_state(1)
        self.lm = lm64.initial_state(1) if lm64 is not None else None
        self.ctc = ctc_prefix_initial(self.ctc_logp, BLANK_ID)
        self.finished: list[Hypothesis] = []
        self.done = False
        # the output step at which the lane next tries to skip CTC columns
        self.next_try = 0

    def best_finished(self) -> Hypothesis:
        return min(self.finished, key=lambda hy: (-hy.score, hy.tokens))


def _stack_states(per_lane: list) -> list:
    """Concatenate per-lane [(h, c), ...] layer states along rows."""
    return [tuple(tt.concat(part) for part in zip(*layer)) for layer in zip(*per_lane)]


def check_vocabularies(model, lm=None, vocab=None) -> None:
    """The tokenizer (if given), the recognizer and the LM (if given) must
    share one vocabulary: equal fingerprints where recorded, and equal
    sizes. A ValueError names the two artifacts that differ."""
    named = [("asr model", model.vocab_hash, model.vocab_size)]
    if vocab is not None:
        named.insert(0, ("tokenizer", vocab_fingerprint(vocab), vocab.size))
    if lm is not None:
        named.append(("lm", lm.vocab_hash, lm.vocab_size))
    present = [(name, h) for name, h, _ in named if h]
    for (na, ha), (nb, hb) in zip(present, present[1:]):
        if ha != hb:
            raise ValueError(
                f"vocabulary hash mismatch between {na} ({ha[:12]}…) and {nb} ({hb[:12]}…)"
            )
    first, _, size = named[0]
    for name, _, n in named[1:]:
        if n != size:
            raise ValueError(f"{name} vocabulary size {n} mismatches {first} size {size}")


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


def _prefix_scores(lane, att, lm, lam, gam, beam, cols):
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
    ctc = np.full(att.shape, NEG_INF)
    ctc[:, SOS_EOS_ID] = lane.ctc.final_log_probs()
    if cols.size == 0:
        return ctc
    rest = np.ones((len(lane.tokens), cols.size), dtype=bool)
    step = len(lane.tokens[0]) - 1
    if step >= lane.next_try and rest.size > beam:
        lm_cols = lm[:, cols] if lm is not None else None
        ub = _joint(lam, lane.score_ctc[:, None], att[:, cols], gam, lm_cols)
        rows, at = np.divmod(np.argpartition(-ub, beam - 1, axis=None)[:beam], cols.size)
        ctc[rows, cols[at]] = ctc_prefix_score_all(lane.ctc, rows, cols[at], lane.ctc_logp)
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
        ctc[rows, cols[at]] = ctc_prefix_score_all(lane.ctc, rows, cols[at], lane.ctc_logp)
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
        y_prev = np.array([t[-1] for lane in live for t in lane.tokens], dtype=np.int64)
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

        lo, grown = 0, []
        for lane, (a_new, _) in zip(live, attended):
            n_rows = len(lane.tokens)
            sl = slice(lo, lo + n_rows)
            lo += n_rows

            # scores of every (row, label) extension; the end-of-sequence
            # column carries the complete-sequence CTC probability
            att = lane.score_att[:, None] + logp_att[sl]
            lm = ctc = None
            if logp_lm is not None:
                lm = lane.score_lm[:, None] + logp_lm[sl]
            emitted = len(lane.tokens[0]) - 1
            labels = labels_eos if emitted >= lane.cap else labels_all
            if run_ctc:
                ctc = _prefix_scores(lane, att, lm, lam, gam, cfg.beam, labels[1:])
            scores = _joint(lam, ctc, att, gam, lm)

            # All rows of a lane hold distinct token sequences of one
            # length, so the (-score, tokens) order of candidates equals
            # the order by (-score, rank of the parent's tokens, label
            # position). A candidate in the lane's top `beam` is in its
            # row's top `beam`, so only those are ranked across rows.
            sub = scores[:, labels]
            top = np.argsort(-sub, axis=1, kind="stable")[:, : cfg.beam]
            row_of = np.repeat(np.arange(n_rows), top.shape[1])
            pos = top.ravel()
            cand = sub[row_of, pos]
            parent_rank = np.argsort(sorted(range(n_rows), key=lane.tokens.__getitem__))
            keep = np.lexsort((pos, parent_rank[row_of], -cand))[: cfg.beam]
            rows, c = row_of[keep], labels[pos[keep]]
            ctc_k = ctc[rows, c] if run_ctc else np.zeros(keep.size)
            lm_k = lm[rows, c] if lm is not None else lane.score_lm[rows]
            picked = (cand[keep], att[rows, c], ctc_k, lm_k)
            ended = c == SOS_EOS_ID
            for r, *scored in zip(rows[ended].tolist(), *(x[ended].tolist() for x in picked)):
                lane.finished.append(Hypothesis(lane.tokens[r], *scored))
            # the survivors, in beam order, and their states, gathered from
            # their parents' rows
            rows, c = rows[~ended], c[~ended]
            lane.tokens = [lane.tokens[r] + (y,) for r, y in zip(rows.tolist(), c.tolist())]
            lane.score, lane.score_att, lane.score_ctc, lane.score_lm = (x[~ended] for x in picked)
            g = sl.start + rows
            lane.a = a_new[rows]
            lane.dec = [(hh[g], cc[g]) for hh, cc in new_dec]
            if new_lm is not None:
                lane.lm = [(hh[g], cc[g]) for hh, cc in new_lm]
            if lane.finished:
                best_done = lane.best_finished().score
                if not rows.size or lane.score.max() <= best_done:
                    lane.done = True
                    lane.ctc = None
            elif not rows.size:
                raise RuntimeError("beam search lost all hypotheses")
            if run_ctc and not lane.done:
                grown.append((lane, (lane.ctc, rows, c, lane.ctc_logp)))

        if grown:
            # frame states only for the extensions that entered a beam and
            # go on, of all lanes in one recursion
            lanes_grown, args = zip(*grown)
            for lane, prefixes in zip(lanes_grown, ctc_prefix_extend(args, BLANK_ID)):
                lane.ctc = prefixes

    return [sorted(lane.finished, key=lambda hy: (-hy.score, hy.tokens)) for lane in lanes]


def check_search_sizes(n: int, batch_size: int) -> None:
    """Raise a ValueError unless the n-best size and the batch size are >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")


def decode_nbest(
    feats, model, lm=None, cfg: DecodeConfig | None = None, n: int = 1, batch_size: int = 1
) -> list[list[Hypothesis]]:
    """Top-n finished hypotheses of each utterance, best first.

    Ranking follows the (score, token sequence) order the search itself
    uses. Up to `batch_size` utterances share the encoder's BLSTMs, and
    their searches run in concurrent groups of lanes that share each step,
    yet every list is identical to the one decoding its utterance alone
    gives. An error in any group reaches the caller. The model and LM are
    used through constant copies (`nn.layers.frozen`), so no autograd
    graph is built and their parameters and gradients are left as they
    are.
    """
    check_search_sizes(n, batch_size)
    cfg = cfg or DecodeConfig()
    check_vocabularies(model, lm)
    m64 = frozen(model, np.float64, keep=model.ENCODER_ATTRS)
    lm64 = frozen(lm, np.float64) if lm is not None and cfg.lm_weight > 0.0 else None
    arrs = [_frames(f) for f in feats]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    results: list[list[Hypothesis]] = []
    for i in range(0, len(arrs), batch_size):
        h, lengths = m64.encode_batch(arrs[i : i + batch_size])
        lanes = [_Lane(h.data[b : b + 1, :t], m64, lm64, cfg) for b, t in enumerate(lengths)]
        groups = _lane_groups(lengths, min(cores or 1, len(lanes)))
        search = lambda g: _search([lanes[k] for k in g], m64, lm64, cfg)
        ranked: dict[int, list[Hypothesis]] = {}
        with ThreadPoolExecutor(len(groups)) as pool:
            for g, part in zip(groups, (pool.map if len(groups) > 1 else map)(search, groups)):
                ranked.update(zip(g, part))
        results.extend(ranked[k][:n] for k in range(len(lanes)))
    return results


def _lane_groups(frames, n_groups: int) -> list[list[int]]:
    """Split lanes, given their encoder frame counts, into `n_groups` lists
    of lane indices, each ascending: longest lane first, each to the group
    with the fewest frames so far, ties to the lowest group index."""
    groups: list[list[int]] = [[] for _ in range(n_groups)]
    load = [0] * n_groups
    for k in sorted(range(len(frames)), key=lambda k: -int(frames[k])):
        g = load.index(min(load))
        groups[g].append(k)
        load[g] += int(frames[k])
    return [sorted(g) for g in groups]


def decode_batch(
    feats, model, lm=None, cfg: DecodeConfig | None = None, batch_size: int = 1
) -> list[Hypothesis]:
    """Best hypothesis of each utterance. Up to `batch_size` utterances
    share each search step; a row's math never depends on the other rows
    of a call (see `tt.matmul`), so tokens and scores are bit-identical to
    decoding each utterance alone."""
    return [ranked[0] for ranked in decode_nbest(feats, model, lm, cfg, 1, batch_size)]


def rescore(feat, model, tokens, lm=None):
    """Teacher-forced component scores of one finished token sequence.

    Returns (att, ctc, lm) log-probabilities of `tokens` (output ids, no
    sos/eos), replayed step by step through the calls the search makes,
    independent of any search state.
    """
    m64 = frozen(model, np.float64, keep=model.ENCODER_ATTRS)
    h, _ = m64.encode_batch([_frames(feat)])
    lane = _Lane(h.data, m64, None, DecodeConfig())
    a, state, att, prev = lane.a, lane.dec, 0.0, SOS_EOS_ID
    for t in list(tokens) + [SOS_EOS_ID]:
        a, r = m64.attend(a, m64.decoder_query(state), lane.h, lane.vh)
        logp, state = m64.decode_step(r, state, np.array([prev], dtype=np.int64))
        att += float(logp.data[0, t])
        prev = t

    ctc = lane.ctc
    for t in tokens:
        (ctc,) = ctc_prefix_extend([(ctc, [0], [t], lane.ctc_logp)], BLANK_ID)
    lm_score = sequence_log_prob(frozen(lm, np.float64), tokens) if lm is not None else 0.0
    return att, float(ctc.final_log_probs()[0]), lm_score
