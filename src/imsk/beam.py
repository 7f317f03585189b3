"""Joint CTC/attention beam search with shallow LM fusion.

Each step every live hypothesis is expanded over the full output
vocabulary; candidate scores combine the attention decoder, the CTC
prefix probability, and an optional language model:

    score = ctc_weight * log p_ctc + (1 - ctc_weight) * log p_att
          + lm_weight * log p_lm

Hypotheses that emit the end-of-sequence symbol move to a finished set
with their complete-sequence CTC probability. Search stops once no live
hypothesis can still beat the best finished one (component scores only
ever decrease along an extension) or at the output-length cap.

A step works on arrays per utterance: one reduction over frames gives
the CTC prefix scores of every live hypothesis and label, each hypothesis
keeps its best `beam` labels, the beam is ranked from those by (-score,
tokens), and CTC frame states are built only for the extensions that
enter it. Every score is the same floating-point expression, in the same
order, as a loop over single candidates would compute.

Each utterance (a lane) owns its encoder frames and the attention
weights, decoder states and LM states of its live hypotheses as arrays,
and gathers them by parent row when the beam moves on. Attention runs
per lane over the lane's own frames; the decoder and LM steps stack the
rows of all lanes. Every kernel is row-stable: a row's result depends
only on its own inputs and on shapes its lane fixes, never on how many
other rows share the call, so batched decoding is bit-identical to
sequential decoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ctc import (
    CtcPrefixState,
    ctc_prefix_extend,
    ctc_prefix_initial,
    ctc_prefix_score,
    ctc_prefix_score_all,
)
from .tokenizer import BLANK_ID, SOS_EOS_ID


@dataclass(frozen=True)
class DecodeConfig:
    beam: int = 20
    ctc_weight: float = 0.5
    lm_weight: float = 0.5
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


# -- row-stable inference kernels ---------------------------------------------
#
# np.matmul loops over the leading axes of stacked operands and computes
# each slice on its own (one BLAS call per slice), so a slice's bits depend
# only on that slice and on the core matrix shapes; a single 2-D product
# would not give that, since BLAS may sum an M=1 product differently from
# an M>1 one. Linear layers therefore multiply each row as a (1, I) @ (I, O)
# slice, and attention stacks a lane's rows over (T, .) cores that the
# lane's own frame count fixes. np.einsum with its default (unoptimized)
# path sums each output element in a plain sequential loop, which keeps the
# softmax denominators row-stable; np.sum would not guarantee that.


def _rows_linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(x[:, None, :], w)[:, 0] + b


def _rows_log_softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    s = np.einsum("bv->b", e)
    return (z - m) - np.log(s)[:, None]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _lstm_rows(w, b, x, h, c):
    z = _rows_linear(np.concatenate([x, h], axis=1), w, b)
    H = h.shape[1]
    i = _sigmoid(z[:, :H])
    f = _sigmoid(z[:, H : 2 * H])
    g = np.tanh(z[:, 2 * H : 3 * H])
    o = _sigmoid(z[:, 3 * H :])
    c2 = f * c + i * g
    return o * np.tanh(c2), c2


def _f64(t) -> np.ndarray:
    return np.asarray(t.data, dtype=np.float64).copy()


class _AsrKernel:
    """float64 copies of the recognizer weights for search-time math."""

    def __init__(self, model):
        self.vocab_size = model.vocab_size
        self.embed = _f64(model.embed.table)
        self.cells = [(_f64(c.w), _f64(c.b)) for c in model.dec_cells]
        self.units = model.dec_cfg.units
        self.out_w, self.out_b = _f64(model.out.w), _f64(model.out.b)
        self.ctc_w, self.ctc_b = _f64(model.ctc_out.w), _f64(model.ctc_out.b)
        self.enc_w, self.enc_b = _f64(model.att_enc.w), _f64(model.att_enc.b)
        self.dec_w, self.dec_b = _f64(model.att_dec.w), _f64(model.att_dec.b)
        self.loc_w, self.loc_b = _f64(model.att_loc.w), _f64(model.att_loc.b)
        self.conv = _f64(model.att_conv)
        self.vec = _f64(model.att_vec)

    def zero_dec_state(self, rows: int):
        z = np.zeros((rows, self.units))
        return [(z.copy(), z.copy()) for _ in self.cells]

    def attend(self, a_prev, q, h, vh):
        """One step for the (R, T) weights of a lane's rows over its (T, D)
        encodings h and (T, A) keys vh: new weights and (R, D) contexts."""
        R, T = a_prev.shape
        K = self.conv.shape[0]
        P = (K - 1) // 2
        pad = np.zeros((R, T + K - 1))
        pad[:, P : P + T] = a_prev
        win = sliding_window_view(pad, K, axis=1)
        # conv and projection stay two products: a fused (K, A) filter
        # costs K*A instead of C*(K+A) per frame
        pre = np.matmul(np.matmul(win, self.conv), self.loc_w)
        pre += self.loc_b
        pre += vh
        pre += _rows_linear(q, self.dec_w, self.dec_b)[:, None, :]
        np.tanh(pre, out=pre)
        scores = pre @ self.vec
        m = scores.max(axis=1, keepdims=True)
        e = np.exp(scores - m)
        s = np.einsum("bt->b", e)
        a = e / s[:, None]
        return a, np.matmul(a[:, None, :], h)[:, 0]

    def decode_rows(self, r, states, y_prev):
        x = np.concatenate([self.embed[y_prev], r], axis=1)
        new_states = []
        for (h, c), (w, b) in zip(states, self.cells):
            h, c = _lstm_rows(w, b, x, h, c)
            new_states.append((h, c))
            x = h
        return _rows_log_softmax(_rows_linear(x, self.out_w, self.out_b)), new_states


class _LmKernel:
    """float64 copies of the LM weights; mirrors LstmLm.lm_step."""

    def __init__(self, lm):
        self.embed = _f64(lm.embed.table)
        self.cells = [(_f64(c.w), _f64(c.b)) for c in lm.cells]
        self.units = lm.units
        self.out_w, self.out_b = _f64(lm.out.w), _f64(lm.out.b)

    def zero_state(self, rows: int):
        z = np.zeros((rows, self.units))
        return [(z.copy(), z.copy()) for _ in self.cells]

    def step(self, states, ids):
        x = self.embed[ids]
        new_states = []
        for (h, c), (w, b) in zip(states, self.cells):
            h, c = _lstm_rows(w, b, x, h, c)
            new_states.append((h, c))
            x = h
        return _rows_log_softmax(_rows_linear(x, self.out_w, self.out_b)), new_states


class _Lane:
    """Per-utterance search context: encodings, caps, live and done sets,
    and the (rows, .) attention, decoder and LM states of the live rows."""

    def __init__(self, h64: np.ndarray, kern: _AsrKernel, lmk, cfg: DecodeConfig):
        self.T = h64.shape[0]
        self.h = h64
        self.vh = _rows_linear(h64, kern.enc_w, kern.enc_b)
        ctc_logits = _rows_linear(h64, kern.ctc_w, kern.ctc_b)
        self.ctc_logp = _rows_log_softmax(ctc_logits)
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
        self.a = np.full((1, self.T), 1.0 / self.T)
        self.dec = kern.zero_dec_state(1)
        self.lm = lmk.zero_state(1) if lmk is not None else None
        self.finished: list[Hypothesis] = []
        self.done = False

    def best_finished(self) -> Hypothesis:
        return min(self.finished, key=lambda hy: (-hy.score, hy.tokens))


def _stack_states(per_lane: list) -> list:
    """Concatenate per-lane [(h, c), ...] layer states along rows."""
    return [tuple(np.concatenate(part) for part in zip(*layer)) for layer in zip(*per_lane)]


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


def _search(lanes: list[_Lane], kern: _AsrKernel, lmk, cfg: DecodeConfig):
    """Run the lanes to completion; returns each lane's finished
    hypotheses, best first by (-score, tokens)."""
    lam = cfg.ctc_weight
    gam = cfg.lm_weight if lmk is not None else 0.0
    # a zero weight times an infeasible -inf prefix score would poison the
    # sum with NaN, so without CTC weight skip CTC entirely
    run_ctc = lam > 0.0
    labels_all = _label_order(kern.vocab_size)
    labels_eos = labels_all[:1]

    while True:
        live = [lane for lane in lanes if not lane.done]
        if not live:
            break
        y_prev = np.array([hy.tokens[-1] for lane in live for hy in lane.active], dtype=np.int64)
        attended = [kern.attend(lane.a, lane.dec[-1][0], lane.h, lane.vh) for lane in live]
        r = np.concatenate([ctx for _, ctx in attended])
        logp_att, new_dec = kern.decode_rows(r, _stack_states([lane.dec for lane in live]), y_prev)
        if lmk is not None:
            logp_lm, new_lm = lmk.step(_stack_states([lane.lm for lane in live]), y_prev)
        else:
            logp_lm = new_lm = None

        lo = 0
        for lane, (a_new, _) in zip(live, attended):
            hyps = lane.active
            sl = slice(lo, lo + len(hyps))
            lo += len(hyps)

            # scores of every (row, label) extension; the end-of-sequence
            # column carries the complete-sequence CTC probability
            att = np.array([hy.score_att for hy in hyps])[:, None] + logp_att[sl]
            lm = None
            if logp_lm is not None:
                lm = np.array([hy.score_lm for hy in hyps])[:, None] + logp_lm[sl]
            if run_ctc:
                states = [hy.ctc_state for hy in hyps]
                ctc = ctc_prefix_score_all(states, lane.ctc_logp, BLANK_ID)
                ctc[:, SOS_EOS_ID] = [st.final_log_prob() for st in states]
            scores = (
                (lam * ctc if run_ctc else 0.0)
                + (1.0 - lam) * att
                + (gam * lm if lm is not None else 0.0)
            )

            # All rows of a lane hold distinct token sequences of one
            # length, so the (-score, tokens) order of candidates equals
            # the order by (-score, rank of the parent's tokens, label
            # position). A candidate in the lane's top `beam` is in its
            # row's top `beam`, so only those are ranked across rows.
            emitted = len(hyps[0].tokens) - 1
            labels = labels_eos if emitted >= lane.cap else labels_all
            sub = scores[:, labels]
            top = np.argsort(-sub, axis=1, kind="stable")[:, : cfg.beam]
            row_of = np.repeat(np.arange(len(hyps)), top.shape[1])
            pos = top.ravel()
            cand = sub[row_of, pos]
            parent_rank = np.argsort(sorted(range(len(hyps)), key=lambda i: hyps[i].tokens))
            keep = np.lexsort((pos, parent_rank[row_of], -cand))[: cfg.beam]

            picked = [(int(row_of[k]), int(labels[pos[k]]), float(cand[k])) for k in keep]
            grown = [(ri, c) for ri, c, _ in picked if c != SOS_EOS_ID]
            if run_ctc and grown:
                # frame states only for the extensions that entered the beam
                new_states = iter(
                    ctc_prefix_extend(
                        [hyps[ri].ctc_state for ri, _ in grown],
                        [c for _, c in grown],
                        [ctc[ri, c] for ri, c in grown],
                        lane.ctc_logp,
                        BLANK_ID,
                    )
                )
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
    uses. Up to `batch_size` utterances share each search; every list is
    identical to the one decoding its utterance alone gives.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    cfg = cfg or DecodeConfig()
    _check_vocab(model, lm)
    kern = _AsrKernel(model)
    lmk = _LmKernel(lm) if lm is not None and cfg.lm_weight > 0.0 else None
    arrs = [_frames(f) for f in feats]
    results: list[list[Hypothesis]] = []
    for i in range(0, len(arrs), batch_size):
        lanes = [_Lane(_f64(model.encode(a)), kern, lmk, cfg) for a in arrs[i : i + batch_size]]
        results.extend(ranked[:n] for ranked in _search(lanes, kern, lmk, cfg))
    return results


def decode_batch(
    feats, model, lm=None, cfg: DecodeConfig | None = None, batch_size: int = 1
) -> list[Hypothesis]:
    """Best hypothesis of each utterance. Up to `batch_size` utterances
    share each search step, and since every kernel is row-stable, tokens
    and scores are bit-identical to decoding each utterance alone."""
    return [ranked[0] for ranked in decode_nbest(feats, model, lm, cfg, 1, batch_size)]


def decode(feat, model, lm=None, cfg: DecodeConfig | None = None) -> Hypothesis:
    """Best finished hypothesis for one utterance."""
    return decode_batch([feat], model, lm, cfg)[0]


def rescore(feat, model, tokens, lm=None):
    """Teacher-forced component scores of one finished token sequence.

    Returns (att, ctc, lm) log-probabilities of `tokens` (output ids, no
    sos/eos) computed by direct replay, independent of any search state.
    """
    kern = _AsrKernel(model)
    h64 = _f64(model.encode(_frames(feat)))
    T = h64.shape[0]
    vh = _rows_linear(h64, kern.enc_w, kern.enc_b)
    ctc_logp = _rows_log_softmax(_rows_linear(h64, kern.ctc_w, kern.ctc_b))

    seq = list(tokens) + [SOS_EOS_ID]
    a = np.full((1, T), 1.0 / T)
    states = kern.zero_dec_state(1)
    att = 0.0
    prev = SOS_EOS_ID
    for t in seq:
        a, r = kern.attend(a, states[-1][0], h64, vh)
        logp, states = kern.decode_rows(r, states, np.array([prev], dtype=np.int64))
        att += float(logp[0, t])
        prev = t

    state = ctc_prefix_initial(ctc_logp, BLANK_ID)
    for t in tokens:
        _, state = ctc_prefix_score(state, int(t), ctc_logp, BLANK_ID)
    ctc = state.final_log_prob()

    lm_score = 0.0
    if lm is not None:
        lmk = _LmKernel(lm)
        st = lmk.zero_state(1)
        prev = SOS_EOS_ID
        for t in seq:
            logp, st = lmk.step(st, np.array([prev], dtype=np.int64))
            lm_score += float(logp[0, t])
            prev = t
    return att, ctc, lm_score
