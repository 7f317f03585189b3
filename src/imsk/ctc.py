"""CTC loss by forward-backward over the blank-extended lattice, plus
incremental prefix scoring for joint beam decoding.

The loss marginalizes over every frame alignment whose collapse (merge
repeats, then drop blanks) equals the label sequence.  All lattice math is
log-domain float64; minus infinity marks unreachable states.  The gradient
is returned with respect to the pre-softmax logits, where it takes the
standard form posterior minus state-occupancy.

Prefix scoring keeps the R prefixes (hypotheses) of one utterance in
one CtcPrefixes value: (T, R) arrays of the log probability of every
frame being the end of prefix r with a blank and with its last label.
The prefix probabilities of any K (prefix, label) extensions come from
one (T, K) reduction over frames, with no frame recursion, so a search
scores only the extensions that can still reach its beam; the O(T)
recursion runs only for the extensions it keeps, those of several
utterances in one frame loop, and an utterance's kept columns are its
next CtcPrefixes. Accumulated to the end of a hypothesis, the state
matches the full ctc loss on the same sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .nn.tensor import Tensor, log_softmax

NEG_INF = -np.inf


class InfeasibleAlignmentError(Exception):
    """The label sequence cannot fit in the available frames."""


def min_frames(labels) -> int:
    """Shortest alignment length: one frame per label plus a separating
    blank for each adjacent repeated pair."""
    labels = np.asarray(labels)
    repeats = int(np.sum(labels[1:] == labels[:-1])) if labels.size > 1 else 0
    return int(labels.size) + repeats


def _extended_labels(labels, blank: int) -> np.ndarray:
    z = np.full(2 * len(labels) + 1, blank, dtype=np.int64)
    z[1::2] = labels
    return z


def _check_labels(labels, n_classes: int, blank: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D sequence")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"label id out of range [0, {n_classes})")
    if np.any(labels == blank):
        raise ValueError("labels may not contain the blank id")
    return labels


def ctc_forward_backward(log_probs: np.ndarray, labels, blank: int):
    """Returns (log p(Y|X), occupancy matrix gamma of shape (T, V)).

    gamma[t, k] is the posterior probability that frame t emits class k
    summed over lattice states, so the logit gradient is posterior - gamma.
    """
    T, V = log_probs.shape
    labels = _check_labels(labels, V, blank)
    if T < min_frames(labels):
        raise InfeasibleAlignmentError(
            f"{len(labels)} labels (min {min_frames(labels)} frames) do not fit in {T} frames"
        )
    z = _extended_labels(labels, blank)
    S = z.size
    lp = log_probs[:, z]  # (T, S) emission scores per lattice state

    # skip transition allowed into state s if its label differs from s-2
    can_skip = np.zeros(S, dtype=bool)
    if S > 2:
        can_skip[2:] = (z[2:] != blank) & (z[2:] != z[:-2])

    alpha = np.full((T, S), NEG_INF)
    alpha[0, 0] = lp[0, 0]
    if S > 1:
        alpha[0, 1] = lp[0, 1]
    for t in range(1, T):
        stay = alpha[t - 1]
        prev = np.full(S, NEG_INF)
        prev[1:] = alpha[t - 1, :-1]
        skip = np.full(S, NEG_INF)
        skip[2:] = np.where(can_skip[2:], alpha[t - 1, :-2], NEG_INF)
        alpha[t] = np.logaddexp(np.logaddexp(stay, prev), skip) + lp[t]

    log_z = np.logaddexp(alpha[T - 1, S - 1], alpha[T - 1, S - 2] if S > 1 else NEG_INF)
    if log_z == NEG_INF:
        raise InfeasibleAlignmentError("no alignment has nonzero probability")

    # beta excludes the emission at t, so alpha + beta is a path posterior
    beta = np.full((T, S), NEG_INF)
    beta[T - 1, S - 1] = 0.0
    if S > 1:
        beta[T - 1, S - 2] = 0.0
    for t in range(T - 2, -1, -1):
        nxt = beta[t + 1] + lp[t + 1]
        stay = nxt
        succ = np.full(S, NEG_INF)
        succ[:-1] = nxt[1:]
        skip = np.full(S, NEG_INF)
        skip[:-2] = np.where(can_skip[2:], nxt[2:], NEG_INF)
        beta[t] = np.logaddexp(np.logaddexp(stay, succ), skip)

    with np.errstate(invalid="ignore"):
        occ = np.exp(alpha + beta - log_z)  # (T, S)
    gamma = np.zeros((T, V))
    np.add.at(gamma.T, z, occ.T)
    return float(log_z), gamma


def ctc_loss_op(logits: Tensor, labels, blank: int) -> Tensor:
    """Autograd node: scalar CTC loss from (T, V) logits."""
    log_probs = log_softmax(Tensor(logits.data.astype(np.float64))).data
    log_z, gamma = ctc_forward_backward(log_probs, labels, blank)
    grad = (np.exp(log_probs) - gamma).astype(logits.dtype)
    loss = np.asarray(-log_z, dtype=logits.dtype)

    def backward(g):
        if logits.requires_grad:
            logits._accumulate(g * grad)

    return Tensor._result(loss, (logits,), backward)


# ---------------------------------------------------------------------------
# prefix scoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CtcPrefixes:
    """R prefixes of one utterance: r_nb[t, r] and r_b[t, r] are the log
    probabilities that prefix r has been emitted by frame t, ending in its
    last label and in a blank; last[r] is that label, -1 for the empty
    prefix."""

    r_nb: np.ndarray  # (T, R)
    r_b: np.ndarray  # (T, R)
    last: np.ndarray  # (R,)

    def final_log_probs(self) -> np.ndarray:
        """(R,) log p_ctc of each prefix as a COMPLETE sequence."""
        return np.logaddexp(self.r_nb[-1], self.r_b[-1])

    @cached_property
    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """(prev_b, prev_any), both (T, R): the log probability that prefix
        r has ended by frame t-1 with a blank, and with either symbol.

        Starting a new label at frame t needs the prefix to have ended by
        t-1; a repeat of the last label additionally needs the blank.
        Scoring and extending the prefixes both read them, so they are
        derived once.
        """
        first = np.where(self.last == -1, 0.0, NEG_INF)
        prev_b = np.concatenate([first[None], self.r_b[:-1]])
        prev_nb = np.concatenate([np.full((1, self.last.size), NEG_INF), self.r_nb[:-1]])
        return prev_b, np.logaddexp(prev_b, prev_nb)


def ctc_prefix_initial(log_posteriors: np.ndarray, blank: int) -> CtcPrefixes:
    """The empty prefix alone: only all-blank alignments exist."""
    r_b = np.cumsum(log_posteriors[:, blank])[:, None]
    r_nb = np.full(r_b.shape, NEG_INF)
    return CtcPrefixes(r_nb=r_nb, r_b=r_b, last=np.full(1, -1, dtype=np.int64))


def ctc_prefix_score_all(prefixes: CtcPrefixes, rows, labels, log_posteriors) -> np.ndarray:
    """Prefix probabilities of K one-label extensions of R prefixes.

    Returns psi of shape (K,): psi[k] is the log probability that the
    frames begin with prefix rows[k] followed by labels[k], which is not
    the blank. A score depends only on its parent's state, so all scores
    come from one reduction over frames and no frame recursion runs. The
    reduction adds each extension's frames in order, so its bits depend
    only on the extension, never on which others share the call;
    ctc_prefix_extend builds states for those kept.
    """
    prev_b, prev_any = prefixes.ends
    rows = np.asarray(rows, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    # No prefix of L labels ends before frame L-1, so the first frames add
    # -inf to every sum. From -inf, a logaddexp with x returns x + 0.0, the
    # bits a sum from frame 0 reaches too, so the sum may start at the
    # last of those frames.
    ended = np.flatnonzero(np.isfinite(prev_any).any(axis=1))
    t0 = max(int(ended[0]) - 1, 0) if ended.size else prev_any.shape[0] - 1
    # phi[t, k] + log p(c | frame t): the prefix ends by t-1, c starts at t;
    # repeating the last label needs the prefix to end in a blank. np.take
    # keeps phi C-ordered (a[:, idx] need not), so each frame step of the
    # sum runs over contiguous entries.
    phi = np.take(prev_any[t0:], rows, axis=1)
    rep = np.flatnonzero(labels == prefixes.last[rows])
    phi[:, rep] = prev_b[t0:, rows[rep]]
    phi += np.take(log_posteriors[t0:], labels, axis=1)
    with np.errstate(invalid="ignore"):
        return np.logaddexp.reduce(phi, axis=0)


def ctc_prefix_extend(lanes, blank: int) -> list[CtcPrefixes]:
    """The prefixes that extensions make, one CtcPrefixes per utterance.

    `lanes` holds (prefixes, rows, labels, log_posteriors) per utterance:
    the utterance's prefixes, and its (T, V) array; its new prefix k is
    prefix rows[k] extended by labels[k], which is not the blank. The
    frame recursion runs once over the extensions of the lanes it is
    given, each padded with -inf to the longest T; its operations are
    elementwise, so each column equals the recursion of that prefix alone.
    An utterance's columns, in order, are its new prefixes.
    """
    lanes = [(pre, np.asarray(rows, dtype=np.int64), np.asarray(labels, dtype=np.int64), lp)
             for pre, rows, labels, lp in lanes]
    if any(np.any(labels == blank) for _, _, labels, _ in lanes):
        raise ValueError("cannot extend a prefix with the blank id")
    T = max(lp.shape[0] for *_, lp in lanes)
    K = sum(rows.size for _, rows, _, _ in lanes)
    phi, lp_label, lp_blank = (np.full((T, K), NEG_INF) for _ in range(3))
    cols, lo = [], 0
    for pre, rows, labels, lp in lanes:
        k = slice(lo, lo + rows.size)
        prev_b, prev_any = pre.ends
        t = lp.shape[0]
        phi[:t, k] = np.where(labels == pre.last[rows], prev_b[:, rows], prev_any[:, rows])
        lp_label[:t, k] = lp[:, labels]
        lp_blank[:t, k] = lp[:, blank, None]
        cols.append((t, k))
        lo = k.stop
    r_nb = np.empty((T, K))
    r_b = np.empty((T, K))
    nb_prev = b_prev = np.full(K, NEG_INF)
    for nb, b, phi_t, lp_t, lp_blank_t in zip(r_nb, r_b, phi, lp_label, lp_blank):
        np.logaddexp(nb_prev, phi_t, out=nb)
        np.add(nb, lp_t, out=nb)
        np.logaddexp(b_prev, nb_prev, out=b)
        np.add(b, lp_blank_t, out=b)
        nb_prev, b_prev = nb, b
    return [
        CtcPrefixes(r_nb=r_nb[:t, k], r_b=r_b[:t, k], last=labels)
        for (t, k), (_, _, labels, _) in zip(cols, lanes)
    ]
