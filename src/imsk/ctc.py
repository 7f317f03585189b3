"""CTC loss by forward-backward over the blank-extended lattice, plus
incremental prefix scoring for joint beam decoding.

The loss marginalizes over every frame alignment whose collapse (merge
repeats, then drop blanks) equals the label sequence.  All lattice math is
log-domain float64; minus infinity marks unreachable states.  The gradient
is returned with respect to the pre-softmax logits, where it takes the
standard form posterior minus state-occupancy.

Prefix scoring keeps, per hypothesis, the log probability of every frame
being the end of the prefix with a blank and with the last label. The
prefix probabilities of any K (hypothesis, label) extensions come from
one (T, K) reduction over frames, with no frame recursion, so a search
scores only the extensions that can still reach its beam; the O(T)
recursion to a new state runs only for the extensions it keeps, those of
several utterances in one frame loop.
Accumulated to the end of a hypothesis, the state matches the full ctc
loss on the same sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .nn.tensor import Tensor

NEG_INF = -np.inf


class InfeasibleAlignmentError(Exception):
    """The label sequence cannot fit in the available frames."""


def min_frames(labels) -> int:
    """Shortest alignment length: one frame per label plus a separating
    blank for each adjacent repeated pair."""
    labels = np.asarray(labels)
    repeats = int(np.sum(labels[1:] == labels[:-1])) if labels.size > 1 else 0
    return int(labels.size) + repeats


def ctc_posteriors(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (T, V) logits."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _extended_labels(labels, blank: int) -> np.ndarray:
    z = np.full(2 * len(labels) + 1, blank, dtype=np.int64)
    z[1::2] = labels
    return z


def _check_labels(labels, n_classes: int, blank: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D sequence")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError("label id out of range")
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


def ctc_loss(posteriors: np.ndarray, labels, blank: int):
    """(loss, gradient wrt logits) for one utterance.

    loss = -log sum over valid alignments of the per-frame posterior
    product; the gradient assumes posteriors came from a softmax.
    """
    posteriors = np.asarray(posteriors, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_probs = np.log(posteriors)
    log_z, gamma = ctc_forward_backward(log_probs, labels, blank)
    return -log_z, posteriors - gamma


def ctc_loss_op(logits: Tensor, labels, blank: int) -> Tensor:
    """Autograd node: scalar CTC loss from (T, V) logits."""
    logits_f64 = logits.data.astype(np.float64)
    log_probs = logits_f64 - logits_f64.max(axis=1, keepdims=True)
    log_probs = log_probs - np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
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


@dataclass(frozen=True)
class CtcPrefixState:
    """Per-frame log probabilities of a prefix ending in non-blank/blank."""

    r_nb: np.ndarray
    r_b: np.ndarray
    last_label: int  # -1 for the empty prefix
    log_psi: float  # prefix probability of the sequence so far

    def final_log_prob(self) -> float:
        """log p_ctc of the prefix as a COMPLETE hypothesis."""
        return float(np.logaddexp(self.r_nb[-1], self.r_b[-1]))


def ctc_prefix_initial(log_posteriors: np.ndarray, blank: int) -> CtcPrefixState:
    """State of the empty prefix: only all-blank alignments exist."""
    r_b = np.cumsum(log_posteriors[:, blank])
    r_nb = np.full(log_posteriors.shape[0], NEG_INF)
    return CtcPrefixState(r_nb=r_nb, r_b=r_b, last_label=-1, log_psi=0.0)


def ctc_prefix_ends(states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(prev_b, prev_any, last) of R prefixes: prev_b and prev_any are
    (T, R), the log probability that prefix r has ended by frame t-1 with
    a blank, and with either symbol; last is (R,), each prefix's last
    label.

    Starting a new label at frame t needs the prefix to have ended by t-1;
    a repeat of the last label additionally needs the blank.
    """
    r_b = np.stack([s.r_b for s in states], axis=1)
    r_nb = np.stack([s.r_nb for s in states], axis=1)
    first = np.array([0.0 if s.last_label == -1 else NEG_INF for s in states])
    prev_b = np.concatenate([first[None], r_b[:-1]])
    prev_nb = np.concatenate([np.full((1, len(states)), NEG_INF), r_nb[:-1]])
    last = np.array([s.last_label for s in states])
    return prev_b, np.logaddexp(prev_b, prev_nb), last


def ctc_prefix_score_all(ends, rows, labels, log_posteriors) -> np.ndarray:
    """Prefix probabilities of K one-label extensions of R prefixes.

    `ends` is ctc_prefix_ends of the R prefixes. Returns psi of shape
    (K,): psi[k] is the log probability that the frames begin with prefix
    rows[k] followed by labels[k], which is not the blank. A score depends
    only on its parent's state, so all scores come from one reduction over
    frames and no frame recursion runs. The reduction adds each
    extension's frames in order, so its bits depend only on the extension,
    never on which others share the call; ctc_prefix_extend builds states
    for those kept.
    """
    prev_b, prev_any, last = ends
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
    rep = np.flatnonzero(labels == last[rows])
    phi[:, rep] = prev_b[t0:, rows[rep]]
    phi += np.take(log_posteriors[t0:], labels, axis=1)
    with np.errstate(invalid="ignore"):
        return np.logaddexp.reduce(phi, axis=0)


def ctc_prefix_extend(
    states, labels, log_psi, log_posteriors, blank: int
) -> list[CtcPrefixState]:
    """States of K prefixes, states[k] extended by labels[k].

    log_psi[k] is the extension's prefix probability from
    ctc_prefix_score_all. log_posteriors is one (T, V) array that every
    prefix shares, or a list of K arrays, states[k]'s (T_k, V) array
    at k; the prefixes of one utterance are adjacent and share one array
    object. The frame recursion runs once over all K columns, each padded
    with -inf to the longest T_k; its operations are elementwise, so each
    column equals the recursion of that prefix alone.
    """
    K = len(states)
    if isinstance(log_posteriors, np.ndarray):
        log_posteriors = [log_posteriors] * K
    labels = np.asarray(labels, dtype=np.int64)
    T = max(lp.shape[0] for lp in log_posteriors)
    phi, lp_label, lp_blank = (np.full((T, K), NEG_INF) for _ in range(3))
    # fill the padded inputs one utterance (run of one shared array) at a time
    lo = 0
    for _, run in groupby(log_posteriors, key=id):
        lp = next(run)
        k = slice(lo, lo + 1 + sum(1 for _ in run))
        prev_b, prev_any, last = ctc_prefix_ends(states[k])
        t = lp.shape[0]
        phi[:t, k] = np.where(labels[k] == last, prev_b, prev_any)
        lp_label[:t, k] = lp[:, labels[k]]
        lp_blank[:t, k] = lp[:, blank, None]
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
        CtcPrefixState(
            r_nb=r_nb[: lp.shape[0], k].copy(),
            r_b=r_b[: lp.shape[0], k].copy(),
            last_label=int(labels[k]),
            log_psi=float(log_psi[k]),
        )
        for k, lp in enumerate(log_posteriors)
    ]


def ctc_prefix_score(
    state: CtcPrefixState, next_label: int, log_posteriors: np.ndarray, blank: int
):
    """Extend a prefix by ``next_label``; returns (psi, new state)."""
    if next_label == blank:
        raise ValueError("cannot extend a prefix with the blank id")
    psi = ctc_prefix_score_all(ctc_prefix_ends([state]), [0], [next_label], log_posteriors)[0]
    (new,) = ctc_prefix_extend([state], [next_label], [psi], log_posteriors, blank)
    return float(psi), new
