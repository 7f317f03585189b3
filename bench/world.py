"""Seeded tone-word speech: the synthetic world every workload draws from.

Each word of the tone language is a fixed pure tone of WORD_S seconds, so
a recording is recognisable from its log-Mel frames alone. No word directly
follows itself: two equal adjacent tones would sound like one long tone.

Recordings are built from silence (faint noise), speech turns (words with
short pauses between some of them) and click bursts (sparse loud clicks,
placed next to a turn like a microphone bump). Every render returns the
samples together with the ground truth: the words with their times and the
click regions. Amplitudes stay below 0.45 so the 16-bit PCM round trip is
exact enough for the checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SR = 16000
TONES = {"da": 500.0, "re": 900.0, "mi": 1400.0, "fa": 2100.0, "so": 3000.0}
WORDS = tuple(sorted(TONES))
WORD_S = 0.16
NOISE = 0.004


@dataclass(frozen=True)
class Truth:
    """Ground truth of one render: timed words and click regions."""

    duration: float
    words: tuple[tuple[float, float, str], ...]
    clicks: tuple[tuple[float, float], ...]

    @property
    def text(self) -> str:
        return " ".join(w for _, _, w in self.words)


def word_sequence(rng, n: int, prev: str | None = None) -> list[str]:
    """n words, none equal to the word before it."""
    out = []
    for _ in range(n):
        choices = [w for w in WORDS if w != prev]
        prev = choices[int(rng.integers(0, len(choices)))]
        out.append(prev)
    return out


class _Tape:
    """Appends pieces of audio and records where each piece landed.

    `rng` draws the content (words, gains, noise, click shapes); `layout`
    draws the timing (pauses and their lengths). They may be one generator.
    """

    def __init__(self, rng, layout=None):
        self.rng = rng
        self.layout = rng if layout is None else layout
        self.parts: list[np.ndarray] = []
        self.n = 0
        self.words: list[tuple[float, float, str]] = []
        self.clicks: list[tuple[float, float]] = []

    def _put(self, x: np.ndarray) -> tuple[float, float]:
        start = self.n / SR
        self.parts.append(x)
        self.n += x.size
        return start, self.n / SR

    def silence(self, dur_s: float):
        self._put(NOISE * self.rng.standard_normal(int(round(dur_s * SR))))

    def word(self, word: str, gain: float):
        n = int(round(WORD_S * SR))
        t = np.arange(n) / SR
        x = gain * 0.28 * np.sin(2 * np.pi * TONES[word] * t)
        ramp = min(n // 8, 160)
        x[:ramp] *= np.linspace(0.0, 1.0, ramp)
        x[-ramp:] *= np.linspace(1.0, 0.0, ramp)
        s, e = self._put(x + NOISE * self.rng.standard_normal(n))
        self.words.append((s, e, word))

    def clicks_burst(self, dur_s: float):
        n = int(round(dur_s * SR))
        x = NOISE * self.rng.standard_normal(n)
        count = max(3, int(round(25 * dur_s)))
        for pos in self.rng.choice(n - 4, size=count, replace=False):
            x[pos : pos + 3] += self.rng.uniform(0.3, 0.42) * self.rng.choice((-1.0, 1.0))
        self.clicks.append(self._put(x))

    def turn(self, words: list[str], pause_p: float = 0.3):
        """Words of one speaker, with a short pause after some of them."""
        gain = self.rng.uniform(0.7, 1.0)
        for i, w in enumerate(words):
            self.word(w, gain)
            if i + 1 < len(words) and self.layout.random() < pause_p:
                self.silence(self.layout.uniform(0.05, 0.25))

    def render(self) -> tuple[np.ndarray, Truth]:
        x = np.clip(np.concatenate(self.parts), -0.45, 0.45).astype(np.float32)
        return x, Truth(self.n / SR, tuple(self.words), tuple(self.clicks))


def _gap(tape: _Tape, layout, gap: float, click_p: float, after: bool = False):
    """gap seconds of silence; with probability click_p a click burst in it,
    0.1-0.3 s before the next turn (or, with after, after the last one), as
    a microphone bump."""
    if layout.random() >= click_p:
        tape.silence(gap)
        return
    burst = layout.uniform(0.2, 0.4)
    lead = layout.uniform(0.1, 0.3)
    rest = max(gap - burst - lead, 0.3)
    tape.silence(lead if after else rest)
    tape.clicks_burst(burst)
    tape.silence(rest if after else lead)


def _turns(tape: _Tape, rng, layout, done, words_lo: int, words_hi: int,
           gap_lo: float, gap_hi: float, click_p: float):
    """Turns of words_lo to words_hi words with gaps between them, until
    done(turns so far) holds; each gap may hold a click burst."""
    prev = None
    k = 0
    while not done(k):
        if k:
            _gap(tape, layout, layout.uniform(gap_lo, gap_hi), click_p)
        words = word_sequence(rng, int(layout.integers(words_lo, words_hi + 1)), prev)
        prev = words[-1]
        tape.turn(words)
        k += 1


def utterance(rng, n_words: int, margin_s: float = 0.2, pause_p: float = 0.3,
              layout=None) -> tuple[np.ndarray, Truth]:
    """One short cut: a single turn between two silence margins."""
    tape = _Tape(rng, layout)
    tape.silence(margin_s)
    tape.turn(word_sequence(rng, n_words), pause_p)
    tape.silence(margin_s)
    return tape.render()


def segment_like(rng) -> tuple[np.ndarray, Truth]:
    """Training utterance shaped like a merged SAD segment: one to three
    turns, gaps between them, click bursts, silence margins."""
    tape = _Tape(rng)
    tape.silence(rng.uniform(0.1, 0.4))
    n_turns = int(rng.integers(1, 4))
    _turns(tape, rng, rng, lambda k: k == n_turns, 2, 8, 0.4, 1.5, 0.4)
    tape.silence(rng.uniform(0.1, 0.4))
    return tape.render()


def meeting(rng, target_s: float, layout=None) -> tuple[np.ndarray, Truth]:
    """A recording of at least target_s seconds: turns of 3 to 14 words
    separated by 0.6-2 s of silence, a click burst before a third of them.
    With a separate `layout` generator, it alone draws every duration and
    word count, and `rng` only what is said and the noise."""
    layout = rng if layout is None else layout
    tape = _Tape(rng, layout)
    tape.silence(layout.uniform(0.5, 1.0))
    _turns(tape, rng, layout, lambda k: tape.n / SR >= target_s, 3, 14, 0.6, 2.0, 1 / 3)
    tape.silence(layout.uniform(0.5, 1.0))
    return tape.render()


def long_recording(rng, target_s: float, speech_ratio: float,
                   layout=None) -> tuple[np.ndarray, Truth]:
    """A long, mostly silent recording: turns of 3 to 14 words with gaps
    drawn so that about speech_ratio of the time is inside a turn. The
    `layout` generator works as in meeting()."""
    layout = rng if layout is None else layout
    tape = _Tape(rng, layout)
    tape.silence(layout.uniform(1.0, 2.0))
    prev = None
    mean_turn = 8.5 * (WORD_S + 0.3 * 0.15)
    mean_gap = mean_turn * (1.0 - speech_ratio) / speech_ratio
    while tape.n / SR < target_s:
        words = word_sequence(rng, int(layout.integers(3, 15)), prev)
        prev = words[-1]
        tape.turn(words)
        _gap(tape, layout, layout.uniform(0.5, 1.5) * mean_gap, 1 / 3, after=True)
    return tape.render()


def frame_labels(truth: Truth, n_frames: int, shift_s: float = 0.01) -> np.ndarray:
    """SAD class per frame (0 silence, 1 speech, 2 garbage) by frame start."""
    y = np.zeros(n_frames, dtype=np.int64)
    t = np.arange(n_frames) * shift_s
    for s, e, _ in truth.words:
        y[(t >= s) & (t < e)] = 1
    for s, e in truth.clicks:
        y[(t >= s) & (t < e)] = 2
    return y
