"""The four workloads: seeded inputs, set-up, timed operations, checks.

A workload's round runs the same operations every time; a run repeats
rounds until its measuring time is used up. Every operation returns its
wall time, the seconds of audio it processed, and an output that later
rounds must reproduce exactly. Checks run after the last round, so the
peak memory and the timings are the program's alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

import imsk.audio as audio
import imsk.beam as beam
import imsk.cli as cli
import imsk.lm as lm_mod
import imsk.tokenizer as tok
from imsk.asr import (
    AsrModel,
    AsrTrainConfig,
    AttentionConfig,
    DecoderConfig,
    EncoderConfig,
    encoder_output_length,
    load_asr,
    make_batches,
    save_asr,
)
from imsk.ctc import ctc_forward_backward
from imsk.nn import tensor as tt
from imsk.nn.optim import AdaDelta, clip_gradients

import checks
import world
from common import FIXTURES

MODEL_SEED = 500  # seed of the random-weight "mid" model and the train init
# Recording layouts (turn lengths, gaps, pauses, click placement) and the
# warm-up inputs come from fixed seeds, so every --seed gives the same amount
# of work; --seed draws what is said, the gains, the noise and the clicks.
LAYOUT_SEED = 1908


@dataclass
class Op:
    wall: float
    audio_s: float
    items: int
    output: object


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _layout(stream: int) -> np.random.Generator:
    return _rng(LAYOUT_SEED, stream)


def _save_wav(path, x) -> str:
    audio.save_audio(path, audio.Waveform(x, world.SR))
    return str(path)


def _instrument_encoder(tracer, model: AsrModel) -> None:
    tracer.wrap_object(model.block1, "asr.vgg1")
    tracer.wrap_object(model.block2, "asr.vgg2")
    for i, layer in enumerate(model.blstms):
        tracer.wrap_object(layer, f"asr.blstm{i + 1}")


class Workload:
    SETUPS_PER_ROUND = 1  # timed set-ups (each with its warm-up) before every timed round

    def __init__(self, seed: int, workdir, tracer):
        self.seed = seed
        self.dir = workdir
        self.tracer = tracer

    def make_inputs(self) -> None: ...
    def setup(self) -> None: ...
    def warmup(self) -> None: ...
    def instrument(self) -> None: ...
    def round(self, index: int) -> list[Op]: ...
    def check(self, index: int, position: int, op: Op, reference: list[Op]) -> list[str]:
        """Problems of one operation; reference is the first round."""

    def failed_items(self, problems: list[str]) -> int:
        """How many of an operation's items its problems make failed."""
        return int(bool(problems))

    def report(self) -> str | None:
        """A line about the checks' margins, printed after them."""
        return None

    def self_test(self, op: Op) -> list[str]:
        """Corrupt a real output; name each corruption the checks accepted."""
        return []


class Meeting(Workload):
    """transcribe_with on a one-minute recording, pipeline defaults."""

    WER_BOUND = 0.10
    SETUPS_PER_ROUND = 3  # a run has only two timed rounds of about 10 s

    def make_inputs(self):
        x, self.truth = world.meeting(_rng(self.seed, 1), 60.0, _layout(1))
        self.wav = _save_wav(self.dir / "meeting.wav", x)
        warm, _ = world.meeting(_layout(11), 2.0)
        self.warm_wav = _save_wav(self.dir / "warmup.wav", warm)
        self.cfg = cli.PipelineConfig(
            sad_model=str(FIXTURES / "sad.ckpt"),
            asr_model=str(FIXTURES / "asr.ckpt"),
            lm_model=str(FIXTURES / "lm.ckpt"),
            tokenizer=str(FIXTURES / "vocab.tsv"),
            cmvn=str(FIXTURES / "cmvn.bin"),
        )

    def setup(self):
        self.art = None  # one set of models in memory at a time
        self.art = cli.load_artifacts(self.cfg)

    def warmup(self):
        cli.transcribe_with(self.warm_wav, self.cfg, self.art)

    def instrument(self):
        _instrument_encoder(self.tracer, self.art.asr)

    def round(self, index):
        started = time.perf_counter()
        t = cli.transcribe_with(self.wav, self.cfg, self.art)
        wall = time.perf_counter() - started
        return [Op(wall, self.truth.duration, 1, t.entries)]

    def _problems(self, entries, reference) -> list[str]:
        hyp = " ".join(text for _, _, text in entries).split()
        self.wer = checks.word_error_rate(self.truth.text.split(), hyp)
        out = checks.wer_problems(self.wer, self.WER_BOUND)
        out += checks.coverage_problems(
            [(s, e) for s, e, _ in entries], self.truth, self.cfg.max_speech
        )
        if entries != reference:
            out.append("transcript differs from the first one")
        return out

    def check(self, index, position, op, reference):
        return self._problems(op.output, reference[position].output)

    def report(self):
        return f"meeting: WER {100 * self.wer:.2f}% over {len(self.truth.words)} words"

    def self_test(self, op):
        entries = list(op.output)
        i = max(range(len(entries)), key=lambda k: entries[k][1] - entries[k][0])
        bad = []
        dropped = tuple(entries[:i] + entries[i + 1 :])
        if not self._problems(dropped, dropped):
            bad.append("meeting: a dropped segment passed")
        s, e, text = entries[i]
        words = text.split() or ["da"]
        words[0] = "re" if words[0] != "re" else "mi"
        changed = tuple(entries[:i] + [(s, e, " ".join(words))] + entries[i + 1 :])
        if not self._problems(changed, op.output):
            bad.append("meeting: a changed word passed")
        return bad


class Cuts(Workload):
    """What `imsk decode` times: load, log-Mel, CMVN and decode_batch over
    short cuts with a random-weight V=500 model and LM."""

    # word counts per cut; with fixed margins and no pauses every seed
    # gives cuts of the same lengths, and only words and noise change
    WORDS = (1, 2, 3, 2, 1, 3, 2, 2)
    N_CUTS = len(WORDS)
    BATCH = 8
    BATCH1_SUBSET = (0, 2)  # a 1-word and a 3-word cut
    SETUPS_PER_ROUND = 2
    DCFG = beam.DecodeConfig(beam=10, ctc_weight=0.5, lm_weight=0.5)

    def make_inputs(self):
        rng = _rng(self.seed, 2)
        self.wavs, self.durations = [], []
        for i, n_words in enumerate(self.WORDS):
            x, truth = world.utterance(rng, n_words, pause_p=0.0)
            self.wavs.append(_save_wav(self.dir / f"cut{i:02d}.wav", x))
            self.durations.append(truth.duration)
        self._write_mid_model()

    def _write_mid_model(self):
        """The ROADMAP "mid" config with seeded random weights."""
        pieces = tuple(f"{tok.MARKER}w{i:03d}" for i in range(497))
        vocab = tok.SubwordVocab(pieces, tuple([-np.log(497.0)] * 497))
        tok.save_vocab(self.dir / "mid.vocab", vocab)
        rng = np.random.default_rng(MODEL_SEED)
        model = AsrModel(
            vocab.size,
            enc=EncoderConfig(input_dim=80, vgg_channels=(8, 16), blstm_layers=3, blstm_units=256),
            att=AttentionConfig(),
            dec=DecoderConfig(layers=1, units=256, embed_dim=64),
            rng=rng,
        )
        model.vocab_hash = tok.vocab_fingerprint(vocab)
        save_asr(self.dir / "mid.ckpt", model)
        lm = lm_mod.LstmLm(vocab.size, 2, 256, rng, vocab_hash=model.vocab_hash)
        lm_mod.save_lm(self.dir / "mid.lm", lm)

    def setup(self):
        self._checked = {}
        self.model = self.lm = None  # one model in memory at a time
        self.vocab = tok.load_vocab(self.dir / "mid.vocab")
        self.model, _ = load_asr(self.dir / "mid.ckpt")
        self.lm, _ = lm_mod.load_lm(self.dir / "mid.lm")
        self.stats = audio.load_cmvn(FIXTURES / "cmvn.bin")

    def _features(self, path):
        return audio.apply_cmvn(audio.extract_logmel(audio.load_audio(path)), self.stats)

    def warmup(self):
        beam.decode_batch([self._features(self.wavs[0])], self.model, self.lm, self.DCFG, 1)

    def instrument(self):
        _instrument_encoder(self.tracer, self.model)

    def round(self, index):
        started = time.perf_counter()
        feats = [self._features(p) for p in self.wavs]
        hyps = beam.decode_batch(feats, self.model, self.lm, self.DCFG, self.BATCH)
        texts = [tok.decode(h.output_ids, self.vocab) for h in hyps]
        wall = time.perf_counter() - started
        out = tuple(
            (h.output_ids, h.score, h.score_ctc, h.score_att, h.score_lm, text)
            for h, text in zip(hyps, texts)
        )
        self._frames = [f.num_frames for f in feats]
        self._feats = feats
        return [Op(wall, sum(self.durations), self.N_CUTS, out)]

    def _replay_models(self):
        if not hasattr(self, "_m64"):
            m = self.model
            self._m64 = AsrModel(m.vocab_size, m.enc_cfg, m.att_cfg, m.dec_cfg, dtype=np.float64)
            self._m64.load_state_dict(m.state_dict())
            self._lm64 = lm_mod.LstmLm(
                self.lm.vocab_size, self.lm.n_layers, self.lm.units,
                np.random.default_rng(0), dtype=np.float64,
            )
            self._lm64.load_state_dict(self.lm.state_dict())
        return self._m64, self._lm64

    def _components(self, feat, ids) -> tuple[float, float, float]:
        """(ctc, attention, lm) log-scores of ids by paths apart from the search."""
        m64, lm64 = self._replay_models()
        h = np.asarray(self.model.encode(feat.frames).data, dtype=np.float64)
        logits = h @ m64.ctc_out.w.data + m64.ctc_out.b.data
        logp = logits - logits.max(axis=1, keepdims=True)
        logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
        ctc, _ = ctc_forward_backward(logp, list(ids), tok.BLANK_ID)

        T = h.shape[0]
        hb = tt.Tensor(h[None])
        a = tt.Tensor(np.full((1, T), 1.0 / T))
        state = m64.initial_decoder_state(1, np.float64)
        att = 0.0
        prev = tok.SOS_EOS_ID
        for y in list(ids) + [tok.SOS_EOS_ID]:
            a, r = m64.attend(a, m64.decoder_query(state), hb)
            logp_att, state = m64.decode_step(r, state, np.array([prev]))
            att += float(logp_att.data[0, y])
            prev = y
        return ctc, att, lm_mod.sequence_log_prob(lm64, ids)

    def _utt_problems(self, i, item) -> list[str]:
        ids, score = item[0], item[1]
        cap = int(encoder_output_length(self._frames[i]) * self.DCFG.max_ratio)
        out = [] if len(ids) <= cap else [f"{len(ids)} tokens over cap {cap}"]
        expected = checks.joint_score(
            *self._components(self._feats[i], ids), self.DCFG.ctc_weight, self.DCFG.lm_weight
        )
        out += checks.score_problems(score, expected)
        self.worst = max(getattr(self, "worst", 0.0), abs(score - expected))
        return [f"cut {i}: {p}" for p in out]

    def check(self, index, position, op, reference):
        problems = []
        for i, item in enumerate(op.output):
            # the recomputation is deterministic: an output equal to one
            # already checked has the same problems
            key = (i, item)
            if key not in self._checked:
                self._checked[key] = self._utt_problems(i, item)
            problems += self._checked[key]
            if item != reference[position].output[i]:
                problems.append(f"cut {i}: output differs from the first round")
        if index == 0:
            # batch 1 must reproduce the batch-8 result bit for bit; later
            # rounds equal round 0, so checking it once covers them
            for i in self.BATCH1_SUBSET:
                single = beam.decode_batch([self._feats[i]], self.model, self.lm, self.DCFG, 1)[0]
                if (single.output_ids, single.score) != op.output[i][:2]:
                    problems.append(f"cut {i}: batch 1 differs from batch {self.BATCH}")
        return problems

    def report(self) -> str:
        return f"cuts: largest |score - recomputed| {self.worst:.2e}"

    def failed_items(self, problems) -> int:
        return len({p.split(":")[0] for p in problems})

    def self_test(self, op):
        ids, score = op.output[0][0], op.output[0][1]
        bad = []
        if not self._utt_problems(0, (ids, score + 1e-3)):
            bad.append("cuts: a score shifted by 1e-3 passed")
        first = 3 + (ids[0] - 2) % (self.model.vocab_size - 3) if ids else 3
        changed = (first,) + ids[1:]
        if not self._utt_problems(0, (changed, score)):
            bad.append("cuts: a changed token passed")
        return bad


class Segment(Workload):
    """What `imsk segment` does: load_audio and segment_recording on a
    ten-minute recording that is about 20% speech."""

    P_STAY, MAX_SPEECH, MERGE_MAX = 0.99, 30.0, 10.0

    def make_inputs(self):
        x, self.truth = world.long_recording(_rng(self.seed, 3), 600.0, 0.2, _layout(3))
        self.wav = _save_wav(self.dir / "long.wav", x)
        warm, _ = world.meeting(_layout(13), 20.0)
        self.warm_wav = _save_wav(self.dir / "warmup.wav", warm)

    def setup(self):
        self.sad, self.priors, _ = cli.load_sad(str(FIXTURES / "sad.ckpt"))

    def _segment(self, path):
        wav = audio.load_audio(path)
        segs, _ = cli.segment_recording(
            wav, self.sad, self.priors, self.P_STAY, self.MAX_SPEECH, self.MERGE_MAX
        )
        return segs.spans

    def warmup(self):
        self._segment(self.warm_wav)

    def round(self, index):
        started = time.perf_counter()
        spans = self._segment(self.wav)
        wall = time.perf_counter() - started
        return [Op(wall, self.truth.duration, 1, spans)]

    def _problems(self, spans, reference):
        out = checks.coverage_problems(spans, self.truth, self.MAX_SPEECH)
        if spans != reference:
            out.append("segments differ from the first run")
        return out

    def check(self, index, position, op, reference):
        return self._problems(op.output, reference[position].output)

    def self_test(self, op):
        spans = op.output
        if not self._problems(spans[1:], spans[1:]):
            return ["segment: a dropped segment passed"]
        return []


class Train(Workload):
    """Recognizer training steps at the desk config, as train_asr runs
    them: hybrid_loss, backward, clip_gradients and AdaDelta.step.

    Every round restarts from the state after the warm-up step, so every
    round repeats the same steps and must reproduce their losses bit for
    bit. The gradient check replays one round after the measurement and
    checks every step of it; by that determinism it speaks for each round.
    """

    N_UTTS = 64
    CFG = AsrTrainConfig()  # the defaults of `imsk train-asr`
    # central differences step a hundredth of the update: at the full update
    # the third-order term alone differs from g.d by up to about 1%
    FD_STEP = 0.01

    def make_inputs(self):
        rng, layout = _rng(self.seed, 4), _layout(4)
        vocab = tok.load_vocab(FIXTURES / "vocab.tsv")
        stats = audio.load_cmvn(FIXTURES / "cmvn.bin")
        data = []
        for i in range(self.N_UTTS):
            x, truth = world.utterance(rng, 2 + i % 5, layout=layout)
            f = audio.apply_cmvn(audio.extract_logmel(audio.Waveform(x, world.SR)), stats)
            data.append((f.frames, tok.encode(truth.text, vocab), truth.duration))
        batches = make_batches([(f, y) for f, y, _ in data], self.CFG.batch_size)
        durations = {id(f): d for f, _, d in data}
        order = layout.permutation(len(batches))
        self.batches = [
            ([f for f, _ in batches[i]], [y for _, y in batches[i]],
             sum(durations[id(f)] for f, _ in batches[i]))
            for i in order
        ]

    def setup(self):
        self.vocab = tok.load_vocab(FIXTURES / "vocab.tsv")
        self.stats = audio.load_cmvn(FIXTURES / "cmvn.bin")
        self.model = self.opt = None  # one model in memory at a time
        self.model = AsrModel(self.vocab.size, rng=np.random.default_rng(MODEL_SEED))
        self.opt = AdaDelta(self.model.params(), rho=self.CFG.rho, eps=self.CFG.eps)

    def _step(self, feats, labels, keep=None):
        """One training step; returns (loss, timed seconds). With a list
        as keep, the step appends its (parameters, gradients) before the
        update to it, untimed."""
        tr, model, params = self.tracer, self.model, self.model.params()
        started = time.perf_counter()
        loss = model.hybrid_loss(feats, labels, self.CFG.ctc_weight)
        with tr.span("train.backward"):
            model.zero_grad()
            loss.backward()
        wall = time.perf_counter() - started
        if keep is not None:
            keep.append(([p.data.copy() for p in params], [p.grad.copy() for p in params]))
        started = time.perf_counter()
        with tr.span("train.clip"):
            clip_gradients(params, self.CFG.clip)
        with tr.span("train.optim"):
            self.opt.step()
        wall += time.perf_counter() - started
        return loss.item(), wall

    def warmup(self):
        feats, labels, _ = self.batches[0]
        self._step(feats, labels)
        self._snapshot = (
            self.model.state_dict(),
            [a.copy() for a in self.opt.acc_grad],
            [a.copy() for a in self.opt.acc_update],
            self.opt.eps,
        )

    def instrument(self):
        _instrument_encoder(self.tracer, self.model)

    def round(self, index, keep=None):
        state, acc_g, acc_u, eps = self._snapshot
        self.model.load_state_dict(state)
        for a, s in zip(self.opt.acc_grad + self.opt.acc_update, acc_g + acc_u):
            a[...] = s
        self.opt.eps = eps
        ops = []
        for feats, labels, audio_s in self.batches:
            loss, wall = self._step(feats, labels, keep)
            if keep is not None:
                keep[-1] += ([p.data.copy() for p in self.model.params()],)
            ops.append(Op(wall, audio_s, 1, loss))
        return ops

    def _loss_at(self, k, values) -> float:
        """The loss of batch k in float64 at the given parameter values."""
        if not hasattr(self, "_m64"):
            m = self.model
            self._m64 = AsrModel(m.vocab_size, m.enc_cfg, m.att_cfg, m.dec_cfg, dtype=np.float64)
        for p, v in zip(self._m64.params(), values):
            p.data = v
        feats, labels, _ = self.batches[k]
        return self._m64.hybrid_loss(feats, labels, self.CFG.ctc_weight).item()

    def _grad_problems(self, k, before, grads, after, flip=1.0):
        d = [a.astype(np.float64) - b for a, b in zip(after, before)]
        predicted = flip * sum(float(np.sum(g.astype(np.float64) * x)) for g, x in zip(grads, d))
        h = self.FD_STEP
        plus = self._loss_at(k, [b + h * x for b, x in zip(before, d)])
        minus = self._loss_at(k, [b - h * x for b, x in zip(before, d)])
        central = (plus - minus) / (2.0 * h)
        self.worst = max(self.worst, abs(predicted - central) / abs(central))
        return checks.gradient_problems(predicted, central)

    def _replay(self, reference) -> dict[int, list[str]]:
        """Problems per step of one replayed round."""
        self._kept = []
        replay = self.round(-1, self._kept)
        self.worst = 0.0
        bad = {}
        for k, (op, ref, (before, grads, after)) in enumerate(zip(replay, reference, self._kept)):
            problems = self._grad_problems(k, before, grads, after)
            if op.output != ref.output:
                problems.append("replayed loss differs from the first round")
            if problems:
                bad[k] = problems
        print(f"train: {len(self._kept)} gradient checks, largest relative "
              f"difference {self.worst:.2e}", flush=True)
        return bad

    def check(self, index, position, op, reference):
        if not hasattr(self, "_bad_steps"):
            self._bad_steps = self._replay(reference)
        out = list(self._bad_steps.get(position, []))
        if not np.isfinite(op.output):
            out.append(f"non-finite loss {op.output}")
        if op.output != reference[position].output:
            out.append("loss differs from the first round")
        return out

    def self_test(self, op):
        before, grads, after = self._kept[0]
        if not self._grad_problems(0, before, grads, after, flip=-1.0):
            return ["train: a gradient with its sign flipped passed"]
        return []


WORKLOADS = {"meeting": Meeting, "cuts": Cuts, "segment": Segment, "train": Train}
