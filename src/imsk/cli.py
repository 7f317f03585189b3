"""Command-line front end and end-to-end transcription pipeline.

Subcommands cover every stage: tokenizer, recognizer, language-model and
speech-activity training, plus segmentation, decoding, scoring and the
full transcribe pipeline (segment a recording, decode each segment,
assemble a time-stamped transcript). A flat INI config file mirrors the
transcribe flags; command-line values override the file. Defaults and
types live only in the config dataclasses: a flag left unset keeps its
field's default, and an INI value takes the type of that default.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .asr import (
    AsrModel,
    AsrTrainConfig,
    AttentionConfig,
    DecoderConfig,
    EncoderConfig,
    load_asr,
    save_asr,
    train_asr,
)
from .audio import (
    LOGMEL_DEFAULT,
    MFCC_DEFAULT,
    Waveform,
    apply_cmvn,
    compute_cmvn,
    extract_logmel,
    extract_mfcc,
    load_audio,
    load_cmvn,
    save_cmvn,
)
from .beam import DecodeConfig, check_search_sizes, check_vocabularies, decode_batch, decode_nbest
from .lm import LmConfig, load_lm, train_lm, save_lm
from .nn.checkpoint import save_checkpoint
from .nn.optim import OPTIMIZERS
from .sad import (
    SadConfig,
    SadTrainConfig,
    SadTransform,
    SegmentList,
    load_sad,
    postprocess,
    sad_posteriors,
    save_sad,
    to_pseudo_likelihoods,
    train_sad,
    viterbi_segments,
    write_segments,
)
from .scoring import align, corpus_score, rt_factor
from .tokenizer import (
    DEFAULT_PRUNE_FRACTION,
    DEFAULT_SEED_MAX_LEN,
    DEFAULT_TARGET_SIZE,
    decode as detokenize,
    encode as encode_text,
    load_vocab,
    save_vocab,
    train_unigram,
    vocab_fingerprint,
)
from .util import make_rng, read_text, read_tsv, write_tsv


class PipelineError(Exception):
    """A pipeline stage failed; the message names the stage and item."""


@contextmanager
def _stage(name: str, item: str = ""):
    try:
        yield
    except PipelineError:
        raise
    except Exception as e:
        where = f"{name}: {item}: " if item else f"{name}: "
        raise PipelineError(where + str(e)) from e


# -- transcript ----------------------------------------------------------------


@dataclass(frozen=True)
class Transcript:
    """Time-stamped text for one recording."""

    recording_id: str
    entries: tuple[tuple[float, float, str], ...]

    def __post_init__(self):
        prev_end = 0.0
        for s, e, _ in self.entries:
            if not 0.0 <= s < e:
                raise ValueError(f"invalid entry times ({s}, {e})")
            if s < prev_end:
                raise ValueError("entries must be sorted and non-overlapping")
            prev_end = e


def write_transcript(path, t: Transcript) -> None:
    """UTF-8 TSV "start TAB end TAB text" with 2-decimal seconds."""
    write_tsv(path, [(f"{s:.2f}", f"{e:.2f}", text) for s, e, text in t.entries])


def read_transcript(path) -> list[tuple[float, float, str]]:
    """Entries of a transcript TSV. Raises ValueError, naming the file, for
    text that is not UTF-8, a row of fewer than 3 fields or a time that is
    not a number."""
    out = []
    for parts in read_tsv(path, 3):
        try:
            times = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValueError(f"{path}: times must be numbers, got {parts[0]!r}, {parts[1]!r}") from None
        out.append((*times, "\t".join(parts[2:])))
    return out


# -- configuration -------------------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    """Artifact paths plus decoding and segmentation settings.

    Every field mirrors a transcribe command-line flag; an empty lm_model
    disables language-model fusion.
    """

    sad_model: str = ""
    asr_model: str = ""
    lm_model: str = ""
    tokenizer: str = ""
    cmvn: str = ""
    beam: int = DecodeConfig.beam
    ctc_weight: float = DecodeConfig.ctc_weight
    lm_weight: float = DecodeConfig.lm_weight
    max_ratio: float = DecodeConfig.max_ratio
    batch_size: int = 8
    p_stay: float = 0.99
    max_speech: float = 30.0
    merge_max: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.p_stay < 1.0:
            raise ValueError("p_stay must lie strictly between 0 and 1")
        if not self.max_speech > 0:
            raise ValueError("max_speech must be > 0")
        if not self.merge_max >= 0:
            raise ValueError("merge_max must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        _config(DecodeConfig, self)  # the decoding settings, as decoding checks them


# the INI sections and the PipelineConfig fields each one holds
_SECTIONS = {
    "pipeline": ("sad_model", "asr_model", "lm_model", "tokenizer", "cmvn"),
    "decode": ("beam", "ctc_weight", "lm_weight", "max_ratio", "batch_size"),
    "sad": ("p_stay", "max_speech", "merge_max"),
}


def _config(cls, source, **fixed):
    """A `cls` built from the attributes of `source` named like its fields,
    then `fixed`; a missing or None attribute keeps the field's default."""
    values = {f.name: getattr(source, f.name, None) for f in fields(cls)}
    return cls(**{**{k: v for k, v in values.items() if v is not None}, **fixed})


def read_pipeline_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Merge config-file values and overrides into a PipelineConfig.

    Values are read as written (no `%` interpolation). Every error is a
    PipelineError starting with "config: ": an unreadable or malformed
    file, an unknown section or key, a value of the wrong type or an
    invalid setting.
    """
    values: dict = {}
    if path is not None:
        cp = configparser.ConfigParser(interpolation=None)
        with _stage("config", str(path)):
            with open(path, encoding="utf-8") as fh:
                cp.read_file(fh)
        for section in cp.sections():
            if section not in _SECTIONS:
                raise PipelineError(f"config: unknown section [{section}]")
            for key, raw in cp.items(section):
                if key not in _SECTIONS[section]:
                    raise PipelineError(f"config: unknown key {key!r} in [{section}]")
                with _stage("config", f"[{section}] {key}"):
                    values[key] = type(getattr(PipelineConfig, key))(raw)
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    with _stage("config"):
        return PipelineConfig(**values)


@dataclass
class Artifacts:
    """Loaded models and stats, hash-checked and ready to decode with."""

    vocab: object
    asr: AsrModel
    lm: object
    sad: object
    priors: tuple
    stats: object
    dcfg: DecodeConfig


def _load_decoding(asr_model, tokenizer, cmvn, lm_model, required=()):
    """File-check and load the tokenizer, recognizer, CMVN stats and LM (if
    any), and check that they share one vocabulary. `required` names more
    (config field, path) pairs that must exist; the caller loads them."""
    required = [*required, ("asr_model", asr_model), ("tokenizer", tokenizer), ("cmvn", cmvn)]
    for name, p in required + [("lm_model", lm_model)]:
        if p and not Path(p).is_file():
            raise PipelineError(f"config: {name} file not found: {p}")
    for name, p in required:
        if not p:
            raise PipelineError(f"config: {name} is required")

    with _stage("config"):  # the loaders name the file in their errors
        vocab = load_vocab(tokenizer)
        asr, _ = load_asr(asr_model)
        stats = load_cmvn(cmvn)
        lm = load_lm(lm_model)[0] if lm_model else None
        check_vocabularies(asr, lm, vocab)
    return vocab, asr, lm, stats


def load_artifacts(cfg: PipelineConfig) -> Artifacts:
    """Load every referenced file and verify cross-artifact consistency."""
    vocab, asr, lm, stats = _load_decoding(
        cfg.asr_model, cfg.tokenizer, cfg.cmvn, cfg.lm_model, [("sad_model", cfg.sad_model)]
    )
    with _stage("config"):  # load_sad names the file in its errors
        sad, priors, _ = load_sad(cfg.sad_model)
    return Artifacts(vocab, asr, lm, sad, priors, stats, _config(DecodeConfig, cfg))


# -- pipeline stages -----------------------------------------------------------


def segment_recording(wav: Waveform, sad, priors, p_stay, max_speech, merge_max):
    """MFCC -> posteriors -> pseudo-likelihoods -> Viterbi -> postprocess.

    The front end and the SAD network run in flush blocks of `audio.BLOCK`
    frames, so what grows with the recording is the (T, 40) float32
    features, the posteriors, the likelihoods and the Viterbi pass: under
    1 MB per minute of 16 kHz audio, besides the samples.
    """
    feats = extract_mfcc(wav)
    post = sad_posteriors(feats, sad)
    lik = to_pseudo_likelihoods(post, SadTransform(priors=tuple(priors)))
    shift_ms = feats.frame_shift * 1000.0
    segs = viterbi_segments(lik, p_stay, frame_shift_ms=shift_ms)
    segs = postprocess(
        segs, max_speech, merge_max, speech_lik=lik[:, 1], frame_shift_ms=shift_ms
    )
    return segs, lik


def _segment_features(wav: Waveform, span, stats):
    """Recognizer features for one (start, end) span of the recording."""
    sr = wav.sample_rate
    frame = int(round(sr * LOGMEL_DEFAULT.frame_length_ms / 1000.0))
    shift = int(round(sr * LOGMEL_DEFAULT.frame_shift_ms / 1000.0))
    lo = int(round(span[0] * sr))
    # segment times sit on the frame-shift grid; the last frame's analysis
    # window extends frame-minus-shift samples past that end time
    hi = min(int(round(span[1] * sr)) + (frame - shift), wav.samples.size)
    x = wav.samples[lo:hi]
    if x.size < frame:
        # a span shorter than one analysis window still yields one frame
        x = np.concatenate([x, np.zeros(frame - x.size, dtype=x.dtype)])
    return apply_cmvn(extract_logmel(Waveform(x, sr)), stats)


def transcribe(audio_path, cfg: PipelineConfig, keep_dir=None) -> Transcript:
    """Run the full pipeline on one recording.

    A recording with no detected speech yields an empty Transcript. With
    `keep_dir`, every stage's intermediate artifacts are written there.
    """
    art = load_artifacts(cfg)
    return transcribe_with(audio_path, cfg, art, keep_dir)


def transcribe_with(audio_path, cfg: PipelineConfig, art: Artifacts, keep_dir=None) -> Transcript:
    """transcribe() against already-loaded artifacts."""
    rec = Path(audio_path).stem
    with _stage("audio", rec):
        wav = load_audio(audio_path)
    with _stage("segmentation", rec):
        segs, _ = segment_recording(
            wav, art.sad, art.priors, cfg.p_stay, cfg.max_speech, cfg.merge_max
        )
    seg_ids = [f"{rec}-{i:04d}" for i in range(len(segs))]
    feats = []
    for sid, span in zip(seg_ids, segs):
        with _stage("features", sid):
            feats.append(_segment_features(wav, span, art.stats))
    with _stage("decode", rec):
        hyps = decode_batch(feats, art.asr, art.lm, art.dcfg, cfg.batch_size)
    entries = []
    for sid, span, hy in zip(seg_ids, segs, hyps):
        with _stage("assembly", sid):
            entries.append((span[0], span[1], detokenize(hy.output_ids, art.vocab)))
    t = Transcript(rec, tuple(entries))

    if keep_dir is not None:
        keep = Path(keep_dir)
        keep.mkdir(parents=True, exist_ok=True)
        write_segments(keep / "segments.tsv", [(rec, segs)])
        save_checkpoint(
            keep / "features.bin", {"kind": "features"}, {sid: f.frames for sid, f in zip(seg_ids, feats)}
        )
        write_tsv(keep / "hyp.tsv", [(sid, text) for sid, (_, _, text) in zip(seg_ids, entries)])
        write_transcript(keep / "transcript.tsv", t)
    return t


# -- shared input readers ------------------------------------------------------


def _read_id_table(path, n_fields: int) -> list[list[str]]:
    """The fields of `read_tsv(path, n_fields)`, whose first field, the
    utterance id, must be unique. Raises ValueError for text that is not
    UTF-8 or a row of too few fields, naming the file and line, and
    PipelineError for a duplicate id, naming the file."""
    rows = read_tsv(path, n_fields)
    seen = set()
    for utt, *_ in rows:
        if utt in seen:
            raise PipelineError(f"{path}: duplicate utterance id {utt!r}")
        seen.add(utt)
    return rows


def _read_manifest(path, with_text: bool) -> list:
    """Rows "utt-id TAB wav-path[ TAB transcript]" (`_read_id_table`)."""
    return [
        (utt, wav, "\t".join(text) if with_text else None)
        for utt, wav, *text in _read_id_table(path, 3 if with_text else 2)
    ]


def _read_text_table(path) -> list[tuple[str, str]]:
    """Rows "utt-id TAB text" in file order (`_read_id_table`)."""
    return [(utt, "\t".join(text)) for utt, *text in _read_id_table(path, 2)]


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


# -- subcommands ---------------------------------------------------------------


def _cmd_train_tokenizer(args) -> int:
    with _stage("train-tokenizer"):  # read_text names the file in its errors
        lines = read_text(args.corpus).split("\n")
    with _stage("train-tokenizer", args.corpus):
        vocab = train_unigram(
            lines,
            target_size=args.target_size,
            seed_max_len=args.seed_max_len,
            prune_fraction=args.prune_fraction,
        )
        save_vocab(args.out, vocab)
    print(
        f"vocabulary: {len(vocab.pieces)} pieces (+3 specials), "
        f"fingerprint {vocab_fingerprint(vocab)[:12]}"
    )
    return 0


def _cmd_train_lm(args) -> int:
    cfg = _config(LmConfig, args)
    with _stage("config"):  # load_vocab names the file in its errors
        vocab = load_vocab(args.vocab)
    with _stage("train-lm"):  # read_text names the file in its errors
        lines = [ln for ln in read_text(args.corpus).split("\n") if ln.strip()]
    with _stage("train-lm", args.corpus):
        corpus = [encode_text(ln, vocab) for ln in lines]
        res = train_lm(
            corpus,
            vocab.size,
            cfg,
            seed=args.seed,
            vocab_hash=vocab_fingerprint(vocab),
        )
        save_lm(args.out, res.model)
    for i, (pp, wall, norm) in enumerate(zip(res.perplexities, res.epoch_seconds, res.grad_norms), 1):
        print(f"epoch {i}: perplexity {pp:.3f} wall {wall:.2f} s grad norm max {norm:.4f}")
    return 0


def _cmd_train_asr(args) -> int:
    # every config is checked before the vocabulary or any audio is read
    enc = _config(EncoderConfig, args, input_dim=LOGMEL_DEFAULT.n_mels)
    att = _config(AttentionConfig, args)
    dec = _config(DecoderConfig, args)
    train_cfg = _config(AsrTrainConfig, args)
    if not 0.0 < args.valid_fraction < 1.0:
        raise ValueError("valid_fraction must lie in (0, 1)")
    with _stage("config"):  # load_vocab names the file in its errors
        vocab = load_vocab(args.vocab)
    rows = _read_manifest(args.manifest, with_text=True)
    if len(rows) < 2:
        raise PipelineError("train-asr: need at least 2 utterances for a validation split")
    raw = []
    labels = []
    for utt, wav_path, text in rows:
        with _stage("features", utt):
            raw.append(extract_logmel(load_audio(wav_path)))
        ids = encode_text(text, vocab)
        if not ids:
            raise PipelineError(f"train-asr: {utt}: empty transcript")
        labels.append(ids)
    stats = compute_cmvn(raw)
    save_cmvn(args.cmvn_out, stats)
    data = [(apply_cmvn(f, stats).frames, y) for f, y in zip(raw, labels)]

    rng = make_rng(args.seed)
    order = rng.permutation(len(data))
    n_valid = max(1, int(round(len(data) * args.valid_fraction)))
    if n_valid >= len(data):
        raise PipelineError("train-asr: validation fraction leaves no training data")
    valid_set = [data[i] for i in order[:n_valid]]
    train_set = [data[i] for i in order[n_valid:]]

    model = AsrModel(vocab.size, enc=enc, att=att, dec=dec, rng=rng)
    model.vocab_hash = vocab_fingerprint(vocab)
    with _stage("train-asr", args.manifest):
        res = train_asr(model, train_set, valid_set, train_cfg)
        model.load_state_dict(res.best_state)
        save_asr(args.out, model)
    for st in res.history:
        print(
            f"epoch {st.epoch}: loss {st.train_loss:.4f} "
            f"valid accuracy {st.valid_accuracy:.4f} eps {st.eps:g} "
            f"wall {st.wall_s:.2f} s grad norm max {st.grad_norm_max:.4f}"
        )
    print(f"best epoch {res.best_epoch}: accuracy {res.best_accuracy:.4f}")
    return 0


def _cmd_train_sad(args) -> int:
    arch = _config(SadConfig, args, input_dim=MFCC_DEFAULT.n_mels)
    cfg = _config(SadTrainConfig, args, arch=arch)
    rows = _read_manifest(args.manifest, with_text=True)
    feats = []
    labels = []
    for utt, wav_path, labels_path in rows:
        with _stage("features", utt):
            f = extract_mfcc(load_audio(wav_path))
        with _stage("labels", utt):
            y = np.array([int(ln) for ln in read_text(labels_path).split()], dtype=np.int64)
        if y.size != f.num_frames:
            raise PipelineError(
                f"labels: {utt}: {y.size} labels for {f.num_frames} frames"
            )
        feats.append(f)
        labels.append(y)
    with _stage("train-sad", args.manifest):
        res = train_sad(feats, labels, cfg)
        save_sad(args.out, res.model, res.priors)
    for i, (loss, wall, norm) in enumerate(zip(res.losses, res.epoch_seconds, res.grad_norms), 1):
        print(f"epoch {i}: loss {loss:.4f} wall {wall:.2f} s grad norm max {norm:.4f}")
    print("priors:", " ".join(f"{p:.4f}" for p in res.priors))
    return 0


def _cmd_segment(args) -> int:
    with _stage("config"):
        cfg = _config(PipelineConfig, args)
    with _stage("config"):  # load_sad names the file in its errors
        sad, priors, _ = load_sad(args.sad_model)
    if args.wav is not None:
        recs = [(Path(args.wav).stem, args.wav)]
    else:
        recs = [(utt, p) for utt, p, _ in _read_manifest(args.manifest, with_text=False)]
    items = []
    total = 0
    for rec, path in recs:
        with _stage("audio", rec):
            wav = load_audio(path)
        with _stage("segmentation", rec):
            segs, _ = segment_recording(
                wav, sad, priors, cfg.p_stay, cfg.max_speech, cfg.merge_max
            )
        items.append((rec, segs))
        total += len(segs)
    write_segments(args.out, items)
    print(f"wrote {total} segments for {len(items)} recordings to {args.out}")
    return 0


def _cmd_decode(args) -> int:
    dcfg = _config(DecodeConfig, args)
    # the n-best lists come from the same search as the 1-best output
    n = args.nbest if args.dump_nbest is not None else 1
    check_search_sizes(n, args.batch_size)
    vocab, model, lm, stats = _load_decoding(args.model, args.tokenizer, args.cmvn, args.lm)

    rows = _read_manifest(args.manifest, with_text=False)
    started = time.perf_counter()
    audio_s = 0.0
    feats = []
    for utt, path, _ in rows:
        with _stage("audio", utt):
            wav = load_audio(path)
        audio_s += wav.duration
        with _stage("features", utt):
            feats.append(apply_cmvn(extract_logmel(wav), stats))
    with _stage("decode", args.manifest):
        ranked = decode_nbest(feats, model, lm, dcfg, n=n, batch_size=args.batch_size)
    out_rows = [
        (utt, detokenize(best[0].output_ids, vocab)) for (utt, _, _), best in zip(rows, ranked)
    ]
    wall = time.perf_counter() - started
    write_tsv(args.out, out_rows)

    if args.dump_nbest is not None:
        nbest_rows = [
            (
                utt,
                rank,
                f"{hy.score:.6f}",
                f"{hy.score_ctc:.6f}",
                f"{hy.score_att:.6f}",
                f"{hy.score_lm:.6f}",
                detokenize(hy.output_ids, vocab),
            )
            for (utt, _, _), hyps in zip(rows, ranked)
            for rank, hy in enumerate(hyps)
        ]
        write_tsv(args.dump_nbest, nbest_rows)

    if audio_s > 0.0:
        print(
            f"decoded {len(rows)} utterances: {audio_s:.2f} s audio, "
            f"{wall:.2f} s wall, RT factor {rt_factor(wall, audio_s):.3f}"
        )
    else:
        print("decoded 0 utterances")
    return 0


def _cmd_score(args) -> int:
    refs = _read_text_table(args.ref)
    hyps = dict(_read_text_table(args.hyp))
    missing = [u for u, _ in refs if u not in hyps]
    ref_ids = {u for u, _ in refs}
    extra = [u for u in hyps if u not in ref_ids]
    if missing or extra:
        raise PipelineError(
            "score: unmatched utterance ids: "
            + ", ".join(sorted(missing + extra)[:10])
        )
    pairs = [(text, hyps[utt]) for utt, text in refs]
    with _stage("score", args.ref):
        cs = corpus_score(pairs)
    if args.verbose:
        for utt, text in refs:
            a = align(text, hyps[utt])
            print(
                f"{utt}\tsub {a.substitutions}\tins {a.insertions}"
                f"\tdel {a.deletions}\tref {a.ref_words}"
            )
    print(
        f"WER {cs.wer:.2f}%  ({cs.edits} edits / {cs.ref_words} words: "
        f"{cs.substitutions} sub, {cs.insertions} ins, {cs.deletions} del)"
    )
    return 0


def _cmd_transcribe(args) -> int:
    overrides = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)}
    cfg = read_pipeline_config(args.config, overrides)
    t = transcribe(args.wav, cfg, keep_dir=args.keep_intermediates)
    write_transcript(args.out, t)
    print(f"wrote {len(t.entries)} segments to {args.out}")
    return 0


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Flags that set a config field have the field's name (or `dest=` it)
    and no default of their own; see `_config`."""
    parser = argparse.ArgumentParser(
        prog="imsk", description="speech transcription toolkit"
    )
    parser.add_argument(
        "--debug", action="store_true", help="on a failure, raise it with its traceback"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-tokenizer", help="learn a subword vocabulary")
    p.add_argument("--corpus", required=True, help="UTF-8 text, one line per utterance")
    p.add_argument("--out", required=True, help="vocabulary file to write")
    p.add_argument("--target-size", type=int, default=DEFAULT_TARGET_SIZE)
    p.add_argument("--seed-max-len", type=int, default=DEFAULT_SEED_MAX_LEN)
    p.add_argument("--prune-fraction", type=float, default=DEFAULT_PRUNE_FRACTION)
    p.set_defaults(func=_cmd_train_tokenizer)

    p = sub.add_parser("train-asr", help="train the recognizer")
    p.add_argument("--manifest", required=True, help="utt-id TAB wav TAB transcript")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="checkpoint to write")
    p.add_argument("--cmvn-out", required=True, help="feature stats file to write")
    p.add_argument("--valid-fraction", type=float, default=0.1)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--ctc-weight", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--enc-layers", type=int, dest="blstm_layers")
    p.add_argument("--enc-units", type=int, dest="blstm_units")
    p.add_argument("--vgg-channels", type=_parse_ints)
    p.add_argument("--attn-dim", type=int)
    p.add_argument("--conv-channels", type=int)
    p.add_argument("--conv-filters", type=int)
    p.add_argument("--dec-layers", type=int, dest="layers")
    p.add_argument("--dec-units", type=int, dest="units")
    p.add_argument("--embed-dim", type=int)
    p.set_defaults(func=_cmd_train_asr)

    p = sub.add_parser("train-lm", help="train the token language model")
    p.add_argument("--corpus", required=True, help="UTF-8 text, one line per sentence")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--layers", type=int)
    p.add_argument("--units", type=int)
    p.add_argument("--optimizer", choices=OPTIMIZERS)
    p.add_argument("--batch-size", type=int, dest="batch")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_train_lm)

    p = sub.add_parser("train-sad", help="train speech activity detection")
    p.add_argument(
        "--manifest", required=True, help="utt-id TAB wav TAB frame-labels file"
    )
    p.add_argument("--out", required=True)
    p.add_argument("--context", type=int)
    p.add_argument("--hidden", type=_parse_ints)
    p.add_argument("--pool-radius", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--optimizer", choices=OPTIMIZERS)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_train_sad)

    p = sub.add_parser("segment", help="detect speech intervals")
    p.add_argument("--sad-model", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--wav")
    g.add_argument("--manifest", help="utt-id TAB wav")
    p.add_argument("--out", required=True, help="segments TSV to write")
    p.add_argument("--p-stay", type=float)
    p.add_argument("--max-speech", type=float)
    p.add_argument("--merge-max", type=float)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("decode", help="recognize prepared utterances")
    p.add_argument("--model", required=True)
    p.add_argument("--lm")
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--cmvn", required=True)
    p.add_argument("--manifest", required=True, help="utt-id TAB wav")
    p.add_argument("--out", required=True, help="hypothesis TSV to write")
    p.add_argument("--beam", type=int)
    p.add_argument("--ctc-weight", type=float)
    p.add_argument("--lm-weight", type=float)
    p.add_argument("--max-ratio", type=float)
    p.add_argument("--batch-size", type=int, default=PipelineConfig.batch_size)
    p.add_argument("--dump-nbest", help="per-hypothesis score TSV")
    p.add_argument("--nbest", type=int, default=5)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("score", help="word error rate of hypotheses")
    p.add_argument("--ref", required=True, help="utt-id TAB reference text")
    p.add_argument("--hyp", required=True, help="utt-id TAB hypothesis text")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("transcribe", help="segment and decode one recording")
    p.add_argument("--config", help="INI file mirroring these flags")
    p.add_argument("--wav", required=True)
    p.add_argument("--out", required=True, help="transcript TSV to write")
    p.add_argument("--keep-intermediates", help="directory for stage dumps")
    p.add_argument("--sad-model")
    p.add_argument("--asr-model")
    p.add_argument("--lm", dest="lm_model")
    p.add_argument("--tokenizer")
    p.add_argument("--cmvn")
    p.add_argument("--beam", type=int)
    p.add_argument("--ctc-weight", type=float)
    p.add_argument("--lm-weight", type=float)
    p.add_argument("--max-ratio", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--p-stay", type=float)
    p.add_argument("--max-speech", type=float)
    p.add_argument("--merge-max", type=float)
    p.set_defaults(func=_cmd_transcribe)

    return parser


def run_cli(argv=None) -> int:
    """Parse and run; returns the process exit code instead of raising,
    unless `--debug` asks for a failure's traceback."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors and 0 for --help
        return int(e.code or 0)
    try:
        return args.func(args)
    except Exception as e:  # surface any stage failure as a message, not a trace
        if args.debug:
            raise
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
