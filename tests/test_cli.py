"""End-to-end checks for the command-line front end and pipeline."""

import argparse
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import TONE_WORDS, corrupt, decode_one, sad_recording, tone_recording, tone_utterance
from imsk import cli
from imsk.asr import (
    AsrTrainConfig,
    AttentionConfig,
    DecoderConfig,
    EncoderConfig,
    load_asr,
    save_asr,
)
from imsk.audio import (
    Waveform,
    apply_cmvn,
    extract_logmel,
    extract_mfcc,
    load_audio,
    load_cmvn,
    save_audio,
)
from imsk.beam import DecodeConfig, decode_nbest
from imsk.cli import (
    PipelineConfig,
    PipelineError,
    Transcript,
    build_parser,
    read_pipeline_config,
    read_transcript,
    run_cli,
    write_transcript,
)
from imsk.lm import LmConfig, load_lm, save_lm
from imsk.nn.checkpoint import load_checkpoint, save_checkpoint
from imsk.sad import SadConfig, SadModel, SadTrainConfig, load_sad, read_segments
from imsk.tokenizer import decode as detokenize, load_vocab, vocab_fingerprint
from imsk.util import make_rng, read_tsv, write_tsv


def _transcribe(world, wav_path, out_path, *extra):
    return run_cli(["transcribe", "--config", str(world["ini"]),
                    "--wav", str(wav_path), "--out", str(out_path), *extra])


def test_a_failure_is_one_line_without_debug(tmp_path, capsys):
    missing = str(tmp_path / "missing.tsv")
    assert run_cli(["score", "--ref", missing, "--hyp", missing]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_debug_raises_a_failure_with_its_cause(tmp_path):
    missing = str(tmp_path / "missing.tsv")
    with pytest.raises(FileNotFoundError):
        run_cli(["--debug", "score", "--ref", missing, "--hyp", missing])
    # a stage failure keeps the error underneath it
    with pytest.raises(PipelineError, match="config") as info:
        run_cli(["--debug", "transcribe", "--config", str(tmp_path / "missing.ini"),
                 "--wav", missing, "--out", str(tmp_path / "out.tsv")])
    assert isinstance(info.value.__cause__, FileNotFoundError)


def test_debug_prints_the_traceback(tmp_path):
    missing = str(tmp_path / "missing.tsv")
    argv = [sys.executable, "-m", "imsk.cli", "score", "--ref", missing, "--hyp", missing]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    plain, debug = (
        subprocess.run(args, env=env, capture_output=True, text=True, timeout=120)
        for args in (argv, argv[:3] + ["--debug"] + argv[3:])
    )
    assert plain.returncode == debug.returncode == 1
    assert "Traceback" not in plain.stderr and plain.stderr.startswith("error: ")
    assert "Traceback (most recent call last)" in debug.stderr
    assert "FileNotFoundError" in debug.stderr


def test_help_and_usage_exit_codes(capsys):
    assert run_cli(["--help"]) == 0
    assert "transcribe" in capsys.readouterr().out
    assert run_cli(["decode", "--help"]) == 0
    capsys.readouterr()
    assert run_cli([]) == 2
    assert run_cli(["frobnicate"]) == 2
    assert run_cli(["decode", "--nope"]) == 2
    assert "usage:" in capsys.readouterr().err


def test_artifacts_consistent(world):
    root = world["root"]
    vocab = load_vocab(root / "vocab.tsv")
    asr, _ = load_asr(root / "asr.ckpt")
    lm, _ = load_lm(root / "lm.ckpt")
    sad, priors, _ = load_sad(root / "sad.ckpt")
    load_cmvn(root / "cmvn.bin")
    fp = vocab_fingerprint(vocab)
    assert asr.vocab_hash == fp and lm.vocab_hash == fp
    assert asr.vocab_size == vocab.size == lm.vocab_size
    assert len(priors) == 3 and abs(sum(priors) - 1.0) < 1e-9


def test_segment_subcommand_covers_speech(world, tmp_path, capsys):
    wav, regions = sad_recording(make_rng(7), ["da", "so", "re"])
    save_audio(tmp_path / "rec.wav", wav)
    out = tmp_path / "segments.tsv"
    assert run_cli(["segment", "--sad-model", str(world["root"] / "sad.ckpt"),
                    "--wav", str(tmp_path / "rec.wav"), "--out", str(out)]) == 0
    assert "for 1 recordings" in capsys.readouterr().out
    rows = read_segments(out)
    assert rows and all(rec == "rec" for _, rec, _, _ in rows)
    assert [seg for seg, _, _, _ in rows] == [f"rec-{i:04d}" for i in range(len(rows))]
    spans = [(s, e) for _, _, s, e in rows]
    speech = next(r for r in regions if r[2] == 1)
    mid = 0.5 * (speech[0] + speech[1])
    assert any(s <= mid <= e for s, e in spans)
    assert all(0.0 <= s < e <= wav.duration + 0.02 for s, e in spans)


def test_segmentation_memory_grows_slowly_with_length():
    # the whole-recording front end and SAD network grew the peak by 9.6
    # MB per minute of audio (48 MB at 5 minutes, 192 MB at 20); what grows
    # now is the (T, 40) features, the posteriors, the likelihoods and the
    # Viterbi pass, under 1 MB per minute
    sad = SadModel(SadConfig(), make_rng(0))
    peaks = []
    for minutes in (5, 20):
        rng = np.random.default_rng(minutes)
        wav = Waveform(rng.random(minutes * 60 * 16000, dtype=np.float32) - np.float32(0.5), 16000)
        tracemalloc.start()
        try:
            cli.segment_recording(wav, sad, (1 / 3, 1 / 3, 1 / 3), 0.99, 30.0, 10.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del wav
    assert (peaks[1] - peaks[0]) / 15 < 3e6, peaks


def test_decode_subcommand_and_nbest(world, tmp_path, capsys):
    root = world["root"]
    rows = world["tone_rows"][:4]
    man = tmp_path / "manifest.tsv"
    write_tsv(man, [(u, p) for u, p, _ in rows])
    hyp = tmp_path / "hyp.tsv"
    nbest = tmp_path / "nbest.tsv"
    assert run_cli(["decode", "--manifest", str(man), "--model", str(root / "asr.ckpt"),
                    "--tokenizer", str(root / "vocab.tsv"), "--cmvn", str(root / "cmvn.bin"),
                    "--lm", str(root / "lm.ckpt"), "--beam", "3", "--batch-size", "4",
                    "--dump-nbest", str(nbest), "--nbest", "3",
                    "--out", str(hyp)]) == 0
    assert "RT factor" in capsys.readouterr().out

    hyp_rows = read_tsv(hyp, 1)
    assert [r[0] for r in hyp_rows] == [u for u, _, _ in rows]
    texts = {r[0]: r[1] if len(r) > 1 else "" for r in hyp_rows}

    per_utt = {}
    for r in read_tsv(nbest, 7):
        per_utt.setdefault(r[0], []).append(r)
    assert set(per_utt) == set(texts)
    for utt, ranked in per_utt.items():
        assert [int(r[1]) for r in ranked] == list(range(len(ranked)))
        scores = [float(r[2]) for r in ranked]
        assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))
        assert ranked[0][6] == texts[utt]
        for r in ranked:
            total, ctc, att, lm = (float(x) for x in r[2:6])
            assert total == pytest.approx(0.5 * ctc + 0.5 * att + 0.5 * lm, abs=1e-5)

    # the batched dump is byte-identical to decoding each utterance alone
    one = tmp_path / "nbest1.tsv"
    assert run_cli(["decode", "--manifest", str(man), "--model", str(root / "asr.ckpt"),
                    "--tokenizer", str(root / "vocab.tsv"), "--cmvn", str(root / "cmvn.bin"),
                    "--lm", str(root / "lm.ckpt"), "--beam", "3", "--batch-size", "1",
                    "--dump-nbest", str(one), "--nbest", "3",
                    "--out", str(tmp_path / "hyp1.tsv")]) == 0
    assert one.read_bytes() == nbest.read_bytes()
    asr, _ = load_asr(root / "asr.ckpt")
    lm, _ = load_lm(root / "lm.ckpt")
    vocab = load_vocab(root / "vocab.tsv")
    stats = load_cmvn(root / "cmvn.bin")
    expected = []
    for utt, path, _ in rows:
        feat = apply_cmvn(extract_logmel(load_audio(path)), stats)
        (ranked,) = decode_nbest([feat], asr, lm, DecodeConfig(beam=3), n=3)
        expected += [
            f"{utt}\t{rank}\t{hy.score:.6f}\t{hy.score_ctc:.6f}\t{hy.score_att:.6f}\t"
            f"{hy.score_lm:.6f}\t{detokenize(hy.output_ids, vocab)}\n"
            for rank, hy in enumerate(ranked)
        ]
    assert nbest.read_text(encoding="utf-8") == "".join(expected)


def test_decode_batch_size_defaults_to_the_pipelines(world, tmp_path, monkeypatch):
    root = world["root"]
    man = tmp_path / "manifest.tsv"
    write_tsv(man, [(u, p) for u, p, _ in world["tone_rows"][:10]])
    sizes = []
    decode = cli.decode_nbest

    def spy(*args, batch_size, **kwargs):
        sizes.append(batch_size)
        return decode(*args, batch_size=batch_size, **kwargs)

    monkeypatch.setattr(cli, "decode_nbest", spy)
    outputs = []
    for flags in ([], ["--batch-size", "1"]):
        hyp, nbest = tmp_path / f"hyp{len(flags)}.tsv", tmp_path / f"nbest{len(flags)}.tsv"
        assert run_cli(["decode", "--manifest", str(man), "--model", str(root / "asr.ckpt"),
                        "--tokenizer", str(root / "vocab.tsv"), "--cmvn", str(root / "cmvn.bin"),
                        "--lm", str(root / "lm.ckpt"), "--beam", "3", "--dump-nbest", str(nbest),
                        "--out", str(hyp), *flags]) == 0
        outputs.append((hyp.read_bytes(), nbest.read_bytes()))
    assert sizes == [PipelineConfig.batch_size, 1]
    assert outputs[0] == outputs[1]


def test_score_subcommand(tmp_path, capsys):
    ref = tmp_path / "ref.tsv"
    hyp = tmp_path / "hyp.tsv"
    ref.write_text("u1\tda re mi\n", encoding="utf-8")
    hyp.write_text("u1\tda fa mi\n", encoding="utf-8")
    assert run_cli(["score", "--ref", str(ref), "--hyp", str(hyp), "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "WER 33.33%" in out
    assert "(1 edits / 3 words: 1 sub, 0 ins, 0 del)" in out
    assert "u1\tsub 1\tins 0\tdel 0\tref 3" in out

    hyp.write_text("u1\tda fa mi\nu2\tso\n", encoding="utf-8")
    assert run_cli(["score", "--ref", str(ref), "--hyp", str(hyp)]) == 1
    assert "unmatched utterance ids: u2" in capsys.readouterr().err


def test_score_time_is_linear_in_utterances(tmp_path, capsys):
    # each hypothesis id once rebuilt the set of reference ids: 20,000
    # ids took about 35 s, against under half a second when built once
    rows = "".join(f"u{i}\tda re\n" for i in range(20_000))
    ref, hyp = tmp_path / "ref.tsv", tmp_path / "hyp.tsv"
    ref.write_text(rows, encoding="utf-8")
    hyp.write_text(rows, encoding="utf-8")
    started = time.perf_counter()
    assert run_cli(["score", "--ref", str(ref), "--hyp", str(hyp)]) == 0
    assert time.perf_counter() - started < 10.0
    assert "WER 0.00%" in capsys.readouterr().out


def test_transcribe_silence_gives_empty_transcript(world, tmp_path):
    rng = make_rng(7)
    sil = Waveform((0.004 * rng.standard_normal(32000)).astype(np.float32), 16000)
    save_audio(tmp_path / "sil.wav", sil)
    out = tmp_path / "out.tsv"
    assert _transcribe(world, tmp_path / "sil.wav", out) == 0
    assert out.read_text(encoding="utf-8") == ""
    assert read_transcript(out) == []


def test_transcribe_full_speech_matches_direct_decode(world, tmp_path):
    root = world["root"]
    wav = tone_utterance(["mi", "fa", "da"], make_rng(7))
    save_audio(tmp_path / "full.wav", wav)
    out = tmp_path / "out.tsv"
    assert _transcribe(world, tmp_path / "full.wav", out) == 0
    entries = read_transcript(out)
    assert len(entries) == 1
    loaded = load_audio(tmp_path / "full.wav")
    n_frames = extract_mfcc(loaded).num_frames
    assert entries[0][0] == 0.0
    assert entries[0][1] == pytest.approx(n_frames * 0.01, abs=0.006)

    asr, _ = load_asr(root / "asr.ckpt")
    lm, _ = load_lm(root / "lm.ckpt")
    vocab = load_vocab(root / "vocab.tsv")
    stats = load_cmvn(root / "cmvn.bin")
    feat = apply_cmvn(extract_logmel(loaded), stats)
    hy = decode_one(feat, asr, lm, DecodeConfig(beam=3))
    assert entries[0][2] == detokenize(hy.output_ids, vocab)


def test_transcribe_is_deterministic(world, tmp_path, monkeypatch):
    monkeypatch.setenv("IMSK_SEED", "31337")
    wav, _ = sad_recording(make_rng(13), ["fa", "mi", "so", "da"])
    save_audio(tmp_path / "rec.wav", wav)
    outs = []
    for name in ("a.tsv", "b.tsv"):
        assert _transcribe(world, tmp_path / "rec.wav", tmp_path / name) == 0
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    words=st.lists(st.sampled_from(sorted(TONE_WORDS)), min_size=6, max_size=12),
    max_speech=st.floats(0.2, 0.6),
    seed=st.integers(0, 2**16),
)
def test_transcribe_splits_a_long_speech_run(world, tmp_path, words, max_speech, seed):
    # one run of 0.96-1.92 s of speech, longer than max_speech: the split
    # pieces come out in time order, apart, inside the recording, and a
    # rerun writes the same bytes
    wav = tone_recording(words, make_rng(seed))
    save_audio(tmp_path / "long.wav", wav)
    outs = []
    for name in ("a.tsv", "b.tsv"):
        assert _transcribe(world, tmp_path / "long.wav", tmp_path / name,
                           "--max-speech", repr(max_speech)) == 0
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]
    entries = read_transcript(tmp_path / "a.tsv")
    assert len(entries) >= 2
    prev_end = 0.0
    for s, e, _ in entries:
        assert prev_end <= s < e <= wav.duration + 0.005
        assert e - s <= max_speech + 0.01  # times are written to 2 decimals
        prev_end = e


def test_keep_intermediates_refeed_matches(world, tmp_path):
    root = world["root"]
    wav, _ = sad_recording(make_rng(13), ["da", "so", "re", "mi"])
    save_audio(tmp_path / "rec.wav", wav)
    keep = tmp_path / "keep"
    # no merging keeps the clicks apart from the speech: two segments
    assert _transcribe(world, tmp_path / "rec.wav", tmp_path / "out.tsv",
                       "--keep-intermediates", str(keep), "--merge-max", "0") == 0
    for name in ("segments.tsv", "features.bin", "hyp.tsv", "transcript.tsv"):
        assert (keep / name).is_file()
    assert (keep / "transcript.tsv").read_bytes() == (tmp_path / "out.tsv").read_bytes()

    # cutting the recording at the published segment times and decoding the
    # pieces as standalone files must reproduce the kept hypotheses
    full = load_audio(tmp_path / "rec.wav")
    sr = full.sample_rate
    frame, shift = int(0.025 * sr), int(0.010 * sr)
    man_rows = []
    for utt, _, s, e in read_tsv(keep / "segments.tsv", 4):
        lo = int(round(float(s) * sr))
        hi = min(int(round(float(e) * sr)) + (frame - shift), full.samples.size)
        piece = tmp_path / f"{utt}.wav"
        save_audio(piece, Waveform(full.samples[lo:hi], sr))
        man_rows.append((utt, str(piece)))
    assert man_rows
    write_tsv(tmp_path / "refeed.tsv", man_rows)
    assert run_cli(["decode", "--manifest", str(tmp_path / "refeed.tsv"),
                    "--model", str(root / "asr.ckpt"), "--tokenizer", str(root / "vocab.tsv"),
                    "--cmvn", str(root / "cmvn.bin"), "--lm", str(root / "lm.ckpt"),
                    "--beam", "3", "--batch-size", "4",
                    "--out", str(tmp_path / "rehyp.tsv")]) == 0
    kept = {r[0]: r[1] if len(r) > 1 else "" for r in read_tsv(keep / "hyp.tsv", 1)}
    redone = {r[0]: r[1] if len(r) > 1 else "" for r in read_tsv(tmp_path / "rehyp.tsv", 1)}
    assert kept == redone

    # features.bin holds each segment's recognizer features, by segment id
    # in segments.tsv order, in a checkpoint file of kind "features"
    config, arrays = load_checkpoint(keep / "features.bin")
    assert config == {"kind": "features"}
    segments = read_segments(keep / "segments.tsv")
    assert len(segments) > 1 and list(arrays) == [utt for utt, *_ in segments]
    stats = load_cmvn(root / "cmvn.bin")
    for utt, _, s, e in segments:
        assert np.array_equal(arrays[utt], cli._segment_features(full, (s, e), stats).frames)


def test_config_file_and_override_precedence(world):
    cfg = read_pipeline_config(world["ini"])
    assert cfg.beam == 3 and cfg.batch_size == 4
    assert cfg.p_stay == 0.99
    cfg = read_pipeline_config(world["ini"], {"beam": 5, "p_stay": None})
    assert cfg.beam == 5
    assert read_pipeline_config() == PipelineConfig()


@pytest.mark.parametrize("field, value, message", [
    ("p_stay", 0.0, "p_stay must lie strictly between 0 and 1"),
    ("p_stay", 1.0, "p_stay must lie strictly between 0 and 1"),
    ("max_speech", 0.0, "max_speech must be > 0"),
    ("max_speech", float("nan"), "max_speech must be > 0"),
    ("merge_max", -0.5, "merge_max must be >= 0"),
    ("merge_max", float("nan"), "merge_max must be >= 0"),
    ("lm_weight", float("nan"), "lm_weight must be finite and >= 0"),
    ("beam", 0, "beam must be >= 1"),
    ("batch_size", 0, "batch_size must be >= 1"),
])
def test_pipeline_config_checks_its_fields(field, value, message):
    with pytest.raises(ValueError, match=message):
        PipelineConfig(**{field: value})


def test_bad_segmentation_settings_fail_before_any_audio(world, tmp_path, capsys, monkeypatch):
    calls = []
    for name in ("load_audio", "extract_mfcc"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _f=real, _n=name, **k: calls.append(_n) or _f(*a, **k))
    wav = tmp_path / "rec.wav"
    save_audio(wav, sad_recording(make_rng(7), ["da"])[0])
    expected = "error: config: p_stay must lie strictly between 0 and 1\n"
    assert run_cli(["segment", "--sad-model", str(world["root"] / "sad.ckpt"), "--wav", str(wav),
                    "--out", str(tmp_path / "s.tsv"), "--p-stay", "1.5"]) == 1
    assert capsys.readouterr().err == expected
    assert _transcribe(world, wav, tmp_path / "t.tsv", "--p-stay", "1.5") == 1
    assert capsys.readouterr().err == expected
    assert calls == []
    assert not (tmp_path / "s.tsv").exists() and not (tmp_path / "t.tsv").exists()


def test_config_errors(world, tmp_path, capsys):
    bad = tmp_path / "bad.ini"

    bad.write_text("[nope]\nx = 1\n", encoding="utf-8")
    assert run_cli(["transcribe", "--config", str(bad), "--wav", "w", "--out", "o"]) == 1
    assert "error: config: unknown section [nope]" in capsys.readouterr().err

    bad.write_text("[decode]\nbogus = 1\n", encoding="utf-8")
    assert run_cli(["transcribe", "--config", str(bad), "--wav", "w", "--out", "o"]) == 1
    assert "unknown key 'bogus' in [decode]" in capsys.readouterr().err

    bad.write_text("[decode]\nbeam = fast\n", encoding="utf-8")
    assert run_cli(["transcribe", "--config", str(bad), "--wav", "w", "--out", "o"]) == 1
    assert "[decode] beam" in capsys.readouterr().err

    root = world["root"]
    assert run_cli(["transcribe", "--wav", "w", "--out", "o",
                    "--asr-model", str(root / "asr.ckpt")]) == 1
    assert "config: sad_model is required" in capsys.readouterr().err

    assert run_cli(["transcribe", "--config", str(world["ini"]), "--wav", "w",
                    "--out", "o", "--sad-model", str(root / "missing.ckpt")]) == 1
    assert "sad_model file not found" in capsys.readouterr().err


def test_mismatched_vocabulary_is_rejected(world, tmp_path, capsys):
    root = world["root"]
    other_text = tmp_path / "other.txt"
    other_text.write_text("xx yy zz\nzz yy\n", encoding="utf-8")
    other_vocab = tmp_path / "other_vocab.tsv"
    assert run_cli(["train-tokenizer", "--corpus", str(other_text),
                    "--out", str(other_vocab), "--target-size", "10"]) == 0
    capsys.readouterr()

    utt, wav_path, _ = world["tone_rows"][0]
    man = tmp_path / "man.tsv"
    write_tsv(man, [(utt, wav_path)])
    assert run_cli(["decode", "--manifest", str(man), "--model", str(root / "asr.ckpt"),
                    "--tokenizer", str(other_vocab), "--cmvn", str(root / "cmvn.bin"),
                    "--out", str(tmp_path / "hyp.tsv")]) == 1
    assert "vocabulary hash mismatch" in capsys.readouterr().err
    assert not (tmp_path / "hyp.tsv").exists()


def test_decode_rejects_vocabulary_size_mismatch(world, tmp_path, capsys, monkeypatch):
    root = world["root"]
    other_text = tmp_path / "other.txt"
    other_text.write_text("xx yy zz\nzz yy\n", encoding="utf-8")
    other_vocab = tmp_path / "other_vocab.tsv"
    assert run_cli(["train-tokenizer", "--corpus", str(other_text),
                    "--out", str(other_vocab), "--target-size", "10"]) == 0
    capsys.readouterr()
    asr, _ = load_asr(root / "asr.ckpt")
    assert load_vocab(other_vocab).size != asr.vocab_size
    # without recorded fingerprints only the sizes can tell
    asr.vocab_hash = ""
    save_asr(tmp_path / "nohash.ckpt", asr)

    def no_decoding(*args, **kwargs):
        raise AssertionError("decoding started")

    monkeypatch.setattr("imsk.cli.decode_nbest", no_decoding)
    utt, wav_path, _ = world["tone_rows"][0]
    man = tmp_path / "man.tsv"
    write_tsv(man, [(utt, wav_path)])
    assert run_cli(["decode", "--manifest", str(man), "--model", str(tmp_path / "nohash.ckpt"),
                    "--tokenizer", str(other_vocab), "--cmvn", str(root / "cmvn.bin"),
                    "--out", str(tmp_path / "hyp.tsv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: asr model vocabulary size")
    assert not (tmp_path / "hyp.tsv").exists()


def test_library_and_cli_reject_the_same_hash_mismatch(world, tmp_path, capsys, monkeypatch):
    root = world["root"]
    asr, _ = load_asr(root / "asr.ckpt")
    lm, _ = load_lm(root / "lm.ckpt")
    lm.vocab_hash = "0" * 64
    save_lm(tmp_path / "other.lm", lm)
    with pytest.raises(ValueError) as info:
        decode_nbest([np.zeros((40, asr.enc_cfg.input_dim))], asr, lm)
    message = str(info.value)
    assert message.startswith("vocabulary hash mismatch between asr model (")
    assert " and lm (000000000000…)" in message

    def no_decoding(*args, **kwargs):
        raise AssertionError("decoding started")

    monkeypatch.setattr("imsk.cli.decode_nbest", no_decoding)
    utt, wav_path, _ = world["tone_rows"][0]
    man = tmp_path / "man.tsv"
    write_tsv(man, [(utt, wav_path)])
    assert run_cli(["decode", "--manifest", str(man), "--model", str(root / "asr.ckpt"),
                    "--tokenizer", str(root / "vocab.tsv"), "--cmvn", str(root / "cmvn.bin"),
                    "--lm", str(tmp_path / "other.lm"), "--out", str(tmp_path / "hyp.tsv")]) == 1
    assert capsys.readouterr().err == f"error: config: {message}\n"


def test_decode_names_a_missing_lm_file(world, tmp_path, capsys, monkeypatch):
    root = world["root"]

    def no_decoding(*args, **kwargs):
        raise AssertionError("decoding started")

    monkeypatch.setattr("imsk.cli.decode_nbest", no_decoding)
    utt, wav_path, _ = world["tone_rows"][0]
    man = tmp_path / "man.tsv"
    write_tsv(man, [(utt, wav_path)])
    missing = tmp_path / "missing.lm"
    assert run_cli(["decode", "--manifest", str(man), "--model", str(root / "asr.ckpt"),
                    "--tokenizer", str(root / "vocab.tsv"), "--cmvn", str(root / "cmvn.bin"),
                    "--lm", str(missing), "--out", str(tmp_path / "hyp.tsv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: lm_model file not found: {missing}")
    assert not (tmp_path / "hyp.tsv").exists()


@pytest.mark.parametrize("flag", ["--asr-model", "--cmvn", "--lm", "--sad-model"])
def test_a_corrupt_artifact_is_named_once(world, tmp_path, capsys, flag):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXXX" + bytes(40))
    commands = [["transcribe", "--config", str(world["ini"]), "--wav", str(tmp_path / "w.wav"),
                 "--out", str(tmp_path / "t.tsv"), flag, str(bad)]]
    if flag == "--sad-model":
        commands.append(["segment", "--wav", str(tmp_path / "w.wav"),
                         "--out", str(tmp_path / "s.tsv"), flag, str(bad)])
    for command in commands:
        assert run_cli(command) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config: ") and err.count(str(bad)) == 1, err


@pytest.mark.parametrize("flag,name", [("--asr-model", "asr.ckpt"), ("--lm", "lm.ckpt"),
                                       ("--sad-model", "sad.ckpt")])
def test_a_checkpoint_without_its_parameters_is_named_once(world, tmp_path, capsys, flag, name):
    config, _ = load_checkpoint(world["root"] / name)
    bad = tmp_path / name
    save_checkpoint(bad, config, {})
    assert _transcribe(world, tmp_path / "w.wav", tmp_path / "t.tsv", flag, str(bad)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {bad}: state mismatch: missing=") and err.count(str(bad)) == 1


def timed_cli(argv) -> float:
    """Seconds run_cli(argv) took; the command must succeed."""
    started = time.perf_counter()
    assert run_cli(argv) == 0
    return time.perf_counter() - started


# half the unit of the printed "{wall:.2f}": a printed epoch time can exceed
# the true one by this much
WALL_ROUNDING = 0.005


def epoch_wall(line: str) -> float:
    """The epoch's wall seconds, printed just before its gradient norm."""
    wall, rest = line.split(" wall ")[1].split(" s ", 1)
    assert rest.startswith("grad norm max ")
    return float(wall)


def test_train_asr_reports_gradient_norm(world, tmp_path, capsys):
    man = tmp_path / "man.tsv"
    write_tsv(man, world["tone_rows"][:3])
    elapsed = timed_cli(["train-asr", "--manifest", str(man), "--vocab", str(world["root"] / "vocab.tsv"),
                         "--out", str(tmp_path / "asr.ckpt"), "--cmvn-out", str(tmp_path / "cmvn.bin"),
                         "--epochs", "1", "--seed", "3", "--enc-layers", "1", "--enc-units", "4",
                         "--vgg-channels", "2,2", "--attn-dim", "4", "--conv-filters", "3",
                         "--dec-units", "4", "--embed-dim", "4"])
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("epoch 1: ")
    # the first epoch always improves on no model, so it keeps the initial eps
    assert float(line.split(" eps ")[1].split()[0]) == AsrTrainConfig().eps
    norm = float(line.split("grad norm max ")[1])
    assert np.isfinite(norm) and norm > 0.0
    assert 0.0 <= epoch_wall(line) <= elapsed + WALL_ROUNDING


def test_train_lm_reports_gradient_norm(world, tmp_path, capsys):
    elapsed = timed_cli(["train-lm", "--corpus", str(world["root"] / "text.txt"),
                         "--vocab", str(world["root"] / "vocab.tsv"), "--out", str(tmp_path / "lm.ckpt"),
                         "--layers", "1", "--units", "4", "--epochs", "2", "--seed", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == ["epoch 1", "epoch 2"]
    for line in lines:
        assert " perplexity " in line
        norm = float(line.split("grad norm max ")[1])
        assert np.isfinite(norm) and norm > 0.0
    walls = [epoch_wall(line) for line in lines]
    assert min(walls) >= 0.0 and sum(walls) <= elapsed + WALL_ROUNDING * len(walls)


def test_train_sad_reports_gradient_norm(world, tmp_path, capsys):
    man = tmp_path / "man.tsv"
    rows = read_tsv(world["root"] / "sadcorpus" / "manifest.tsv", 3)
    write_tsv(man, rows[:2])
    elapsed = timed_cli(["train-sad", "--manifest", str(man), "--out", str(tmp_path / "sad.ckpt"),
                         "--hidden", "4", "--epochs", "1", "--seed", "5"])
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("epoch 1: loss ")
    norm = float(line.split("grad norm max ")[1])
    assert np.isfinite(norm) and norm > 0.0
    assert 0.0 <= epoch_wall(line) <= elapsed + WALL_ROUNDING


@pytest.mark.parametrize("command, trainer", [("train-tokenizer", "train_unigram"), ("train-lm", "train_lm")])
def test_corpus_lines_keep_unicode_line_separators(world, tmp_path, monkeypatch, command, trainer):
    # str.splitlines once split a sentence at U+2028, U+0085 or \x1c-\x1e
    lines = ["da\u2028re mi", "so\x1cfa\x85da\x1ere"]
    corpus = tmp_path / "text.txt"
    corpus.write_text(f"{lines[0]}\n\n{lines[1]}\n", encoding="utf-8")
    seen = []
    train = getattr(cli, trainer)

    def capture(sentences, *args, **kwargs):
        seen.extend(sentences)
        return train(sentences, *args, **kwargs)

    monkeypatch.setattr(cli, trainer, capture)
    vocab = world["root"] / "vocab.tsv"
    if command == "train-tokenizer":
        assert run_cli([command, "--corpus", str(corpus), "--out", str(tmp_path / "v.tsv")]) == 0
        assert [ln for ln in seen if ln.strip()] == lines
    else:
        assert run_cli([command, "--corpus", str(corpus), "--vocab", str(vocab), "--out", str(tmp_path / "lm.ckpt"),
                        "--layers", "1", "--units", "4", "--epochs", "1", "--seed", "3"]) == 0
        assert seen == [cli.encode_text(ln, load_vocab(vocab)) for ln in lines]


def test_text_inputs_that_are_not_utf8_name_the_file_and_line(world, tmp_path, capsys):
    bad = tmp_path / "text.txt"
    bad.write_bytes(b"da re\nmi \xff so\n")
    for argv in (["train-tokenizer", "--corpus", str(bad), "--out", str(tmp_path / "v.tsv")],
                 ["train-lm", "--corpus", str(bad), "--vocab", str(world["root"] / "vocab.tsv"),
                  "--out", str(tmp_path / "lm.ckpt")]):
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert f"{bad}: not UTF-8 text" in err and "line 2)" in err
        assert err.count(str(bad)) == 1, err
    utt, wav, labels = read_tsv(world["root"] / "sadcorpus" / "manifest.tsv", 3)[0]
    lines = Path(labels).read_bytes().split(b"\n")
    bad_labels = tmp_path / "labels.txt"
    bad_labels.write_bytes(b"\n".join(lines[:2] + [b"\xff" + lines[2]] + lines[3:]))
    write_tsv(tmp_path / "man.tsv", [(utt, wav, str(bad_labels))])
    assert run_cli(["train-sad", "--manifest", str(tmp_path / "man.tsv"), "--out", str(tmp_path / "sad.ckpt"),
                    "--hidden", "4", "--epochs", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: labels: {utt}: {bad_labels}: not UTF-8 text") and "line 3)" in err


def test_train_asr_rejects_even_conv_filters(world, tmp_path, capsys):
    man = tmp_path / "man.tsv"
    write_tsv(man, world["tone_rows"][:3])
    assert run_cli(["train-asr", "--manifest", str(man), "--vocab", str(world["root"] / "vocab.tsv"),
                    "--out", str(tmp_path / "asr.ckpt"), "--cmvn-out", str(tmp_path / "cmvn.bin"),
                    "--epochs", "1", "--seed", "3", "--enc-layers", "1", "--enc-units", "4",
                    "--vgg-channels", "2,2", "--attn-dim", "4", "--conv-filters", "4",
                    "--dec-units", "4", "--embed-dim", "4"]) == 1
    err = capsys.readouterr().err
    assert err == "error: conv_filters must be odd, got 4\n"
    assert not (tmp_path / "asr.ckpt").exists()


def test_transcript_validation_and_roundtrip(tmp_path):
    with pytest.raises(ValueError, match="invalid entry times"):
        Transcript("r", ((1.0, 0.5, "x"),))
    with pytest.raises(ValueError, match="sorted and non-overlapping"):
        Transcript("r", ((0.0, 2.0, "x"), (1.5, 3.0, "y")))
    t = Transcript("r", ((0.0, 1.25, "da re"), (2.5, 3.0, "mi")))
    write_transcript(tmp_path / "t.tsv", t)
    assert read_transcript(tmp_path / "t.tsv") == [(0.0, 1.25, "da re"), (2.5, 3.0, "mi")]


def test_transcript_text_keeps_unicode_line_separators(tmp_path):
    # str.splitlines once split a row at U+2028 or \x1c inside its text
    t = Transcript("r", ((0.0, 1.25, "da\u2028re"), (2.5, 3.0, "mi\x1cfa\x85")))
    write_transcript(tmp_path / "t.tsv", t)
    assert read_transcript(tmp_path / "t.tsv") == [(0.0, 1.25, "da\u2028re"), (2.5, 3.0, "mi\x1cfa\x85")]


def test_text_table_keeps_unicode_line_separators(tmp_path):
    # str.splitlines once cut a row of `imsk score`'s tables in two at
    # U+2028, U+0085 or \x1c-\x1e inside its text
    path = tmp_path / "hyp.tsv"
    path.write_text("u1\tda\u2028re\nu2\tmi\x85fa\x1c\x1d\x1eso\nu3\tda\tre\n", encoding="utf-8")
    assert cli._read_text_table(path) == [
        ("u1", "da\u2028re"), ("u2", "mi\x85fa\x1c\x1d\x1eso"), ("u3", "da\tre"),
    ]


def test_stage_errors_name_stage_and_item(world, tmp_path, capsys):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"this is not audio")
    assert _transcribe(world, bad, tmp_path / "out.tsv") == 1
    assert capsys.readouterr().err.startswith("error: audio: bad:")


# -- flags and config fields ---------------------------------------------------

# per subcommand: its required flags, the fields those set, the config
# classes its flags build, and its optional flags that belong to no config
_COMMANDS = {
    "train-asr": (
        ["--manifest", "m", "--vocab", "v", "--out", "o", "--cmvn-out", "c"], {},
        (EncoderConfig, AttentionConfig, DecoderConfig, AsrTrainConfig), {"--valid-fraction"},
    ),
    "train-lm": (["--corpus", "c", "--vocab", "v", "--out", "o"], {}, (LmConfig,), {"--seed"}),
    "train-sad": (["--manifest", "m", "--out", "o"], {}, (SadConfig, SadTrainConfig), set()),
    "segment": (
        ["--sad-model", "s", "--wav", "w", "--out", "o"], {"sad_model": "s"},
        (PipelineConfig,), {"--manifest"},
    ),
    "decode": (
        ["--model", "a", "--tokenizer", "t", "--cmvn", "c", "--manifest", "m", "--out", "o"], {},
        (DecodeConfig,), {"--lm", "--batch-size", "--dump-nbest", "--nbest"},
    ),
    "transcribe": (
        ["--wav", "w", "--out", "o"], {}, (PipelineConfig,), {"--config", "--keep-intermediates"},
    ),
}

# (subcommand, flag, value, config class, field, parsed non-default value)
_FLAGS = [
    ("train-asr", "--epochs", "3", AsrTrainConfig, "epochs", 3),
    ("train-asr", "--batch-size", "3", AsrTrainConfig, "batch_size", 3),
    ("train-asr", "--ctc-weight", "0.25", AsrTrainConfig, "ctc_weight", 0.25),
    ("train-asr", "--seed", "7", AsrTrainConfig, "seed", 7),
    ("train-asr", "--enc-layers", "3", EncoderConfig, "blstm_layers", 3),
    ("train-asr", "--enc-units", "3", EncoderConfig, "blstm_units", 3),
    ("train-asr", "--vgg-channels", "2,3", EncoderConfig, "vgg_channels", (2, 3)),
    ("train-asr", "--attn-dim", "3", AttentionConfig, "attn_dim", 3),
    ("train-asr", "--conv-channels", "3", AttentionConfig, "conv_channels", 3),
    ("train-asr", "--conv-filters", "3", AttentionConfig, "conv_filters", 3),
    ("train-asr", "--dec-layers", "3", DecoderConfig, "layers", 3),
    ("train-asr", "--dec-units", "3", DecoderConfig, "units", 3),
    ("train-asr", "--embed-dim", "3", DecoderConfig, "embed_dim", 3),
    ("train-lm", "--layers", "3", LmConfig, "layers", 3),
    ("train-lm", "--units", "3", LmConfig, "units", 3),
    ("train-lm", "--optimizer", "adam", LmConfig, "optimizer", "adam"),
    ("train-lm", "--batch-size", "3", LmConfig, "batch", 3),
    ("train-lm", "--epochs", "3", LmConfig, "epochs", 3),
    ("train-sad", "--context", "3", SadConfig, "context", 3),
    ("train-sad", "--hidden", "4,5", SadConfig, "hidden", (4, 5)),
    ("train-sad", "--pool-radius", "3", SadConfig, "pool_radius", 3),
    ("train-sad", "--epochs", "3", SadTrainConfig, "epochs", 3),
    ("train-sad", "--optimizer", "sgd", SadTrainConfig, "optimizer", "sgd"),
    ("train-sad", "--seed", "7", SadTrainConfig, "seed", 7),
    ("segment", "--p-stay", "0.5", PipelineConfig, "p_stay", 0.5),
    ("segment", "--max-speech", "3.5", PipelineConfig, "max_speech", 3.5),
    ("segment", "--merge-max", "3.5", PipelineConfig, "merge_max", 3.5),
    ("decode", "--beam", "3", DecodeConfig, "beam", 3),
    ("decode", "--ctc-weight", "0.25", DecodeConfig, "ctc_weight", 0.25),
    ("decode", "--lm-weight", "0.25", DecodeConfig, "lm_weight", 0.25),
    ("decode", "--max-ratio", "0.25", DecodeConfig, "max_ratio", 0.25),
    ("transcribe", "--sad-model", "x", PipelineConfig, "sad_model", "x"),
    ("transcribe", "--asr-model", "x", PipelineConfig, "asr_model", "x"),
    ("transcribe", "--lm", "x", PipelineConfig, "lm_model", "x"),
    ("transcribe", "--tokenizer", "x", PipelineConfig, "tokenizer", "x"),
    ("transcribe", "--cmvn", "x", PipelineConfig, "cmvn", "x"),
    ("transcribe", "--beam", "3", PipelineConfig, "beam", 3),
    ("transcribe", "--ctc-weight", "0.25", PipelineConfig, "ctc_weight", 0.25),
    ("transcribe", "--lm-weight", "0.25", PipelineConfig, "lm_weight", 0.25),
    ("transcribe", "--max-ratio", "0.25", PipelineConfig, "max_ratio", 0.25),
    ("transcribe", "--batch-size", "3", PipelineConfig, "batch_size", 3),
    ("transcribe", "--p-stay", "0.5", PipelineConfig, "p_stay", 0.5),
    ("transcribe", "--max-speech", "3.5", PipelineConfig, "max_speech", 3.5),
    ("transcribe", "--merge-max", "3.5", PipelineConfig, "merge_max", 3.5),
]


def _configs(command, *flags) -> dict:
    required, _, classes, _ = _COMMANDS[command]
    args = build_parser().parse_args([command, *required, *flags])
    return {cls: cli._config(cls, args) for cls in classes}


@pytest.mark.parametrize("command", _COMMANDS)
def test_no_optional_flags_gives_default_configs(command):
    _, set_by_required, classes, _ = _COMMANDS[command]
    assert _configs(command) == {cls: replace(cls(), **set_by_required) for cls in classes}


@pytest.mark.parametrize(
    "command, flag, value, cls, name, parsed", _FLAGS, ids=[f"{r[0]}{r[1]}" for r in _FLAGS]
)
def test_flag_sets_exactly_its_field(command, flag, value, cls, name, parsed):
    base = _configs(command)
    assert getattr(base[cls], name) != parsed
    assert _configs(command, flag, value) == {**base, cls: replace(base[cls], **{name: parsed})}


def test_every_config_flag_is_in_the_table():
    (choices,) = [
        a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    for command, (required, _, _, other) in _COMMANDS.items():
        optional = {
            flag
            for action in choices[command]._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag not in required and flag != "--help"
        }
        assert optional - other == {f for c, f, *_ in _FLAGS if c == command}, command


def test_ini_sections_hold_every_pipeline_field_once():
    keys = [key for section in cli._SECTIONS.values() for key in section]
    assert sorted(keys) == sorted(f.name for f in fields(PipelineConfig))


def test_ini_values_take_their_field_types(tmp_path):
    ini = tmp_path / "p.ini"
    ini.write_text(
        "[pipeline]\ncmvn = 7\n[decode]\nbeam = 4\nlm_weight = 1\n[sad]\nmerge_max = 2\n",
        encoding="utf-8",
    )
    cfg = read_pipeline_config(ini)
    assert cfg == replace(PipelineConfig(), cmvn="7", beam=4, lm_weight=1.0, merge_max=2.0)
    assert type(cfg.cmvn) is str and type(cfg.lm_weight) is float


def test_malformed_int_list_is_a_usage_error(tmp_path, capsys):
    assert run_cli(["train-sad", "--manifest", str(tmp_path / "m.tsv"),
                    "--out", str(tmp_path / "sad.ckpt"), "--hidden", "8,x"]) == 2
    assert "--hidden" in capsys.readouterr().err


def _missing_audio_manifest(tmp_path, third):
    man = tmp_path / "man.tsv"
    write_tsv(man, [(f"u{i}", tmp_path / f"missing{i}.wav", third) for i in range(3)])
    return str(man)


@pytest.mark.parametrize("flags, message", [
    (["--epochs", "0"], "epochs must be >= 1"),
    (["--batch-size", "0"], "batch_size must be >= 1"),
    (["--ctc-weight", "1.5"], "ctc weight must lie in [0, 1]"),
    (["--enc-units", "0"], "encoder layers and units must be >= 1"),
    (["--valid-fraction", "nan"], "valid_fraction must lie in (0, 1)"),
    (["--valid-fraction", "-0.1"], "valid_fraction must lie in (0, 1)"),
])
def test_train_asr_checks_configs_before_reading_input(tmp_path, capsys, flags, message):
    # neither the vocabulary nor any audio file exists: the config fails first
    assert run_cli(["train-asr", "--manifest", _missing_audio_manifest(tmp_path, "da re"),
                    "--vocab", str(tmp_path / "missing.tsv"), "--out", str(tmp_path / "asr.ckpt"),
                    "--cmvn-out", str(tmp_path / "cmvn.bin"), *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "cmvn.bin").exists()


@pytest.mark.parametrize("flags, message", [
    (["--epochs", "0"], "epochs must be >= 1"),
    (["--hidden", "0"], "hidden widths must be positive"),
])
def test_train_sad_checks_configs_before_reading_input(tmp_path, capsys, flags, message):
    assert run_cli(["train-sad", "--manifest", _missing_audio_manifest(tmp_path, "labels.txt"),
                    "--out", str(tmp_path / "sad.ckpt"), *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_train_lm_checks_configs_before_reading_input(tmp_path, capsys):
    assert run_cli(["train-lm", "--corpus", str(tmp_path / "missing.txt"),
                    "--vocab", str(tmp_path / "missing.tsv"), "--out", str(tmp_path / "lm.ckpt"),
                    "--batch-size", "0"]) == 1
    assert capsys.readouterr().err == "error: batch must be >= 1\n"


@pytest.mark.parametrize("flags, message", [
    (["--batch-size", "0"], "batch_size must be >= 1"),
    (["--nbest", "0", "--dump-nbest", "nbest.tsv"], "n must be >= 1"),
    (["--lm-weight", "nan"], "lm_weight must be finite and >= 0"),
])
def test_decode_checks_settings_before_reading_input(world, tmp_path, capsys, flags, message):
    # the artifacts are valid and every WAV is missing: the setting fails first
    root = world["root"]
    man = tmp_path / "man.tsv"
    write_tsv(man, [("u0", tmp_path / "missing.wav")])
    assert run_cli(["decode", "--manifest", str(man),
                    "--model", str(root / "asr.ckpt"), "--tokenizer", str(root / "vocab.tsv"),
                    "--cmvn", str(root / "cmvn.bin"), "--out", str(tmp_path / "hyp.tsv"), *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "hyp.tsv").exists()


@pytest.mark.parametrize("flags, message", [
    (["--max-speech", "nan"], "max_speech must be > 0"),
    (["--merge-max", "nan"], "merge_max must be >= 0"),
])
def test_segment_checks_settings_before_reading_input(tmp_path, capsys, flags, message):
    # neither the model nor the WAV exists: the setting fails first
    assert run_cli(["segment", "--sad-model", str(tmp_path / "missing.ckpt"),
                    "--wav", str(tmp_path / "missing.wav"), "--out", str(tmp_path / "s.tsv"), *flags]) == 1
    assert capsys.readouterr().err == f"error: config: {message}\n"


def test_transcribe_checks_ini_settings_before_reading_input(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[decode]\nlm_weight = nan\n", encoding="utf-8")
    assert run_cli(["transcribe", "--config", str(ini), "--wav", str(tmp_path / "missing.wav"),
                    "--out", str(tmp_path / "t.tsv")]) == 1
    assert capsys.readouterr().err == "error: config: lm_weight must be finite and >= 0\n"


def test_bad_vocabulary_is_reported_as_config(world, tmp_path, capsys):
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("<unk>\t-23\n<sos/eos>\t0\n<blank>\t0\na\t0\nb\n", encoding="utf-8")
    text = tmp_path / "c.txt"
    text.write_text("a b\n", encoding="utf-8")
    expected = f"error: config: {vocab}:5: expected 'piece TAB log-probability'"
    assert run_cli(["train-lm", "--corpus", str(text), "--vocab", str(vocab),
                    "--out", str(tmp_path / "lm.ckpt")]) == 1
    assert capsys.readouterr().err.startswith(expected)
    man = tmp_path / "man.tsv"
    write_tsv(man, world["tone_rows"][:3])
    assert run_cli(["train-asr", "--manifest", str(man), "--vocab", str(vocab),
                    "--out", str(tmp_path / "asr.ckpt"), "--cmvn-out", str(tmp_path / "c.bin")]) == 1
    assert capsys.readouterr().err.startswith(expected)


# -- input parsers under corruption ---------------------------------------------

# each parser, a valid file for it, and the errors it documents
TSV_PARSERS = {
    "transcript": (read_transcript, "0.00\t1.25\tda re\n2.50\t3.00\tmi\n", ValueError),
    "manifest": (
        lambda p: cli._read_manifest(p, with_text=True),
        "u1\ta.wav\tda re\nu2\tb.wav\tmi fa\n",
        (ValueError, PipelineError),
    ),
    "manifest_no_text": (
        lambda p: cli._read_manifest(p, with_text=False),
        "u1\ta.wav\nu2\tb.wav\n",
        (ValueError, PipelineError),
    ),
    "text_table": (cli._read_text_table, "u1\tda re\nu2\tmi\n", (ValueError, PipelineError)),
}
CONFIG_TEXT = (
    "[pipeline]\nasr_model = a.ckpt\nlm_model = \n\n[decode]\nbeam = 3\n"
    "ctc_weight = 0.4\n\n[sad]\np_stay = 0.9\nmax_speech = 12.5\n"
)


@pytest.mark.parametrize("name", sorted(TSV_PARSERS))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_tsv_corruptions_raise_only_documented_errors(tmp_path, name, data):
    parse, text, documented = TSV_PARSERS[name]
    path = tmp_path / f"{name}.tsv"
    path.write_bytes(corrupt(data, text.encode("utf-8")))
    try:
        parse(path)
    except documented as exc:
        # "<path>: message" or "<path>:<line>: message"
        assert str(exc).startswith(f"{path}:") and len(str(exc)) > len(f"{path}: ")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_config_corruptions_raise_only_pipeline_error(tmp_path, data):
    path = tmp_path / "pipeline.ini"
    path.write_bytes(corrupt(data, CONFIG_TEXT.encode("utf-8")))
    try:
        read_pipeline_config(path)
    except PipelineError as exc:
        assert str(exc).startswith("config: ")


def test_config_values_are_read_as_written(tmp_path):
    # a % once raised configparser's InterpolationSyntaxError, which is
    # not the documented PipelineError
    path = tmp_path / "pipeline.ini"
    path.write_text("[pipeline]\nasr_model = 100%.ckpt\n[decode]\nbeam = 3%\n")
    with pytest.raises(PipelineError, match=r"^config: \[decode\] beam: "):
        read_pipeline_config(path)
    path.write_text("[pipeline]\nasr_model = 100%.ckpt\nlm_model = a%%b\n")
    cfg = read_pipeline_config(path)
    assert (cfg.asr_model, cfg.lm_model) == ("100%.ckpt", "a%%b")


@pytest.mark.parametrize("name", sorted(TSV_PARSERS))
def test_tsv_errors_name_the_file(tmp_path, name):
    # text that is not UTF-8 and a time that is not a number once raised
    # errors that did not say which file was at fault
    parse, text, _ = TSV_PARSERS[name]
    path = tmp_path / f"{name}.tsv"
    path.write_bytes(b"\xff" + text.encode("utf-8"))
    with pytest.raises(ValueError, match=f"^{path}: not UTF-8 text"):
        parse(path)
    lines = text.splitlines()
    path.write_text("\n".join(lines + [lines[0]]) + "\n", encoding="utf-8")
    if name == "transcript":
        path.write_text("0.00\t1.2x\tda\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{path}: times must be numbers"):
            parse(path)
    else:
        with pytest.raises(PipelineError, match=f"^{path}: duplicate utterance id 'u1'"):
            parse(path)
