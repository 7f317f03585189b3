"""End-to-end checks for the command-line front end and pipeline."""

import numpy as np
import pytest

from helpers import sad_recording, tone_utterance
from imsk.asr import load_asr, save_asr
from imsk.audio import (
    Waveform,
    apply_cmvn,
    extract_logmel,
    extract_mfcc,
    load_audio,
    load_cmvn,
    save_audio,
)
from imsk.beam import DecodeConfig, decode, decode_nbest
from imsk.cli import (
    PipelineConfig,
    Transcript,
    read_pipeline_config,
    read_transcript,
    run_cli,
    write_transcript,
)
from imsk.lm import load_lm
from imsk.sad import load_sad, read_segments
from imsk.tokenizer import decode as detokenize, load_vocab, vocab_fingerprint
from imsk.util import make_rng, read_tsv, write_tsv


def _transcribe(world, wav_path, out_path, *extra):
    return run_cli(["transcribe", "--config", str(world["ini"]),
                    "--wav", str(wav_path), "--out", str(out_path), *extra])


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
    hy = decode(feat, asr, lm, DecodeConfig(beam=3))
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


def test_keep_intermediates_refeed_matches(world, tmp_path):
    root = world["root"]
    wav, _ = sad_recording(make_rng(13), ["da", "so", "re", "mi"])
    save_audio(tmp_path / "rec.wav", wav)
    keep = tmp_path / "keep"
    assert _transcribe(world, tmp_path / "rec.wav", tmp_path / "out.tsv",
                       "--keep-intermediates", str(keep)) == 0
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


def test_config_file_and_override_precedence(world):
    cfg = read_pipeline_config(world["ini"])
    assert cfg.beam == 3 and cfg.batch_size == 4
    assert cfg.p_stay == 0.99
    cfg = read_pipeline_config(world["ini"], {"beam": 5, "p_stay": None})
    assert cfg.beam == 5
    assert read_pipeline_config() == PipelineConfig()


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


def test_train_asr_reports_gradient_norm(world, tmp_path, capsys):
    man = tmp_path / "man.tsv"
    write_tsv(man, world["tone_rows"][:3])
    assert run_cli(["train-asr", "--manifest", str(man), "--vocab", str(world["root"] / "vocab.tsv"),
                    "--out", str(tmp_path / "asr.ckpt"), "--cmvn-out", str(tmp_path / "cmvn.bin"),
                    "--epochs", "1", "--seed", "3", "--enc-layers", "1", "--enc-units", "4",
                    "--vgg-channels", "2,2", "--attn-dim", "4", "--conv-filters", "3",
                    "--dec-units", "4", "--embed-dim", "4"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("epoch 1: ")
    norm = float(line.split("grad norm max ")[1])
    assert np.isfinite(norm) and norm > 0.0


def test_transcript_validation_and_roundtrip(tmp_path):
    with pytest.raises(ValueError, match="invalid entry times"):
        Transcript("r", ((1.0, 0.5, "x"),))
    with pytest.raises(ValueError, match="sorted and non-overlapping"):
        Transcript("r", ((0.0, 2.0, "x"), (1.5, 3.0, "y")))
    t = Transcript("r", ((0.0, 1.25, "da re"), (2.5, 3.0, "mi")))
    write_transcript(tmp_path / "t.tsv", t)
    assert read_transcript(tmp_path / "t.tsv") == [(0.0, 1.25, "da re"), (2.5, 3.0, "mi")]


def test_stage_errors_name_stage_and_item(world, tmp_path, capsys):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"this is not audio")
    assert _transcribe(world, bad, tmp_path / "out.tsv") == 1
    assert capsys.readouterr().err.startswith("error: audio: bad:")
