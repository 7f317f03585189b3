"""Rebuild the trained fixtures in bench/fixtures/ from fixed seeds.

    python3 bench/fixtures.py

Synthesises tone-word training data shaped like the workloads (pauses
inside turns, silence margins, click bursts), then trains the desk-sized
tokenizer, language model, recognizer (with its CMVN statistics) and SAD
model through the `imsk` command line at its default settings. Finally it
transcribes a held-out one-minute meeting and prints its WER. The corpus
is written under bench/out/ and may be deleted afterwards.
"""

from __future__ import annotations

import shutil
import sys
import time

import common

common.use_checkout_source()

import numpy as np  # noqa: E402

import world  # noqa: E402
from imsk.audio import Waveform, extract_mfcc, save_audio  # noqa: E402
from imsk.cli import PipelineConfig, load_artifacts, run_cli, transcribe_with  # noqa: E402
from levenshtein import word_errors  # noqa: E402

SEED = 20190813
ASR_UTTS = 240
LM_EXTRA_LINES = 2000
SAD_RECS = 40
ASR_EPOCHS = 60  # the checked-in fixtures and the README's figures assume 60


def _write_wav(path, x):
    save_audio(path, Waveform(x, world.SR))


def build_corpus(corpus):
    rng = np.random.default_rng(SEED)
    corpus.mkdir(parents=True, exist_ok=True)
    rows, text = [], []
    for i in range(ASR_UTTS):
        x, truth = world.segment_like(rng)
        path = corpus / f"asr{i:04d}.wav"
        _write_wav(path, x)
        rows.append(f"asr{i:04d}\t{path}\t{truth.text}\n")
        text.append(truth.text)
    (corpus / "asr.tsv").write_text("".join(rows), encoding="utf-8")
    for _ in range(LM_EXTRA_LINES):
        text.append(" ".join(world.word_sequence(rng, int(rng.integers(1, 15)))))
    (corpus / "text.txt").write_text("\n".join(text) + "\n", encoding="utf-8")

    rows = []
    for i in range(SAD_RECS):
        x, truth = world.meeting(rng, 12.0)
        path = corpus / f"sad{i:04d}.wav"
        _write_wav(path, x)
        n_frames = extract_mfcc(Waveform(x, world.SR)).num_frames
        labels = corpus / f"sad{i:04d}.labels"
        labels.write_text(
            "\n".join(map(str, world.frame_labels(truth, n_frames))) + "\n",
            encoding="utf-8",
        )
        rows.append(f"sad{i:04d}\t{path}\t{labels}\n")
    (corpus / "sad.tsv").write_text("".join(rows), encoding="utf-8")


def _cli(argv):
    started = time.perf_counter()
    if run_cli(argv) != 0:
        raise SystemExit(f"fixtures: imsk {argv[0]} failed")
    print(f"# imsk {argv[0]}: {time.perf_counter() - started:.1f} s", flush=True)


def main() -> int:
    started = time.perf_counter()
    corpus = common.OUT / "fixture-corpus"
    out = common.FIXTURES
    out.mkdir(parents=True, exist_ok=True)
    build_corpus(corpus)
    seed = str(SEED)
    _cli(["train-tokenizer", "--corpus", str(corpus / "text.txt"),
          "--out", str(out / "vocab.tsv")])
    _cli(["train-lm", "--corpus", str(corpus / "text.txt"), "--vocab", str(out / "vocab.tsv"),
          "--out", str(out / "lm.ckpt"), "--seed", seed])
    _cli(["train-sad", "--manifest", str(corpus / "sad.tsv"), "--out", str(out / "sad.ckpt"),
          "--epochs", "12", "--seed", seed])
    _cli(["train-asr", "--manifest", str(corpus / "asr.tsv"), "--vocab", str(out / "vocab.tsv"),
          "--out", str(out / "asr.ckpt"), "--cmvn-out", str(out / "cmvn.bin"),
          "--epochs", str(ASR_EPOCHS), "--seed", seed])

    x, truth = world.meeting(np.random.default_rng(SEED + 1), 60.0)
    wav = corpus / "heldout.wav"
    _write_wav(wav, x)
    cfg = PipelineConfig(
        sad_model=str(out / "sad.ckpt"), asr_model=str(out / "asr.ckpt"),
        lm_model=str(out / "lm.ckpt"), tokenizer=str(out / "vocab.tsv"),
        cmvn=str(out / "cmvn.bin"),
    )
    t = transcribe_with(wav, cfg, load_artifacts(cfg))
    hyp = " ".join(text for _, _, text in t.entries).split()
    ref = truth.text.split()
    print(f"held-out meeting: {truth.duration:.1f} s, {len(t.entries)} entries, "
          f"WER {100.0 * word_errors(ref, hyp) / len(ref):.2f}% over {len(ref)} words")
    print(f"# total {time.perf_counter() - started:.1f} s")
    shutil.rmtree(corpus)
    return 0


if __name__ == "__main__":
    sys.exit(main())
