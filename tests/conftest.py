"""Shared fixtures: a full artifact set built through the command line,
and a guard against threads that outlive a test."""

import threading

import pytest

from helpers import write_sad_corpus, write_tone_corpus
from imsk.cli import run_cli
from imsk.util import make_rng


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fail a test that leaves threads alive which it did not start with."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    assert not leaked, f"threads left running after the test: {', '.join(leaked)}"


@pytest.fixture(scope="session")
def world(tmp_path_factory):
    """Artifacts for every stage, built through the command line."""
    root = tmp_path_factory.mktemp("world")
    sad_man, _ = write_sad_corpus(root / "sadcorpus", 24, make_rng(99))
    tone_man, tone_rows = write_tone_corpus(root / "tones", 24, make_rng(41))
    text = root / "text.txt"
    text.write_text("\n".join(r[2] for r in tone_rows) + "\n", encoding="utf-8")

    vocab = root / "vocab.tsv"
    asr = root / "asr.ckpt"
    assert run_cli(["train-tokenizer", "--corpus", str(text), "--out", str(vocab),
                    "--target-size", "40"]) == 0
    assert run_cli(["train-lm", "--corpus", str(text), "--vocab", str(vocab),
                    "--out", str(root / "lm.ckpt"), "--layers", "1", "--units", "16",
                    "--epochs", "2", "--batch-size", "8", "--seed", "3"]) == 0
    assert run_cli(["train-asr", "--manifest", str(tone_man), "--vocab", str(vocab),
                    "--out", str(asr), "--cmvn-out", str(root / "cmvn.bin"),
                    "--epochs", "2", "--batch-size", "8", "--seed", "3",
                    "--enc-units", "32", "--vgg-channels", "4,8", "--attn-dim", "32",
                    "--conv-filters", "5", "--dec-units", "32", "--embed-dim", "16"]) == 0
    assert run_cli(["train-sad", "--manifest", str(sad_man),
                    "--out", str(root / "sad.ckpt"), "--hidden", "32",
                    "--epochs", "12", "--seed", "5"]) == 0

    (root / "pipeline.ini").write_text(
        "[pipeline]\n"
        f"sad_model = {root / 'sad.ckpt'}\n"
        f"asr_model = {asr}\n"
        f"lm_model = {root / 'lm.ckpt'}\n"
        f"tokenizer = {vocab}\n"
        f"cmvn = {root / 'cmvn.bin'}\n"
        "\n[decode]\nbeam = 3\nbatch_size = 4\n",
        encoding="utf-8",
    )
    return {"root": root, "tone_rows": tone_rows, "ini": root / "pipeline.ini"}
