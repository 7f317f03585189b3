"""The benchmark harness against the package it measures."""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"

# install() wraps imsk's functions by module and name; a name that no
# longer exists raises AttributeError. restore() must put every one back.
_INSTALL = """
import run
from tracer import Tracer

names = [(owner, attr) for owner in (run.audio, run.cli, run.beam, run.asr_model, run.AsrModel)
         for attr in dir(owner) if not attr.startswith("__")]
before = [getattr(owner, attr) for owner, attr in names]
tracer = Tracer()
run.install(tracer)
wrapped = sum(getattr(owner, attr) is not b for (owner, attr), b in zip(names, before))
tracer.restore()
assert all(getattr(owner, attr) is b for (owner, attr), b in zip(names, before))
print(wrapped)
"""


def test_trace_install_finds_every_name():
    # what `bench/run.py --trace 1` does before its first traced round
    done = subprocess.run(
        [sys.executable, "-c", _INSTALL], cwd=BENCH, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) > 0


# A traced decode of two short utterances in one batch: the encoder runs
# once for both, and every encoder frame is counted.
_DECODE = """
import numpy as np
import run
from common import FIXTURES
from imsk.asr import encoder_output_length, load_asr
from imsk.beam import DecodeConfig, decode_batch
from tracer import Tracer

model, _ = load_asr(FIXTURES / "asr.ckpt")
rng = np.random.default_rng(0)
feats = [rng.normal(0, 1, (n, model.enc_cfg.input_dim)) for n in (60, 64)]
tracer = Tracer()
run.install(tracer)
tracer.enabled = True
decode_batch(feats, model, cfg=DecodeConfig(beam=2), batch_size=2)
tracer.restore()
print(tracer.counts["asr.encode_calls"], tracer.counts["asr.encoder_frames"],
      sum(encoder_output_length(len(f)) for f in feats))
"""


def test_trace_counts_decode_time_encoding():
    done = subprocess.run(
        [sys.executable, "-c", _DECODE], cwd=BENCH, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    calls, frames, expected = map(float, done.stdout.split()[-3:])
    assert calls == 1 and frames == expected > 0
