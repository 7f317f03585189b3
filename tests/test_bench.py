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
