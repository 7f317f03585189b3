"""Process set-up shared by the benchmark's entry points.

Import this module before numpy: it pins the BLAS thread pools to one
thread, and puts the checkout's own `src/` first on the import path so the
benchmark measures the code next to it and never an installed copy. It also
holds the switch of the C allocator's mmap threshold that run.py uses.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = BENCH / "fixtures"
OUT = BENCH / "out"
BLAS_THREADS = 1
# glibc raises its mmap threshold after a large array is freed, so later
# arrays of that size come from the heap, and the peak RSS depends on how
# earlier operations left it: one meeting transcription peaked at 219 or at
# 236 MB by chance. The benchmark pins the threshold to MEASURE_MMAP before
# the one operation whose peak it reports: every array of 2 MiB or more is
# then mapped when allocated and unmapped when freed, and the peak follows
# the program's live memory. That costs page faults (side by side with an
# unpinned run, training steps ran 19% slower), so the timed operations run
# with the mmap and trim thresholds where glibc's own adjustment leaves them
# at most, TIMED_MMAP and twice it, and arrays up to 32 MiB reuse the heap.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MEASURE_MMAP = 2 * 1024 * 1024
TIMED_MMAP = 32 * 1024 * 1024

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)


def set_mmap_threshold(nbytes: int, trim: int | None = None) -> None:
    """Pin glibc's mmap threshold (and trim threshold); elsewhere do nothing."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        libc.mallopt(M_MMAP_THRESHOLD, nbytes)
        if trim is not None:
            libc.mallopt(M_TRIM_THRESHOLD, trim)
    except (OSError, AttributeError):
        pass


def use_checkout_source() -> None:
    """Make `import imsk` load this checkout's package, or exit with code 2."""
    if not (SRC / "imsk" / "__init__.py").is_file():
        print(f"bench: no imsk package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
