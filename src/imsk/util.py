"""Shared plumbing: seeded RNG resolution and TSV helpers."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

SEED_ENV_VAR = "IMSK_SEED"
DEFAULT_SEED = 1234


def resolve_seed(seed: int | None = None) -> int:
    """Explicit seed wins, then the IMSK_SEED environment variable, then default."""
    if seed is not None:
        return int(seed)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def make_rng(seed: int | None = None) -> np.random.Generator:
    return np.random.default_rng(resolve_seed(seed))


def read_text(path) -> str:
    """A UTF-8 text file's contents; text that is not UTF-8 raises a
    ValueError naming the file, and the byte and line at fault."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        line = Path(path).read_bytes().count(b"\n", 0, e.start) + 1
        raise ValueError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start}, line {line})") from e


def read_tsv_lines(path, n_fields: int) -> list[tuple[int, list[str]]]:
    """(line number, tab-split fields) of the non-blank lines of a UTF-8
    file; a ValueError naming the file for text that is not UTF-8 or a line
    of too few fields. Lines end at newlines only (read_text translates
    "\r\n" and "\r"), not at the other separators str.splitlines knows,
    such as U+2028, so a field may hold those."""
    rows = []
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < n_fields:
            raise ValueError(f"{path}:{lineno}: expected {n_fields} tab-separated fields, got {len(parts)}")
        rows.append((lineno, parts))
    return rows


def read_tsv(path, n_fields: int) -> list[list[str]]:
    """The fields of `read_tsv_lines`."""
    return [parts for _, parts in read_tsv_lines(path, n_fields)]


def write_tsv(path, rows) -> None:
    text = "".join("\t".join(str(c) for c in row) + "\n" for row in rows)
    Path(path).write_text(text, encoding="utf-8")
