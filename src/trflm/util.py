"""Shared numeric and I/O helpers."""
from __future__ import annotations

import json
import os
import zlib

import numpy as np


def logsumexp(x) -> float:
    """Stable log(sum(exp(x))) of a 1-D array; -inf on empty or all--inf input."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return -np.inf
    hi = float(np.max(x))
    if hi == -np.inf:
        return -np.inf
    return hi + float(np.log(np.sum(np.exp(x - hi))))


def log_sigmoid(x):
    """log(1/(1+e^-x)) elementwise, stable for large |x|."""
    return -np.logaddexp(0.0, -np.asarray(x, dtype=np.float64))


def derive_rng(master_seed: int, *tags) -> np.random.Generator:
    """Independent PCG64 stream keyed by the master seed and a tag path.

    Tags may be strings or ints; string tags are crc32-hashed so the
    derivation is stable across runs and platforms.
    """
    keys = [int(master_seed)]
    for t in tags:
        keys.append(zlib.crc32(t.encode()) if isinstance(t, str) else int(t))
    return np.random.default_rng(np.random.SeedSequence(keys))


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a same-directory temp file and rename."""
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
    os.replace(tmp, path)


def parse_json_file(path, what: str, parse):
    """parse(the JSON document in path); a ValueError or OSError names the file as `what`."""
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except ValueError as exc:   # not JSON, or not UTF-8
            raise ValueError(f"{what} {path} is not JSON: {exc}") from None
    try:
        return parse(doc)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{what} {path}: {exc}") from None


def fmt(x) -> str:
    """Shortest decimal that round-trips the float exactly (for CSV/report files)."""
    return repr(float(x))
