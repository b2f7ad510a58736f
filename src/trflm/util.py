"""Shared numeric and I/O helpers."""
from __future__ import annotations

import ctypes
import json
import os
import zlib

import numpy as np


def retain_freed_memory() -> bool:
    """Keep freed heap memory in the process for the next allocation to reuse.

    Under glibc's dynamic thresholds, each 512-row chunk of a convolution
    potential frees its ~10 MB of numpy temporaries back to the kernel, and the
    next chunk faults them in again: ~98,600 minor faults per paper-config
    `enumerate-z`. Setting either threshold turns the dynamic rule off, so both
    are set: M_MMAP_THRESHOLD to 32 MiB, glibc's largest value and its dynamic
    ceiling, and M_TRIM_THRESHOLD to twice that, the ratio the rule keeps.
    Values under one chunk's working set still fault. The setting is
    process-wide and changes no arithmetic. True when both mallopt calls
    succeed; a C library without mallopt is left as it is (False)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):   # no process library, or no mallopt in it
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return (mallopt(-3, 32 << 20) == 1           # M_MMAP_THRESHOLD
            and mallopt(-1, 64 << 20) == 1)      # M_TRIM_THRESHOLD


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


def read_text(path, what: str) -> str:
    """The UTF-8 text of path; text that is not UTF-8 names the file as `what`."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{what} {path}: {exc}") from None


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
