"""In-memory span tracing of trflm's public functions, installed from outside.

A Tracer replaces a function (or a class's method) with a wrapper that records
one span per call: name, start, end and the span that was open when the call
began. Spans live in flat arrays until `save` writes them out. A wrapper may
also return counts (rows, sequences), which are added at the same boundary.
Counts, times and calls are reported per scope, the outermost open span.

Nothing in `src/trflm/` changes: `install` rebinds the attribute on every
loaded trflm module that holds the original object, so names imported with
`from x import y` are covered too, and `uninstall` puts them back.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str | None, dict[str, float]] = {}
        self._stack: list[int] = [-1]
        self._open_names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def inside(self, name: str) -> bool:
        """True while a span of this name is open on the current call path."""
        return name in self._open_names

    def add(self, counts: dict[str, float]) -> None:
        scope = self.counts.setdefault(self._open_names[0] if self._open_names else None, {})
        for key, value in counts.items():
            scope[key] = scope.get(key, 0) + value

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self._open_names.append(name)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open_names.pop()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """One span around a block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, count=None):
        """fn wrapped in a span; count(args, result) -> dict of increments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.add(count(args, result))
            return result

        return traced

    def install(self, owner, attr: str, name: str, count=None) -> None:
        """Trace owner.attr. A module function is rebound wherever a trflm
        module holds it; a class attribute is rebound on the class."""
        original = getattr(owner, attr)
        traced = self.wrap(original, name, count)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, traced)
            return
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "trflm" or module is None:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def arrays(self):
        """Copies of the span columns: name id, parent index, start, end."""
        return (np.array(self.name_id, dtype=np.int64), np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=np.float64), np.array(self.end, dtype=np.float64))

    def _select(self, name: str, scope: str):
        """Span columns, a mask of the spans called `name` under the outermost
        span `scope`, and a mask of the spans with an ancestor called `name`."""
        nid, parent, start, end = self.arrays()
        named = nid == self._name_ids.get(name, -1)
        covered = np.zeros(nid.size, dtype=bool)
        root = np.arange(nid.size)
        anc = parent.copy()
        while (live := anc >= 0).any():
            covered[live] |= named[anc[live]]
            root[live] = anc[live]
            anc[live] = parent[anc[live]]
        in_scope = nid[root] == self._name_ids.get(scope, -1)
        return parent, end - start, named & in_scope, covered

    def group_times(self, name: str, scope: str) -> tuple[float, float]:
        """(inclusive, self) seconds of the spans called `name` under `scope`.
        Inclusive time counts only spans with no ancestor of the same name, so
        functions traced under one name that call each other are not counted
        twice. Self time is each span's duration minus the durations of its
        direct children, summed."""
        parent, dur, chosen, covered = self._select(name, scope)
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=dur.size)
        return float(dur[chosen & ~covered].sum()), float((dur - child_sum)[chosen].sum())

    def calls(self, name: str, scope: str) -> int:
        return int(self._select(name, scope)[2].sum())

    def count(self, key: str, scope: str) -> float:
        return self.counts.get(scope, {}).get(key, 0)

    def save(self, path_prefix: str) -> None:
        """Write the spans (.npz) and the name table plus counts (.json)."""
        nid, parent, start, end = self.arrays()
        np.savez_compressed(path_prefix + ".npz", name_id=nid, parent=parent,
                            start=start, end=end)
        with open(path_prefix + ".json", "w", encoding="utf-8") as f:
            json.dump({"names": self.names, "counts": {str(k): v for k, v in self.counts.items()}},
                      f, indent=1)
