"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, run id). Spans are appended to flat
arrays while the experiment runs and summarised when it ends, so recording
one costs two clock reads and a few appends. Counters (draws, cells,
solver evaluations, ...) are recorded at the same call boundaries.

Self time is a span's duration minus the part of it its child spans cover.
The program is single-threaded, so children never overlap and the covered
part is the sum of the children's durations.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self.run_id = 0
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self.intern(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span, plus the name table, as one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds, plus tree facts.

        Inclusive time counts only the outermost span of a name, so a name
        nested inside itself is not counted twice. ``top`` gives, per span,
        the index of its root span.
        """
        a = self.arrays()
        nid, parent = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur)) if len(dur) else dur
        self_t = dur - covered
        nested = np.zeros(len(dur), dtype=bool)
        top = np.arange(len(dur))
        anc = parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            nested |= live & (nid[np.where(live, anc, 0)] == nid)
            top = np.where(live, anc, top)
            anc = np.where(live, parent[np.where(live, anc, 0)], -1)
        per_name = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            per_name[name] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel & ~nested].sum()),
                "self_s": float(self_t[sel].sum()),
            }
        return {"per_name": per_name, "dur": dur, "self": self_t, "name_id": nid,
                "parent": parent, "top": top, "nested": nested, "run": a["run"]}
