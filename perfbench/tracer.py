"""In-memory spans around calls into the program's layers.

The tracer replaces a function where its caller looks it up (a module
attribute) with a wrapper that records one span per call: name, start, end
and the span open when it was called.  Nothing inside the program changes.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    # -- hooks --------------------------------------------------------------

    def hook(self, module_name: str, attr: str, name: str) -> bool:
        """Wrap ``module.attr``; returns False, and wraps nothing, when the
        program has no such function."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return False

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.span(name, original, *args, **kwargs)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))
        return True

    def unhook_all(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- analysis -----------------------------------------------------------

    def duration(self, sid: int) -> float:
        return self.ends[sid] - self.starts[sid]

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.names]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                kids[parent].append(sid)
        return kids

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover
        (children never overlap: one thread, strictly nested calls)."""
        own = [self.duration(s) for s in range(len(self.names))]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.duration(sid)
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": sid, "name": name, "parent": self.parents[sid],
                    "start": self.starts[sid], "end": self.ends[sid],
                }) + "\n")
