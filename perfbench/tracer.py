"""Outside-in span tracer.

The tracer replaces a function with a timing wrapper under the name its
caller looks it up by (``noisymoo.optimizers.nondominated_sort``, the
``scaled_residuals`` attribute of ``EvaluatedPoint``, ...), so the program
itself stays untouched. Each call becomes one span: name, start, end, the
span that was open when it started, and the run it belongs to. Spans stay
in memory and are written out once, by :meth:`Tracer.save`.

A span's self time is its duration minus the durations of its direct
children. Calls nest on one thread, so the children's intervals lie inside
the parent's and the subtraction is exact up to the clock reads.

The wrappers only time and count; they draw nothing from any random
stream and never change an argument or a result.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.run_ids: list[str] = []
        self._indices: dict[tuple, int] = {}
        # (span id, name index, start, end, parent span id or -1, run index)
        self.spans: list[tuple] = []
        # name -> [calls, self seconds]
        self.stats: dict[str, list] = {}
        # name -> {counter: summed value}
        self.counters: dict[str, dict[str, float]] = {}
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self._ids = itertools.count()
        self._patches: list[tuple] = []
        self._run = self._intern(self.run_ids, "")

    def _intern(self, table: list[str], value: str) -> int:
        key = (id(table), value)
        index = self._indices.get(key)
        if index is None:
            index = self._indices[key] = len(table)
            table.append(value)
        return index

    def set_run(self, run_id: str) -> None:
        """Label the spans that open from now on with ``run_id``."""
        self._run = self._intern(self.run_ids, run_id)

    def wrap(self, owner, attr: str, name: str, *, count=None, run_id=None) -> None:
        """Trace ``owner.attr`` as span ``name`` until :meth:`restore`.

        ``count(counters, args, kwargs, result)`` may add to the span's
        counters; ``run_id(args, kwargs)`` labels the call and everything
        beneath it as one run.
        """
        original = getattr(owner, attr)
        name_index = self._intern(self.names, name)
        stats = self.stats.setdefault(name, [0, 0.0])
        counters = self.counters.setdefault(name, {})
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1][0] if stack else -1
            outer_run = self._run
            if run_id is not None:
                self._run = self._intern(self.run_ids, run_id(args, kwargs))
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration - frame[1]
                spans.append((span_id, name_index, start, end, parent, self._run))
                self._run = outer_run
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, install):
        """Run the body with ``install(self)``'s wrappers in place."""
        install(self)
        try:
            yield self
        finally:
            self.restore()

    def snapshot(self) -> dict:
        """Per-name calls, self seconds and counters accumulated so far."""
        return {name: {"calls": calls, "self_s": self_s, **self.counters[name]}
                for name, (calls, self_s) in self.stats.items()}

    def save(self, path: Path) -> Path:
        """Write every span as columns of one compressed ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = np.array(self.spans, dtype=float).reshape(-1, 6)
        np.savez_compressed(
            path,
            span_id=cols[:, 0].astype(np.int64), name=cols[:, 1].astype(np.int32),
            start=cols[:, 2], end=cols[:, 3], parent=cols[:, 4].astype(np.int64),
            run=cols[:, 5].astype(np.int32),
            names=np.array(json.dumps(self.names)),
            run_ids=np.array(json.dumps(self.run_ids)))
        return path


def delta(after: dict, before: dict) -> dict:
    """Per-name difference of two :meth:`Tracer.snapshot` results."""
    out = {}
    for name, values in after.items():
        prior = before.get(name, {})
        out[name] = {k: v - prior.get(k, 0) for k, v in values.items()}
    return out
