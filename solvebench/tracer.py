"""Span tracer that wraps library functions from outside the library.

A target is an attribute of a module (or class) that the solve path looks up
at call time, such as ``weighted_inner`` in ``sylgmres.arnoldi``.  While the
tracer is installed, each such attribute is replaced by a wrapper that records
one span per call: the request (solve) it belongs to, its own id, the id of the
enclosing span, a layer name, start and end in nanoseconds, and whether the
call returned normally.  Spans are kept in memory in one flat int64 buffer and
written out once, at the end of a run.

A target whose attribute does not exist is listed in ``missing`` and skipped,
so a refactor that deletes a function leaves its layer metrics absent rather
than breaking the benchmark.
"""

from __future__ import annotations

import functools
import itertools
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# Columns of one span record in the flat buffer.
FIELDS = ("request", "span", "parent", "name", "start_ns", "end_ns", "ok")
_NO_PARENT = -1


class Tracer:
    """Wraps ``targets`` = [(owner, attribute, layer name, bytes function)].

    The optional bytes function receives the call's positional arguments and
    returns the bytes the call is computed to read; the totals per layer land
    in ``bytes``.
    """

    def __init__(self, targets):
        self.request = 0
        self.bytes = Counter()
        self.missing = []
        self._buf = array("q")
        self._stack = [_NO_PARENT]
        self._ids = itertools.count()
        self._names = []
        self._name_ids = {}
        self._patches = []
        for owner, attr, layer, nbytes in targets:
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._patches.append((owner, attr, fn, self._wrap(fn, layer, nbytes)))

    @property
    def present(self):
        """Layer names with a wrapped target or an opened span."""
        return set(self._names)

    def _name_id(self, layer):
        if layer not in self._name_ids:
            self._name_ids[layer] = len(self._names)
            self._names.append(layer)
        return self._name_ids[layer]

    def _record(self, sid, parent, name_id, start, ok):
        self._buf.extend((self.request, sid, parent, name_id, start,
                          time.perf_counter_ns(), ok))

    def _wrap(self, fn, layer, nbytes):
        name_id = self._name_id(layer)
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            ok = 0
            start = clock()
            try:
                out = fn(*args, **kwargs)
                ok = 1
                return out
            finally:
                stack.pop()
                self._record(sid, parent, name_id, start, ok)
                if nbytes is not None:
                    self.bytes[layer] += nbytes(*args)

        return traced

    @contextmanager
    def installed(self):
        """Replace every target by its wrapper; restore the originals on exit."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    @contextmanager
    def span(self, layer):
        """A span opened by the caller itself, e.g. around one solve."""
        name_id = self._name_id(layer)
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        ok = 0
        start = time.perf_counter_ns()
        try:
            yield
            ok = 1
        finally:
            self._stack.pop()
            self._record(sid, parent, name_id, start, ok)

    def spans(self):
        """All recorded spans as an (n, 7) int64 array with columns FIELDS."""
        return np.frombuffer(self._buf, dtype=np.int64).reshape(-1, len(FIELDS)).copy()

    def save(self, path):
        np.savez_compressed(path, spans=self.spans(), fields=np.array(FIELDS),
                            names=np.array(self._names))

    def layers(self):
        """Per layer: calls, calls that returned, total and self nanoseconds.

        Self time is a span's duration minus the durations of the spans it
        directly encloses.  The second return value, ``by_parent``, maps
        (child, parent) to (calls, total ns) of ``child`` spans opened
        directly inside a ``parent`` span.
        """
        s = self.spans()
        out = {name: {"calls": 0, "ok": 0, "total_ns": 0, "self_ns": 0} for name in self._names}
        by_parent = {}
        if len(s) == 0:
            return out, by_parent
        sid, parent, name = s[:, 1], s[:, 2], s[:, 3]
        dur = s[:, 5] - s[:, 4]
        index = np.full(int(sid.max()) + 1, -1, dtype=np.int64)
        index[sid] = np.arange(len(s))
        has_parent = parent != _NO_PARENT
        parent_row = index[parent[has_parent]]
        child_ns = np.zeros(len(s), dtype=np.int64)
        np.add.at(child_ns, parent_row, dur[has_parent])
        self_ns = dur - child_ns
        parent_name = np.full(len(s), -1, dtype=np.int64)
        parent_name[has_parent] = name[parent_row]
        for i, layer in enumerate(self._names):
            rows = name == i
            out[layer] = {"calls": int(rows.sum()), "ok": int(s[rows, 6].sum()),
                          "total_ns": int(dur[rows].sum()),
                          "self_ns": int(self_ns[rows].sum())}
            for j, outer in enumerate(self._names):
                pair = rows & (parent_name == j)
                if pair.any():
                    by_parent[(layer, outer)] = (int(pair.sum()), int(dur[pair].sum()))
        return out, by_parent

    def calls_per_request(self, layer):
        """Counter of request id -> number of ``layer`` spans."""
        if layer not in self._name_ids:
            return Counter()
        s = self.spans()
        rows = s[:, 3] == self._name_ids[layer]
        return Counter(s[rows, 0].tolist())
