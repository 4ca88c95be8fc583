"""Spans around the benchmark's calls into ``carnot``.

A span records a name ``<module>.<function>``, its start and end, the span
that was open when it began, and the op it belongs to.  Spans stay in
memory and are written once, when the run ends.  With tracing off,
:meth:`Tracer.call` is a plain call and :meth:`Tracer.op` records only the
op's wall time, so untraced runs pay no span bookkeeping.
"""

import json
import time
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []          # [name, start, end, parent index, op id]
        self.ops = []            # [op id, op name]
        self._stack = []
        self._op_id = None

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` and, when tracing, record it as a span named ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, _clock(), None, parent, self._op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = _clock()
            self._stack.pop()

    @contextmanager
    def op(self, name, timer):
        """One op: its wall time goes to ``timer.append``; when tracing, the
        op is the root span that every call made inside it hangs from."""
        if not self.enabled:
            start = _clock()
            try:
                yield
            finally:
                timer(_clock() - start)
            return
        op_id = len(self.ops)
        self.ops.append([op_id, name])
        self._op_id = op_id
        index = len(self.spans)
        record = [f"op.{name}", _clock(), None, None, op_id]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = _clock()
            self._stack.pop()
            self._op_id = None
            timer(record[2] - record[1])

    def layer_totals(self):
        """Per layer (the span name up to its first dot): self time in
        seconds and call count.  Self time is a span's duration minus the
        durations of its direct children, which run inside it one after
        another."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            self_s, calls = totals.get(layer, (0.0, 0))
            totals[layer] = (self_s + (end - start) - child_time[i], calls + 1)
        return totals

    def write(self, path, meta):
        """Write every span and op, with ``meta``, as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "span_fields": ["name", "start_s", "end_s", "parent", "op"],
                       "ops": self.ops, "spans": self.spans}, fh)
