"""In-memory spans and counts for the traced benchmark run.

A span records (name, start, end, parent).  Spans come from the benchmark's
own ``with tracer.span(...)`` blocks around its calls into the library, and
from wrappers that ``wrap`` installs on the module attributes the library
looks up internally.  A layer's self time is its spans' durations minus the
durations of their direct children.  Untraced passes run with ``NULL``,
whose spans do nothing, and with no wrapper installed.
"""

import json
from collections import Counter
from contextlib import nullcontext
from time import perf_counter


class NullTracer:
    _span = nullcontext()

    def span(self, name):
        return self._span

    def add(self, counts):
        pass


NULL = NullTracer()


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close()


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._patched = []

    def span(self, name):
        return _Span(self, name)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent])

    def _close(self):
        self.spans[self._stack.pop()][2] = perf_counter()

    def add(self, counts):
        self.counts.update(counts)

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a spanning wrapper until ``unwrap``.

        ``count(args, result)`` returns counts to add; it runs after the
        span closes, so its cost lands in the caller's self time.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close()
            if count is not None:
                self.counts.update(count(args, result))
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def unwrap(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self):
        """Flat Counter: ("self"|"total"|"calls", span name) and ("count", key)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = Counter()
        for (name, start, end, _), children in zip(self.spans, child_time):
            out["total", name] += end - start
            out["self", name] += end - start - children
            out["calls", name] += 1
        for key, value in self.counts.items():
            out["count", key] += value
        return out

    def flush(self, fh, request):
        """Append the spans as JSON lines tagged with ``request``, then clear."""
        for i, (name, start, end, parent) in enumerate(self.spans):
            fh.write(json.dumps({"request": request, "id": i, "name": name,
                                 "start": start, "end": end, "parent": parent}) + "\n")
        self.spans.clear()
        self.counts.clear()


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(t, overhead_ratio):
    """Per-layer metrics (value, unit) from the totals of ``Tracer.totals``."""
    def self_s(name):
        return t["self", name]

    def calls(name):
        return t["calls", name]

    def count(key):
        return t["count", key]

    decode_s = self_s("tagger.decode")
    train_s = self_s("tagger.train")
    parse_s = self_s("corpus.parse")
    return {
        "tagger.decode_s": (decode_s, "s"),
        "tagger.decode_calls": (calls("tagger.decode"), "count"),
        "tagger.decode_tokens": (count("tagger.decode_tokens"), "tokens"),
        "tagger.lattice_cells": (count("tagger.lattice_cells"), "cells"),
        "tagger.decode_ns_per_cell": (
            _ratio(decode_s * 1e9, count("tagger.lattice_cells")), "ns/cell"),
        "tagger.train_s": (train_s, "s"),
        "tagger.train_steps": (count("tagger.train_steps"), "count"),
        "tagger.train_steps_per_s": (_ratio(count("tagger.train_steps"), train_s), "1/s"),
        "tagger.features_s": (self_s("tagger.features"), "s"),
        "tagger.features_calls": (calls("tagger.features"), "count"),
        "tagger.save_model_s": (self_s("tagger.save_model"), "s"),
        "tagger.model_bytes": (count("tagger.model_bytes"), "bytes"),
        "tagger.model_rows": (count("tagger.model_rows"), "count"),
        "model.spans_from_tags_s": (self_s("model.spans_from_tags"), "s"),
        "model.spans_from_tags_calls": (calls("model.spans_from_tags"), "count"),
        "corpus.parse_s": (parse_s, "s"),
        "corpus.parse_bytes": (count("corpus.parse_bytes"), "bytes"),
        "corpus.parse_mb_per_s": (_ratio(count("corpus.parse_bytes") / 1e6, parse_s), "MB/s"),
        "corpus.render_s": (self_s("corpus.render"), "s"),
        "corpus.render_bytes": (count("corpus.render_bytes"), "bytes"),
        "corpus.pair_s": (self_s("corpus.pair"), "s"),
        "scoring.score_s": (self_s("scoring.score"), "s"),
        "scoring.confusion_s": (self_s("scoring.confusion"), "s"),
        "scoring.report_render_s": (self_s("scoring.report_render"), "s"),
        "scoring.spans": (count("scoring.spans"), "count"),
        "oracle.sequence_s": (self_s("oracle.sequence"), "s"),
        "oracle.frames": (count("oracle.frames"), "count"),
        "agreement.align_s": (self_s("agreement.align"), "s"),
        "agreement.align_cells": (count("agreement.align_cells"), "cells"),
        "agreement.recall_s": (self_s("agreement.recall"), "s"),
        "agreement.tuples": (count("agreement.tuples"), "count"),
        "agreement.selected": (count("agreement.selected"), "count"),
        "agreement.selected_ratio": (
            _ratio(count("agreement.selected"), count("agreement.pool")), "ratio"),
        "pipeline.retrain_s": (t["total", "pipeline.retrain"], "s"),
        "pipeline.self_s": (self_s("pipeline.retrain"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
