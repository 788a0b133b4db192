"""In-process span tracing of ``citerank.cli.main``, from outside the package.

:func:`patched` rebinds, for the duration of a ``with`` block, the public
functions one citerank module calls in another, so that every call records
a span (name, layer, start, end, parent) in a :class:`Tracer`. Spans stay
in memory; :meth:`Tracer.layer_metrics` reduces them at the end.

A span's self time is its duration minus its direct children's durations,
so the self times of all spans add up to the ``cli.main`` span exactly.
Counts that cost more than a length lookup (groups tallied, bytes emitted)
are taken in a ``trace`` span of their own, so that bookkeeping is not
charged to a layer.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# Together these account for the ``cli.main_s`` span: each is a sum of span self times.
SELF_TIME_METRICS = ("cli.self_s", "parse.s", "analyze.self_s", "tally.s", "aggregate.s",
                     "emit.s", "generate.s", "correlate.s", "trace.self_s")
# Every other metric is in seconds. Counts, bytes and ratios of counts repeat exactly between runs.
UNITS = {"parse.records_per_s": "records/s", "emit.bytes": "bytes", "tally.calls": "count",
         "tally.groups": "count", "aggregate.set_scans": "count", "aggregate.papers_visited": "count",
         "aggregate.scan_yield": "ratio", "generate.records": "count", "correlate.calls": "count"}


@dataclass
class Span:
    name: str
    layer: str
    parent: Span | None
    start: float = 0.0
    end: float = 0.0
    children_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def _open(self, name: str, layer: str) -> Span:
        span = Span(name, layer, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.children_s += span.duration

    def call(self, name, layer, fn, args, kwargs, count=None):
        span = self._open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if count is not None:
            bookkeeping = self._open(f"count {name}", "trace")
            span.counts = count(args, result)
            self._close(bookkeeping)
        return result

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times and counts, named as in the benchmark's ``per_layer`` list."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            self_s[span.layer] += span.self_s
            calls[span.layer] += 1
            for key, value in span.counts.items():
                counts[key] += value
        (main,) = [span for span in self.spans if span.layer == "cli"]
        parse_s = self_s["parse"]
        visited = counts["papers_visited"]
        return {
            "cli.main_s": main.duration,
            "cli.self_s": self_s["cli"],
            "parse.s": parse_s,
            "parse.records_per_s": counts["records_parsed"] / parse_s if parse_s else 0.0,
            "analyze.self_s": self_s["analyze"],
            "emit.s": self_s["emit"],
            "emit.bytes": counts["bytes_emitted"],
            "tally.s": self_s["tally"],
            "tally.calls": calls["tally"],
            "tally.groups": counts["groups"],
            "aggregate.s": self_s["aggregate"],
            "aggregate.set_scans": counts["set_scans"],
            "aggregate.papers_visited": visited,
            "aggregate.scan_yield": counts["papers_returned"] / visited if visited else 0.0,
            "generate.s": self_s["generate"],
            "generate.records": counts["records_generated"],
            "correlate.s": self_s["correlate"],
            "correlate.calls": calls["correlate"],
            "trace.self_s": self_s["trace"],
        }


def _records_parsed(args, dataset):
    return {"records_parsed": dataset.row_count}


def _groups(args, assignment):
    return {"groups": len(set(assignment.group_keys.values()))}


def _set_scan(args, values):
    return {"set_scans": 1, "papers_visited": len(args[0].entries), "papers_returned": len(values)}


def _bytes_emitted(args, text):
    return {"bytes_emitted": len(text.encode("utf-8"))}


def _records_generated(args, records):
    return {"records_generated": len(records)}


def _targets():
    """(owner, attribute, layer, count) for every wrapped call site."""
    from citerank import cli, data_pipeline, indicator_core, synth_bench

    return [
        (cli, "load_records", "parse", _records_parsed),
        (data_pipeline, "parse_records", "parse", None),
        (cli, "run_analysis", "analyze", None),
        (synth_bench, "run_analysis", "analyze", None),
        (data_pipeline, "compute_percentiles", "tally", _groups),
        (data_pipeline, "i3", "aggregate", None),
        (data_pipeline, "top_share", "aggregate", None),
        (data_pipeline, "percent_i3", "aggregate", None),
        (indicator_core, "class_histogram", "aggregate", None),
        (indicator_core.PercentileAssignment, "percentiles_for_set", "aggregate", _set_scan),
        (cli, "emit_ranking_table", "emit", _bytes_emitted),
        (cli, "emit_paper_percentiles", "emit", _bytes_emitted),
        (cli, "emit_divergence", "emit", _bytes_emitted),
        (synth_bench, "generate_set", "generate", _records_generated),
        (synth_bench, "pearson_r", "correlate", None),
        (synth_bench, "spearman_rho", "correlate", None),
    ]


@contextmanager
def patched(tracer: Tracer):
    """Wrap every target in a span for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attribute, layer, count in _targets():
            original = getattr(owner, attribute)
            saved.append((owner, attribute, original))

            def traced(*args, _fn=original, _name=attribute, _layer=layer, _count=count, **kwargs):
                return tracer.call(_name, _layer, _fn, args, kwargs, _count)

            setattr(owner, attribute, functools.wraps(original)(traced))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def traced_main(tracer: Tracer, main, argv) -> int:
    """Run ``main(argv)`` as the root ``cli`` span with every target patched."""
    with patched(tracer):
        return tracer.call("main", "cli", main, (argv,), {})
