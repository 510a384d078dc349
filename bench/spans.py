"""Span recording around the package's layer boundaries, for traced runs.

The wrappers are installed where each caller looks the callable up (module
attributes and class methods) and removed again on exit, so untraced scans
run the unmodified program.  Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from repeatscan import acam, cli, detector, matchmem, pipeline


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    scan: int
    units: int = 0        # work of the call (cells, bits, rows, chars); a search cycle's block


def _len_arg(index: int, keyword: str) -> Callable:
    return lambda args, kwargs, out: len(kwargs[keyword] if keyword in kwargs else args[index])


def _cells_programmed(args, kwargs, out) -> int:
    return out.rows * out.total_cols


def _block_arg(args, kwargs, out) -> int:
    return kwargs["block"] if "block" in kwargs else args[1]


def _len_result(args, kwargs, out) -> int:
    return len(out)


# (owner, attribute, span name, what the span's units record or None)
TRACED = [
    (cli, "parse_text", "seqio.parse_text", _len_result),
    (cli, "scan", "pipeline.scan", None),
    (cli, "build_scan_report", "cli.build_scan_report", None),
    (acam, "load_text", "acam.load_text", _cells_programmed),
    (acam, "search_cycle", "acam.search_cycle", _block_arg),
    (matchmem.MatchIndexMemory, "write_column", "matchmem.write_column", None),
    (matchmem.MatchIndexMemory, "read_all", "matchmem.read_all", _len_result),
    (matchmem.MatchIndexMemory, "reset_all", "matchmem.reset_all", None),
    (detector, "detect_functional", "detector.detect_functional", _len_arg(0, "bits")),
    (detector, "run_cycle_accurate", "detector.run_cycle_accurate", _len_arg(0, "bits")),
    (detector, "format_trace", "detector.format_trace", _len_arg(0, "rows")),
    (pipeline, "build_report", "costmodel.build_report", None),
]

ROOT = "cli.main"


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _scan: int = 0

    def _wrap(self, name: str, fn: Callable, units: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self._scan)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if units is not None:
                span.units = units(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers; restore every original attribute on exit."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TRACED]
        try:
            for (owner, attr, name, units), (_, _, fn) in zip(TRACED, originals):
                setattr(owner, attr, self._wrap(name, fn, units))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def call(self, scan_id: int, fn: Callable, *args):
        """Run ``fn(*args)`` as the root span of scan ``scan_id``."""
        self._scan = scan_id
        return self._wrap(ROOT, fn, None)(*args)

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("id,name,start_s,end_s,parent,scan,units\n")
            for i, s in enumerate(self.spans):
                parent = "" if s.parent is None else s.parent
                out.write(f"{i},{s.name},{s.start!r},{s.end!r},{parent},{s.scan},{s.units}\n")


def layer_totals(spans: list[Span], scans: int) -> dict[str, dict[str, list[float]]]:
    """Per span name and scan: duration and self time (s), calls and work units."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    totals: dict[str, dict[str, list[float]]] = defaultdict(
        lambda: {key: [0.0] * scans for key in ("s", "self_s", "calls", "units")})
    for s, covered in zip(spans, child):
        t = totals[s.name]
        t["s"][s.scan] += s.end - s.start
        t["self_s"][s.scan] += s.end - s.start - covered
        t["calls"][s.scan] += 1
        t["units"][s.scan] += s.units
    return totals


def searched_blocks(spans: list[Span]) -> int:
    """Distinct (scan, block) pairs the search visited."""
    return len({(s.scan, s.units) for s in spans if s.name == "acam.search_cycle"})
