"""End-to-end orchestration: load, per-block search/write/read/detect/reset.

Activated blocks are processed in ascending index order through one shared
match-index memory, which takes a block's W tag columns in one call (metered
as W writes).  One run of consecutive activated blocks is one detection
segment, and a traced scan returns each segment's blocks and Trace.  At a
block boundary the simulator assumes (of arXiv 2205.15505, whose text beyond
the abstract is not at hand) one rule: the detector's counters carry across
the boundaries inside a run, so a repeat crossing them is counted whole; the
FSM takes the run's stream and then one flush of ``flush_zeros(p) + 1``
inputs (``detector``); and each block is still charged m*n +
``POST_STREAM_CYCLES`` detector ticks, the dt23 closed form, the ticks
beyond the run's inputs being drain ticks that consume no input (at p >= 5 a
short run has none and consumes more than it is charged).  A request is
derived and checked once, when ``ScanRequest`` is built.  Cycle counts are
metered from the actual simulation, detector ticks from each block's
read-out and read groups from the memory, once per scan as each block reads
it whole, and must agree with the closed-form cost model.  In cycle mode each
run's FSM maximum must equal the functional detector's, which takes its runs
by a separate rule (``detector`` states both), or the scan fails.  SET events
are the set bits of each run's concatenated read-outs, the sum of its
blocks' popcounts: a write phase starts all-HRS, since the memory enters
Write only from Idle and reaches Idle only through ``reset_all``, and writes
each column once, so a block's popcount is the number of high tags written.  A global maximum
at the 8-bit register limit is reported as saturated, since the true count
may be any value from there up.  With the ``repeatscan`` logger at DEBUG,
each block's SET events (counted for the log alone), maximum and saturation
are logged as the block finishes.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import acam, detector, matchmem
from .costmodel import (CostReport, CycleCounts, InternalInvariantError, TimingParams,
                        build_report)
from .detector import POST_STREAM_CYCLES, REGISTER_MAX
from .seqio import DiseaseEntry, DnaSequence, Pattern, classify


@dataclass(frozen=True)
class ScanRequest:
    """One scan, derived and checked when built, also by ``replace``: blocks
    sorted and deduplicated (``None``: those the text occupies), and K and the
    pattern length set in ``timing``, which is kept if it already holds them."""

    text: DnaSequence
    pattern: Pattern
    timing: TimingParams
    active_blocks: Iterable[int] | None = None
    disease: DiseaseEntry | None = None
    cycle_accurate: bool = False
    record_detector_trace: bool = False

    def __post_init__(self) -> None:
        blocks = (default_active_blocks(len(self.text), self.timing)
                  if self.active_blocks is None
                  else tuple(sorted(set(map(operator.index, self.active_blocks)))))
        if not blocks:
            raise ValueError("at least one block must be activated")
        outside = [b for b in blocks if not 0 <= b < self.timing.blocks]
        if outside:
            raise ValueError(f"block {outside[0]} outside [0, {self.timing.blocks})")
        if self.cycle_accurate:
            detector.check_pattern_length(len(self.pattern))
        if self.disease is not None and self.disease.pattern.codes != self.pattern.codes:
            raise ValueError(f"{self.disease.name} repeats {self.disease.pattern}, "
                             f"not the pattern {self.pattern}")
        if self.record_detector_trace and not self.cycle_accurate:
            raise ValueError("a detector trace requires cycle-accurate detection (--mode cycle)")
        object.__setattr__(self, "active_blocks", blocks)
        p, k = len(self.pattern), len(blocks)
        if (self.timing.pattern_len, self.timing.searched_blocks) != (p, k):
            object.__setattr__(self, "timing", replace(self.timing, pattern_len=p,
                                                       searched_blocks=k))


@dataclass
class ScanResult:
    global_max: int
    per_block_max: list[int]
    classification: str | None
    report: CostReport
    set_events: int
    saturated: bool
    detector_trace: list[tuple[list[int], detector.Trace]]


def default_active_blocks(text_len: int, timing: TimingParams) -> tuple[int, ...]:
    """Blocks overlapping the rows the text occupies (at least one)."""
    rows_used = max(1, math.ceil(text_len / timing.data_width))
    blocks_used = min(timing.blocks, math.ceil(rows_used / timing.mem_rows))
    return tuple(range(blocks_used))


def make_request(text: DnaSequence, pattern: Pattern, *, rows: int = TimingParams.rows,
                 data_width: int = TimingParams.data_width, blocks: int = TimingParams.blocks,
                 clock_ns: float = TimingParams.clock_ns, write_ns: float | None = None,
                 active_blocks: Iterable[int] | None = None,
                 disease: DiseaseEntry | None = None, cycle_accurate: bool = False,
                 record_detector_trace: bool = False) -> ScanRequest:
    """Build a request from loose geometry values; ``TimingParams`` settles
    the periods and ``ScanRequest`` derives and checks the rest."""
    timing = TimingParams(clock_ns=clock_ns, write_ns=write_ns, rows=rows,
                          data_width=data_width, pattern_len=len(pattern), blocks=blocks)
    return ScanRequest(text, pattern, timing, active_blocks, disease,
                       cycle_accurate, record_detector_trace)


def _debug_logger():
    """The ``repeatscan`` logger if it takes DEBUG records, else None.

    Only a program that imports the logging module can enable it, so while
    no module has, the logger is off and the scan does not import logging:
    that import alone raises a run's peak memory by about 0.4 MB.
    """
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger("repeatscan")
    return log if log.isEnabledFor(logging.DEBUG) else None


def _consecutive_runs(blocks: Sequence[int]) -> list[list[int]]:
    runs: list[list[int]] = []
    for b in blocks:
        if runs and b == runs[-1][-1] + 1:
            runs[-1].append(b)
        else:
            runs.append([b])
    return runs


def scan(request: ScanRequest) -> ScanResult:
    """Run the full load -> fill -> search -> record -> detect -> reset pipeline."""
    timing = request.timing
    array = acam.load_text(request.text, timing)
    memory = matchmem.MatchIndexMemory(timing.mem_rows, timing.mem_cols)
    windows = read_groups = ticks = resets = set_events = global_max = 0
    per_block_max: list[int] = []
    traces = []
    log = _debug_logger()

    # bound per scan, not at import: tests and span tracing patch them first
    pattern, p, block_groups = request.pattern, timing.pattern_len, memory.read_group_count()
    search, detect = acam.run_block_search, detector.detect_functional
    write, read_all, reset_all = memory.write_columns, memory.read_all, memory.reset_all

    for run in _consecutive_runs(request.active_blocks):
        acam.fill_blocks(array, pattern, run[0], run[-1] + 1)
        streams = []
        for block in run:
            tags = search(array, block, pattern)
            write(tags)
            windows += tags.shape[1]
            stream = read_all()
            streams.append(stream)
            read_groups += block_groups
            ticks += len(stream) + POST_STREAM_CYCLES
            reset_all()
            resets += 1
            block_max = detect(stream, p)
            per_block_max.append(block_max)
            if log:
                log.debug("block %d: set_events=%d block_max=%d saturated=%s", block,
                          np.count_nonzero(stream), block_max, block_max >= REGISTER_MAX)

        # a read-out is a fresh copy, so a one-block run's is the run's stream
        bits = streams[0] if len(streams) == 1 else np.concatenate(streams)
        set_events += int(np.count_nonzero(bits))
        segment_max = detect(bits, p)
        if request.cycle_accurate:
            fsm_max, trace = detector.run_cycle_accurate(
                bits, p, record_trace=request.record_detector_trace)
            if fsm_max != segment_max:
                raise InternalInvariantError(
                    f"cycle-accurate detector returned {fsm_max}, functional {segment_max}")
            if request.record_detector_trace:
                traces.append((run, trace))
        global_max = max(global_max, segment_max)

    metered = CycleCounts(search=windows, write_columns=windows,
                          read_groups=read_groups, detector_ticks=ticks, resets=resets)
    report = build_report(timing, metered)

    saturated = global_max >= REGISTER_MAX
    classification = (None if request.disease is None
                      else classify(global_max, request.disease, saturated))
    return ScanResult(
        global_max=global_max,
        per_block_max=per_block_max,
        classification=classification,
        report=report,
        set_events=set_events,
        saturated=saturated,
        detector_trace=traces,
    )
