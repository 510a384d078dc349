"""End-to-end orchestration: load, per-block search/write/read/detect/reset.

Activated blocks are processed in ascending index order through one shared
match-index memory.  Bit streams of consecutive activated blocks are
concatenated before detection so a repeat run crossing a block boundary is
counted whole; a gap in the activated set splits the detection into
independent segments, and a traced scan returns each one's blocks and Trace.
Cycle counts are metered from the actual simulation and must agree with the
closed-form cost model.  SET events are counted as the set bits of each
block's read-out: a write phase starts all-HRS and writes each column once,
so that popcount equals the number of high tags written.  A global maximum at
the 8-bit register limit is reported as saturated, since the true count may
be any value from there up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from . import acam, detector, matchmem
from .costmodel import CostReport, CycleCounts, TimingParams, build_report
from .detector import POST_STREAM_CYCLES, REGISTER_MAX
from .seqio import DiseaseEntry, DnaSequence, Pattern, classify


class InternalInvariantError(RuntimeError):
    """The simulation contradicted itself; results must not be trusted."""


@dataclass(frozen=True)
class ScanRequest:
    text: DnaSequence
    pattern: Pattern
    timing: TimingParams
    active_blocks: tuple[int, ...] = ()
    disease: DiseaseEntry | None = None
    cycle_accurate: bool = False
    record_detector_trace: bool = False


@dataclass
class ScanResult:
    global_max: int
    per_block_max: list[int]
    classification: str | None
    report: CostReport
    set_events: int
    range_overlap_flagged: bool
    saturated: bool
    detector_trace: list[tuple[list[int], detector.Trace, int]]


def default_active_blocks(text_len: int, timing: TimingParams) -> tuple[int, ...]:
    """Blocks overlapping the rows the text occupies (at least one)."""
    rows_used = max(1, math.ceil(text_len / timing.data_width))
    blocks_used = min(timing.blocks, math.ceil(rows_used / timing.mem_rows))
    return tuple(range(blocks_used))


def make_request(text: DnaSequence, pattern: Pattern, *, rows: int = 512,
                 data_width: int = 128, blocks: int = 8, clock_ns: float = 1.0,
                 write_ns: float | None = None,
                 active_blocks: Iterable[int] | None = None,
                 disease: DiseaseEntry | None = None,
                 cycle_accurate: bool = False,
                 record_detector_trace: bool = False) -> ScanRequest:
    """Build a consistent request: K always equals the activated block count."""
    timing = TimingParams(
        clock_ns=clock_ns,
        write_ns=clock_ns if write_ns is None else write_ns,
        rows=rows,
        data_width=data_width,
        pattern_len=len(pattern),
        blocks=blocks,
    )
    if active_blocks is None:
        active = default_active_blocks(len(text), timing)
    else:
        active = tuple(sorted(set(int(b) for b in active_blocks)))
    if not active:
        raise ValueError("at least one block must be activated")
    timing = replace(timing, searched_blocks=len(active))
    return ScanRequest(
        text=text, pattern=pattern, timing=timing,
        active_blocks=active, disease=disease, cycle_accurate=cycle_accurate,
        record_detector_trace=record_detector_trace)


def _consecutive_runs(blocks: Sequence[int]) -> list[list[int]]:
    runs: list[list[int]] = []
    for b in blocks:
        if runs and b == runs[-1][-1] + 1:
            runs[-1].append(b)
        else:
            runs.append([b])
    return runs


def _validate(request: ScanRequest) -> None:
    timing = request.timing
    if len(request.pattern) != timing.pattern_len:
        raise ValueError("pattern length does not match the timing geometry")
    if not request.active_blocks:
        raise ValueError("at least one block must be activated")
    if len(set(request.active_blocks)) != len(request.active_blocks):
        raise ValueError("duplicate block indices")
    if list(request.active_blocks) != sorted(request.active_blocks):
        raise ValueError("active blocks must be in ascending order")
    for b in request.active_blocks:
        if not 0 <= b < timing.blocks:
            raise ValueError(f"block {b} outside [0, {timing.blocks})")
    if len(request.active_blocks) != timing.searched_blocks:
        raise ValueError("searched_blocks must equal the activated block count")
    if request.cycle_accurate and timing.pattern_len != 3:
        raise ValueError("cycle-accurate detection is implemented for pattern length 3")
    if request.record_detector_trace and not request.cycle_accurate:
        raise ValueError("a detector trace requires cycle-accurate detection (--mode cycle)")


def scan(request: ScanRequest) -> ScanResult:
    """Run the full load -> search -> record -> detect -> reset pipeline."""
    _validate(request)
    timing = request.timing
    pattern = str(request.pattern)
    array = acam.load_text(request.text, timing.rows, timing.data_width,
                           timing.pattern_len, timing.blocks)
    m, n = timing.mem_rows, timing.mem_cols

    memory = matchmem.MatchIndexMemory(m, n)
    search_cycles = write_columns = read_groups = ticks = resets = set_events = 0
    streams: dict[int, np.ndarray] = {}

    for block in request.active_blocks:
        memory.set_mode(matchmem.Mode.WRITE)
        for window in range(timing.data_width):
            memory.write_column(window, acam.search_cycle(array, block, window, pattern))
            search_cycles += 1
            write_columns += 1
        memory.set_mode(matchmem.Mode.READ)
        streams[block] = memory.read_all()
        set_events += int(np.count_nonzero(streams[block]))
        read_groups += memory.read_group_count()
        ticks += m * n + POST_STREAM_CYCLES
        memory.set_mode(matchmem.Mode.RESET)
        memory.reset_all()
        resets += 1
        memory.set_mode(matchmem.Mode.IDLE)

    per_block_max = [detector.detect_functional(streams[b], timing.pattern_len)
                     for b in request.active_blocks]

    global_max = 0
    traces = []
    for run in _consecutive_runs(request.active_blocks):
        bits = np.concatenate([streams[b] for b in run])
        segment_max = detector.detect_functional(bits, timing.pattern_len)
        if request.cycle_accurate:
            fsm_max, trace = detector.run_cycle_accurate(
                bits, record_trace=request.record_detector_trace)
            if fsm_max != segment_max:
                raise InternalInvariantError(
                    f"cycle-accurate detector returned {fsm_max}, functional {segment_max}")
            if request.record_detector_trace:
                traces.append((run, trace, fsm_max))
        global_max = max(global_max, segment_max)

    metered = CycleCounts(search=search_cycles, write_columns=write_columns,
                          read_groups=read_groups, detector_ticks=ticks,
                          resets=resets, blocks=len(request.active_blocks))
    report = build_report(timing, metered)

    saturated = global_max >= REGISTER_MAX
    classification = None
    overlap = False
    if request.disease is not None:
        classification = classify(global_max, request.disease, saturated)
        overlap = request.disease.overlapping

    return ScanResult(
        global_max=global_max,
        per_block_max=per_block_max,
        classification=classification,
        report=report,
        set_events=set_events,
        range_overlap_flagged=overlap,
        saturated=saturated,
        detector_trace=traces,
    )

