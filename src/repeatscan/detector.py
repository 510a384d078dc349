"""Pattern detector: phase-partitioned repeat counting over the match bitmap.

A set bit at stream index k means the pattern occurs at text position k, so a
tandem run of the pattern shows up as consecutive set bits at stride p.  The
functional detector partitions indices by k mod p and tracks the longest run
of 1s per phase with an 8-bit saturating counter and max register each.

The cycle-accurate mode reproduces the hardware detector for p = 3: a
round-robin FSM (states S1..S6 plus Initial and Exit) emits an increment
signal C or a reset signal R for the active phase each cycle.  On a zero the
max-register compare lands one cycle later and the counter reset two cycles
later, which is safe because the same phase is only revisited every third
cycle; the end-of-sequence signal D is therefore delayed while four flush
zeros drain the pipeline, and one further zero moves the FSM to Exit, where
the counters are cleared (CLR) and the three max registers fold into the
global maximum.  CycleAccurateDetector.feed runs the cycles with D low in one
loop over local variables, holding each pending increment, compare and reset
as a phase index (-1 for none); step() raises D and takes the Exit path.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .seqio import DnaSequence, Pattern

REGISTER_MAX = 255          # 8-bit counters and max registers saturate here
FLUSH_ZEROS = 4
POST_STREAM_CYCLES = FLUSH_ZEROS + 1

_INITIAL = 0
_EXIT = 7
_STATE_LABELS = ("Initial", "S1", "S2", "S3", "S4", "S5", "S6", "Exit")
# Phase (0-based) whose input each state consumes next: S1/S2 follow phase 0,
# S3/S4 follow phase 1, S5/S6 follow phase 2.
_NEXT_PHASE = (0, 1, 1, 2, 2, 0, 0)


def _row_head(state: int, x: int) -> tuple:
    """Trace columns state..R3 for input x consumed in a state with d low:
    a one raises the C signal of the state's phase, a zero its R signal."""
    signals = [0] * 6
    signals[_NEXT_PHASE[state] + (0 if x else 3)] = 1
    return (_STATE_LABELS[state], x, 0, *signals)


_ONE_HEAD = tuple(_row_head(state, 1) for state in range(_EXIT))
_ZERO_HEAD = tuple(_row_head(state, 0) for state in range(_EXIT))

TRACE_HEADER = "cycle,state,x,d,C1,C2,C3,R1,R2,R3,ctr1,ctr2,ctr3,max1,max2,max3"
_ROW = ",".join(["%s"] * 16)


class SteppedAfterExit(RuntimeError):
    def __init__(self) -> None:
        super().__init__("detector stepped after reaching the exit state")


def detect_functional(bits: Sequence[int] | np.ndarray, p: int) -> int:
    """Longest phase-aligned run of 1s, maximized over the p phases.

    Each zero folds the phase counter into its max register and clears it;
    end of stream flushes every counter.  Counters saturate at 255.
    """
    if p < 1:
        raise ValueError("pattern length must be at least 1")
    x = np.asarray(bits, dtype=bool)
    # rows of p bits: a leading zero row, the stream, then at least one zero
    # (the flush) after the last bit of every phase
    rows = len(x) // p + 2
    grid = np.zeros(rows * p, dtype=bool)
    grid[p:p + len(x)] = x
    # read phase by phase, the distance between consecutive zeros is one
    # more than the run of 1s between them
    zeros = np.flatnonzero(~grid.reshape(rows, p).T.ravel())
    return min(int((zeros[1:] - zeros[:-1]).max()) - 1, REGISTER_MAX)


def oracle_max_tandem(text: DnaSequence | str, pattern: Pattern | str) -> int:
    """Reference answer by direct string scanning, independent of the
    hardware model: the largest k with pattern occurrences at some q, q+p,
    ..., q+(k-1)p."""
    t = str(text)
    pat = str(pattern)
    p = len(pat)
    if p < 1:
        raise ValueError("pattern length must be at least 1")
    best = 0
    # chain[q] = run length starting at q; scan right to left so the
    # continuation at q+p is already known.
    chain = [0] * (len(t) + p)
    for q in range(len(t) - p, -1, -1):
        if t[q:q + p] == pat:
            chain[q] = 1 + chain[q + p]
            if chain[q] > best:
                best = chain[q]
    return best


class CycleAccurateDetector:
    """p = 3 hardware detector with the delayed compare/reset pipeline.

    Each clock cycle consumes one (x, d) input.  Register updates due this
    cycle (scheduled by earlier inputs) retire first, then the input is
    consumed and the FSM advances; the input of cycle t belongs to phase
    t mod 3 (cycles counted from 0).  Trace rows record end-of-cycle
    register values.

    feed() consumes a whole sequence of inputs with d low in one loop over
    local variables and writes the state back once at the end; step()
    consumes one input and is the only way to raise d.  Raising d is the one
    exit path: the events due that cycle retire, then the counters clear
    (CLR) and the max registers fold into ``global_max``; any later input
    raises SteppedAfterExit.  Pending events are phase indices, -1 for none:
    the increment or the compare due next cycle, and the reset due next
    cycle and in two cycles.
    """

    def __init__(self, record_trace: bool = False):
        self.fsm = _INITIAL
        self.ctr = [0, 0, 0]
        self.max_reg = [0, 0, 0]
        self.global_max: int | None = None
        self.cycle = 0
        self._inc = -1     # increment due next cycle
        self._cmp = -1     # max-register compare due next cycle
        self._rst1 = -1    # reset due next cycle
        self._rst2 = -1    # reset due in two cycles
        self.trace: list[tuple] | None = [] if record_trace else None

    def feed(self, xs: Iterable[int]) -> None:
        """Consume the inputs in order, one clock cycle each, with d low."""
        if self.fsm == _EXIT:
            raise SteppedAfterExit()
        ctr = self.ctr.copy()
        mx = self.max_reg.copy()
        inc, cmp, rst1, rst2 = self._inc, self._cmp, self._rst1, self._rst2
        fsm, cycle, rows = self.fsm, self.cycle, self.trace
        for x in xs:
            if inc >= 0:
                if ctr[inc] < REGISTER_MAX:
                    ctr[inc] += 1
            elif cmp >= 0 and ctr[cmp] > mx[cmp]:
                mx[cmp] = ctr[cmp]
            if rst1 >= 0:
                ctr[rst1] = 0
            rst1 = rst2
            q = cycle % 3
            cycle += 1
            if x:
                head = _ONE_HEAD[fsm]
                inc = q
                cmp = rst2 = -1
                fsm = 2 * q + 2   # S2, S4, S6
            else:
                head = _ZERO_HEAD[fsm]
                inc = -1
                cmp = rst2 = q
                fsm = 2 * q + 1   # S1, S3, S5
            if rows is not None:
                rows.append((cycle, *head, *ctr, *mx))
        self.ctr, self.max_reg = ctr, mx
        self._inc, self._cmp, self._rst1, self._rst2 = inc, cmp, rst1, rst2
        self.fsm, self.cycle = fsm, cycle

    def step(self, x: int, d: int = 0) -> None:
        if not d:
            self.feed((x,))
            return
        if self.fsm == _EXIT:
            raise SteppedAfterExit()
        # A reset still pending would only clear a counter that CLR clears
        # anyway, and no compare can be pending past this cycle.
        self.cycle += 1
        ctr, mx = self.ctr, self.max_reg
        if self._inc >= 0:
            ctr[self._inc] = min(ctr[self._inc] + 1, REGISTER_MAX)
        elif self._cmp >= 0:
            mx[self._cmp] = max(mx[self._cmp], ctr[self._cmp])
        if self._rst1 >= 0:
            ctr[self._rst1] = 0
        self._inc = self._cmp = self._rst1 = self._rst2 = -1
        self.ctr = [0, 0, 0]
        self.global_max = max(mx)
        if self.trace is not None:
            self.trace.append((self.cycle, _STATE_LABELS[self.fsm], x, d,
                               0, 0, 0, 0, 0, 0, *ctr, *mx))
            self.trace.append((self.cycle + 1, _STATE_LABELS[_EXIT], "-", "-",
                               0, 0, 0, 0, 0, 0, *self.ctr, *mx))
        self.fsm = _EXIT


def run_cycle_accurate(bits: Sequence[int],
                       record_trace: bool = False) -> tuple[int, list[tuple]]:
    """Feed a match bitmap through the p = 3 detector under the hardware
    read-out protocol: the stream, then four flush zeros, then one final zero
    carrying the end-of-sequence signal, i.e. five post-stream cycles.
    Explicit input vectors, with D raised anywhere, go through ``run_trace``.
    """
    det = CycleAccurateDetector(record_trace=record_trace)
    det.feed(bits)
    det.feed((0,) * FLUSH_ZEROS)
    det.step(0, 1)
    assert det.global_max is not None
    return det.global_max, det.trace or []


def run_trace(x_bits: Sequence[int] | str, d_bits: Sequence[int] | str | None = None,
              ) -> tuple[int, list[tuple]]:
    """Drive the FSM with explicit X and D vectors and record the trace.

    D defaults to all zeros with a final one.  The run must reach Exit.
    """
    xs = [int(b) for b in x_bits]
    if d_bits is None:
        ds = [0] * (len(xs) - 1) + [1] if xs else [1]
        if not xs:
            xs = [0]
    else:
        ds = [int(b) for b in d_bits]
    if len(xs) != len(ds):
        raise ValueError("x and d input vectors differ in length")
    det = CycleAccurateDetector(record_trace=True)
    # inputs up to the first raised D in one call; stepping on past the
    # exit raises SteppedAfterExit
    end = next((i for i, d in enumerate(ds) if d), len(ds))
    det.feed(xs[:end])
    for x, d in zip(xs[end:], ds[end:]):
        det.step(x, d)
    if det.global_max is None:
        raise ValueError("end-of-sequence signal never raised; detector did not exit")
    return det.global_max, det.trace or []


def format_trace(rows: list[tuple], global_max: int) -> str:
    return "\n".join([TRACE_HEADER, *map(_ROW.__mod__, rows),
                      f"global_max,{global_max}"]) + "\n"
