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
global maximum.
"""

from __future__ import annotations

from typing import Sequence

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

_INC = 1
_CMP = 2

TRACE_HEADER = "cycle,state,x,d,C1,C2,C3,R1,R2,R3,ctr1,ctr2,ctr3,max1,max2,max3"


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

    step() consumes one (x, d) input per clock cycle.  Register updates due
    this cycle (scheduled by earlier inputs) retire first, then the input is
    consumed and the FSM advances.  Trace rows record end-of-cycle register
    values.
    """

    def __init__(self, record_trace: bool = False):
        self.fsm = _INITIAL
        self.ctr = [0, 0, 0]
        self.max_reg = [0, 0, 0]
        self.global_max: int | None = None
        self.cycle = 0
        self._act: tuple[int, int] | None = None   # (kind, phase) due next cycle
        self._rst1: int | None = None              # reset due next cycle
        self._rst2: int | None = None              # reset due in two cycles
        self.trace: list[tuple] | None = [] if record_trace else None

    @property
    def clr(self) -> bool:
        return self.fsm in (_INITIAL, _EXIT)

    def clone(self) -> "CycleAccurateDetector":
        other = CycleAccurateDetector.__new__(CycleAccurateDetector)
        other.fsm = self.fsm
        other.ctr = self.ctr.copy()
        other.max_reg = self.max_reg.copy()
        other.global_max = self.global_max
        other.cycle = self.cycle
        other._act = self._act
        other._rst1 = self._rst1
        other._rst2 = self._rst2
        other.trace = None
        return other

    def _retire(self) -> None:
        act, self._act = self._act, None
        if act is not None:
            kind, q = act
            if kind == _INC:
                if self.ctr[q] < REGISTER_MAX:
                    self.ctr[q] += 1
            else:
                if self.ctr[q] > self.max_reg[q]:
                    self.max_reg[q] = self.ctr[q]
        rst, self._rst1, self._rst2 = self._rst1, self._rst2, None
        if rst is not None:
            self.ctr[rst] = 0

    def step(self, x: int, d: int = 0) -> None:
        if self.fsm == _EXIT:
            raise SteppedAfterExit()
        self.cycle += 1
        self._retire()

        state = self.fsm
        q = _NEXT_PHASE[state]
        c_sig = [0, 0, 0]
        r_sig = [0, 0, 0]
        if d:
            self.fsm = _EXIT
        elif x:
            c_sig[q] = 1
            self._act = (_INC, q)
            self.fsm = 2 * q + 2   # S2, S4, S6
        else:
            r_sig[q] = 1
            self._act = (_CMP, q)
            self._rst2 = q
            self.fsm = 2 * q + 1   # S1, S3, S5

        if self.trace is not None:
            self.trace.append((self.cycle, _STATE_LABELS[state], x, d,
                               *c_sig, *r_sig, *self.ctr, *self.max_reg))
        if self.fsm == _EXIT:
            self._finish()

    def _finish(self) -> None:
        # Drain the pipeline, clear the counters (CLR), fold the maxima.
        self._retire()
        self._retire()
        self.ctr = [0, 0, 0]
        self.global_max = max(self.max_reg)
        if self.trace is not None:
            self.trace.append((self.cycle + 1, _STATE_LABELS[_EXIT], "-", "-",
                               0, 0, 0, 0, 0, 0, *self.ctr, *self.max_reg))


def run_cycle_accurate(bits: Sequence[int], flush: bool = True,
                       record_trace: bool = False) -> tuple[int, list[tuple]]:
    """Feed a match bitmap through the p = 3 detector.

    With flush (the default, matching the hardware read-out protocol) the
    stream is followed by four flush zeros and one final zero carrying the
    end-of-sequence signal, i.e. five post-stream cycles.  With flush=False
    the end signal rides on the last stream bit, for driving explicit input
    vectors; the stream must then be non-empty and already end in enough
    zeros for the max registers to be current.
    """
    det = CycleAccurateDetector(record_trace=record_trace)
    if flush:
        for b in bits:
            det.step(int(b), 0)
        for _ in range(FLUSH_ZEROS):
            det.step(0, 0)
        det.step(0, 1)
    else:
        if not bits:
            raise ValueError("flush=False needs at least one input bit")
        for b in bits[:-1]:
            det.step(int(b), 0)
        det.step(int(bits[-1]), 1)
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
    for x, d in zip(xs, ds):
        det.step(x, d)
    if det.global_max is None:
        raise ValueError("end-of-sequence signal never raised; detector did not exit")
    return det.global_max, det.trace or []


def format_trace(rows: list[tuple], global_max: int) -> str:
    lines = [TRACE_HEADER]
    lines.extend(",".join(str(v) for v in row) for row in rows)
    lines.append(f"global_max,{global_max}")
    return "\n".join(lines) + "\n"
