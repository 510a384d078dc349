"""Pattern detector: phase-partitioned repeat counting over the match bitmap.

A set bit at stream index k means the pattern occurs at text position k, so a
tandem run of the pattern shows up as consecutive set bits at stride p.  The
functional detector partitions indices by k mod p and tracks the longest run
of 1s per phase with an 8-bit saturating counter and max register each.

The cycle-accurate mode reproduces the hardware detector for p = 3: a
round-robin FSM (states S1..S6 plus Initial and Exit) emits an increment
signal C or a reset signal R for the active phase each cycle.  On a zero the
max-register compare lands one cycle later and the counter reset two cycles
later; the end-of-sequence signal D is therefore delayed while four flush
zeros drain the pipeline, and one further zero moves the FSM to Exit, where
the counters are cleared (CLR) and the three max registers fold into the
global maximum.

The registers are computed per phase from events, in one array pass per
stream, not cycle by cycle.  Phase q's j-th input y_j arrives in cycle
c_j = q + 3j (counted from 0), and its run r_j is the number of ones ending
at j, capped at 255.  A one's increment lands at c_j + 1 and a zero's
counter reset at c_j + 2, so the phase counter at the end of cycle t is r_j
of the last input whose event is due by t.  A zero's compare lands at
c_j + 1 and carries r_(j-1).  The exit cycle, the one whose input carries D,
retires only the events due in it.  This holds because a zero's compare
lands before its reset, which lands before the phase's next event; that
order is asserted at import on the delay constants below.  Untraced runs
take the global maximum from the compares alone; traced runs expand the
events into per-cycle register columns, a ``Trace``, which ``format_trace``
streams to a file a fixed number of rows at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO, Sequence

import numpy as np

from .seqio import DnaSequence, Pattern

REGISTER_MAX = 255          # 8-bit counters and max registers saturate here
FLUSH_ZEROS = 4
POST_STREAM_CYCLES = FLUSH_ZEROS + 1

PHASES = 3                  # the FSM serves pattern length 3
INC_DELAY = CMP_DELAY = 1   # cycles from a one to its increment, a zero to its compare
RST_DELAY = 2               # cycles from a zero to its counter reset
# The compare reads the run before the reset clears it, and the reset lands
# before the phase's next input, PHASES cycles on, lands its own event.
assert CMP_DELAY < RST_DELAY < PHASES + min(INC_DELAY, CMP_DELAY)
# Every phase gets a flush zero whose compare lands by the exit cycle.
assert FLUSH_ZEROS >= PHASES - 1 + CMP_DELAY

_STATE_LABELS = ("Initial", "S1", "S2", "S3", "S4", "S5", "S6")
# Phase (0-based) whose input each state consumes next: S1/S2 follow phase 0,
# S3/S4 follow phase 1, S5/S6 follow phase 2.
_NEXT_PHASE = (0, 1, 1, 2, 2, 0, 0)

TRACE_CHUNK_ROWS = 4096     # rows format_trace lays out per write
TRACE_HEADER = "cycle,state,x,d,C1,C2,C3,R1,R2,R3,ctr1,ctr2,ctr3,max1,max2,max3"


def _ascii_fields(fields: list[str]) -> np.ndarray:
    """Each field as one fixed-width scalar of ASCII bytes, right-aligned
    with NUL fill, which ``format_trace`` drops; ``take`` on the result
    gathers whole fields."""
    width = max(map(len, fields))
    return np.frombuffer("".join(f.rjust(width, "\0") for f in fields).encode(),
                         dtype=f"V{width}")


def _head(state: int, x: int) -> str:
    """Trace columns state..R3 for input x consumed in a state with d low:
    a one raises the C signal of the state's phase, a zero its R signal."""
    signals = ["0"] * 6
    signals[_NEXT_PHASE[state] + (0 if x else 3)] = "1"
    return f",{_STATE_LABELS[state]},{x},0,{','.join(signals)},"


# indexed by 2 * state + x
_HEADS = _ascii_fields([_head(state, x) for state in range(len(_STATE_LABELS))
                       for x in (0, 1)])
# indexed by register value: up to three digits and a comma
_REGISTERS = _ascii_fields([f"{v}," for v in range(REGISTER_MAX + 1)])


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
    # read phase by phase, a run of 1s is a stretch of consecutive ones; a
    # match stream holds few ones, so index them rather than its many zeros
    ones = np.flatnonzero(grid.reshape(rows, p).T.ravel())
    if not ones.size:
        return 0
    starts = np.flatnonzero(np.diff(ones, prepend=-2) != 1)
    return min(int(np.diff(starts, append=len(ones)).max()), REGISTER_MAX)


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


@dataclass(frozen=True, eq=False)
class Trace:
    """Columnar detector trace, one row per clock cycle.

    ``x`` holds the inputs consumed, the last one carrying D; ``regs`` holds
    the end-of-cycle registers ctr1..ctr3, max1..max3 of each of those
    cycles and of the final Exit cycle.  States and signals follow from x.
    """
    x: np.ndarray        # uint8, one per consumed input
    regs: np.ndarray     # uint8, (len(x) + 1, 6)

    def __len__(self) -> int:
        return len(self.regs)


def _run(stream: Sequence[int] | np.ndarray, zeros: int, exit_x: int,
         record_trace: bool) -> tuple[int, Trace | None]:
    """The FSM over the inputs ``stream`` and then ``zeros`` zeros, all with
    D low, and a last input ``exit_x`` carrying D."""
    n = len(stream)
    k = n + zeros                       # inputs consumed with D low
    rounds = -(-k // PHASES)
    # one row per round of PHASES inputs; padding ones schedule no compare,
    # and every event of a padded input lands after the exit cycle
    y = np.ones(rounds * PHASES, dtype=bool)
    y[:n] = stream
    y[n:k] = False
    y = y.reshape(rounds, PHASES)
    j = np.arange(rounds, dtype=np.int32)[:, None]
    # run of ones ending at each input of its phase, not yet capped
    run = j - np.maximum.accumulate(np.where(y, -1, j), axis=0)
    if not record_trace:
        # every zero's compare lands by the exit cycle, carrying r_(j-1)
        return min(int(run[:-1][~y[1:]].max(initial=0)), REGISTER_MAX), None

    run = np.minimum(run, REGISTER_MAX)
    prev = np.zeros_like(run)
    prev[1:] = run[:-1]
    # Registers of phase q for the PHASES cycles from c_j + INC_DELAY: the
    # counter after the increment or before the reset (the larger of r_j and
    # r_(j-1)) until the reset is due, r_j after it, and the running maximum
    # of the compares throughout.
    hold = RST_DELAY - INC_DELAY
    events = np.empty((rounds, PHASES, 6), dtype=np.uint8)
    events[:, :hold, :3] = np.maximum(run, prev)[:, None]
    events[:, hold:, :3] = run[:, None]
    events[:, :, 3:] = np.maximum.accumulate(np.where(y, 0, prev), axis=0)[:, None]
    events = events.reshape(rounds * PHASES, 6)
    # cycles 0..k, the exit row, and room for the padding's late events
    regs = np.zeros((len(events) + PHASES - 1 + INC_DELAY, 6), dtype=np.uint8)
    for q in range(PHASES):
        regs[q + INC_DELAY:q + INC_DELAY + len(events), q::PHASES] = events[:, q::PHASES]
    regs = regs[:k + 2]
    regs[-1, :3] = 0                    # Exit: CLR, max registers kept
    regs[-1, 3:] = regs[-2, 3:]
    xs = np.empty(k + 1, dtype=np.uint8)
    xs[:k] = y.ravel()[:k]
    xs[k] = exit_x
    return int(regs[-1, 3:].max()), Trace(xs, regs)


def run_cycle_accurate(bits: Sequence[int] | np.ndarray,
                       record_trace: bool = False) -> tuple[int, Trace | None]:
    """Run a match bitmap through the p = 3 detector under the hardware
    read-out protocol: the stream, then four flush zeros, then one final zero
    carrying the end-of-sequence signal, i.e. five post-stream cycles.
    Explicit input vectors, with D raised anywhere, go through ``run_trace``.
    The trace is None unless ``record_trace``.
    """
    return _run(bits, FLUSH_ZEROS, 0, record_trace)


def run_trace(x_bits: Sequence[int] | str, d_bits: Sequence[int] | str | None = None,
              ) -> tuple[int, Trace]:
    """Drive the FSM with explicit X and D vectors and record the trace.

    D defaults to all zeros with a final one.  The run must reach Exit, and
    no input may follow the first raised D.
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
    end = next((i for i, d in enumerate(ds) if d), None)
    if end is None:
        raise ValueError("end-of-sequence signal never raised; detector did not exit")
    if end + 1 < len(xs):
        raise SteppedAfterExit()
    return _run(xs[:end], 0, xs[end], True)


def format_trace(trace: Trace, global_max: int, out: BinaryIO) -> None:
    """Write the trace as CSV under ``TRACE_HEADER``, then a global_max line,
    to the binary stream ``out``: the rows with D low ``TRACE_CHUNK_ROWS`` at
    a time, each chunk laid out in one reused byte matrix (NUL-padded cycle
    digits, the state..R3 head, six registers) whose NULs are deleted on write.
    """
    x, regs = trace.x, trace.regs
    n = len(x) - 1                      # rows with D low
    digits = len(str(n))
    head_end = digits + _HEADS.itemsize
    table = np.empty((min(n, TRACE_CHUNK_ROWS), head_end + 6 * _REGISTERS.itemsize), np.uint8)
    out.write(f"{TRACE_HEADER}\n".encode())
    for start in range(0, n, TRACE_CHUNK_ROWS):
        row = np.arange(start, min(start + TRACE_CHUNK_ROWS, n), dtype=np.int32)
        chunk = table[:len(row)]
        cycle = row + 1
        for i in reversed(range(digits)):
            chunk[:, i] = np.where(cycle > 0, cycle % 10 + ord("0"), 0)
            cycle //= 10
        # state of each row: Initial, then S(2q+1+x) after a phase-q input x
        state = np.where(row > 0, 2 * ((row - 1) % PHASES) + 1 + x[row - 1], 0)
        chunk[:, digits:head_end] = _HEADS.take((2 * state + x[row])[:, None]).view(np.uint8)
        chunk[:, head_end:] = _REGISTERS.take(regs[row]).view(np.uint8)
        chunk[:, -1] = ord("\n")
        out.write(chunk.tobytes().translate(None, b"\0"))
    last = 2 * ((n - 1) % PHASES) + 1 + x[n - 1] if n else 0
    out.write((f"{n + 1},{_STATE_LABELS[last]},{x[n]},1,0,0,0,0,0,0,"
               + ",".join(map(str, regs[-2]))
               + f"\n{n + 2},Exit,-,-,0,0,0,0,0,0," + ",".join(map(str, regs[-1]))
               + f"\nglobal_max,{global_max}\n").encode())
