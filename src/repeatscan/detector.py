"""Pattern detector: phase-partitioned repeat counting over the match bitmap.

A set bit at stream index k means the pattern occurs at text position k, so a
tandem run of the pattern shows up as consecutive set bits at stride p: phase
q's j-th input y_j is bit q + pj, and its run r_j is the number of ones ending
at j.  Counters and max registers saturate at 255.  The functional detector
is the largest r_j, capped, found on the stream packed into one integer: the
inputs that start a run of 2L ones are those that start a run of L whose
input Lp further on does too, so L doubles up to 128, then grows greedily by
64, 32, ..., 1 while a run that long remains.  The FSM takes each r_j from
the phase-major layout of ``_phase_runs``, a separate rule, so cycle mode's
comparison of the two maxima checks one rule against the other.

The cycle-accurate mode reproduces the hardware detector for a pattern
length p: a round-robin FSM (states S1..S2p plus Initial and Exit) emits an
increment signal C or a reset signal R for the active phase each cycle.  It
consumes one input vector x, one input per cycle, its last input raising the
end-of-sequence signal D: ``run_trace`` takes x as given, and
``run_cycle_accurate`` extends a read-out stream to x with ``flush_zeros(p)``
zeros and one final zero.  On a zero the max-register compare lands one
cycle later and the counter reset two cycles later, so the flush zeros drain
the pipeline while D waits, and the input carrying D moves the FSM to Exit,
where the counters are cleared (CLR) and the p max registers fold into the
global maximum.

The registers are computed per phase from events, in one array pass per
vector, not cycle by cycle.  Phase q's y_j arrives in cycle c_j = q + pj
(counted from 0).  A one's increment lands at c_j + 1 and a zero's counter
reset at c_j + 2, so the phase counter at the end of cycle t is r_j, capped,
of the last input whose event is due by t.  A zero's compare lands at c_j + 1
and carries r_(j-1), so the FSM matches the functional detector only if a
flush zero reaches every phase.  The exit cycle, the one whose input carries
D, retires only the events due in it.  This holds because a zero's compare
lands before its reset, which lands before the phase's next event; that order
is ``check_pattern_length``'s, met by every p >= 2.  Max registers are a
running maximum along each row.  Untraced runs take the largest compare;
traced runs write a row of cycles per register, a ``Trace``, which
``format_trace`` streams in chunks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import BinaryIO, Sequence

import numpy as np

from .seqio import DnaSequence, Pattern

REGISTER_MAX = 255          # 8-bit counters and max registers saturate here
FLUSH_ZEROS = 4
POST_STREAM_CYCLES = FLUSH_ZEROS + 1

INC_DELAY = CMP_DELAY = 1   # cycles from a one to its increment, a zero to its compare
RST_DELAY = 2               # cycles from a zero to its counter reset

TRACE_CHUNK_ROWS = 4096     # rows format_trace lays out per write


def check_pattern_length(p: int) -> None:
    """Raise ValueError unless the delays keep the module's order at stride p."""
    if not CMP_DELAY < RST_DELAY < p + min(INC_DELAY, CMP_DELAY):
        raise ValueError(f"the detector FSM cannot serve pattern length {p}")


def flush_zeros(p: int) -> int:
    """Zeros after a read-out stream: a compare for every phase by the exit cycle."""
    return max(FLUSH_ZEROS, p - 1 + CMP_DELAY)


def trace_header(p: int) -> str:
    """The trace's CSV header for pattern length p."""
    return ",".join(["cycle,state,x,d"] + [f"{r}{i}" for r in ("C", "R", "ctr", "max")
                                           for i in range(1, p + 1)])


def _head(state: int, x: int, p: int) -> str:
    """Trace columns state..Rp for input x consumed in a state with d low: a
    one raises C, a zero R, of the state's phase, (state + 1) // 2 mod p."""
    signals = ["0"] * 2 * p
    signals[(state + 1) // 2 % p + (0 if x else p)] = "1"
    return f",{f'S{state}' if state else 'Initial'},{x},0,{','.join(signals)},"


@functools.lru_cache(maxsize=16)
def _heads(p: int) -> np.ndarray:
    """Read-only heads of S1..S2p by 2 * (state - 1) + x, NUL-led to the widest."""
    fields = [_head(s, x, p).encode() for s in range(1, 2 * p + 1) for x in (0, 1)]
    width = len(fields[-1])             # 20 bytes for p = 3; S10 and up are wider
    return np.frombuffer(b"".join(f.rjust(width, b"\0") for f in fields), dtype=f"V{width}")


def _lookup_tables() -> tuple[np.ndarray, np.ndarray]:
    """Read-only views of one buffer filled in place: _GROUPS, the 4-digit
    groups 0000..9999 and a NUL-led copy, and _FIELDS, each value 0..255
    NUL-led to three digits and a comma, one 4-byte item."""
    buf = np.empty(8 * 10**4 + (REGISTER_MAX + 1) * 4, dtype=np.uint8)
    digits = buf[:8 * 10**4].reshape(2, 10, 10, 10, 10, 4)
    for i in range(4):
        digits[..., i] = np.frombuffer(b"0123456789", np.uint8).reshape((10,) + (1,) * (3 - i))
        digits[(1,) + (0,) * (i + 1) + (..., i)] = 0    # NUL above the highest digit
    fields = buf[8 * 10**4:].reshape(-1, 4)
    fields[:, :3] = digits[1].reshape(-1, 4)[:REGISTER_MAX + 1, 1:]
    fields[0, 2], fields[:, 3] = ord("0"), ord(",")
    tables = buf[:8 * 10**4].view("V4"), fields.view("V4")[:, 0]
    for table in tables:
        table.flags.writeable = False
    return tables


_GROUPS, _FIELDS = _lookup_tables()


def _write_cycles(first: int, out: np.ndarray) -> None:
    """Write first, first + 1, ... down the byte rows of ``out``, NUL-led: up to
    each multiple of 10^4 the lowest four digits count up through _GROUPS."""
    for a in range(first - first % 10**4, first + len(out), 10**4):
        seg = out[max(a - first, 0):a + 10**4 - first]
        high, low = divmod(max(a, first), 10**4)
        seg[:, :-4] = list(str(high or "").rjust(seg.shape[1] - 4, "\0").encode())
        seg[:, -4:].view(_GROUPS.dtype)[:, 0] = _GROUPS[low + (not high) * 10**4:][:len(seg)]


def _phase_runs(x: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lay the inputs ``x`` out phase-major, padded with ones to a whole round:
    row q is phase q's y_-1 = 0 (a sentinel), y_0, ....  Return that bool
    layout, its flat indices of ones and each one's r_j."""
    whole, part = divmod(len(x), p)
    y = np.ones((p, whole + (part > 0) + 1), dtype=bool)   # padding ones
    y[:, 0] = False                                         # the sentinels y_-1
    y[:, 1:whole + 1] = x[:whole * p].reshape(whole, p).T
    y[:part, -1] = x[whole * p:]
    ones = y.ravel().nonzero()[0]
    # r_j is a one's distance from the zero before its run: a run starts where
    # two ones' flat indices differ by more than 1, and repeat fills per run
    starts = np.ones(len(ones) + 1, dtype=bool)
    np.not_equal(ones[1:] - ones[:-1], 1, out=starts[1:-1])
    edges = starts.nonzero()[0]         # the starts, then the count of ones
    runs = np.repeat(ones[edges[:-1]] - 1, edges[1:] - edges[:-1])
    return y, ones, np.subtract(ones, runs, out=runs)


def detect_functional(bits: Sequence[int] | np.ndarray, p: int) -> int:
    """Longest phase-aligned run of 1s, maximized over the p phases.

    Each zero folds the phase counter into its max register and clears it;
    end of stream flushes every counter.  Counters saturate at 255.
    """
    if p < 1:
        raise ValueError("pattern length must be at least 1")
    # Bit i of one integer is input i, so a phase's inputs are the chain i,
    # i + p, ...; starts[k] holds the inputs that start a run of 2**k ones.
    packed = np.packbits(np.asarray(bits, dtype=bool), bitorder="little")
    starts = [int.from_bytes(packed, "little")]
    length = 1 if starts[0] else 0
    while 2 * length <= REGISTER_MAX:
        longer = starts[-1] & (starts[-1] >> length * p)
        if not longer:
            break
        starts.append(longer)
        length *= 2
    # Every run is shorter than 2 * length, or length has reached the cap's
    # power of two: lengthen greedily by the smaller powers of two
    top = starts[-1]
    for k in range(len(starts) - 2, -1, -1):
        longer = top & (starts[k] >> length * p)
        if longer and length + 2**k <= REGISTER_MAX:
            top, length = longer, length + 2**k
    return length


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
    one row per register, ctr1..ctrp then max1..maxp, of its end-of-cycle
    values in each of those cycles and in the final Exit cycle.  States and
    signals follow from x.
    """
    x: np.ndarray        # uint8, one per consumed input
    regs: np.ndarray     # uint8, (2p, len(x) + 1), one row per register

    def __len__(self) -> int:
        return self.regs.shape[1]


def _run(x: np.ndarray, p: int, record_trace: bool) -> tuple[int, Trace | None]:
    """The FSM over the bool input vector ``x``, D raised with its last input."""
    check_pattern_length(p)
    k = len(x) - 1                      # inputs consumed with D low
    y, ones, runs = _phase_runs(x[:k], p)   # padding ones compare nothing
    run = np.zeros(y.shape, dtype=np.uint8)
    run.ravel()[ones] = np.minimum(runs, REGISTER_MAX, out=runs)
    compare = run[:, :-1] * ~y[:, 1:]   # a zero y_j compares r_(j-1)
    if not record_trace:
        return int(compare.max(initial=0)), None

    # Registers of phase q for the p cycles from c_j + INC_DELAY: the counter
    # after the increment or before the reset (the larger of r_j and r_(j-1))
    # until the reset is due, r_j after it, and the running maximum of the
    # compares throughout.  Cycles 0..k, then the Exit column.
    held = np.maximum(run[:, 1:], run[:, :-1])
    top = np.maximum.accumulate(compare, axis=1)
    regs = np.zeros((2 * p, k + 2), dtype=np.uint8)
    for q, d in np.ndindex(p, p):
        ctr = regs[q, q + INC_DELAY + d:k + 1:p]
        ctr[:] = (held if d < RST_DELAY - INC_DELAY else run[:, 1:])[q, :len(ctr)]
        regs[p + q, q + INC_DELAY + d:k + 1:p] = top[q, :len(ctr)]
    regs[p:, -1] = regs[p:, -2]         # Exit: CLR, max registers kept
    return int(regs[p:, -1].max()), Trace(x.view(np.uint8), regs)


def run_cycle_accurate(bits: Sequence[int] | np.ndarray, p: int,
                       record_trace: bool = False) -> tuple[int, Trace | None]:
    """Run a match bitmap through the p-phase detector as a read-out stream,
    flushed as the module states; a scan streams one run of consecutive blocks
    (``pipeline`` states the boundary rule).  No trace unless ``record_trace``."""
    x = np.concatenate([np.asarray(bits, dtype=bool), np.zeros(flush_zeros(p) + 1, dtype=bool)])
    return _run(x, p, record_trace)


def run_trace(x_bits: Sequence[int] | str, p: int) -> tuple[int, Trace]:
    """Drive the FSM for pattern length p with an explicit X vector, D raised
    with its last input, and record the trace.  X may not be empty."""
    if not len(x_bits):
        raise ValueError("an empty input has no last input to raise the end signal D on")
    return _run(np.array([int(b) for b in x_bits], dtype=bool), p, True)


def format_trace(trace: Trace, out: BinaryIO) -> None:
    """Write the trace as CSV under ``trace_header(p)``, then a global_max line
    (the Exit row's largest max register), to the binary stream ``out``.  The
    Initial row and the last two are written apart.  The rows between go
    ``TRACE_CHUNK_ROWS`` at a time into one reused byte table, each field
    copied whole from a read-only table: the cycle's digits (at least four),
    the S1..S2p head, and each register's 4-byte _FIELDS item, in a field as
    wide as the register's largest value in the chunk.  Narrower fields are
    NUL-led; only a chunk that holds NULs has them deleted on write."""
    x, regs = trace.x, trace.regs
    p = len(regs) // 2
    head_table = _heads(p)
    n = len(x) - 1                      # rows with D low
    initial = f"1{_head(0, x[0], p)}" + ",".join(map(str, regs[:, 0])) + "\n" if n else ""
    out.write(f"{trace_header(p)}\n{initial}".encode())
    # head of row r >= 1: x[r] in state S(2q+1+x[r - 1]), input r - 1 of phase q
    head = 2 * x[:max(n - 1, 0)] + x[1:n]
    for q in range(1, p):
        head[q::p] += 4 * q
    rows = min(len(head), TRACE_CHUNK_ROWS)
    table = np.empty(rows * (max(len(str(n)), 4) + head_table.itemsize + len(regs) * 4), np.uint8)
    heads = np.empty(rows, head_table.dtype)   # a gather into a strided view is slower
    # every index is in range; take's default mode would buffer the copy into out
    for start in range(1, n, TRACE_CHUNK_ROWS):
        stop = min(start + TRACE_CHUNK_ROWS, n)
        digits = [len(str(v)) for v in regs[:, start:stop].max(axis=1).tolist()]
        end = max(len(str(stop)), 4) + head_table.itemsize + sum(digits) + 2 * p  # row width
        chunk = table[:(stop - start) * end].reshape(stop - start, end)
        # Registers right to left, then heads, then cycles: each _FIELDS item
        # ends at its field's comma, and its leading NULs spill into the field
        # before it, written next; the first register's into the head.
        for row, w in zip(regs[::-1, start:stop], digits[::-1]):
            _FIELDS.take(row, out=chunk[:, end - 4:end].view(_FIELDS.dtype)[:, 0], mode="clip")
            end -= w + 1
        head_table.take(head[start - 1:stop - 1], out=heads[:stop - start], mode="clip")
        chunk[:, end - head_table.itemsize:end].view(head_table.dtype)[:, 0] = heads[:stop - start]
        _write_cycles(start + 1, chunk[:, :end - head_table.itemsize])
        chunk[:, -1] = ord("\n")
        text = chunk.tobytes()
        out.write(text.translate(None, b"\0") if b"\0" in text else text)
    last = 2 * ((n - 1) % p) + 1 + x[n - 1] if n else 0
    out.write((f"{n + 1},{f'S{last}' if last else 'Initial'},{x[n]},1{',0' * 2 * p},"
               + ",".join(map(str, regs[:, -2]))
               + f"\n{n + 2},Exit,-,-{',0' * 2 * p}," + ",".join(map(str, regs[:, -1]))
               + f"\nglobal_max,{regs[p:, -1].max()}\n").encode())
