import hashlib
import io
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repeatscan import detector
from repeatscan.detector import (FLUSH_ZEROS, POST_STREAM_CYCLES,
                                 TRACE_CHUNK_ROWS, check_pattern_length,
                                 detect_functional, flush_zeros, format_trace,
                                 oracle_max_tandem, run_cycle_accurate,
                                 run_trace, trace_header)

GOLDEN = Path(__file__).parent / "golden" / "trace_101110000.csv"
GOLDEN_SATURATING = Path(__file__).parent / "golden" / "trace_saturating.csv"

bit_streams = st.lists(st.integers(0, 1), max_size=200)
fsm_pattern_lengths = st.integers(2, 10)


def naive_max_tandem(text: str, pattern: str) -> int:
    """Second, even more literal oracle: try every start position."""
    p = len(pattern)
    best = 0
    for q in range(len(text) - p + 1):
        k = 0
        while text[q + k * p:q + k * p + p] == pattern:
            k += 1
        best = max(best, k)
    return best


# ---------------------------------------------------------------- functional

def test_functional_worked_example():
    assert detect_functional([1, 0, 1, 1, 1, 0, 0, 0, 0], 3) == 2


def test_functional_all_zero():
    assert detect_functional([0] * 12, 3) == 0
    assert detect_functional([], 3) == 0


def test_functional_tandem_bitmap():
    # occurrence bitmap of CAG in CAGCAGCAGT
    bits = [1, 0, 0, 1, 0, 0, 1, 0]
    assert detect_functional(bits, 3) == 3
    assert oracle_max_tandem("CAGCAGCAGT", "CAG") == 3


def test_functional_phase_isolation():
    # ones in different phases never merge into one run
    assert detect_functional([1, 1, 1, 1, 1, 1], 3) == 2
    # occurrence bitmap of AA in AAACAAA: each phase reads 1, 0, 1, so no
    # two occurrences are a tandem pair (a plain run counter would give 2)
    assert detect_functional([1, 1, 0, 0, 1, 1], 2) == 1
    assert oracle_max_tandem("AAACAAA", "AA") == 1
    # both phases read 1, 1, 1 (a plain run counter would give 6)
    assert detect_functional([1, 1, 1, 1, 1, 1], 2) == 3


def test_functional_p1_counts_plain_runs():
    assert detect_functional([1, 1, 1, 0, 1], 1) == 3


def test_functional_end_of_stream_flush():
    assert detect_functional([0, 0, 1], 3) == 1
    assert detect_functional([1, 0, 0, 1], 3) == 2


def test_functional_saturates_at_255():
    assert detect_functional([1] * 300, 1) == 255


def test_functional_rejects_bad_p():
    with pytest.raises(ValueError):
        detect_functional([1], 0)


@st.composite
def texts_with_pattern(draw):
    """ACGT text and a pattern of length 1..4, with a tandem run of the
    pattern between random flanks; the run is either short or near the
    255 saturation limit, on both sides of it."""
    p = draw(st.integers(1, 4))
    pattern = draw(st.text(alphabet="ACGT", min_size=p, max_size=p))
    flank = st.text(alphabet="ACGT", max_size=40)
    copies = draw(st.integers(0, 20) | st.integers(250, 300))
    return draw(flank) + pattern * copies + draw(flank), pattern


@given(texts_with_pattern())
@settings(max_examples=300, deadline=None)
def test_functional_matches_oracle_on_occurrence_bitmap(case):
    text, pattern = case
    p = len(pattern)
    bits = [int(text[i:i + p] == pattern) for i in range(len(text) - p + 1)]
    assert detect_functional(bits, p) == min(oracle_max_tandem(text, pattern),
                                             255)


def naive_phase_runs(xs: list[int], p: int) -> list[int]:
    """The run of ones ending at each input, counted along its phase."""
    runs: list[int] = []
    for i, x in enumerate(xs):
        runs.append(x * (1 + (runs[i - p] if i >= p else 0)))
    return runs


@st.composite
def phase_run_cases(draw):
    """p = 1..10, a stream within one input of a whole number of rounds, some
    of them long enough for a run past 255, at densities up to all ones, and
    up to p + 1 zeros after it."""
    p = draw(st.integers(1, 10))
    rounds = draw(st.integers(0, 12) | st.integers(250, 300))
    n = max(0, p * rounds + draw(st.integers(-1, 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random(n) < density).astype(int).tolist(), p, draw(st.integers(0, p + 1))


@given(phase_run_cases())
@settings(max_examples=200, deadline=None)
def test_phase_runs_are_the_naive_run_ending_at_each_input(case):
    stream, p, zeros = case
    inputs = stream + [0] * zeros
    y, ones, runs = detector._phase_runs(np.array(inputs, dtype=bool), p)
    rounds = -(-len(inputs) // p)
    assert y.shape == (p, rounds + 1)
    laid = y.T.ravel()      # the sentinel round, the inputs, then padding ones
    assert not laid[:p].any() and laid[p + len(inputs):].all()
    assert laid[p:p + len(inputs)].tolist() == [bool(x) for x in inputs]
    dense = np.zeros(y.size, dtype=np.int64)
    dense[ones] = runs
    assert (dense.reshape(y.shape) > 0).tolist() == y.tolist()
    expected = naive_phase_runs(inputs, p)
    assert dense.reshape(y.shape).T.ravel()[p:p + len(inputs)].tolist() == expected
    assert detect_functional(stream, p) == min(max(expected, default=0), 255)


# run lengths on each side of every doubling step and of the 255 cap
DOUBLING_EDGE_RUNS = sorted({1, 2, 3, 4, 254, 255, 256, 257, 511, 512}
                            | {2**k + d for k in range(3, 9) for d in (-1, 0, 1)})


@pytest.mark.parametrize("p", range(1, 11))
def test_functional_is_exact_at_the_doubling_edges(p):
    # each run at the stream's start, at its end with no zero after it, and
    # mid-stream with noise in the other phases; every input form
    rng = random.Random(p)
    for run in DOUBLING_EDGE_RUNS:
        body = ([1] + [0] * (p - 1)) * (run - 1) + [1]
        start = rng.randint(p, 3 * p)
        mid = [int(rng.random() < 0.3) for _ in range(start + len(body) + p + rng.randint(0, p))]
        mid[start - p], mid[start + run * p] = 0, 0
        mid[start:start + run * p:p] = [1] * run
        for stream, exact in ((body + [0] * p, True), ([0] * p + body, True), (mid, False)):
            expected = max(naive_phase_runs(stream, p))
            assert expected == run if exact else expected >= run
            forms = (stream, tuple(stream), np.array([x * rng.choice((1, 2)) for x in stream],
                                                     dtype=np.uint8), np.array(stream, dtype=bool))
            assert [detect_functional(b, p) for b in forms] == [min(expected, 255)] * 4, run


# -------------------------------------------------------------------- oracle

def test_oracle_examples():
    assert oracle_max_tandem("CAGCAGCAGTTT", "CAG") == 3
    assert oracle_max_tandem("AAAAA", "AAA") == 1
    assert oracle_max_tandem("TTTT", "CAG") == 0
    assert oracle_max_tandem("CAG", "CAG") == 1
    assert oracle_max_tandem("CA", "CAG") == 0


@given(st.text(alphabet="ACGT", min_size=1, max_size=60),
       st.integers(1, 4), st.data())
@settings(max_examples=300, deadline=None)
def test_oracle_matches_naive_enumeration(text, p, data):
    pattern = data.draw(st.text(alphabet="ACGT", min_size=p, max_size=p))
    assert oracle_max_tandem(text, pattern) == naive_max_tandem(text, pattern)


# ----------------------------------------------------------------------- fsm

def trace_text(trace) -> str:
    """What ``format_trace`` writes, read back from an in-memory stream."""
    out = io.BytesIO()
    format_trace(trace, out)
    return out.getvalue().decode("ascii")


def trace_lines(global_max, trace, p=3):
    """``format_trace`` output split into its data rows, checking the header
    and that the global_max line is the detector's result on the way."""
    lines = trace_text(trace).splitlines()
    assert lines[0] == trace_header(p)
    assert lines[-1] == f"global_max,{global_max}"
    return lines[1:-1]


def parsed_rows(global_max, trace):
    """The data rows ``format_trace`` writes at p = 3, as dicts keyed by the
    header fields, numbers as ints."""
    keys = trace_header(3).split(",")
    return [{k: int(v) if v.isdigit() else v for k, v in zip(keys, line.split(","))}
            for line in trace_lines(global_max, trace)]


def test_fsm_worked_example_trace_values():
    gm, trace = run_trace("101110000", 3)
    assert gm == 2
    rows = parsed_rows(gm, trace)
    states = [r["state"] for r in rows]
    assert states == ["Initial", "S2", "S3", "S6", "S2", "S4", "S5", "S1",
                      "S3", "Exit"]
    # the nine consumed inputs raise exactly these signals, in order
    signals = []
    for r in rows[:-1]:
        c = [r["C1"], r["C2"], r["C3"]]
        rr = [r["R1"], r["R2"], r["R3"]]
        if 1 in c:
            signals.append(f"C{c.index(1) + 1}")
        elif 1 in rr:
            signals.append(f"R{rr.index(1) + 1}")
        else:
            signals.append("-")
    assert signals == ["C1", "R2", "C3", "C1", "C2", "R3", "R1", "R2", "-"]
    # final registers: every zero folded its counter through the comparator
    assert trace.regs[:3, -1].tolist() == [0, 0, 0]    # counters cleared in Exit
    assert trace.regs[3:, -1].tolist() == [2, 1, 1]    # max registers


def test_fsm_golden_file_byte_exact():
    gm, trace = run_trace("101110000", 3)
    assert trace_text(trace) == GOLDEN.read_text()


def saturating_stream() -> list[int]:
    """996 bits with runs in every phase; phase 0 runs 270 times, past the
    8-bit limit (see golden/NOTES.md)."""
    return ([0, 1, 0] * 7 + [0, 0, 1] * 12 + [1, 1, 0] * 3
            + [1, 0, 0] * 270 + [0, 1, 1] * 20 + [1, 0, 1] * 20)


def test_fsm_saturating_golden_file_byte_exact():
    gm, trace = run_cycle_accurate(saturating_stream(), 3, record_trace=True)
    assert gm == 255
    assert trace_text(trace) == GOLDEN_SATURATING.read_text()


def reference_trace(xs, ds, p=3):
    """Per-cycle reference model of the detector rules for pattern length p,
    independent of the kernel: in each cycle retire the increment or the
    compare due, then the reset due, then consume the input (x, d).  Input i
    is phase i mod p's; a one schedules its phase's increment for the next
    cycle; a zero schedules the compare for the next cycle and the counter
    reset for the one after.  Raising d retires the cycle's events and exits.
    Returns the global maximum and the trace rows as ``format_trace`` writes
    them."""
    ctr, mx = [0] * p, [0] * p
    quiet = ",".join(["0"] * 2 * p)
    inc, cmp, rst = {}, {}, {}      # cycle -> phase
    state = "Initial"
    rows = []
    for cycle, (x, d) in enumerate(zip(xs, ds), start=1):
        if cycle in inc:
            ctr[inc[cycle]] = min(ctr[inc[cycle]] + 1, 255)
        if cycle in cmp:
            mx[cmp[cycle]] = max(mx[cmp[cycle]], ctr[cmp[cycle]])
        if cycle in rst:
            ctr[rst[cycle]] = 0
        q = (cycle - 1) % p
        signals = [0] * 2 * p
        if d:
            rows.append(f"{cycle},{state},{x},1,{quiet}," + ",".join(map(str, ctr + mx)))
            rows.append(f"{cycle + 1},Exit,-,-,{quiet}," + ",".join(map(str, [0] * p + mx)))
            return max(mx), rows
        if x:
            inc[cycle + 1] = q
            signals[q] = 1
        else:
            cmp[cycle + 1] = rst[cycle + 2] = q
            signals[p + q] = 1
        regs = ",".join(map(str, signals + ctr + mx))
        rows.append(f"{cycle},{state},{x},0,{regs}")
        state = f"S{2 * q + 1 + x}"
    raise ValueError("end-of-sequence signal never raised")


@st.composite
def saturating_streams(draw, p=3):
    """Random bits around an optional run of 250-300 ones in one random
    phase at stride p (at stride 3 a counter runs past 255 only in a stream
    of at least 766 bits), the other phases random."""
    noise = st.lists(st.integers(0, 1), max_size=60)
    bits = draw(noise)
    if draw(st.booleans()):
        phase = draw(st.integers(0, p - 1))
        rng = draw(st.randoms(use_true_random=False))
        for _ in range(draw(st.integers(250, 300))):
            unit = [rng.randint(0, 1) for _ in range(p - 1)]
            unit.insert(phase, 1)
            bits += unit
    return bits + draw(noise)


# a pattern length the FSM serves and a saturating stream at that stride
fsm_cases = fsm_pattern_lengths.flatmap(lambda p: st.tuples(st.just(p), saturating_streams(p)))


@given(saturating_streams()
       | st.lists(st.sampled_from([0] * 9 + [1]), max_size=300)     # sparse
       | st.integers(0, 900).map(lambda n: [1] * n))               # all ones, past 255 too
@example([])
@settings(max_examples=150, deadline=None)
def test_run_cycle_accurate_is_run_trace_of_the_flushed_stream(bits):
    # a read-out stream's input vector: the stream, the flush zeros and the
    # final zero that carries D
    gm, trace = run_cycle_accurate(bits, 3, record_trace=True)
    x_gm, x_trace = run_trace(bits + [0] * (FLUSH_ZEROS + 1), 3)
    assert gm == x_gm
    assert trace_text(trace) == trace_text(x_trace)


@given(fsm_cases)
@settings(max_examples=150, deadline=None)
def test_run_cycle_accurate_matches_reference_row_for_row(case):
    # max(FLUSH_ZEROS, p) flush zeros bring every phase a compare
    p, bits = case
    flushed = bits + [0] * flush_zeros(p) + [0]
    ref_max, ref_rows = reference_trace(flushed, [0] * (len(flushed) - 1) + [1], p)
    gm, trace = run_cycle_accurate(bits, p, record_trace=True)
    assert gm == ref_max == detect_functional(bits, p)
    assert trace_lines(gm, trace, p) == ref_rows


@given(fsm_cases, st.integers(0, 1))
@settings(max_examples=150, deadline=None)
def test_run_trace_matches_reference_row_for_row(case, exit_x):
    # D raised with the last input, whose x is exit_x
    p, bits = case
    xs = bits + [exit_x]
    ref_max, ref_rows = reference_trace(xs, [0] * len(bits) + [1], p)
    gm, trace = run_trace(xs, p)
    assert gm == ref_max
    assert trace_lines(gm, trace, p) == ref_rows


@pytest.mark.parametrize("rows", [0, 1, 9, 10, 99, 100, TRACE_CHUNK_ROWS - 1,
                                  TRACE_CHUNK_ROWS, TRACE_CHUNK_ROWS + 1,
                                  2 * TRACE_CHUNK_ROWS + 1, 9999, 10000,
                                  99999, 100000, 100001])
def test_written_trace_matches_reference_at_chunk_and_digit_edges(rows):
    # ``rows`` inputs with D low go out in chunks after the Initial row, which
    # is written apart (0 rows: none; 1 row: it alone); the cycle digits widen
    # at 10, 100, 10000 and 100000 of them, the last into a second 4-digit group
    rng = random.Random(rows)
    xs = [rng.randint(0, 1) for _ in range(rows + 1)]
    ref_max, ref_rows = reference_trace(xs, [0] * rows + [1])
    gm, trace = run_trace(xs, 3)
    assert gm == ref_max
    assert trace_lines(gm, trace) == ref_rows


@given(st.integers(1, 5), saturating_streams())
@settings(max_examples=50, deadline=None)
def test_written_trace_matches_reference_for_any_chunk_size(chunk_rows, bits):
    flushed = bits + [0] * FLUSH_ZEROS + [0]
    ref_max, ref_rows = reference_trace(flushed, [0] * (len(flushed) - 1) + [1])
    gm, trace = run_cycle_accurate(bits, 3, record_trace=True)
    with mock.patch.object(detector, "TRACE_CHUNK_ROWS", chunk_rows):
        assert trace_lines(gm, trace) == ref_rows


def test_full_array_trace_is_written_in_bounded_chunks():
    class RecordingWriter:
        def __init__(self):
            self.writes = []

        def write(self, data):
            self.writes.append(bytes(data))
            return len(data)

    rng = random.Random(65536)
    gm, trace = run_cycle_accurate([rng.randint(0, 1) for _ in range(65536)], 3,
                                   record_trace=True)
    out = RecordingWriter()
    format_trace(trace, out)
    text = b"".join(out.writes)
    row_width = max(map(len, text.splitlines(keepends=True)))
    assert len(out.writes) >= 16
    assert max(map(len, out.writes)) <= TRACE_CHUNK_ROWS * row_width
    assert all(w.endswith(b"\n") for w in out.writes)


def full_size_stream() -> list[int]:
    """65,536 seeded bits with a 300-fold run in phase 1, past the 8-bit
    limit (see golden/NOTES.md)."""
    rng = random.Random(65536)
    bits = [rng.randint(0, 1) for _ in range(65536)]
    bits[30000:30900] = [0, 1, 0] * 300
    return bits


def test_full_size_trace_is_byte_stable():
    # a full array's read-out: 65,542 rows, so 17 chunks after the Initial
    # row and five-digit cycles; every phase's max register is set and phase
    # 1 saturates.  The digest was recorded before the chunk layout changed.
    gm, trace = run_cycle_accurate(full_size_stream(), 3, record_trace=True)
    assert gm == 255 and trace.regs[3:, -1].min() > 0
    assert -(-(len(trace) - 3) // TRACE_CHUNK_ROWS) == 17
    data = trace_text(trace).encode()
    assert len(data) == 2_636_843
    assert hashlib.sha256(data).hexdigest() == \
        "68d4f04339cd28243727ba19960884831984470fccf26cfb4e97b1920a468c67"


@st.composite
def width_change_streams(draw):
    """Sparse random bits (one in eight set) over three chunks of rows, and
    one phase run of 9 or 10, 99 or 100, or 255-300 ones placed so that a row
    where a register may widen (the 10th or 100th one's increment, or the
    compare after the run) falls up to four rows before or after the first
    row of the second or third chunk."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    bits = [int(rng.random() < 0.125) for _ in range(2 * TRACE_CHUNK_ROWS + 1000)]
    length = draw(st.sampled_from([9, 10, 99, 100]) | st.integers(255, 300))
    widen = draw(st.sampled_from([i for i in (9, 99, length) if i <= length]))
    row = 1 + draw(st.sampled_from([1, 2])) * TRACE_CHUNK_ROWS + draw(st.integers(-4, 4))
    # input i's increment or compare lands in row i + 1
    first = row - 1 - 3 * widen
    bits[first - 3:first + 3 * length + 1:3] = [0] + [1] * length + [0]
    return bits


@given(width_change_streams())
@settings(max_examples=30, deadline=None)
def test_written_trace_matches_reference_where_registers_widen(bits):
    flushed = bits + [0] * FLUSH_ZEROS + [0]
    ref_max, ref_rows = reference_trace(flushed, [0] * (len(flushed) - 1) + [1])
    gm, trace = run_cycle_accurate(bits, 3, record_trace=True)
    assert gm == ref_max == detect_functional(bits, 3)
    assert trace_lines(gm, trace) == ref_rows


def width_crossing_stream() -> list[int]:
    """65,536 sparse seeded bits (one in eight set) with phase runs of 12 and
    150 ones: max3 crosses 10 inside the second chunk of rows and max2 jumps
    past 100 inside the fifth (see golden/NOTES.md)."""
    rng = random.Random(2205)
    bits = [int(rng.random() < 0.125) for _ in range(65536)]
    bits[6000:6036] = [0, 0, 1] * 12
    bits[18000:18450] = [0, 1, 0] * 150
    return bits


def test_width_crossing_trace_is_byte_stable():
    # registers widen mid-chunk, so those chunks mix field widths; the digest
    # was recorded before fields took per-chunk widths
    gm, trace = run_cycle_accurate(width_crossing_stream(), 3, record_trace=True)
    assert gm == 150 and trace.regs[3:, -1].tolist() == [4, 150, 13]
    data = trace_text(trace).encode()
    assert len(data) == 2_568_308
    assert hashlib.sha256(data).hexdigest() == \
        "3c270d3cd48af79425256c44e860d8b9cba290864815190bcadbe1a2ebb1e8bc"


@pytest.mark.parametrize("k", range(1, 13))
def test_cycle_column_matches_str_across_each_power_of_ten(k):
    # three numbers up to 10^12 + 1: 13 digits, NUL-led in 16-byte rows
    out = np.empty((3, 16), dtype=np.uint8)
    detector._write_cycles(10**k - 1, out)
    assert [bytes(row) for row in out] == \
        [str(c).rjust(16, "\0").encode() for c in (10**k - 1, 10**k, 10**k + 1)]


def test_cycle_column_matches_str_through_whole_groups():
    # 25,000 numbers cross 10^4 and 2 * 10^4 and run through the whole table
    out = np.empty((25000, 8), dtype=np.uint8)
    detector._write_cycles(1, out)
    assert [bytes(row) for row in out] == \
        [str(c).rjust(8, "\0").encode() for c in range(1, 25001)]


def test_lookup_tables_are_read_only_and_decode_to_their_text():
    tables = (detector._heads(3), detector._GROUPS, detector._FIELDS)
    assert not any(table.flags.writeable for table in tables)
    # the cycle groups and the register fields share one buffer
    assert detector._FIELDS.base is detector._GROUPS.base

    def entries(table, width):
        return [table.tobytes()[i:i + width] for i in range(0, table.nbytes, width)]

    # heads of S1..S6: the phase served is 1, 1, 2, 2, 0, 0; a one raises C,
    # a zero R
    heads = []
    for state, phase in zip(range(1, 7), (1, 1, 2, 2, 0, 0)):
        for x in (0, 1):
            signals = ["0"] * 6
            signals[phase if x else 3 + phase] = "1"
            heads.append(f",S{state},{x},0,{','.join(signals)},".encode())
    assert entries(detector._heads(3), 20) == heads
    # each register value NUL-led to three digits, then a comma
    assert entries(detector._FIELDS, 4) == [f"{v},".rjust(4, "\0").encode() for v in range(256)]
    assert entries(detector._GROUPS, 4) == (
        [f"{v:04d}".encode() for v in range(10**4)]
        + [(str(v) if v else "").rjust(4, "\0").encode() for v in range(10**4)])


def test_trace_header_follows_p():
    assert trace_header(3) == \
        "cycle,state,x,d,C1,C2,C3,R1,R2,R3,ctr1,ctr2,ctr3,max1,max2,max3"
    assert trace_header(2) == "cycle,state,x,d,C1,C2,R1,R2,ctr1,ctr2,max1,max2"
    fields = trace_header(10).split(",")
    assert len(fields) == 44 and fields[13:15] == ["C10", "R1"] and fields[-1] == "max10"


def test_fsm_rejects_pattern_length_1():
    # at p = 1 a zero's counter reset would land on the next input's increment
    for call in (lambda: check_pattern_length(1), lambda: run_cycle_accurate([1, 0], 1),
                 lambda: run_trace("10", 1)):
        with pytest.raises(ValueError, match="cannot serve pattern length 1$"):
            call()
    check_pattern_length(2)


def test_trace_compare_lands_before_reset():
    # for each zero, the max update is visible one cycle later and the
    # counter reset only on the cycle after that
    by_cycle = {r["cycle"]: r for r in parsed_rows(*run_trace("111011000", 3))}
    # input 4 is the zero for phase 1 (ctr1 = 1 at that point)
    assert by_cycle[5]["max1"] == 1   # max1 updated at cycle 5
    assert by_cycle[5]["ctr1"] == 1   # ctr1 still holding at cycle 5
    assert by_cycle[6]["ctr1"] == 0   # ctr1 reset at cycle 6


def test_fsm_round_robin_follows_index_mod_3():
    for r in parsed_rows(*run_trace("110110110", 3))[:-1]:
        c = [r["C1"], r["C2"], r["C3"]]
        rr = [r["R1"], r["R2"], r["R3"]]
        phase = (r["cycle"] - 1) % 3
        if r["d"] == 1:  # exit input raises no signals
            assert c == [0, 0, 0] and rr == [0, 0, 0]
        elif r["x"] == 1:
            assert c[phase] == 1 and sum(c) == 1 and sum(rr) == 0
        else:
            assert rr[phase] == 1 and sum(rr) == 1 and sum(c) == 0


def test_run_cycle_accurate_flush_protocol():
    bits = [1, 0, 1, 1, 1, 0, 0, 0, 0]
    gm, trace = run_cycle_accurate(bits, 3, record_trace=True)
    assert gm == 2
    rows = parsed_rows(gm, trace)
    # one row per input cycle plus the exit row
    assert len(rows) == len(bits) + POST_STREAM_CYCLES + 1
    assert rows[-1]["state"] == "Exit"
    # flush inputs are all zeros, with d raised only on the last
    flush_rows = rows[len(bits):-1]
    assert all(r["x"] == 0 for r in flush_rows)
    assert [r["d"] for r in flush_rows] == [0] * FLUSH_ZEROS + [1]


def test_run_cycle_accurate_empty_stream():
    gm, trace = run_cycle_accurate([], 3, record_trace=True)
    assert gm == 0
    assert len(trace) == POST_STREAM_CYCLES + 1
    assert len(parsed_rows(gm, trace)) == POST_STREAM_CYCLES + 1
    assert trace.regs[3:, -1].tolist() == [0, 0, 0]


@given(bit_streams)
@settings(max_examples=100, deadline=None)
def test_trace_length_is_the_rows_format_trace_writes(bits):
    gm, trace = run_cycle_accurate(bits, 3, record_trace=True)
    # every line but the header and the global_max line
    assert len(trace) == len(trace_text(trace).splitlines()) - 2
    assert len(trace) == len(bits) + POST_STREAM_CYCLES + 1


def test_detectors_take_list_tuple_uint8_or_bool_array():
    bits = saturating_stream()
    forms = (bits, tuple(bits), np.array(bits, dtype=np.uint8), np.array(bits, dtype=bool))
    assert [detect_functional(b, 3) for b in forms] == [255] * 4
    assert [run_cycle_accurate(b, 3)[0] for b in forms] == [255] * 4
    traced = [run_cycle_accurate(b, 3, record_trace=True) for b in forms]
    assert all(trace.x.dtype == np.uint8 for _, trace in traced)
    assert len({trace_text(trace) for _, trace in traced}) == 1


def test_run_cycle_accurate_counts_trailing_run():
    # the flush zeros exist precisely so a run still open at end of stream
    # reaches the max registers
    assert run_cycle_accurate([1, 1, 1, 1, 1, 1], 3)[0] == 2
    assert run_cycle_accurate([0, 0, 0, 1], 3)[0] == 1


def test_fsm_saturates_at_255():
    gm, _ = run_cycle_accurate([1, 0, 0] * 300, 3)
    assert gm == 255


def test_fsm_agrees_with_functional_exhaustive_short():
    for length in range(0, 11):
        for v in range(1 << length):
            bits = [(v >> i) & 1 for i in range(length)]
            assert run_cycle_accurate(bits, 3)[0] == detect_functional(bits, 3)


@given(fsm_pattern_lengths, bit_streams)
@settings(max_examples=300, deadline=None)
def test_fsm_agrees_with_functional_random(p, bits):
    assert run_cycle_accurate(bits, p)[0] == detect_functional(bits, p)


@given(st.lists(st.booleans(), min_size=1, max_size=200), fsm_pattern_lengths)
@example([False], 2)
@example([True], 10)
@settings(max_examples=300, deadline=None)
def test_untraced_fsm_maximum_is_the_traced_one(x, p):
    # a one-input vector compares nothing, so both read a maximum of 0
    x = np.array(x, dtype=bool)
    assert detector._run(x, p, False)[0] == detector._run(x, p, True)[0]


def test_fsm_agrees_on_structured_streams():
    rng = random.Random(777)
    for _ in range(50):
        # blocks of repeats at stride 3 embedded in noise
        bits = []
        for _ in range(rng.randint(1, 5)):
            bits += [rng.randint(0, 1) for _ in range(rng.randint(0, 6))]
            bits += [1, 0, 0] * rng.randint(0, 9)
        assert run_cycle_accurate(bits, 3)[0] == detect_functional(bits, 3)


@pytest.mark.parametrize("x", ["", []], ids=["str", "list"])
def test_run_trace_refuses_an_empty_x(x):
    # D is raised with the last input, and an empty X has none
    with pytest.raises(ValueError, match="^an empty input has no last input"):
        run_trace(x, 3)


def test_format_trace_shape():
    gm, trace = run_trace("10", 3)
    lines = trace_text(trace).strip().splitlines()
    assert lines[0].startswith("cycle,state,x,d,C1")
    assert lines[-1] == f"global_max,{gm}"
    assert all(len(line.split(",")) == 16 for line in lines[1:-1])
