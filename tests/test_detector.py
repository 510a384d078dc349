import io
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeatscan import detector
from repeatscan.detector import (FLUSH_ZEROS, POST_STREAM_CYCLES,
                                 TRACE_CHUNK_ROWS, TRACE_HEADER, SteppedAfterExit,
                                 detect_functional, format_trace,
                                 oracle_max_tandem, run_cycle_accurate,
                                 run_trace)

GOLDEN = Path(__file__).parent / "golden" / "trace_101110000.csv"
GOLDEN_SATURATING = Path(__file__).parent / "golden" / "trace_saturating.csv"

bit_streams = st.lists(st.integers(0, 1), max_size=200)


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

def trace_text(global_max, trace) -> str:
    """What ``format_trace`` writes, read back from an in-memory stream."""
    out = io.BytesIO()
    format_trace(trace, global_max, out)
    return out.getvalue().decode("ascii")


def trace_lines(global_max, trace):
    """``format_trace`` output split into its data rows, checking the header
    and the global_max line on the way."""
    lines = trace_text(global_max, trace).splitlines()
    assert lines[0] == TRACE_HEADER
    assert lines[-1] == f"global_max,{global_max}"
    return lines[1:-1]


def parsed_rows(global_max, trace):
    """The data rows ``format_trace`` writes, as dicts keyed by the header
    fields, numbers as ints."""
    keys = TRACE_HEADER.split(",")
    return [{k: int(v) if v.isdigit() else v for k, v in zip(keys, line.split(","))}
            for line in trace_lines(global_max, trace)]


def test_fsm_worked_example_trace_values():
    gm, trace = run_trace("101110000", "000000001")
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
    assert trace.regs[-1, :3].tolist() == [0, 0, 0]    # counters cleared in Exit
    assert trace.regs[-1, 3:].tolist() == [2, 1, 1]    # max registers


def test_fsm_golden_file_byte_exact():
    gm, trace = run_trace("101110000", "000000001")
    assert trace_text(gm, trace) == GOLDEN.read_text()


def saturating_stream() -> list[int]:
    """996 bits with runs in every phase; phase 0 runs 270 times, past the
    8-bit limit (see golden/NOTES.md)."""
    return ([0, 1, 0] * 7 + [0, 0, 1] * 12 + [1, 1, 0] * 3
            + [1, 0, 0] * 270 + [0, 1, 1] * 20 + [1, 0, 1] * 20)


def test_fsm_saturating_golden_file_byte_exact():
    gm, trace = run_cycle_accurate(saturating_stream(), record_trace=True)
    assert gm == 255
    assert trace_text(gm, trace) == GOLDEN_SATURATING.read_text()


def reference_trace(xs, ds):
    """Per-cycle reference model of the detector rules, independent of the
    kernel: in each cycle retire the increment or the compare due, then the
    reset due, then consume the input (x, d).  A one schedules its phase's
    increment for the next cycle; a zero schedules the compare for the next
    cycle and the counter reset for the one after.  Raising d retires the
    cycle's events and exits.  Returns the global maximum and the trace rows
    as ``format_trace`` writes them."""
    ctr, mx = [0, 0, 0], [0, 0, 0]
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
        q = (cycle - 1) % 3
        signals = [0] * 6
        if d:
            regs = ",".join(map(str, ctr + mx))
            rows.append(f"{cycle},{state},{x},1,0,0,0,0,0,0,{regs}")
            rows.append(f"{cycle + 1},Exit,-,-,0,0,0,0,0,0,0,0,0,"
                        + ",".join(map(str, mx)))
            return max(mx), rows
        if x:
            inc[cycle + 1] = q
            signals[q] = 1
        else:
            cmp[cycle + 1] = rst[cycle + 2] = q
            signals[3 + q] = 1
        regs = ",".join(map(str, signals + ctr + mx))
        rows.append(f"{cycle},{state},{x},0,{regs}")
        state = f"S{2 * q + 1 + x}"
    raise ValueError("end-of-sequence signal never raised")


@st.composite
def saturating_streams(draw):
    """Random bits around an optional run of 250-300 ones in one random
    phase (at stride 3 a counter runs past 255 only in a stream of at least
    766 bits), the other two phases random."""
    noise = st.lists(st.integers(0, 1), max_size=60)
    bits = draw(noise)
    if draw(st.booleans()):
        phase = draw(st.integers(0, 2))
        rng = draw(st.randoms(use_true_random=False))
        for _ in range(draw(st.integers(250, 300))):
            unit = [rng.randint(0, 1), rng.randint(0, 1)]
            unit.insert(phase, 1)
            bits += unit
    return bits + draw(noise)


@given(saturating_streams())
@settings(max_examples=150, deadline=None)
def test_run_cycle_accurate_matches_reference_row_for_row(bits):
    flushed = bits + [0] * FLUSH_ZEROS + [0]
    ref_max, ref_rows = reference_trace(flushed, [0] * (len(flushed) - 1) + [1])
    gm, trace = run_cycle_accurate(bits, record_trace=True)
    assert gm == ref_max == detect_functional(bits, 3)
    assert trace_lines(gm, trace) == ref_rows


@given(saturating_streams(), st.integers(0, 1),
       st.lists(st.integers(0, 1), max_size=3))
@settings(max_examples=150, deadline=None)
def test_run_trace_matches_reference_row_for_row(bits, exit_x, after):
    # D raised on input len(bits), whose x is exit_x; inputs after it are
    # rejected
    xs = bits + [exit_x] + after
    ds = [0] * len(bits) + [1] + [0] * len(after)
    if after:
        with pytest.raises(SteppedAfterExit):
            run_trace(xs, ds)
        return
    ref_max, ref_rows = reference_trace(xs, ds)
    gm, trace = run_trace(xs, ds)
    assert gm == ref_max
    assert trace_lines(gm, trace) == ref_rows


@pytest.mark.parametrize("rows", [0, 1, 9, 10, 99, 100, TRACE_CHUNK_ROWS - 1,
                                  TRACE_CHUNK_ROWS, TRACE_CHUNK_ROWS + 1,
                                  2 * TRACE_CHUNK_ROWS + 1, 9999, 10000])
def test_written_trace_matches_reference_at_chunk_and_digit_edges(rows):
    # ``rows`` inputs with D low go out in chunks; the cycle digits widen at
    # 10, 100 and 10000 of them
    rng = random.Random(rows)
    xs = [rng.randint(0, 1) for _ in range(rows + 1)]
    ref_max, ref_rows = reference_trace(xs, [0] * rows + [1])
    gm, trace = run_trace(xs)
    assert gm == ref_max
    assert trace_lines(gm, trace) == ref_rows


@given(st.integers(1, 5), saturating_streams())
@settings(max_examples=50, deadline=None)
def test_written_trace_matches_reference_for_any_chunk_size(chunk_rows, bits):
    flushed = bits + [0] * FLUSH_ZEROS + [0]
    ref_max, ref_rows = reference_trace(flushed, [0] * (len(flushed) - 1) + [1])
    gm, trace = run_cycle_accurate(bits, record_trace=True)
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
    gm, trace = run_cycle_accurate([rng.randint(0, 1) for _ in range(65536)],
                                   record_trace=True)
    out = RecordingWriter()
    format_trace(trace, gm, out)
    text = b"".join(out.writes)
    row_width = max(map(len, text.splitlines(keepends=True)))
    assert len(out.writes) >= 16
    assert max(map(len, out.writes)) <= TRACE_CHUNK_ROWS * row_width
    assert all(w.endswith(b"\n") for w in out.writes)


def test_trace_compare_lands_before_reset():
    # for each zero, the max update is visible one cycle later and the
    # counter reset only on the cycle after that
    by_cycle = {r["cycle"]: r for r in parsed_rows(*run_trace("111011000", None))}
    # input 4 is the zero for phase 1 (ctr1 = 1 at that point)
    assert by_cycle[5]["max1"] == 1   # max1 updated at cycle 5
    assert by_cycle[5]["ctr1"] == 1   # ctr1 still holding at cycle 5
    assert by_cycle[6]["ctr1"] == 0   # ctr1 reset at cycle 6


def test_fsm_round_robin_follows_index_mod_3():
    for r in parsed_rows(*run_trace("110110110", None))[:-1]:
        c = [r["C1"], r["C2"], r["C3"]]
        rr = [r["R1"], r["R2"], r["R3"]]
        phase = (r["cycle"] - 1) % 3
        if r["d"] == 1:  # exit input raises no signals
            assert c == [0, 0, 0] and rr == [0, 0, 0]
        elif r["x"] == 1:
            assert c[phase] == 1 and sum(c) == 1 and sum(rr) == 0
        else:
            assert rr[phase] == 1 and sum(rr) == 1 and sum(c) == 0


def test_step_after_exit_rejected():
    with pytest.raises(SteppedAfterExit):
        run_trace("00", "11")


def test_run_cycle_accurate_flush_protocol():
    bits = [1, 0, 1, 1, 1, 0, 0, 0, 0]
    gm, trace = run_cycle_accurate(bits, record_trace=True)
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
    gm, trace = run_cycle_accurate([], record_trace=True)
    assert gm == 0
    assert len(trace) == POST_STREAM_CYCLES + 1
    assert len(parsed_rows(gm, trace)) == POST_STREAM_CYCLES + 1
    assert trace.regs[-1, 3:].tolist() == [0, 0, 0]


@given(bit_streams)
@settings(max_examples=100, deadline=None)
def test_trace_length_is_the_rows_format_trace_writes(bits):
    gm, trace = run_cycle_accurate(bits, record_trace=True)
    # every line but the header and the global_max line
    assert len(trace) == len(trace_text(gm, trace).splitlines()) - 2
    assert len(trace) == len(bits) + POST_STREAM_CYCLES + 1


def test_run_cycle_accurate_takes_list_tuple_or_uint8_array():
    bits = saturating_stream()
    forms = (bits, tuple(bits), np.array(bits, dtype=np.uint8))
    assert [run_cycle_accurate(b)[0] for b in forms] == [255] * 3
    traced = [run_cycle_accurate(b, record_trace=True) for b in forms]
    assert len({trace_text(gm, trace) for gm, trace in traced}) == 1


def test_run_cycle_accurate_counts_trailing_run():
    # the flush zeros exist precisely so a run still open at end of stream
    # reaches the max registers
    assert run_cycle_accurate([1, 1, 1, 1, 1, 1])[0] == 2
    assert run_cycle_accurate([0, 0, 0, 1])[0] == 1


def test_fsm_saturates_at_255():
    gm, _ = run_cycle_accurate([1, 0, 0] * 300)
    assert gm == 255


def test_run_trace_requires_exit():
    with pytest.raises(ValueError):
        run_trace("1010", "0000")
    with pytest.raises(ValueError):
        run_trace("10", "001")


def test_fsm_agrees_with_functional_exhaustive_short():
    for length in range(0, 11):
        for v in range(1 << length):
            bits = [(v >> i) & 1 for i in range(length)]
            assert run_cycle_accurate(bits)[0] == detect_functional(bits, 3)


@given(bit_streams)
@settings(max_examples=300, deadline=None)
def test_fsm_agrees_with_functional_random(bits):
    assert run_cycle_accurate(bits)[0] == detect_functional(bits, 3)


def test_fsm_agrees_on_structured_streams():
    rng = random.Random(777)
    for _ in range(50):
        # blocks of repeats at stride 3 embedded in noise
        bits = []
        for _ in range(rng.randint(1, 5)):
            bits += [rng.randint(0, 1) for _ in range(rng.randint(0, 6))]
            bits += [1, 0, 0] * rng.randint(0, 9)
        assert run_cycle_accurate(bits)[0] == detect_functional(bits, 3)


def test_format_trace_shape():
    gm, trace = run_trace("10", None)
    lines = trace_text(gm, trace).strip().splitlines()
    assert lines[0].startswith("cycle,state,x,d,C1")
    assert lines[-1] == f"global_max,{gm}"
    assert all(len(line.split(",")) == 16 for line in lines[1:-1])
