import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeatscan.detector import (FLUSH_ZEROS, POST_STREAM_CYCLES,
                                 CycleAccurateDetector, SteppedAfterExit,
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

def test_fsm_worked_example_trace_values():
    gm, rows = run_trace("101110000", "000000001")
    assert gm == 2
    states = [r[1] for r in rows]
    assert states == ["Initial", "S2", "S3", "S6", "S2", "S4", "S5", "S1",
                      "S3", "Exit"]
    # the nine consumed inputs raise exactly these signals, in order
    signals = []
    for r in rows[:-1]:
        c = r[4:7]
        rr = r[7:10]
        if 1 in c:
            signals.append(f"C{c.index(1) + 1}")
        elif 1 in rr:
            signals.append(f"R{rr.index(1) + 1}")
        else:
            signals.append("-")
    assert signals == ["C1", "R2", "C3", "C1", "C2", "R3", "R1", "R2", "-"]
    # final registers: every zero folded its counter through the comparator
    assert rows[-1][10:13] == (0, 0, 0)    # counters cleared in Exit
    assert rows[-1][13:16] == (2, 1, 1)    # max registers


def test_fsm_golden_file_byte_exact():
    gm, rows = run_trace("101110000", "000000001")
    assert format_trace(rows, gm) == GOLDEN.read_text()


def saturating_stream() -> list[int]:
    """996 bits with runs in every phase; phase 0 runs 270 times, past the
    8-bit limit (see golden/NOTES.md)."""
    return ([0, 1, 0] * 7 + [0, 0, 1] * 12 + [1, 1, 0] * 3
            + [1, 0, 0] * 270 + [0, 1, 1] * 20 + [1, 0, 1] * 20)


def test_fsm_saturating_golden_file_byte_exact():
    gm, rows = run_cycle_accurate(saturating_stream(), record_trace=True)
    assert gm == 255
    assert format_trace(rows, gm) == GOLDEN_SATURATING.read_text()


@given(bit_streams, st.lists(st.integers(0, 200), max_size=4))
@settings(max_examples=300, deadline=None)
def test_feed_split_anywhere_matches_one_run(bits, cuts):
    # feed must hand its local state back to the object between calls
    whole_max, whole_rows = run_cycle_accurate(bits, record_trace=True)
    det = CycleAccurateDetector(record_trace=True)
    bounds = [0, *sorted(min(c, len(bits)) for c in cuts), len(bits)]
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if i % 2:
            for x in bits[lo:hi]:
                det.step(x, 0)
        else:
            det.feed(bits[lo:hi])
    det.feed([0] * FLUSH_ZEROS)
    det.step(0, 1)
    assert det.trace == whole_rows
    assert det.global_max == whole_max


def test_trace_compare_lands_before_reset():
    # for each zero, the max update is visible one cycle later and the
    # counter reset only on the cycle after that
    gm, rows = run_trace("111011000", None)
    by_cycle = {r[0]: r for r in rows}
    # input 4 is the zero for phase 1 (ctr1 = 1 at that point)
    assert by_cycle[5][13] == 1   # max1 updated at cycle 5
    assert by_cycle[5][10] == 1   # ctr1 still holding at cycle 5
    assert by_cycle[6][10] == 0   # ctr1 reset at cycle 6


def test_fsm_round_robin_follows_index_mod_3():
    gm, rows = run_trace("110110110", None)
    for r in rows[:-1]:
        cycle = r[0]
        c, rr = r[4:7], r[7:10]
        phase = (cycle - 1) % 3
        if r[3] == 1:  # exit input raises no signals
            assert c == (0, 0, 0) and rr == (0, 0, 0)
        elif r[2] == 1:
            assert c[phase] == 1 and sum(c) == 1 and sum(rr) == 0
        else:
            assert rr[phase] == 1 and sum(rr) == 1 and sum(c) == 0


def test_step_after_exit_rejected():
    det = CycleAccurateDetector()
    det.step(0, 1)
    with pytest.raises(SteppedAfterExit):
        det.step(0, 0)


def test_run_cycle_accurate_flush_protocol():
    bits = [1, 0, 1, 1, 1, 0, 0, 0, 0]
    gm, rows = run_cycle_accurate(bits, record_trace=True)
    assert gm == 2
    # one row per input cycle plus the exit row
    assert len(rows) == len(bits) + POST_STREAM_CYCLES + 1
    assert rows[-1][1] == "Exit"
    # flush inputs are all zeros, with d raised only on the last
    flush_rows = rows[len(bits):-1]
    assert all(r[2] == 0 for r in flush_rows)
    assert [r[3] for r in flush_rows] == [0] * FLUSH_ZEROS + [1]


def test_run_cycle_accurate_empty_stream():
    gm, rows = run_cycle_accurate([], record_trace=True)
    assert gm == 0
    assert len(rows) == POST_STREAM_CYCLES + 1
    assert rows[-1][13:16] == (0, 0, 0)


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
    gm, rows = run_trace("10", None)
    text = format_trace(rows, gm)
    lines = text.strip().splitlines()
    assert lines[0].startswith("cycle,state,x,d,C1")
    assert lines[-1] == f"global_max,{gm}"
    assert all(len(line.split(",")) == 16 for line in lines[1:-1])
