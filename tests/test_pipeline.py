import logging
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repeatscan import acam, detector, matchmem
from repeatscan.costmodel import CycleCounts, TimingParams
from repeatscan.detector import POST_STREAM_CYCLES, oracle_max_tandem
from repeatscan.pipeline import (InternalInvariantError, ScanRequest, default_active_blocks,
                                 make_request, scan)
from repeatscan.seqio import (DISEASE, INDETERMINATE, NORMAL, builtin_catalog,
                              find_entry, parse_pattern, parse_text)


def quick_scan(text: str, pattern: str, **kwargs):
    return scan(make_request(parse_text(text), parse_pattern(pattern), **kwargs))


def test_embedded_repeat_run_with_disease_classification():
    rng = random.Random(42)
    flank = lambda n: "".join(rng.choice("ACGT") for _ in range(n))
    text = flank(37) + "CAG" * 50 + flank(41)
    entry = find_entry(builtin_catalog(), "Huntington's disease")
    result = quick_scan(text, "CAG", rows=8, data_width=32, blocks=2,
                        disease=entry)
    assert result.global_max == oracle_max_tandem(text, "CAG") == 50
    assert result.classification == DISEASE
    assert not result.saturated


@pytest.mark.parametrize("name, unit, copies, label", [
    ("Friedreich's ataxia", "GAA", 1400, INDETERMINATE),     # disease range ends at 1300
    ("Myotonic dystrophy 2", "CCTG", 11001, INDETERMINATE),  # disease range ends at 11000
    ("Huntington's disease", "CAG", 300, DISEASE),           # disease range open above
])
def test_saturated_count_is_flagged_and_not_confidently_mislabelled(name, unit, copies,
                                                                     label):
    entry = find_entry(builtin_catalog(), name)
    result = quick_scan("T" + unit * copies + "T", unit, disease=entry)
    assert result.global_max == 255
    assert result.saturated
    assert result.classification == label


def test_no_occurrences_classifies_normal_for_open_range():
    entry = find_entry(builtin_catalog(), "Huntington's disease")
    result = quick_scan("TTTTTTTT", "CAG", rows=4, data_width=4, blocks=2,
                        disease=entry)
    assert result.global_max == 0
    assert result.classification == NORMAL  # normal range has no lower bound


def test_run_straddling_rows_of_one_block():
    # W=4: CAGCAGCAG crosses two row boundaries inside block 0
    text = "TC" + "CAG" * 3 + "TTT"
    result = quick_scan(text, "CAG", rows=4, data_width=4, blocks=2)
    assert result.global_max == oracle_max_tandem(text, "CAG") == 3


def test_run_straddling_consecutive_blocks_counts_whole():
    # rows_per_block=1, W=4: the run crosses from block 0 into block 1
    text = "TT" + "CAG" * 2
    result = quick_scan(text, "CAG", rows=2, data_width=4, blocks=2)
    assert result.per_block_max == [1, 1]
    assert result.global_max == 2


def test_gap_in_activated_blocks_splits_detection():
    # same text, but only blocks 0 and 2 activated: the run pieces are not
    # stitched across the deactivated block
    text = "CAG" * 4  # occupies three rows of W=4
    result = quick_scan(text, "CAG", rows=3, data_width=4, blocks=3,
                        active_blocks=[0, 2])
    assert result.global_max == max(result.per_block_max)
    full = quick_scan(text, "CAG", rows=3, data_width=4, blocks=3)
    assert full.global_max == 4


def test_per_block_max_matches_activated_blocks():
    text = "CAG" * 8
    result = quick_scan(text, "CAG", rows=4, data_width=8, blocks=4)
    assert len(result.per_block_max) == len(default_active_blocks(
        len(text), result.report.params))
    assert result.global_max >= max(result.per_block_max)


def test_default_active_blocks_cover_text():
    req = make_request(parse_text("A" * 100), parse_pattern("CAG"),
                       rows=8, data_width=8, blocks=4)
    # 100 chars over W=8 -> 13 rows -> 7 two-row blocks capped at B=4
    assert req.active_blocks == (0, 1, 2, 3)
    req2 = make_request(parse_text("A" * 10), parse_pattern("CAG"),
                        rows=8, data_width=8, blocks=4)
    assert req2.active_blocks == (0,)


def test_metered_cycles_match_closed_form():
    result = quick_scan("CAG" * 20, "CAG", rows=4, data_width=16, blocks=2)
    assert result.report.cycles == CycleCounts.closed_form(result.report.params)


def test_detector_ticks_are_metered_from_each_read_out(monkeypatch):
    # a read-out one bit short is caught against the closed form: 2 blocks of
    # 31 bits plus the flush, against 2 * (2 * 16 + 5)
    read_all = matchmem.MatchIndexMemory.read_all
    monkeypatch.setattr(matchmem.MatchIndexMemory, "read_all",
                        lambda memory: read_all(memory)[:-1])
    with pytest.raises(InternalInvariantError, match="detector_ticks=72,"):
        quick_scan("CAG" * 20, "CAG", rows=4, data_width=16, blocks=2)


@pytest.mark.parametrize("blocks, consumed, charged", [
    (None, 65541, 65576),           # one run of 8 blocks: 1 flush, 8 charged
    ([0, 2, 3], 24586, 24591),      # runs 0 and 2-3: 2 flushes, 3 charged
])
def test_fsm_flushes_once_per_run_and_drains_per_block(blocks, consumed, charged):
    # The block-boundary rule (pipeline docstring): the FSM consumes each
    # run's stream plus POST_STREAM_CYCLES inputs, one per trace row but the
    # Exit row, while every block is charged m*n + POST_STREAM_CYCLES ticks;
    # the ticks no input meets are drain ticks.
    rng = random.Random(5)
    text = "".join(rng.choice("ACGT") for _ in range(65536))
    result = quick_scan(text, "CAG", active_blocks=blocks, cycle_accurate=True,
                        record_detector_trace=True)
    assert sum(len(trace) - 1 for _, trace in result.detector_trace) == consumed
    assert result.report.cycles.detector_ticks == charged


def test_fsm_without_a_flush_zero_per_phase_is_an_internal_error(monkeypatch):
    # Both detectors share one run rule, so the cross-check guards one thing:
    # the FSM compares a run only at the zero after it, and without flush
    # zeros phase 0's run of three CAGs is never compared.
    monkeypatch.setattr(detector, "flush_zeros", lambda p: 0)
    with pytest.raises(InternalInvariantError,
                       match="^cycle-accurate detector returned 0, functional 3$"):
        quick_scan("CAGCAGCAG", "CAG", rows=1, data_width=9, blocks=1, cycle_accurate=True)


def test_request_derives_its_blocks_and_timing_when_built():
    stale = TimingParams(rows=4, data_width=8, pattern_len=5, blocks=4, searched_blocks=3)
    request = ScanRequest(parse_text("CAG" * 8), parse_pattern("CAG"), stale,
                          active_blocks=[2, 0, 2])
    assert request.active_blocks == (0, 2)
    assert (request.timing.searched_blocks, request.timing.pattern_len) == (2, 3)
    # replace derives again: one block scanned, K = 1
    result = scan(replace(request, active_blocks=[1]))
    assert result.report.params.searched_blocks == 1
    assert result.report.cycles == CycleCounts.closed_form(result.report.params)
    assert len(result.per_block_max) == 1


def test_request_keeps_a_timing_that_already_holds_the_derived_values():
    text, pattern = parse_text("CAG" * 8), parse_pattern("CAG")
    timing = TimingParams(rows=4, data_width=8, pattern_len=3, blocks=4, searched_blocks=2)
    assert ScanRequest(text, pattern, timing, active_blocks=[2, 0]).timing is timing
    # a stale K or pattern length is still replaced
    for stale in (replace(timing, searched_blocks=3), replace(timing, pattern_len=5)):
        request = ScanRequest(text, pattern, stale, active_blocks=[2, 0])
        assert request.timing is not stale and request.timing == timing
    # a default full-array request is built with the K it derives, so it keeps its timing
    full = make_request(parse_text("CAG" * 21845 + "T"), pattern)
    assert full.timing == TimingParams() and full.active_blocks == tuple(range(8))


def test_cycle_accurate_mode_agrees_and_traces():
    text = "CAGCAGTTCAG"
    res = scan(make_request(parse_text(text), parse_pattern("CAG"),
                            rows=2, data_width=8, blocks=2,
                            cycle_accurate=True, record_detector_trace=True))
    assert res.global_max == oracle_max_tandem(text, "CAG")
    # one run of both blocks: two 8-bit streams, the flush and the Exit row
    [(run, trace)] = res.detector_trace
    assert run == [0, 1] and trace.regs[3:, -1].max() == res.global_max
    assert len(trace) == 2 * 8 + POST_STREAM_CYCLES + 1


def test_cycle_accurate_requires_p2_or_more():
    with pytest.raises(ValueError, match="cannot serve pattern length 1$"):
        make_request(parse_text("ACGT"), parse_pattern("A"),
                     rows=2, data_width=4, blocks=1, cycle_accurate=True)


def test_determinism_byte_identical():
    a = quick_scan("CAGCAGCAG", "CAG", rows=2, data_width=8, blocks=2)
    b = quick_scan("CAGCAGCAG", "CAG", rows=2, data_width=8, blocks=2)
    assert a.report == b.report
    assert (a.global_max, a.per_block_max, a.set_events) == \
           (b.global_max, b.per_block_max, b.set_events)


def test_set_events_count_matches_occurrences():
    text = "CAGCAGTT"
    res = quick_scan(text, "CAG", rows=1, data_width=8, blocks=1)
    assert res.set_events == 2


def _counted_scan(monkeypatch, **kwargs):
    """A scan of a random 65,536-character text for CAG with ``search_cycle``
    calls counted and ``fill_blocks`` calls recorded as (pattern, first,
    stop), and the array it loaded."""
    calls = {"search_cycle": 0, "fill_blocks": []}
    def searched(*args, _fn=acam.search_cycle):
        calls["search_cycle"] += 1
        return _fn(*args)
    def filled(array, pattern, first, stop, _fn=acam.fill_blocks):
        calls["fill_blocks"].append((str(pattern), first, stop))
        return _fn(array, pattern, first, stop)
    arrays = []
    def loaded(*args, _fn=acam.load_text):
        arrays.append(_fn(*args))
        return arrays[-1]
    monkeypatch.setattr(acam, "search_cycle", searched)
    monkeypatch.setattr(acam, "fill_blocks", filled)
    monkeypatch.setattr(acam, "load_text", loaded)
    rng = random.Random(7)
    text = "".join(rng.choice("ACGT") for _ in range(65536))
    result = quick_scan(text, "CAG", **kwargs)
    (array,) = arrays
    return result, calls, array


def test_full_scan_fills_each_block_once_and_meters_every_cycle(monkeypatch):
    # work done, not time: one fill per run of blocks behind the W per-window
    # search cycles of every block, and the metered count is the calls made
    result, calls, array = _counted_scan(monkeypatch)
    assert result.report.params.searched_blocks == 8
    assert calls["search_cycle"] == 1024 == result.report.cycles.search
    assert calls["fill_blocks"] == [("CAG", 0, 8)]
    # a block searched again reuses its entry; a second pattern gets its own
    acam.run_block_search(array, 3, parse_pattern("CAG"))
    assert len(calls["fill_blocks"]) == 1
    acam.run_block_search(array, 3, parse_pattern("GAT"))
    assert calls["fill_blocks"][1:] == [("GAT", 3, 4)]


def test_gapped_scan_fills_only_the_searched_blocks(monkeypatch):
    # the array's work follows the blocks searched, not the array's size:
    # one fill per run of consecutive blocks
    result, calls, array = _counted_scan(monkeypatch, active_blocks=[0, 2, 3, 5])
    assert calls["search_cycle"] == 512 == result.report.cycles.search
    assert calls["fill_blocks"] == [("CAG", 0, 1), ("CAG", 2, 4), ("CAG", 5, 6)]
    acam.run_block_search(array, 2, parse_pattern("GAT"))
    acam.run_block_search(array, 2, parse_pattern("CAG"))
    assert calls["fill_blocks"][3:] == [("GAT", 2, 3)]


def test_full_scan_writes_each_block_in_one_call_and_meters_every_column(monkeypatch):
    # the memory takes a block's W tag columns in one call, then is read and
    # reset, the ring in its operations; the meter still charges one write
    # cycle per column written
    calls = []
    for name in ("write_columns", "write_column", "read_all", "reset_all"):
        def counted(self, *args, _fn=getattr(matchmem.MatchIndexMemory, name), _name=name):
            calls.append((_name, *args))
            return _fn(self, *args)
        monkeypatch.setattr(matchmem.MatchIndexMemory, name, counted)
    rng = random.Random(7)
    text = "".join(rng.choice("ACGT") for _ in range(65536))
    result = quick_scan(text, "CAG")
    assert [call[0] for call in calls] == ["write_columns", "read_all", "reset_all"] * 8
    assert [tags.shape for _, tags in calls[::3]] == [(64, 128)] * 8
    assert result.report.cycles.write_columns == 1024


def test_functional_scan_lays_out_no_run_and_cycle_mode_one_per_run(monkeypatch):
    # the functional detector works on the packed stream; only the FSM lays a
    # run out phase-major, once per run of consecutive blocks, its stream and
    # the flush zeros (the input carrying D compares nothing)
    layouts = []
    def counted(x, *args, _fn=detector._phase_runs):
        layouts.append(len(x))
        return _fn(x, *args)
    monkeypatch.setattr(detector, "_phase_runs", counted)
    rng = random.Random(7)
    text = "".join(rng.choice("ACGT") for _ in range(65536))
    assert quick_scan(text, "CAG").report.params.searched_blocks == 8
    assert layouts == []
    quick_scan(text, "CAG", active_blocks=[0, 2, 3, 5, 6, 7], cycle_accurate=True)
    assert layouts == [n * 8192 + detector.FLUSH_ZEROS for n in (1, 2, 3)]


def test_debug_log_has_one_event_per_block_and_the_default_none(caplog):
    # block 0 saturates, block 1 holds two CAG starts, block 3 none
    text = "CAG" * 300 + "T" * (8192 - 900) + "TCAGTCAGT"
    caplog.set_level(logging.INFO, logger="repeatscan")
    result = quick_scan(text, "CAG", active_blocks=[0, 1, 3])
    assert caplog.records == []
    caplog.set_level(logging.DEBUG, logger="repeatscan")
    assert quick_scan(text, "CAG", active_blocks=[0, 1, 3]) == result
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("repeatscan", logging.DEBUG, f"block {block}: set_events={events} "
                                      f"block_max={block_max} saturated={block_max == 255}")
        for block, events, block_max in [(0, 300, 255), (1, 2, 1), (3, 0, 0)]]
    assert result.per_block_max == [255, 1, 0] and result.set_events == 302


def test_request_validation():
    text, pat = parse_text("ACGT"), parse_pattern("CAG")
    with pytest.raises(ValueError):
        scan(make_request(text, pat, rows=2, data_width=4, blocks=1,
                          active_blocks=[5]))
    with pytest.raises(ValueError):
        scan(make_request(text, pat, rows=2, data_width=4, blocks=1,
                          active_blocks=[]))


def test_request_takes_block_indices_as_integers():
    # as TimingParams does: a float or a string is not read as some block
    text, pat = parse_text("ACGT" * 8), parse_pattern("CAG")
    for bad in (1.7, 2.0, "2"):
        with pytest.raises(TypeError):
            make_request(text, pat, rows=4, data_width=4, blocks=4, active_blocks=[0, bad])
    request = make_request(text, pat, rows=4, data_width=4, blocks=4,
                           active_blocks=np.array([3, 1, 3]))
    assert request.active_blocks == (1, 3)
    assert all(type(b) is int for b in request.active_blocks)


def test_request_rejects_a_disease_of_another_repeat_unit():
    # FXN's thresholds count GAA; a CAG count would be classified against them
    fxn = find_entry(builtin_catalog(), "Friedreich's ataxia")
    text = parse_text("CAG" * 60)
    with pytest.raises(ValueError, match="repeats GAA, not the pattern CAG"):
        make_request(text, parse_pattern("CAG"), disease=fxn)
    request = make_request(text, parse_pattern("gaa"), disease=fxn)
    with pytest.raises(ValueError, match="repeats GAA, not the pattern CAG"):
        replace(request, pattern=parse_pattern("CAG"))


def test_write_time_is_one_clock_unless_given():
    assert TimingParams(clock_ns=2.0).write_ns == 2.0
    assert TimingParams(clock_ns=2.0, write_ns=3).write_ns == 3.0
    request = make_request(parse_text("CAG"), parse_pattern("CAG"), clock_ns=2.0)
    assert request.timing == TimingParams(clock_ns=2.0, searched_blocks=1)


def test_trace_requires_cycle_accurate_detection():
    text, pattern = parse_text("CAGCAG"), parse_pattern("CAG")
    with pytest.raises(ValueError, match="trace requires cycle-accurate"):
        make_request(text, pattern, rows=2, data_width=4, blocks=1,
                     record_detector_trace=True)
    request = make_request(text, pattern, rows=2, data_width=4, blocks=1)
    with pytest.raises(ValueError, match="trace requires cycle-accurate"):
        replace(request, record_detector_trace=True)
    traced = scan(replace(request, cycle_accurate=True, record_detector_trace=True))
    assert [run for run, _ in traced.detector_trace] == [[0]]
    untraced = scan(replace(request, cycle_accurate=True))
    assert untraced.detector_trace == []


def test_scan_on_disease_blocks_from_map():
    entry = find_entry(builtin_catalog(), "Huntington's disease")
    text = "T" * 8 + "CAG" * 5  # lands in rows 1-2 = blocks 1-2 for W=8, m=1
    req = make_request(parse_text(text), entry.pattern, rows=4, data_width=8,
                       blocks=4, active_blocks=(1, 2), disease=entry)
    res = scan(req)
    assert res.global_max == 5
    assert res.report.params.searched_blocks == 2


@st.composite
def pipeline_case(draw):
    p = draw(st.integers(1, 4))
    width = draw(st.integers(max(p, 2), 16))
    pattern = draw(st.text(alphabet="ACGT", min_size=p, max_size=p))
    if draw(st.booleans()):
        # a arrays of 8 blocks as one, B = 8a, with a repeat across the edge
        # of two arrays and the blocks on either side often searched
        rows_per_block, arrays = draw(st.integers(1, 2)), draw(st.integers(2, 3))
        blocks = 8 * arrays
        rows = rows_per_block * blocks
        edge = 8 * draw(st.integers(1, arrays - 1))
        edge_char = edge * rows_per_block * width
        text = random.Random(draw(st.integers(0, 2**16))).choices(
            "ACGT", k=draw(st.integers(edge_char + 1, rows * width)))
        copies = draw(st.integers(1, 2 * rows_per_block * width // p))
        start = edge_char - draw(st.integers(1, max(1, copies * p - 1)))
        text[start:start + copies * p] = pattern * copies
        text = "".join(text)[:rows * width]
        around = draw(st.sampled_from([{edge - 1, edge}, {edge - 1}, {edge},
                                       set(range(blocks))]))
        active = sorted(around | draw(st.sets(st.integers(0, blocks - 1))))
        return text, pattern, rows, width, blocks, active
    rows_per_block = draw(st.integers(1, 4))
    blocks = draw(st.integers(1, 4))
    rows = rows_per_block * blocks
    # tandem copies of the pattern between random pieces, so runs cross row
    # and block boundaries
    repeats = st.integers(1, rows * width // p).map(lambda k: pattern * k)
    pieces = draw(st.lists(st.one_of(repeats, st.text(alphabet="ACGT", max_size=width)),
                           min_size=1, max_size=6))
    text = ("".join(pieces) or pattern)[:rows * width]
    active = sorted(draw(st.sets(st.integers(0, blocks - 1), min_size=1)))
    return text, pattern, rows, width, blocks, active


@given(pipeline_case())
@example(("A" * 12, "A", 3, 4, 3, [0, 2]))
@settings(max_examples=150, deadline=None)
def test_end_to_end_oracle_equivalence(case):
    # each run of consecutive active blocks sees its rows' text plus the p-1
    # characters replicated from the next row; a gap splits detection
    text, pattern, rows, width, blocks, active = case
    result = quick_scan(text, pattern, rows=rows, data_width=width,
                        blocks=blocks, active_blocks=active)
    runs: list[list[int]] = []
    for b in active:
        if runs and runs[-1][-1] == b - 1:
            runs[-1].append(b)
        else:
            runs.append([b])
    block_chars = rows // blocks * width
    tail = len(pattern) - 1
    expected = max(min(oracle_max_tandem(
        text[run[0] * block_chars:(run[-1] + 1) * block_chars + tail], pattern), 255)
        for run in runs)
    assert result.global_max == expected


@given(pipeline_case())
@example(("T" + "CAG" * 10, "CAG", 8, 4, 4, [0, 1, 2, 3]))   # one run over every boundary
@example(("T" + "CAG" * 10, "CAG", 8, 4, 4, [0, 2, 3]))      # a gap, then a run of two
@example(("A" * 512, "A", 32, 16, 2, [0, 1]))               # saturates in each block
@settings(max_examples=150, deadline=None)
def test_per_block_max_is_the_oracle_over_each_blocks_rows(case):
    # each block alone, whatever run it is in: its rows' text plus the p-1
    # characters replicated from the next row, capped at the register limit
    text, pattern, rows, width, blocks, active = case
    result = quick_scan(text, pattern, rows=rows, data_width=width,
                        blocks=blocks, active_blocks=active)
    block_chars = rows // blocks * width
    tail = len(pattern) - 1
    assert result.per_block_max == [
        min(oracle_max_tandem(text[b * block_chars:(b + 1) * block_chars + tail], pattern), 255)
        for b in active]


@given(pipeline_case())
@settings(max_examples=150, deadline=None)
def test_set_events_count_occurrences_starting_in_active_blocks(case):
    # one SET event per occurrence whose first character lies in an active
    # block's rows, including windows that reach into the next row (or the
    # next block) through the replication columns
    text, pattern, rows, width, blocks, active = case
    result = quick_scan(text, pattern, rows=rows, data_width=width,
                        blocks=blocks, active_blocks=active)
    block_chars = rows // blocks * width
    p = len(pattern)
    expected = sum(text[q:q + p] == pattern for b in active
                   for q in range(b * block_chars, (b + 1) * block_chars))
    assert result.set_events == expected
