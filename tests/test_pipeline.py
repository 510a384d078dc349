import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repeatscan import acam
from repeatscan.costmodel import CycleCounts
from repeatscan.detector import POST_STREAM_CYCLES, oracle_max_tandem
from repeatscan.pipeline import default_active_blocks, make_request, scan
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
    assert not result.range_overlap_flagged
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


def test_cycle_accurate_mode_agrees_and_traces():
    text = "CAGCAGTTCAG"
    res = scan(make_request(parse_text(text), parse_pattern("CAG"),
                            rows=2, data_width=8, blocks=2,
                            cycle_accurate=True, record_detector_trace=True))
    assert res.global_max == oracle_max_tandem(text, "CAG")
    # one run of both blocks: two 8-bit streams, the flush and the Exit row
    [(run, trace, fsm_max)] = res.detector_trace
    assert run == [0, 1] and fsm_max == res.global_max
    assert len(trace) == 2 * 8 + POST_STREAM_CYCLES + 1


def test_cycle_accurate_requires_p3():
    with pytest.raises(ValueError):
        scan(make_request(parse_text("ACGT"), parse_pattern("AC"),
                          rows=2, data_width=4, blocks=1, cycle_accurate=True))


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


def test_full_scan_broadcasts_once_per_block_and_meters_every_cycle(monkeypatch):
    # work done, not time: one block broadcast per active block behind the
    # W per-window search cycles, and the metered count is the calls made
    calls = {"search_cycle": 0, "_search_block": 0}
    for name in calls:
        def counted(*args, _fn=getattr(acam, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(acam, name, counted)
    rng = random.Random(7)
    text = "".join(rng.choice("ACGT") for _ in range(65536))
    result = quick_scan(text, "CAG")
    assert result.report.params.searched_blocks == 8
    assert calls == {"search_cycle": 1024, "_search_block": 8}
    assert result.report.cycles.search == 1024


def test_request_validation():
    text, pat = parse_text("ACGT"), parse_pattern("CAG")
    with pytest.raises(ValueError):
        scan(make_request(text, pat, rows=2, data_width=4, blocks=1,
                          active_blocks=[5]))
    with pytest.raises(ValueError):
        scan(make_request(text, pat, rows=2, data_width=4, blocks=1,
                          active_blocks=[]))


def test_trace_requires_cycle_accurate_detection():
    request = make_request(parse_text("CAGCAG"), parse_pattern("CAG"), rows=2,
                           data_width=4, blocks=1, record_detector_trace=True)
    with pytest.raises(ValueError, match="trace requires cycle-accurate"):
        scan(request)
    traced = scan(replace(request, cycle_accurate=True))
    assert [run for run, _, _ in traced.detector_trace] == [[0]]
    untraced = scan(replace(request, cycle_accurate=True, record_detector_trace=False))
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
    rows_per_block = draw(st.integers(1, 4))
    blocks = draw(st.integers(1, 4))
    rows = rows_per_block * blocks
    pattern = draw(st.text(alphabet="ACGT", min_size=p, max_size=p))
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
