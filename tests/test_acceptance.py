"""Acceptance suite: every criterion prints one PASS/FAIL line (run -s).

Each criterion pins its tolerance here; nothing is deferred to calibration.
"""

import io
import itertools
import random
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from repeatscan.acam import CHAR_CELLS, DONT_CARE, MM_CELL, cell_matches, drive_for
from repeatscan.costmodel import (CycleCounts, TimingParams, energy,
                                  geometry_for_text, latency)
from repeatscan.detector import (detect_functional, format_trace,
                                 oracle_max_tandem, run_cycle_accurate, run_trace)
from repeatscan.matchmem import MatchIndexMemory
from repeatscan.pipeline import ScanRequest, make_request, scan
from repeatscan.seqio import builtin_catalog, classify, find_entry, parse_pattern, parse_text

GOLDEN = Path(__file__).parent / "golden" / "trace_101110000.csv"
CHARS = "ACGT"


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num:2d} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS: {desc}")


def within_pct(computed: float, reference: float, pct: float) -> bool:
    return abs(computed - reference) / abs(reference) <= pct / 100.0


def test_criterion_1_timing_reproduction_exact():
    with criterion(1, "timing closed forms exact; metered run reports identical cycles"):
        params = TimingParams(clock_ns=1.0, write_ns=1.0, rows=512,
                              data_width=128, pattern_len=3, blocks=8)
        fig = latency(params, 8)
        assert fig.t_load_ns == 4096.0          # 4.096 us
        assert fig.dt12_ns == 128.5
        assert fig.dt23_ns == 1024.625
        assert fig.dt34_ns == 1.0

        rng = random.Random(1)
        text = "".join(rng.choice(CHARS) for _ in range(512 * 128))
        request = make_request(parse_text(text), parse_pattern("CAG"),
                               rows=512, data_width=128, blocks=8,
                               active_blocks=range(8))
        result = scan(request)
        assert result.report.cycles == CycleCounts.closed_form(params, 8)
        assert result.report.latency == fig


def test_criterion_2_per_block_total():
    with criterion(2, "per-block total 1154.125 ns within 1% of 1.15 us"):
        fig = latency(TimingParams(), 8)
        assert fig.per_block_ns == 1154.125
        assert within_pct(fig.per_block_ns, 1150.0, 1.0)


def test_criterion_3_million_char_totals():
    # each total also metered from a scan of a seeded 1 M text with every
    # block of every array active, in both detector modes; 120 x CAG
    # straddles the first array boundary
    rng = random.Random(3)
    text = "".join(rng.choices(CHARS, k=1_000_000))
    text = text[:65_536 - 180] + "CAG" * 120 + text[65_536 + 180:]
    seq = parse_text(text)
    totals, metered = {}, {}
    for p, unit in [(3, "CAG"), (5, "CCTGA"), (10, "CAGCAGCAGC")]:
        params = geometry_for_text(1_000_000, p)
        fig = latency(params, params.blocks)
        totals[p] = (fig.t_total_ns - fig.t_load_ns) / 1000.0
        request = ScanRequest(seq, parse_pattern(unit), params,
                              active_blocks=range(params.blocks))
        result = scan(request)
        assert (result.report.params, result.report.searched_blocks) == (params, params.blocks)
        # the FSM for p agrees with the functional detector, or scan raises
        cycle = scan(replace(request, cycle_accurate=True))
        assert (cycle.global_max, cycle.report) == (result.global_max, result.report)
        lat = result.report.latency
        metered[p] = (lat.t_total_ns - lat.t_load_ns) / 1000.0
        if p == 3:
            cag_max = result.global_max
    t3, t5, t10 = totals[3], totals[5], totals[10]
    dev5 = abs(t5 - 144.4) / 144.4 * 100
    dev10 = abs(t10 - 148.393) / 148.393 * 100
    with criterion(3, f"1M-char totals: p3 {t3:.3f} us (ref 147.7, 0.5%); "
                      f"p5 {t5:.3f} us vs 144.4 dev {dev5:.2f}% (5%, known "
                      f"discrepancy); p10 {t10:.3f} us vs 148.393 dev "
                      f"{dev10:.2f}% (5%); each also metered from a 1M scan"):
        assert metered == totals == {3: 147.728, 5: 145.424, 10: 148.393}
        assert cag_max == oracle_max_tandem(text, "CAG") == 120
        assert within_pct(t3, 147.7, 0.5)
        assert within_pct(t5, 144.4, 5.0)
        assert within_pct(t10, 148.393, 5.0)


def test_criterion_4_energy():
    e3 = energy(CycleCounts.closed_form(TimingParams(), 1))
    e10 = energy(CycleCounts.closed_form(TimingParams(data_width=121, pattern_len=10), 1))
    with criterion(4, f"energy: p3 block {e3.total_nj:.4f} nJ (1% of 5.2); "
                      f"p10 {e10.total_nj:.4f} nJ (3% of 4.9); per-char "
                      f"{e3.per_char_pj:.4f} pJ (10% of 0.61, divisor m*n*blocks)"):
        assert round(e3.total_nj, 2) == 5.22
        assert within_pct(e3.total_nj, 5.2, 1.0)
        assert within_pct(e10.total_nj, 4.9, 3.0)
        assert within_pct(e3.per_char_pj, 0.61, 10.0)


def test_criterion_5_golden_detector_trace():
    with criterion(5, "cycle-accurate trace for X=101110000 matches the "
                      "committed golden file byte-exactly, global max 2"):
        gm, trace = run_trace("101110000", 3)
        assert gm == 2
        out = io.BytesIO()
        format_trace(trace, out)
        text = out.getvalue().decode("ascii")
        assert text == GOLDEN.read_text()
        # the nine transitions: states visited and signal raised per cycle,
        # read from the CSV rows between the header and the global_max line
        rows = [line.split(",") for line in text.splitlines()[1:-1]]
        assert [r[1] for r in rows] == ["Initial", "S2", "S3", "S6", "S2",
                                        "S4", "S5", "S1", "S3", "Exit"]
        expected_signals = [("C", 1), ("R", 2), ("C", 3), ("C", 1), ("C", 2),
                            ("R", 3), ("R", 1), ("R", 2), None]
        for row, expected in zip(rows[:-1], expected_signals):
            c, r = tuple(map(int, row[4:7])), tuple(map(int, row[7:10]))
            if expected is None:
                assert c == (0, 0, 0) and r == (0, 0, 0)
            elif expected[0] == "C":
                assert c[expected[1] - 1] == 1 and sum(c) == 1 and sum(r) == 0
            else:
                assert r[expected[1] - 1] == 1 and sum(r) == 1 and sum(c) == 0


def _random_instance(rng):
    p = rng.randint(1, 4)
    pattern = "".join(rng.choice(CHARS) for _ in range(p))
    width = rng.randint(max(p, 2), 16)
    m = rng.randint(1, 4)
    blocks = rng.randint(1, 4)
    rows = m * blocks
    capacity = rows * width
    if rng.random() < 0.5:
        text = "".join(rng.choice(CHARS) for _ in range(rng.randint(1, capacity)))
    else:
        # embed tandem runs so long counts are exercised
        runs = pattern * rng.randint(1, max(1, capacity // (2 * p)))
        flank_n = rng.randint(0, max(0, capacity - len(runs)))
        flank = "".join(rng.choice(CHARS) for _ in range(flank_n))
        text = (flank[:flank_n // 2] + runs + flank[flank_n // 2:])[:capacity]
    return text, pattern, rows, width, blocks


def _straddle_instance(rng, cross_block: bool):
    """Text whose repeat run provably crosses a row (or block) boundary."""
    p = rng.randint(1, 4)
    pattern = "".join(rng.choice(CHARS) for _ in range(p))
    width = rng.randint(max(p, 2), 12)
    m = rng.randint(1, 3)
    blocks = rng.randint(2, 4)
    rows = m * blocks
    capacity = rows * width
    k = rng.randint(2, min(8, capacity // p))
    run_len = k * p
    if cross_block:
        boundary_row = m * rng.randint(1, blocks - 1)
    else:
        boundary_row = rng.randint(1, rows - 1)
    boundary = boundary_row * width
    lo = max(0, boundary - run_len + 1)
    hi = min(boundary - 1, capacity - run_len)
    start = rng.randint(min(lo, hi), hi)
    prefix = "".join(rng.choice(CHARS) for _ in range(start))
    tail_n = rng.randint(0, capacity - start - run_len)
    tail = "".join(rng.choice(CHARS) for _ in range(tail_n))
    text = prefix + pattern * k + tail
    assert start < boundary < start + run_len
    return text, pattern, rows, width, blocks


def _check_instance(case):
    text, pattern, rows, width, blocks = case
    result = scan(make_request(parse_text(text), parse_pattern(pattern),
                               rows=rows, data_width=width, blocks=blocks,
                               active_blocks=range(blocks)))
    expected = min(oracle_max_tandem(text, pattern), 255)
    assert result.global_max == expected, (text, pattern, rows, width, blocks)


def test_criterion_6_oracle_equivalence_property_suite():
    rng = random.Random(20240810)
    total = straddles = 0
    with criterion(6, "pipeline equals the brute-force oracle on 1010 random "
                      "instances incl. 60 crafted row/block straddles"):
        for _ in range(900):
            _check_instance(_random_instance(rng))
            total += 1
        for i in range(60):
            _check_instance(_straddle_instance(rng, cross_block=i % 2 == 0))
            total += 1
            straddles += 1
        # large instances up to the 4096-character bound
        for _ in range(50):
            p = rng.randint(1, 4)
            pattern = "".join(rng.choice(CHARS) for _ in range(p))
            body = "".join(rng.choice(CHARS) for _ in range(4096 - 60))
            insert = pattern * (rng.randint(2, 20))
            pos = rng.randint(0, len(body))
            text = (body[:pos] + insert + body[pos:])[:4096]
            _check_instance((text, pattern, 64, 64, 4))
            total += 1
        assert total >= 1000 and straddles >= 50


def test_criterion_7_encoding_separation():
    with criterion(7, "4x4 character/drive matrix is the identity; MM "
                      "mismatches all drives and matches don't-care"):
        for stored in CHARS:
            for searched in CHARS:
                assert cell_matches(CHAR_CELLS[stored], drive_for(searched)) \
                    == (stored == searched)
            assert cell_matches(CHAR_CELLS[stored], DONT_CARE)
        for searched in CHARS:
            assert not cell_matches(MM_CELL, drive_for(searched))
        assert cell_matches(MM_CELL, DONT_CARE)


def test_criterion_8_memory_round_trip():
    rng = random.Random(99)
    with criterion(8, "200 random matrices (m,n <= 64) write/read round-trip "
                      "bit-exactly; reset leaves all-HRS"):
        for _ in range(200):
            m = rng.randint(1, 64)
            n = rng.randint(1, 64)
            matrix = [[rng.random() < 0.3 for _ in range(n)] for _ in range(m)]
            mem = MatchIndexMemory(m, n)
            for col in range(n):
                mem.write_column([matrix[r][col] for r in range(m)])
            bits = mem.read_all()
            assert bits.dtype == bool
            assert bits.tolist() == [int(b) for row in matrix for b in row]
            mem.reset_all()
            assert not mem.cells.any()


def test_criterion_9_fsm_functional_agreement_exhaustive():
    with criterion(9, "cycle-accurate equals functional on all 131071 bit "
                      "streams of length <= 16"):
        checked = 0
        for length in range(17):
            for bits in itertools.product((0, 1), repeat=length):
                assert run_cycle_accurate(bits, 3)[0] == detect_functional(bits, 3), bits
                checked += 1
        assert checked == 2 ** 17 - 1


def test_criterion_10_disease_classification():
    with criterion(10, "catalog loads 10 rows; Huntington 45/20/30 -> "
                       "Disease/Normal/Indeterminate"):
        catalog = builtin_catalog()
        assert len(catalog) == 10
        entry = find_entry(catalog, "Huntington's disease")
        assert classify(45, entry) == "Disease"
        assert classify(20, entry) == "Normal"
        assert classify(30, entry) == "Indeterminate"
