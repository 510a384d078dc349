from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeatscan import acam, seqio
from repeatscan.acam import (CHAR_CELLS, DONT_CARE, MM_CELL, PatternTooLong,
                             TextTooLong, WindowOutOfRange, cell_matches,
                             drive_for, encode_char, load_text,
                             run_block_search, search_cycle)
from repeatscan.seqio import InvalidCharacter, parse_text

CHARS = "ACGT"


def brute_occurrences(text: str, pattern: str) -> set[int]:
    """Independent oracle: 0-based start positions of exact occurrences."""
    p = len(pattern)
    return {q for q in range(len(text) - p + 1) if text[q:q + p] == pattern}


def test_encoding_table_values():
    a = encode_char("A")
    assert (a.r_lb_kohm, a.r_ub_kohm) == (2500.0, 186.32)
    assert (a.interval.lower, a.interval.upper) == (Decimal("0.19"), Decimal("0.31"))
    t = encode_char("T")
    assert (t.r_lb_kohm, t.r_ub_kohm) == (8.9, 5.06)
    assert (t.interval.lower, t.interval.upper) == (Decimal("0.63"), Decimal("0.79"))
    g = encode_char("G")
    assert (g.interval.lower, g.interval.upper) == (Decimal("0.46"), Decimal("0.59"))
    c = encode_char("C")
    assert (c.r_lb_kohm, c.r_ub_kohm) == (163.3, 27.6)


def test_mm_cell_is_inverted_and_borrows_resistances():
    assert MM_CELL.interval.lower > MM_CELL.interval.upper
    assert MM_CELL.r_lb_kohm == encode_char("T").r_ub_kohm
    assert MM_CELL.r_ub_kohm == encode_char("A").r_lb_kohm


def test_drive_voltages():
    assert drive_for("C").v_ldl == drive_for("C").v_udl == Decimal("0.38")
    assert drive_for("T").v_ldl == Decimal("0.71")
    assert drive_for("A").v_ldl == Decimal("0.25")
    assert drive_for("G").v_ldl == Decimal("0.53")
    dc = drive_for(None)
    assert (dc.v_ldl, dc.v_udl) == (Decimal("0.80"), Decimal("0.00"))
    assert dc == DONT_CARE


def test_drive_rejects_unknown():
    with pytest.raises(ValueError):
        drive_for("N")
    with pytest.raises(ValueError):
        encode_char("N")


def test_match_matrix_exhaustive():
    # Stored character vs searched character: identity matrix; don't-care
    # matches everything; MM mismatches every character drive but matches
    # don't-care.
    for stored in CHARS:
        for searched in CHARS:
            expected = stored == searched
            assert cell_matches(encode_char(stored), drive_for(searched)) == expected
        assert cell_matches(encode_char(stored), DONT_CARE)
    for searched in CHARS:
        assert not cell_matches(MM_CELL, drive_for(searched))
    assert cell_matches(MM_CELL, DONT_CARE)


def test_cell_match_examples():
    assert cell_matches(encode_char("C"), drive_for("C"))
    assert not cell_matches(encode_char("A"), drive_for("G"))
    assert not cell_matches(MM_CELL, drive_for("A"))


def test_load_text_layout():
    arr = load_text("CAGCA", rows=2, data_width=4, pattern_len=3, blocks=1)
    kinds = [[c.kind for c in row] for row in arr.cells]
    assert kinds[0] == ["C", "A", "G", "C", "A", "MM"]
    assert kinds[1] == ["A", "MM", "MM", "MM", "MM", "MM"]
    assert arr.total_cols == 6


def test_load_text_stores_a_sequences_codes_without_encoding_again(monkeypatch):
    seq = parse_text("CAGCA")
    encoded = []
    monkeypatch.setattr(acam, "encode", lambda s: encoded.append(s) or seqio.encode(s))
    arr = load_text(seq, rows=2, data_width=4, pattern_len=3, blocks=1)
    assert encoded == []
    assert arr.cells == load_text("CAGCA", rows=2, data_width=4, pattern_len=3,
                                  blocks=1).cells
    assert encoded == ["CAGCA"]     # a plain string is still encoded


def test_load_text_full_array_has_no_mm_in_data_columns():
    arr = load_text("ACGTACGTTGCATGCA", rows=2, data_width=8, pattern_len=3, blocks=1)
    for row in arr.cells:
        assert all(c.kind != "MM" for c in row[:8])
    # the first row's replicated columns copy the second row's first cells
    assert [c.kind for c in arr.cells[0][8:]] == ["T", "G"]
    # last row replicates MM
    assert [c.kind for c in arr.cells[1][8:]] == ["MM", "MM"]


def test_load_text_pattern_len_one_has_no_replication():
    arr = load_text("ACGT", rows=2, data_width=2, pattern_len=1, blocks=1)
    assert arr.total_cols == 2


def test_load_text_errors():
    with pytest.raises(TextTooLong):
        load_text("A" * 9, rows=2, data_width=4, pattern_len=2, blocks=1)
    with pytest.raises(PatternTooLong):
        load_text("ACGT", rows=2, data_width=2, pattern_len=3, blocks=1)
    with pytest.raises(acam.GeometryError):
        load_text("ACGT", rows=3, data_width=4, pattern_len=2, blocks=2)
    with pytest.raises(InvalidCharacter) as exc:
        load_text("ACNT", rows=2, data_width=4, pattern_len=2, blocks=1)
    assert (exc.value.position, exc.value.char) == (3, "N")


def test_search_cycle_window_bounds():
    arr = load_text("CAGCAG", rows=2, data_width=4, pattern_len=3, blocks=1)
    with pytest.raises(WindowOutOfRange):
        search_cycle(arr, 0, 4, "CAG")
    with pytest.raises(acam.GeometryError):
        search_cycle(arr, 2, 0, "CAG")
    with pytest.raises(acam.GeometryError):
        search_cycle(arr, 0, 0, "CA")


def test_search_cycle_single_character_pattern():
    arr = load_text("ACGT", rows=1, data_width=4, pattern_len=1, blocks=1)
    assert search_cycle(arr, 0, 0, "A") == [True]
    assert search_cycle(arr, 0, 1, "A") == [False]


def test_window_over_mm_cells_never_matches():
    arr = load_text("CA", rows=2, data_width=4, pattern_len=3, blocks=1)
    # windows covering MM padding in row 0 and the all-MM row 1
    matrix = run_block_search(arr, 0, "CAG")
    assert not matrix[1].any()
    assert not matrix[0][1:].any()


def test_block_isolation_and_row_straddling():
    # row 0 ends ...C,A and row 1 begins G: the replicated cells complete the
    # pattern at the second-to-last window of row 0
    arr = load_text("TTCAGAGTT", rows=4, data_width=4, pattern_len=3, blocks=2)
    m0 = run_block_search(arr, 0, "CAG")
    assert m0[0].tolist() == [False, False, True, False]
    m1 = run_block_search(arr, 1, "CAG")
    assert not m1.any()


def test_run_block_search_issues_w_cycles():
    arr = load_text("CAGCAGTT", rows=2, data_width=8, pattern_len=3, blocks=1)
    matrix = run_block_search(arr, 0, "CAG")
    assert matrix.shape == (2, 8)
    assert matrix[0].tolist() == [True, False, False, True, False, False, False, False]


@st.composite
def text_and_geometry(draw):
    p = draw(st.integers(1, 4))
    width = draw(st.integers(max(p, 2), 12))
    rows_per_block = draw(st.integers(1, 4))
    blocks = draw(st.integers(1, 3))
    rows = rows_per_block * blocks
    text = draw(st.text(alphabet=CHARS, min_size=1, max_size=rows * width))
    pattern = draw(st.text(alphabet=CHARS, min_size=p, max_size=p))
    return text, pattern, rows, width, p, blocks


@given(text_and_geometry())
@settings(max_examples=200, deadline=None)
def test_window_equivalence_against_substring_oracle(case):
    # tag(row, i) is set exactly when the text contains the pattern at the
    # matching linear position, for every window including the replicated
    # columns at the row boundary
    text, pattern, rows, width, p, blocks = case
    arr = load_text(text, rows, width, p, blocks)
    expected = brute_occurrences(text, pattern)
    for b in range(blocks):
        matrix = run_block_search(arr, b, pattern)
        for r in range(arr.rows_per_block):
            for i in range(width):
                pos = (b * arr.rows_per_block + r) * width + i
                assert matrix[r][i] == (pos in expected)


@given(text_and_geometry(), st.data())
@settings(max_examples=100, deadline=None)
def test_dont_care_columns_never_affect_tags(case, data):
    # flipping the stored content of any cell outside the driven window
    # leaves every tag unchanged
    text, pattern, rows, width, p, blocks = case
    arr = load_text(text, rows, width, p, blocks)
    window = data.draw(st.integers(0, width - 1))
    block = data.draw(st.integers(0, blocks - 1))
    row = data.draw(st.integers(0, rows - 1))
    outside = [c for c in range(arr.total_cols) if not window <= c < window + p]
    if not outside:
        return
    col = data.draw(st.sampled_from(outside))
    before = search_cycle(arr, block, window, pattern)

    replacement = data.draw(st.sampled_from(list(CHARS) + ["MM"]))
    codes = arr.codes.copy()
    codes[row, col] = acam.STATES.index(
        MM_CELL if replacement == "MM" else CHAR_CELLS[replacement])
    mutated = acam.AcamArray(rows, width, p, blocks, codes)
    after = search_cycle(mutated, block, window, pattern)
    assert np.array_equal(before, after)


@given(text_and_geometry())
@settings(max_examples=100, deadline=None)
def test_vectorized_search_agrees_with_cell_matches(case):
    # the fast path compares only the driven columns; it must equal the
    # per-cell Decimal semantics over the whole row, don't-care columns included
    text, pattern, rows, width, p, blocks = case
    arr = load_text(text, rows, width, p, blocks)
    cells = arr.cells
    for b in range(blocks):
        for window in range(width):
            tags = search_cycle(arr, b, window, pattern)
            drives = [drive_for(None)] * arr.total_cols
            for k, ch in enumerate(pattern):
                drives[window + k] = drive_for(ch)
            for r, tag in enumerate(tags):
                row = cells[b * arr.rows_per_block + r]
                assert tag == all(cell_matches(c, d) for c, d in zip(row, drives))


@given(text_and_geometry())
@settings(max_examples=100, deadline=None)
def test_load_text_layout_matches_string_layout(case):
    # row chunks padded with MM, then the next row's first p-1 cells (MM
    # after the last row)
    text, _, rows, width, p, blocks = case
    data = [list(text[r * width:(r + 1) * width]) for r in range(rows)]
    data = [row + ["MM"] * (width - len(row)) for row in data]
    expected = [row + (data[r + 1][:p - 1] if r + 1 < rows else ["MM"] * (p - 1))
                for r, row in enumerate(data)]
    arr = load_text(text, rows, width, p, blocks)
    assert [[c.kind for c in row] for row in arr.cells] == expected


@given(text_and_geometry(), st.data())
@settings(max_examples=100, deadline=None)
def test_memoised_tags_equal_a_fresh_array_for_interleaved_searches(case, data):
    # two patterns searched on one array, block by block and window by
    # window in random order: a memo keyed without the pattern or the block
    # would hand back another search's tags
    text, pattern, rows, width, p, blocks = case
    other = data.draw(st.text(alphabet=CHARS, min_size=p, max_size=p))
    arr = load_text(text, rows, width, p, blocks)
    searches = [(pat, b, i) for pat in (pattern, other)
                for b in range(blocks) for i in range(width)]
    for pat, b, i in data.draw(st.permutations(searches)):
        fresh = load_text(text, rows, width, p, blocks)
        assert np.array_equal(search_cycle(arr, b, i, pat), search_cycle(fresh, b, i, pat))


def test_search_cycle_tags_are_read_only():
    arr = load_text("CAGCAGTT", rows=2, data_width=8, pattern_len=3, blocks=2)
    tags = search_cycle(arr, 0, 0, "CAG")
    assert tags.dtype == bool and tags.tolist() == [True]
    with pytest.raises(ValueError):
        tags[0] = False
    assert search_cycle(arr, 0, 0, "CAG").tolist() == [True]


def test_array_is_reusable_across_blocks_in_any_order():
    arr = load_text("CAG" * 10, rows=4, data_width=8, pattern_len=3, blocks=2)
    first = [run_block_search(arr, b, "CAG") for b in (0, 1)]
    second = [run_block_search(arr, b, "CAG") for b in (1, 0)]
    assert np.array_equal(first[0], second[1])
    assert np.array_equal(first[1], second[0])
