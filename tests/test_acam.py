from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeatscan import acam, seqio
from repeatscan.acam import (CHAR_CELLS, DONT_CARE, MM_CELL, GeometryError, TextTooLong,
                             cell_matches, drive_for, load_text, run_block_search,
                             search_cycle)
from repeatscan.costmodel import TimingParams
from repeatscan.seqio import parse_pattern, parse_text

CHARS = "ACGT"


def geometry(rows: int, width: int, p: int, blocks: int) -> TimingParams:
    """An M x (W + p - 1) array of B blocks."""
    return TimingParams(rows=rows, data_width=width, pattern_len=p, blocks=blocks)


def cells(arr: acam.AcamArray) -> list[list[acam.CellContent]]:
    """The stored state of every cell, decoded from its code."""
    return [[acam.STATES[c] for c in row] for row in arr.codes.tolist()]


def brute_occurrences(text: str, pattern: str) -> set[int]:
    """Independent oracle: 0-based start positions of exact occurrences."""
    p = len(pattern)
    return {q for q in range(len(text) - p + 1) if text[q:q + p] == pattern}


def test_encoding_table_values():
    a = CHAR_CELLS["A"]
    assert (a.r_lb_kohm, a.r_ub_kohm) == (2500.0, 186.32)
    assert (a.interval.lower, a.interval.upper) == (Decimal("0.19"), Decimal("0.31"))
    t = CHAR_CELLS["T"]
    assert (t.r_lb_kohm, t.r_ub_kohm) == (8.9, 5.06)
    assert (t.interval.lower, t.interval.upper) == (Decimal("0.63"), Decimal("0.79"))
    g = CHAR_CELLS["G"]
    assert (g.interval.lower, g.interval.upper) == (Decimal("0.46"), Decimal("0.59"))
    c = CHAR_CELLS["C"]
    assert (c.r_lb_kohm, c.r_ub_kohm) == (163.3, 27.6)


def test_mm_cell_is_inverted_and_borrows_resistances():
    assert MM_CELL.interval.lower > MM_CELL.interval.upper
    assert MM_CELL.r_lb_kohm == CHAR_CELLS["T"].r_ub_kohm
    assert MM_CELL.r_ub_kohm == CHAR_CELLS["A"].r_lb_kohm


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


def test_match_matrix_exhaustive():
    # Stored character vs searched character: identity matrix; don't-care
    # matches everything; MM mismatches every character drive but matches
    # don't-care.
    for stored in CHARS:
        for searched in CHARS:
            expected = stored == searched
            assert cell_matches(CHAR_CELLS[stored], drive_for(searched)) == expected
        assert cell_matches(CHAR_CELLS[stored], DONT_CARE)
    for searched in CHARS:
        assert not cell_matches(MM_CELL, drive_for(searched))
    assert cell_matches(MM_CELL, DONT_CARE)


def test_cell_match_examples():
    assert cell_matches(CHAR_CELLS["C"], drive_for("C"))
    assert not cell_matches(CHAR_CELLS["A"], drive_for("G"))
    assert not cell_matches(MM_CELL, drive_for("A"))


def test_load_text_layout():
    arr = load_text(parse_text("CAGCA"), geometry(2, 4, 3, 1))
    kinds = [[c.kind for c in row] for row in cells(arr)]
    assert kinds[0] == ["C", "A", "G", "C", "A", "MM"]
    assert kinds[1] == ["A", "MM", "MM", "MM", "MM", "MM"]
    assert arr.total_cols == 6


def test_load_text_full_array_has_no_mm_in_data_columns():
    arr = load_text(parse_text("ACGTACGTTGCATGCA"), geometry(2, 8, 3, 1))
    for row in cells(arr):
        assert all(c.kind != "MM" for c in row[:8])
    # the first row's replicated columns copy the second row's first cells
    assert [c.kind for c in cells(arr)[0][8:]] == ["T", "G"]
    # last row replicates MM
    assert [c.kind for c in cells(arr)[1][8:]] == ["MM", "MM"]


def test_load_text_pattern_len_one_has_no_replication():
    arr = load_text(parse_text("ACGT"), geometry(2, 2, 1, 1))
    assert arr.total_cols == 2


def test_array_copies_a_writeable_array_and_keeps_a_read_only_one():
    # the memo is only valid while the codes cannot change under it
    codes = np.zeros((2, 6), dtype=np.uint8)
    arr = acam.AcamArray(geometry(2, 4, 3, 1), codes)
    assert codes.flags.writeable and not arr.codes.flags.writeable
    codes[0, 0] = 1
    assert arr.codes[0, 0] == 0
    codes.flags.writeable = False
    assert acam.AcamArray(geometry(2, 4, 3, 1), codes).codes is codes


@pytest.mark.parametrize("shape", [(4, 6), (16, 6), (8, 9)])
def test_array_refuses_codes_not_of_its_geometry(shape):
    # short, tall and wide against M = 8 and W + p - 1 = 6
    with pytest.raises(GeometryError, match=rf"^codes of shape \({shape[0]}, {shape[1]}\) "
                                             r"are not the geometry's \(8, 6\)$"):
        acam.AcamArray(geometry(8, 4, 3, 2), np.zeros(shape, dtype=np.uint8))


def test_load_text_errors():
    with pytest.raises(TextTooLong):
        load_text(parse_text("A" * 9), geometry(2, 4, 2, 1))


def test_search_cycle_window_bounds():
    arr = load_text(parse_text("CAGCAG"), geometry(2, 4, 3, 1))
    with pytest.raises(IndexError, match=r"^window 4 outside \[0, 4\)$"):
        search_cycle(arr, 0, 4, parse_pattern("CAG"))
    with pytest.raises(acam.GeometryError):
        search_cycle(arr, 2, 0, parse_pattern("CAG"))
    with pytest.raises(acam.GeometryError):
        search_cycle(arr, 0, 0, parse_pattern("CA"))


def test_search_cycle_single_character_pattern():
    arr = load_text(parse_text("ACGT"), geometry(1, 4, 1, 1))
    assert search_cycle(arr, 0, 0, parse_pattern("A")) == b"\x01"
    assert search_cycle(arr, 0, 1, parse_pattern("A")) == b"\x00"


def test_window_over_mm_cells_never_matches():
    arr = load_text(parse_text("CA"), geometry(2, 4, 3, 1))
    # windows covering MM padding in row 0 and the all-MM row 1
    matrix = run_block_search(arr, 0, parse_pattern("CAG"))
    assert not matrix[1].any()
    assert not matrix[0][1:].any()


def test_block_isolation_and_row_straddling():
    # row 0 ends ...C,A and row 1 begins G: the replicated cells complete the
    # pattern at the second-to-last window of row 0
    arr = load_text(parse_text("TTCAGAGTT"), geometry(4, 4, 3, 2))
    m0 = run_block_search(arr, 0, parse_pattern("CAG"))
    assert m0[0].tolist() == [False, False, True, False]
    m1 = run_block_search(arr, 1, parse_pattern("CAG"))
    assert not m1.any()


def test_run_block_search_issues_w_cycles():
    arr = load_text(parse_text("CAGCAGTT"), geometry(2, 8, 3, 1))
    matrix = run_block_search(arr, 0, parse_pattern("CAG"))
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
    arr = load_text(parse_text(text), geometry(rows, width, p, blocks))
    expected = brute_occurrences(text, pattern)
    for b in range(blocks):
        matrix = run_block_search(arr, b, parse_pattern(pattern))
        for r in range(arr.geometry.mem_rows):
            for i in range(width):
                pos = (b * arr.geometry.mem_rows + r) * width + i
                assert matrix[r][i] == (pos in expected)


@st.composite
def text_at_a_boundary(draw):
    """Tandem copies of the pattern across the end of the first row, the
    first block or the whole array, in random bases.  The text ends at or
    just short of that end (MM padding, and MM replication columns after the
    last row) or runs on across it."""
    p = draw(st.integers(1, 4))
    width = draw(st.integers(max(p, 2), 12))
    rows_per_block = draw(st.integers(1, 4))
    blocks = draw(st.integers(1, 3))
    rows = rows_per_block * blocks
    pattern = draw(st.text(alphabet=CHARS, min_size=p, max_size=p))
    boundary = width * draw(st.sampled_from(sorted({1, rows_per_block, rows})))
    length = draw(st.one_of(st.integers(max(1, boundary - p), boundary),
                            st.integers(boundary, rows * width)))
    text = draw(st.text(alphabet=CHARS, min_size=length, max_size=length))
    start = max(0, boundary - 3 * p - draw(st.integers(0, p)))
    text = (text[:start] + pattern * 6 + text[start + 6 * p:])[:length]
    return text, pattern, rows, width, p, blocks


@given(text_at_a_boundary())
@settings(max_examples=200, deadline=None)
def test_block_search_is_a_row_slice_of_one_array_wide_match_grid(case):
    # the tags of block b are rows b*m..(b+1)*m of AND_k(codes[:, k:k+W] ==
    # code(pattern[k])) over the whole array, so the blocks' read-outs in
    # order are that grid's row-major flattening
    text, pattern, rows, width, p, blocks = case
    arr = load_text(parse_text(text), geometry(rows, width, p, blocks))
    grid = np.ones((rows, width), dtype=bool)
    for k, c in enumerate(pattern):
        grid &= arr.codes[:, k:k + width] == seqio.ALPHABET.index(c)
    m = arr.geometry.mem_rows
    for b in range(blocks):
        assert np.array_equal(run_block_search(arr, b, parse_pattern(pattern)),
                              grid[b * m:(b + 1) * m])
    # the grid itself: a tag is set exactly where the text holds the pattern
    assert set(np.flatnonzero(grid)) == brute_occurrences(text, pattern)


@given(text_at_a_boundary(), st.data())
@settings(max_examples=200, deadline=None)
def test_range_fill_equals_a_fresh_array_searched_window_by_window(case, data):
    # one fill of blocks [first, stop), in passes of 1..B blocks, stores for
    # each block of the range (the last block of the array, with its MM
    # replication cells, among them) the tags of a window-by-window search,
    # and no other block
    text, pattern, rows, width, p, blocks = case
    first = data.draw(st.integers(0, blocks - 1))
    stop = data.draw(st.one_of(st.just(blocks), st.integers(first + 1, blocks)))
    arr = load_text(parse_text(text), geometry(rows, width, p, blocks))
    seq = parse_pattern(pattern)
    with pytest.MonkeyPatch.context() as mp:
        pass_blocks = data.draw(st.integers(1, blocks))
        mp.setattr(acam, "FILL_CELLS", pass_blocks * arr.geometry.mem_rows * arr.total_cols)
        entries = acam.fill_blocks(arr, seq, first, stop)
    assert entries is arr._tags[seq.codes] and sorted(entries) == list(range(first, stop))
    fresh = load_text(parse_text(text), geometry(rows, width, p, blocks))
    for b in range(first, stop):
        assert entries[b] == [search_cycle(fresh, b, i, seq) for i in range(width)]


@given(text_at_a_boundary(), st.data())
@settings(max_examples=50, deadline=None)
def test_range_fill_refuses_a_bad_range_or_pattern_and_stores_nothing(case, data):
    text, pattern, rows, width, p, blocks = case
    arr = load_text(parse_text(text), geometry(rows, width, p, blocks))
    first, stop = data.draw(st.sampled_from([
        (0, 0), (blocks - 1, blocks - 1), (blocks, blocks), (1, 0), (-1, 1),
        (0, blocks + 1), (blocks, blocks + 1)]))
    with pytest.raises(acam.GeometryError):
        acam.fill_blocks(arr, parse_pattern(pattern), first, stop)
    wrong = data.draw(st.text(alphabet=CHARS, min_size=1, max_size=5).filter(
        lambda s: len(s) != p))
    with pytest.raises(acam.GeometryError):
        acam.fill_blocks(arr, parse_pattern(wrong), 0, blocks)
    assert arr._tags == {}


@given(text_and_geometry(), st.data())
@settings(max_examples=100, deadline=None)
def test_dont_care_columns_never_affect_tags(case, data):
    # flipping the stored content of any cell outside the driven window
    # leaves every tag unchanged
    text, pattern, rows, width, p, blocks = case
    arr = load_text(parse_text(text), geometry(rows, width, p, blocks))
    window = data.draw(st.integers(0, width - 1))
    block = data.draw(st.integers(0, blocks - 1))
    row = data.draw(st.integers(0, rows - 1))
    outside = [c for c in range(arr.total_cols) if not window <= c < window + p]
    if not outside:
        return
    col = data.draw(st.sampled_from(outside))
    before = search_cycle(arr, block, window, parse_pattern(pattern))

    replacement = data.draw(st.sampled_from(list(CHARS) + ["MM"]))
    codes = arr.codes.copy()
    codes[row, col] = acam.STATES.index(
        MM_CELL if replacement == "MM" else CHAR_CELLS[replacement])
    mutated = acam.AcamArray(geometry(rows, width, p, blocks), codes)
    after = search_cycle(mutated, block, window, parse_pattern(pattern))
    assert before == after


@given(text_and_geometry())
@settings(max_examples=100, deadline=None)
def test_vectorized_search_agrees_with_cell_matches(case):
    # the fast path compares only the driven columns; it must equal the
    # per-cell Decimal semantics over the whole row, don't-care columns included
    text, pattern, rows, width, p, blocks = case
    arr = load_text(parse_text(text), geometry(rows, width, p, blocks))
    stored = cells(arr)
    for b in range(blocks):
        for window in range(width):
            tags = search_cycle(arr, b, window, parse_pattern(pattern))
            drives = [drive_for(None)] * arr.total_cols
            for k, ch in enumerate(pattern):
                drives[window + k] = drive_for(ch)
            for r, tag in enumerate(tags):
                row = stored[b * arr.geometry.mem_rows + r]
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
    arr = load_text(parse_text(text), geometry(rows, width, p, blocks))
    assert [[c.kind for c in row] for row in cells(arr)] == expected


@given(text_and_geometry(), st.data())
@settings(max_examples=100, deadline=None)
def test_memoised_tags_equal_a_fresh_array_for_interleaved_searches(case, data):
    # two patterns searched on one array, block by block and window by
    # window in random order: a memo keyed without the pattern or the block
    # would hand back another search's tags
    text, pattern, rows, width, p, blocks = case
    other = data.draw(st.text(alphabet=CHARS, min_size=p, max_size=p))
    arr = load_text(parse_text(text), geometry(rows, width, p, blocks))
    searches = [(pat, b, i) for pat in (pattern, other)
                for b in range(blocks) for i in range(width)]
    for pat, b, i in data.draw(st.permutations(searches)):
        fresh = load_text(parse_text(text), geometry(rows, width, p, blocks))
        seq = parse_pattern(pat)
        assert search_cycle(arr, b, i, seq) == search_cycle(fresh, b, i, seq)


def test_search_cycle_tags_are_read_only():
    arr = load_text(parse_text("CAGCAGTT"), geometry(2, 8, 3, 2))
    tags = search_cycle(arr, 0, 0, parse_pattern("CAG"))
    assert tags == b"\x01"
    with pytest.raises(TypeError):
        tags[0] = 0
    assert search_cycle(arr, 0, 0, parse_pattern("CAG")) == b"\x01"


def test_search_cycle_checks_every_key_once_the_memo_is_warm():
    # the pattern is checked where its grid is filled and the block where its
    # tags are split from the grid, so a key that failed either is never
    # stored and is checked again on every call, also once the grid is filled
    arr = load_text(parse_text("CAGCAG"), geometry(2, 4, 3, 1))
    assert search_cycle(arr, 0, 0, parse_pattern("CAG")) == b"\x01\x00"
    for _ in range(2):
        for block in (1, -1):  # CAG's grid is filled, these blocks never are
            with pytest.raises(acam.GeometryError):
                search_cycle(arr, block, 0, parse_pattern("CAG"))
        with pytest.raises(acam.GeometryError):  # a second pattern, too short
            search_cycle(arr, 0, 0, parse_pattern("CA"))
        for window in (4, -1):  # a negative index would wrap into the memo
            with pytest.raises(IndexError, match=rf"^window {window} outside \[0, 4\)$"):
                search_cycle(arr, 0, window, parse_pattern("CAG"))


def test_search_cycle_keeps_the_trailing_no_match_rows_of_a_block():
    # every window's tags are m bytes, the block's no-match rows at the end
    # included as b"\x00"; compared with ==, since numpy's string compare
    # ignores trailing NULs
    arr = load_text(parse_text("CAGTTTTT"), geometry(6, 4, 3, 2))  # rows 2..5 hold MM
    assert search_cycle(arr, 0, 0, parse_pattern("CAG")) == b"\x01\x00\x00"
    assert search_cycle(arr, 0, 1, parse_pattern("CAG")) == b"\x00\x00\x00"
    assert search_cycle(arr, 0, 1, parse_pattern("TTT")) == b"\x00\x01\x00"
    assert search_cycle(arr, 1, 0, parse_pattern("TTT")) == b"\x00\x00\x00"


def test_array_is_reusable_across_blocks_in_any_order():
    arr = load_text(parse_text("CAG" * 10), geometry(4, 8, 3, 2))
    first = [run_block_search(arr, b, parse_pattern("CAG")) for b in (0, 1)]
    second = [run_block_search(arr, b, parse_pattern("CAG")) for b in (1, 0)]
    assert np.array_equal(first[0], second[1])
    assert np.array_equal(first[1], second[0])
