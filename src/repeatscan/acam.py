"""Behavioral model of the analog CAM array.

Each cell stores a voltage interval [LB, UB]; a search drives the cell's two
data lines and the cell matches when V_LDL >= LB and V_UDL <= UB.  Character
cells use the four fixed intervals below, the dummy MM cell stores an
inverted interval that mismatches every character drive, and a deactivated
(don't-care) column is driven with (V_DD, 0) so it matches any content.

The single-cell semantics (``cell_matches``) compare exact two-decimal
Decimal voltages, so interval endpoints behave exactly (endpoint membership
is inclusive); it is the reference the array model is checked against.  The
array itself stores one uint8 code per cell (A, C, G, T, MM = 0..4).  Each
character's midpoint drive lies inside its own character's interval and no
other, and inside no MM interval, so a driven cell matches exactly when its
code equals the searched character's code; the array searches by that
equality, which is asserted against ``cell_matches`` at import.

The stored cells never change after loading, so the tags of a search depend
only on the pattern, the block and the window.  The first search cycle of a
block evaluates all W windows of that block in one broadcast and memoises the
result per ``(pattern, block)``; each search cycle then reads its window's
tags from that memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .seqio import ALPHABET, DnaSequence, Pattern, encode

V_DD = Decimal("0.80")

MM = "MM"
DONT_CARE_KIND = "*"


class GeometryError(ValueError):
    """Array geometry constraint violated."""


class TextTooLong(GeometryError):
    def __init__(self, length: int, capacity: int) -> None:
        super().__init__(f"text of {length} characters exceeds array capacity {capacity}")


class PatternTooLong(GeometryError):
    def __init__(self, p: int, width: int) -> None:
        super().__init__(f"pattern length {p} exceeds data width {width}")


class WindowOutOfRange(IndexError):
    def __init__(self, window: int, width: int) -> None:
        super().__init__(f"window {window} outside [0, {width})")


@dataclass(frozen=True)
class MatchInterval:
    lower: Decimal
    upper: Decimal


@dataclass(frozen=True)
class CellContent:
    """Stored cell state: the character (or MM) with its interval and resistances."""

    kind: str
    interval: MatchInterval
    r_lb_kohm: float
    r_ub_kohm: float


@dataclass(frozen=True)
class SearchDrive:
    """Per-column data-line drive for one search cycle."""

    kind: str
    v_ldl: Decimal
    v_udl: Decimal


def _interval(lo: str, hi: str) -> MatchInterval:
    return MatchInterval(Decimal(lo), Decimal(hi))


# Character encoding: programmed resistance pair and the resulting interval.
CHAR_CELLS: dict[str, CellContent] = {
    "A": CellContent("A", _interval("0.19", "0.31"), 2500.0, 186.32),
    "C": CellContent("C", _interval("0.32", "0.44"), 163.3, 27.6),
    "G": CellContent("G", _interval("0.46", "0.59"), 24.9, 9.69),
    "T": CellContent("T", _interval("0.63", "0.79"), 8.9, 5.06),
}

# Dummy cell: R_LB takes the last interval's R_UB and vice versa, producing an
# inverted interval (LB > UB) that no character drive can satisfy.
MM_CELL = CellContent(MM, _interval("0.79", "0.19"), 5.06, 2500.0)

# Midpoint drive voltage applied to both data lines when searching a character.
SEARCH_MIDPOINTS: dict[str, Decimal] = {
    "A": Decimal("0.25"),
    "C": Decimal("0.38"),
    "G": Decimal("0.53"),
    "T": Decimal("0.71"),
}

DONT_CARE = SearchDrive(DONT_CARE_KIND, V_DD, Decimal("0.00"))


def encode_char(c: str) -> CellContent:
    """Cell content for one nucleotide character."""
    try:
        return CHAR_CELLS[c]
    except KeyError:
        raise ValueError(f"no encoding for character {c!r}") from None


def drive_for(c: str | None) -> SearchDrive:
    """Data-line drive for searching character ``c``; None (or '*') deactivates."""
    if c is None or c == DONT_CARE_KIND:
        return DONT_CARE
    try:
        mid = SEARCH_MIDPOINTS[c]
    except KeyError:
        raise ValueError(f"no search drive for character {c!r}") from None
    return SearchDrive(c, mid, mid)


def cell_matches(cell: CellContent, drive: SearchDrive) -> bool:
    """Single-cell match: the lower subcircuit mismatches when V_LDL < LB,
    the upper one when V_UDL > UB."""
    return drive.v_ldl >= cell.interval.lower and drive.v_udl <= cell.interval.upper


# Stored states by code; ``AcamArray.codes`` indexes this tuple.
# The character states come in ``ALPHABET`` order, so the codes
# ``seqio.encode`` gives index this tuple directly.
STATES: tuple[CellContent, ...] = (*(CHAR_CELLS[c] for c in ALPHABET), MM_CELL)
MM_CODE = STATES.index(MM_CELL)
_CODE_OF_CHAR = {c: code for code, c in enumerate(ALPHABET)}

# search_cycle compares only the driven columns, and compares their codes;
# that is exact because a don't-care drive matches every stored state and a
# character's drive matches the state of that character and of no other.
assert all(cell_matches(cell, DONT_CARE) for cell in STATES)
assert all(cell_matches(cell, drive_for(c)) == (code == _CODE_OF_CHAR[c])
           for c in SEARCH_MIDPOINTS for code, cell in enumerate(STATES))


class AcamArray:
    """M x (W + p - 1) grid of cells, split into B equal row blocks.

    Columns 0..W-1 hold text data; the trailing p-1 columns of row i replicate
    the first p-1 data cells of row i+1 so a pattern window can straddle a row
    boundary.  The last row replicates MM, and data cells past the end of the
    text also hold MM.

    ``codes`` is the array's only representation of the stored cells: one
    uint8 per cell, indexing ``STATES``.  The array keeps a read-only copy,
    so search results are memoised per ``(pattern, block)`` (see
    ``search_cycle``).
    """

    def __init__(self, rows: int, data_width: int, pattern_len: int, blocks: int,
                 codes: np.ndarray):
        if rows % blocks != 0:
            raise GeometryError(f"rows {rows} not divisible into {blocks} blocks")
        self.rows = rows
        self.data_width = data_width
        self.pattern_len = pattern_len
        self.blocks = blocks
        self.codes = codes.astype(np.uint8)
        self.codes.flags.writeable = False
        self._tags: dict[tuple[str, int], np.ndarray] = {}

    @property
    def total_cols(self) -> int:
        return self.data_width + self.pattern_len - 1

    @property
    def rows_per_block(self) -> int:
        return self.rows // self.blocks

    @property
    def cells(self) -> tuple[tuple[CellContent, ...], ...]:
        """The stored state of every cell, decoded from ``codes``."""
        return tuple(tuple(STATES[c] for c in row) for row in self.codes.tolist())


def load_text(text: DnaSequence | str, rows: int, data_width: int,
              pattern_len: int, blocks: int) -> AcamArray:
    """Load DNA text row by row and fill the replication columns.

    Row i receives text[i*W : (i+1)*W]; the final partial row and any rows
    past the text hold MM in the unused data cells.  The data cells hold
    ``seqio.encode``'s codes, those a ``DnaSequence`` keeps, so a symbol
    outside the alphabet raises InvalidCharacter.
    """
    symbols = str(text)
    if pattern_len < 1:
        raise GeometryError("pattern length must be at least 1")
    if pattern_len > data_width:
        raise PatternTooLong(pattern_len, data_width)
    capacity = rows * data_width
    if len(symbols) > capacity:
        raise TextTooLong(len(symbols), capacity)

    codes = np.frombuffer(text.codes if isinstance(text, DnaSequence) else encode(symbols),
                          dtype=np.uint8)
    # one spare all-MM row supplies the last row's replication columns
    data = np.full((rows + 1) * data_width, MM_CODE, dtype=np.uint8)
    data[:len(codes)] = codes
    data = data.reshape(rows + 1, data_width)
    grid = np.hstack([data[:rows], data[1:, :pattern_len - 1]])
    return AcamArray(rows, data_width, pattern_len, blocks, grid)


def search_cycle(array: AcamArray, block: int, window: int,
                 pattern: Pattern | str) -> np.ndarray:
    """One search cycle: drive columns window..window+p-1 with the pattern,
    everything else don't-care, and AND each row of the selected block.

    Only the selected block produces tags; other blocks stay deactivated.
    Returns the block's m tags as a read-only bool array, a view into the
    array's memo of this block's search (filled by the block's first cycle).
    """
    pat = str(pattern)
    if len(pat) != array.pattern_len:
        raise GeometryError(
            f"pattern length {len(pat)} does not match array pattern length {array.pattern_len}")
    if not 0 <= block < array.blocks:
        raise GeometryError(f"block {block} outside [0, {array.blocks})")
    if not 0 <= window < array.data_width:
        raise WindowOutOfRange(window, array.data_width)

    tags = array._tags.get((pat, block))
    if tags is None:
        tags = array._tags[pat, block] = _search_block(array, block, pat)
    return tags[window]


def _search_block(array: AcamArray, block: int, pattern: str) -> np.ndarray:
    """Tags of every window of one block in one broadcast, as a read-only
    (W, m) array whose row i holds window i's tags.

    Window i drives columns i..i+p-1, so pattern character k meets the column
    slice k..k+W-1 of the block: p shifted compares replace W search cycles.
    """
    r0 = block * array.rows_per_block
    rows = slice(r0, r0 + array.rows_per_block)
    width = array.data_width
    matched = np.ones((array.rows_per_block, width), dtype=bool)
    for k, c in enumerate(pattern):
        matched &= array.codes[rows, k:k + width] == _CODE_OF_CHAR[c]
    tags = np.ascontiguousarray(matched.T)
    tags.flags.writeable = False
    return tags


def run_block_search(array: AcamArray, block: int,
                     pattern: Pattern | str) -> np.ndarray:
    """All W windows over one block; entry (row, i) is the tag of window i.

    Issues exactly W search cycles.
    """
    m = array.rows_per_block
    out = np.zeros((m, array.data_width), dtype=bool)
    for i in range(array.data_width):
        out[:, i] = search_cycle(array, block, i, pattern)
    return out
