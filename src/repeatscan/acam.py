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

The array's shape is a ``TimingParams``, which checks it; the array checks
that its codes have it, the text's length and each search cycle's arguments.

The stored cells never change after loading, so a block's tags are its m
rows of the match grid ``AND_k(codes[:, k:k+W] == pattern.codes[k])``.  A
scan fills each run of searched blocks once (``fill_blocks``, from their rows
only, in cache-sized passes), as W immutable ``bytes`` of m tags per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .costmodel import TimingParams
from .seqio import ALPHABET, DnaSequence, Pattern

V_DD = Decimal("0.80")

MM = "MM"
DONT_CARE_KIND = "*"
FILL_CELLS = 1 << 17    # cells per fill pass: 15 default blocks, and stays in cache


class GeometryError(ValueError):
    """Array geometry constraint violated."""


class TextTooLong(GeometryError):
    def __init__(self, length: int, capacity: int) -> None:
        super().__init__(f"text of {length} characters exceeds array capacity {capacity}")


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
# The character states come in ``ALPHABET`` order, so a ``DnaSequence``'s
# codes index this tuple directly.
STATES: tuple[CellContent, ...] = (*(CHAR_CELLS[c] for c in ALPHABET), MM_CELL)
MM_CODE = STATES.index(MM_CELL)

# search_cycle compares only the driven columns, and compares their codes;
# that is exact because a don't-care drive matches every stored state and a
# character's drive matches the state of that character and of no other.
assert all(cell_matches(cell, DONT_CARE) for cell in STATES)
assert all(cell_matches(cell, drive_for(c)) == (code == ALPHABET.index(c))
           for c in SEARCH_MIDPOINTS for code, cell in enumerate(STATES))


class AcamArray:
    """M x (W + p - 1) grid of cells, split into B equal row blocks; M, W,
    p and B come from ``geometry``.

    Columns 0..W-1 hold text data; the trailing p-1 columns of row i replicate
    the first p-1 data cells of row i+1 so a pattern window can straddle a row
    boundary.  The last row replicates MM, and data cells past the end of the
    text also hold MM.

    ``codes`` is the array's only representation of the stored cells: one
    uint8 per cell, indexing ``STATES``.  A writeable array is copied and a
    read-only one (``load_text``'s) kept, so no caller changes the codes under
    the memo: pattern codes -> block -> W tag ``bytes`` (see ``fill_blocks``).
    """

    def __init__(self, geometry: TimingParams, codes: np.ndarray):
        shape = (geometry.rows, geometry.data_width + geometry.pattern_len - 1)
        if codes.shape != shape:
            raise GeometryError(f"codes of shape {codes.shape} are not the geometry's {shape}")
        self.geometry = geometry
        self.codes = codes.astype(np.uint8, copy=codes.flags.writeable)
        self.codes.flags.writeable = False
        self.rows, self.total_cols = shape
        self.data_width = geometry.data_width
        self._tags: dict[bytes, dict[int, list[bytes]]] = {}


def load_text(text: DnaSequence, geometry: TimingParams) -> AcamArray:
    """Load DNA text row by row and fill the replication columns.

    Row i receives text[i*W : (i+1)*W]; unused data cells and the last row's
    replication columns hold MM.  One allocation, then one copy each for the
    whole rows, the partial row and the replication columns.
    """
    rows, width, p = geometry.rows, geometry.data_width, geometry.pattern_len
    if len(text) > rows * width:
        raise TextTooLong(len(text), rows * width)
    codes = np.frombuffer(text.codes, dtype=np.uint8)
    full, part = divmod(len(codes), width)
    grid = np.full((rows, width + p - 1), MM_CODE, dtype=np.uint8)
    grid[:full, :width] = codes[:full * width].reshape(full, width)
    grid[full:full + 1, :part] = codes[full * width:]   # empty past the last row
    grid[:-1, width:] = grid[1:, :p - 1]
    grid.flags.writeable = False
    return AcamArray(geometry, grid)


def search_cycle(array: AcamArray, block: int, window: int,
                 pattern: Pattern) -> bytes:
    """One search cycle: drive columns window..window+p-1 with the pattern,
    everything else don't-care, and AND each row of the selected block.

    Only the selected block produces tags; other blocks stay deactivated.
    Returns the block's m tags as immutable bytes, one per row, 1 where the
    row matched and 0 elsewhere, from the memo ``fill_blocks`` stores.  The
    pattern and block are checked at the fill, the window every cycle.
    """
    if not 0 <= window < array.data_width:
        raise IndexError(f"window {window} outside [0, {array.data_width})")
    # keyed by the codes: the dataclass would hash them again on every call
    try:
        return array._tags[pattern.codes][block][window]
    except KeyError:
        return fill_blocks(array, pattern, block, block + 1)[block][window]


def fill_blocks(array: AcamArray, pattern: Pattern, lo: int, hi: int) -> dict[int, list[bytes]]:
    """Store the memo entries of blocks lo..hi-1, window i's m tags as bytes i,
    and return the pattern's.  Window i drives columns i..i+p-1, so pattern
    character k meets rows k..k+W-1 of a pass's transposed block rows."""
    geometry = array.geometry
    if len(pattern) != geometry.pattern_len:
        raise GeometryError(f"pattern length {len(pattern)} does not match array "
                            f"pattern length {geometry.pattern_len}")
    if not 0 <= lo < hi <= geometry.blocks:
        raise GeometryError(f"blocks [{lo}, {hi}) not a range in [0, {geometry.blocks})")
    codes, width, m = pattern.codes, geometry.data_width, geometry.mem_rows
    entries = array._tags.setdefault(codes, {})
    step = max(1, FILL_CELLS // (m * array.total_cols))
    for first in range(lo, hi, step):
        stop = min(first + step, hi)
        cols = np.ascontiguousarray(array.codes[first * m:stop * m].T)
        hits = cols[:width] == codes[0]
        for k in range(1, len(codes)):
            hits &= cols[k:k + width] == codes[k]
        # m-byte voids, unlike ``S{m}``, keep the trailing zeros of no-match rows
        entries.update(zip(range(first, stop), hits.view(f"V{m}").T.tolist()))
    return entries


def run_block_search(array: AcamArray, block: int,
                     pattern: Pattern) -> np.ndarray:
    """The scan's search of one block: its W search cycles' tags joined into
    one buffer and read back as the block's rows of the pattern's match grid,
    a read-only (m, W) bool matrix, ``MatchIndexMemory.write_columns``'s input."""
    width = array.data_width
    tags = b"".join([search_cycle(array, block, i, pattern) for i in range(width)])
    return np.frombuffer(tags, dtype=bool).reshape(width, -1).T
