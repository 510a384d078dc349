"""1T1R match-index memory whose operations are its access modes.

The memory records, per search cycle, which rows of the active block matched
(LRS = recorded match, HRS = no match).  Access order is part of the
contract: columns are written one per cycle in ascending order, all rows in
parallel, at the column a counter selects, the only column index (the
simulator takes a write phase's W cycles in one call, metered as W), reads
stream the whole array row-major through an 8-cell parallel-in serial-out
stage, and reset clears everything in one cycle.
The operations drive the mode ring Idle -> Write -> Read -> Idle: a write
enters Write from Idle at column 0 or continues in Write, a read enters Read
from Write or reads again, and ``reset_all`` (the Reset phase's one cycle)
goes from Read to Idle.  Idle is reached only at construction and through
``reset_all``, so every write phase starts all-HRS.  Any other order raises
``ModeViolation``, and a refused call changes nothing.
"""

from __future__ import annotations

import enum
import math
from typing import Sequence

import numpy as np

PISO_WIDTH = 8


class Mode(enum.Enum):
    IDLE = "Idle"
    WRITE = "Write"
    READ = "Read"


_IDLE, _WRITE, _READ = Mode   # a member looked up on the class is slow


class ModeViolation(RuntimeError):
    def __init__(self, op: str, mode: Mode) -> None:
        super().__init__(f"{op} requires a different mode than {mode.value}")


class ColumnPastEnd(IndexError):
    """A write past the last column of the memory."""


class MatchIndexMemory:
    """m x n binary resistive array plus its access-mode ring."""

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError("memory must have at least one row and column")
        self.rows = rows
        self.cols = cols
        self.cells = np.zeros((rows, cols), dtype=bool)  # True = LRS
        self.mode = _IDLE
        self._next_col = 0

    def write_columns(self, tags: np.ndarray) -> None:
        """k write cycles in one call: SET the cells of the next k columns (the
        column selector is a counter) where the (m x k) ``tags`` are high.  Each
        column is written once per write phase, which starts all-HRS."""
        if self.mode is _READ:
            raise ModeViolation("write_columns", self.mode)
        rows, k = np.shape(tags)
        if rows != self.rows:
            raise ValueError(f"tag length {rows} != memory rows {self.rows}")
        end = self._next_col + k
        if end > self.cols:
            raise ColumnPastEnd(f"column {end - 1} is past the last column {self.cols - 1}")
        self.cells[:, self._next_col:end] = tags
        self._next_col = end
        self.mode = _WRITE

    def write_column(self, tag: Sequence[bool]) -> None:
        """One write cycle: ``write_columns`` of ``tag`` as the next column."""
        self.write_columns(np.reshape(tag, (-1, 1)))

    def read_all(self) -> np.ndarray:
        """Row-major bit stream, latched 8 columns at a time per row.

        The row selector only advances once every column group of the current
        row has been emitted, so the output order equals a plain row-major
        flattening.  Returns a fresh bool array of m*n bits, a copy, so a
        later ``reset_all`` leaves a stream already read unchanged.
        """
        if self.mode is _IDLE:
            raise ModeViolation("read_all", self.mode)
        self.mode = _READ
        return self.cells.flatten()

    def read_group_count(self) -> int:
        """Parallel-read latch operations needed for one full read."""
        return self.rows * math.ceil(self.cols / PISO_WIDTH)

    def reset_all(self) -> None:
        """RESET every cell to HRS in one clock cycle, back to Idle."""
        if self.mode is not _READ:
            raise ModeViolation("reset_all", self.mode)
        self.cells.fill(False)
        self._next_col = 0
        self.mode = _IDLE
