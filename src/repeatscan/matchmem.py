"""1T1R match-index memory with mode-sequenced access.

The memory records, per search cycle, which rows of the active block matched
(LRS = recorded match, HRS = no match).  Access order is part of the
contract: columns are written one per cycle in ascending order while all
rows fill in parallel, reads stream the whole array row-major through an
8-cell parallel-in serial-out stage, and reset clears everything in one
cycle.  Mode changes follow the fixed ring Idle -> Write -> Read -> Reset ->
Idle.
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
    RESET = "Reset"


_NEXT_MODE = {Mode.IDLE: Mode.WRITE, Mode.WRITE: Mode.READ,
              Mode.READ: Mode.RESET, Mode.RESET: Mode.IDLE}


class ModeViolation(RuntimeError):
    def __init__(self, op: str, mode: Mode) -> None:
        super().__init__(f"{op} requires a different mode than {mode.value}")


class IllegalTransition(RuntimeError):
    def __init__(self, old: Mode, new: Mode) -> None:
        super().__init__(f"illegal mode transition {old.value} -> {new.value}")


class MemoryNotReset(RuntimeError):
    def __init__(self) -> None:
        super().__init__("write phase entered with cells still SET; "
                         "the reset phase was passed without reset_all")


class OutOfOrderColumn(RuntimeError):
    def __init__(self, col: int, expected: int) -> None:
        super().__init__(f"column {col} written out of order (expected {expected})")


class MatchIndexMemory:
    """m x n binary resistive array plus its access-mode state machine."""

    def __init__(self, rows: int, cols: int, record_trace: bool = False):
        if rows < 1 or cols < 1:
            raise ValueError("memory must have at least one row and column")
        self.rows = rows
        self.cols = cols
        self.cells = np.zeros((rows, cols), dtype=bool)  # True = LRS
        self.mode = Mode.IDLE
        self.trace: list[str] | None = [] if record_trace else None
        self._next_col = 0

    def set_mode(self, mode: Mode) -> None:
        if _NEXT_MODE[self.mode] is not mode:
            raise IllegalTransition(self.mode, mode)
        if mode is Mode.WRITE and self.cells.any():
            raise MemoryNotReset()
        if self.trace is not None:
            self.trace.append(f"mode,{self.mode.value}->{mode.value}")
        self.mode = mode
        if mode is Mode.WRITE:
            self._next_col = 0

    def write_column(self, col: int, tag: Sequence[bool]) -> None:
        """SET the cells of one column where the tag is high.

        Columns must be written in ascending order (the column selector is a
        counter), so each column is written once per write phase, and the
        write phase starts from an all-HRS array (see set_mode).
        """
        if self.mode is not Mode.WRITE:
            raise ModeViolation("write_column", self.mode)
        if col != self._next_col:
            raise OutOfOrderColumn(col, self._next_col)
        if len(tag) != self.rows:
            raise ValueError(f"tag length {len(tag)} != memory rows {self.rows}")
        self.cells[:, col] = tag
        self._next_col += 1
        if self.trace is not None:
            bits = "".join("1" if b else "0" for b in tag)
            self.trace.append(f"write,col={col},tag={bits}")

    def read_all(self) -> np.ndarray:
        """Row-major bit stream, latched 8 columns at a time per row.

        The row selector only advances once every column group of the current
        row has been emitted, so the output order equals a plain row-major
        flattening.  Returns a fresh uint8 array of m*n bits, a copy, so a
        later ``reset_all`` leaves a stream already read unchanged.
        """
        if self.mode is not Mode.READ:
            raise ModeViolation("read_all", self.mode)
        return self.cells.reshape(-1).astype(np.uint8)

    def read_group_count(self) -> int:
        """Parallel-read latch operations needed for one full read."""
        return self.rows * math.ceil(self.cols / PISO_WIDTH)

    def reset_all(self) -> None:
        """RESET every cell to HRS; takes one clock cycle."""
        if self.mode is not Mode.RESET:
            raise ModeViolation("reset_all", self.mode)
        self.cells[:] = False
