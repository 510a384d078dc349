import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeatscan.matchmem import (IllegalTransition, MatchIndexMemory,
                                 MemoryNotReset, Mode, ModeViolation,
                                 OutOfOrderColumn)


def write_matrix(mem: MatchIndexMemory, matrix) -> None:
    mem.set_mode(Mode.WRITE)
    for col in range(mem.cols):
        mem.write_column(col, [bool(matrix[r][col]) for r in range(mem.rows)])


def full_cycle_read(mem: MatchIndexMemory, matrix) -> np.ndarray:
    write_matrix(mem, matrix)
    mem.set_mode(Mode.READ)
    bits = mem.read_all()
    mem.set_mode(Mode.RESET)
    mem.reset_all()
    mem.set_mode(Mode.IDLE)
    return bits


def test_write_column_sets_lrs():
    mem = MatchIndexMemory(3, 4)
    mem.set_mode(Mode.WRITE)
    mem.write_column(0, [True, False, True])
    assert mem.cells[:, 0].tolist() == [True, False, True]
    assert not mem.cells[:, 1:].any()


def test_all_zero_tag_leaves_column_hrs():
    mem = MatchIndexMemory(3, 4)
    mem.set_mode(Mode.WRITE)
    mem.write_column(0, [False, False, False])
    assert not mem.cells.any()


def test_out_of_order_column_rejected():
    mem = MatchIndexMemory(3, 4)
    mem.set_mode(Mode.WRITE)
    mem.write_column(0, [True, False, False])
    with pytest.raises(OutOfOrderColumn):
        mem.write_column(2, [True, False, False])


def test_tag_length_checked():
    mem = MatchIndexMemory(3, 4)
    mem.set_mode(Mode.WRITE)
    with pytest.raises(ValueError):
        mem.write_column(0, [True, False])


def test_mode_ring():
    mem = MatchIndexMemory(2, 2)
    mem.set_mode(Mode.WRITE)
    with pytest.raises(IllegalTransition):
        mem.set_mode(Mode.RESET)
    mem.set_mode(Mode.READ)
    mem.set_mode(Mode.RESET)
    mem.set_mode(Mode.IDLE)
    with pytest.raises(IllegalTransition):
        mem.set_mode(Mode.IDLE)


def test_operations_require_their_mode():
    mem = MatchIndexMemory(2, 2)
    with pytest.raises(ModeViolation):
        mem.write_column(0, [True, True])
    with pytest.raises(ModeViolation):
        mem.read_all()
    with pytest.raises(ModeViolation):
        mem.reset_all()
    mem.set_mode(Mode.WRITE)
    with pytest.raises(ModeViolation):
        mem.read_all()


def test_read_stream_is_row_major():
    mem = MatchIndexMemory(2, 8)
    row1 = [1, 0, 0, 0, 0, 0, 0, 0]
    row2 = [0, 0, 0, 0, 0, 0, 0, 1]
    bits = full_cycle_read(mem, [row1, row2])
    assert bits.dtype == np.uint8
    assert bits.tolist() == row1 + row2


def test_all_hrs_reads_zero_stream():
    mem = MatchIndexMemory(4, 6)
    mem.set_mode(Mode.WRITE)
    mem.set_mode(Mode.READ)
    bits = mem.read_all()
    assert bits.dtype == np.uint8
    assert bits.tolist() == [0] * 24


def test_group_count_64x128():
    mem = MatchIndexMemory(64, 128)
    assert mem.read_group_count() == 1024
    mem.set_mode(Mode.WRITE)
    mem.set_mode(Mode.READ)
    assert len(mem.read_all()) == 8192


def test_group_count_with_partial_final_group():
    assert MatchIndexMemory(4, 13).read_group_count() == 4 * 2
    mem = MatchIndexMemory(2, 13)
    matrix = [[(r + c) % 2 for c in range(13)] for r in range(2)]
    bits = full_cycle_read(mem, matrix)
    assert bits.dtype == np.uint8
    assert bits.tolist() == [b for row in matrix for b in row]


def test_reset_clears_everything_and_composes():
    mem = MatchIndexMemory(3, 5)
    write_matrix(mem, [[1] * 5] * 3)
    mem.set_mode(Mode.READ)
    assert sum(mem.read_all()) == 15
    mem.set_mode(Mode.RESET)
    mem.reset_all()
    assert not mem.cells.any()
    mem.set_mode(Mode.IDLE)
    mem.set_mode(Mode.WRITE)
    mem.set_mode(Mode.READ)
    bits = mem.read_all()
    assert bits.dtype == np.uint8
    assert bits.tolist() == [0] * 15


def test_stream_read_before_reset_is_unchanged_after_it():
    mem = MatchIndexMemory(2, 3)
    write_matrix(mem, [[1, 0, 1], [0, 1, 1]])
    mem.set_mode(Mode.READ)
    bits = mem.read_all()
    mem.set_mode(Mode.RESET)
    mem.reset_all()
    assert not mem.cells.any()
    assert bits.tolist() == [1, 0, 1, 0, 1, 1]


def test_reset_idempotent():
    mem = MatchIndexMemory(2, 2)
    mem.set_mode(Mode.WRITE)
    mem.set_mode(Mode.READ)
    mem.set_mode(Mode.RESET)
    mem.reset_all()
    mem.reset_all()
    assert not mem.cells.any()


def test_monotone_write_never_clears():
    # within one write phase each column is touched once, so an LRS cell can
    # only ever be set, never cleared
    mem = MatchIndexMemory(2, 3)
    mem.set_mode(Mode.WRITE)
    mem.write_column(0, [True, True])
    mem.write_column(1, [False, False])
    mem.write_column(2, [True, False])
    assert mem.cells[:, 0].all()


def memory_with_skipped_reset() -> MatchIndexMemory:
    mem = MatchIndexMemory(2, 3)
    mem.set_mode(Mode.WRITE)
    mem.write_column(0, [True, False])
    mem.set_mode(Mode.READ)
    mem.read_all()
    mem.set_mode(Mode.RESET)  # reset_all() skipped
    mem.set_mode(Mode.IDLE)
    return mem


def test_write_phase_after_skipped_reset_rejected():
    mem = memory_with_skipped_reset()
    with pytest.raises(MemoryNotReset):
        mem.set_mode(Mode.WRITE)
    assert mem.mode is Mode.IDLE
    assert mem.cells[:, 0].tolist() == [True, False]


def test_skipped_reset_rejected_under_python_optimize():
    # the guard is a typed error, not an assert, so it survives -O
    here = Path(__file__).resolve().parent
    script = ("from test_matchmem import *\n"
              "mem = memory_with_skipped_reset()\n"
              "try:\n    mem.set_mode(Mode.WRITE)\n"
              "except MemoryNotReset:\n    print('rejected')\n")
    path = os.pathsep.join([str(here), str(here.parent / "src")])
    done = subprocess.run([sys.executable, "-O", "-c", script], cwd=here,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "rejected\n"


@given(st.integers(1, 16), st.integers(1, 16), st.data())
@settings(max_examples=100, deadline=None)
def test_write_read_round_trip(rows, cols, data):
    matrix = [[data.draw(st.booleans()) for _ in range(cols)] for _ in range(rows)]
    mem = MatchIndexMemory(rows, cols)
    bits = full_cycle_read(mem, matrix)
    assert bits.dtype == np.uint8
    assert bits.tolist() == [int(b) for row in matrix for b in row]
    assert len(bits) == rows * cols


def test_random_round_trip_sweep():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        rows = int(rng.integers(1, 65))
        cols = int(rng.integers(1, 65))
        matrix = rng.integers(0, 2, size=(rows, cols))
        mem = MatchIndexMemory(rows, cols)
        bits = full_cycle_read(mem, matrix)
        assert bits.dtype == np.uint8
        assert bits.tolist() == matrix.flatten().tolist()
        assert not mem.cells.any()
