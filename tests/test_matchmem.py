import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeatscan.matchmem import MatchIndexMemory, Mode, ModeViolation


def write_matrix(mem: MatchIndexMemory, matrix) -> None:
    for col in range(mem.cols):
        mem.write_column([bool(matrix[r][col]) for r in range(mem.rows)])


def full_cycle_read(mem: MatchIndexMemory, matrix) -> np.ndarray:
    write_matrix(mem, matrix)
    bits = mem.read_all()
    mem.reset_all()
    return bits


def test_write_column_sets_lrs():
    mem = MatchIndexMemory(3, 4)
    mem.write_column([True, False, True])
    assert mem.cells[:, 0].tolist() == [True, False, True]
    assert not mem.cells[:, 1:].any()
    # the column counter selects the next column
    mem.write_column([False, True, False])
    assert mem.cells[:, 1].tolist() == [False, True, False]
    assert not mem.cells[:, 2:].any()


def test_all_zero_tag_leaves_column_hrs():
    mem = MatchIndexMemory(3, 4)
    mem.write_column([False, False, False])
    assert not mem.cells.any()


def test_tag_length_checked():
    mem = MatchIndexMemory(3, 4)
    with pytest.raises(ValueError):
        mem.write_column([True, False])


def test_mode_ring():
    # the operations walk Idle -> Write -> Read -> Idle, twice round
    mem = MatchIndexMemory(2, 2)
    assert mem.mode is Mode.IDLE
    for _ in range(2):
        mem.write_column([True, False])
        assert mem.mode is Mode.WRITE
        mem.write_column([False, True])
        assert mem.mode is Mode.WRITE
        mem.read_all()
        assert mem.mode is Mode.READ
        mem.read_all()
        assert mem.mode is Mode.READ
        mem.reset_all()
        assert mem.mode is Mode.IDLE
    assert set(Mode) == {Mode.IDLE, Mode.WRITE, Mode.READ}


def test_operations_require_their_mode():
    # Idle: no read and no reset before a write; Write: no reset before a
    # read; Read: no write before the reset
    mem = MatchIndexMemory(2, 2)
    with pytest.raises(ModeViolation):
        mem.read_all()
    with pytest.raises(ModeViolation):
        mem.reset_all()
    mem.write_column([True, True])
    assert mem.mode is Mode.WRITE
    with pytest.raises(ModeViolation):
        mem.reset_all()
    mem.read_all()
    assert mem.mode is Mode.READ
    with pytest.raises(ModeViolation):
        mem.write_column([True, True])
    mem.reset_all()
    assert mem.mode is Mode.IDLE


def test_read_stream_is_row_major():
    mem = MatchIndexMemory(2, 8)
    row1 = [1, 0, 0, 0, 0, 0, 0, 0]
    row2 = [0, 0, 0, 0, 0, 0, 0, 1]
    bits = full_cycle_read(mem, [row1, row2])
    assert bits.dtype == bool
    assert bits.tolist() == row1 + row2


def test_all_hrs_reads_zero_stream():
    mem = MatchIndexMemory(4, 6)
    mem.write_columns(np.zeros((4, 0), dtype=bool))   # a write phase of no columns
    bits = mem.read_all()
    assert bits.dtype == bool
    assert bits.tolist() == [0] * 24


def test_group_count_64x128():
    mem = MatchIndexMemory(64, 128)
    assert mem.read_group_count() == 1024
    mem.write_columns(np.zeros((64, 0), dtype=bool))
    assert len(mem.read_all()) == 8192


def test_group_count_with_partial_final_group():
    assert MatchIndexMemory(4, 13).read_group_count() == 4 * 2
    mem = MatchIndexMemory(2, 13)
    matrix = [[(r + c) % 2 for c in range(13)] for r in range(2)]
    bits = full_cycle_read(mem, matrix)
    assert bits.dtype == bool
    assert bits.tolist() == [b for row in matrix for b in row]


def test_reset_clears_everything_and_composes():
    mem = MatchIndexMemory(3, 5)
    write_matrix(mem, [[1] * 5] * 3)
    assert sum(mem.read_all()) == 15
    mem.reset_all()
    assert not mem.cells.any()
    mem.write_columns(np.zeros((3, 0), dtype=bool))
    bits = mem.read_all()
    assert bits.dtype == bool
    assert bits.tolist() == [0] * 15


def test_stream_read_before_reset_is_unchanged_after_it():
    mem = MatchIndexMemory(2, 3)
    write_matrix(mem, [[1, 0, 1], [0, 1, 1]])
    bits = mem.read_all()
    mem.reset_all()
    assert not mem.cells.any()
    assert bits.tolist() == [1, 0, 1, 0, 1, 1]


def test_reset_idempotent():
    # two resets leave what one leaves: the second is refused in Idle
    mem = MatchIndexMemory(2, 2)
    write_matrix(mem, [[1, 1], [0, 1]])
    mem.read_all()
    mem.reset_all()
    with pytest.raises(ModeViolation):
        mem.reset_all()
    assert mem.mode is Mode.IDLE
    assert not mem.cells.any()


def test_monotone_write_never_clears():
    # within one write phase each column is touched once, so an LRS cell can
    # only ever be set, never cleared
    mem = MatchIndexMemory(2, 3)
    mem.write_column([True, True])
    mem.write_column([False, False])
    mem.write_column([True, False])
    assert mem.cells[:, 0].all()


def test_write_phase_after_skipped_reset_rejected():
    # a write after the read, its reset_all skipped, is refused and leaves
    # the cells still SET, the column counter and the mode as they were
    mem = MatchIndexMemory(2, 3)
    mem.write_column([True, False])
    mem.read_all()
    with pytest.raises(ModeViolation):
        mem.write_column([False, True])
    with pytest.raises(ModeViolation):
        mem.write_columns(np.ones((2, 1), dtype=bool))
    assert mem.mode is Mode.READ
    assert mem._next_col == 1
    assert mem.cells[:, 0].tolist() == [True, False]
    assert not mem.cells[:, 1:].any()


def test_skipped_reset_rejected_under_python_optimize():
    # the ring is checked by a typed error, not an assert, so it survives -O:
    # a reset before the read and a write after it, its reset skipped
    here = Path(__file__).resolve().parent
    script = ("from test_matchmem import *\n"
              "mem = MatchIndexMemory(2, 3)\n"
              "mem.write_column([True, False])\n"
              "for step in (mem.reset_all, mem.read_all, lambda: mem.write_column([1, 1])):\n"
              "    try:\n        step()\n"
              "    except ModeViolation:\n        print('rejected')\n")
    path = os.pathsep.join([str(here), str(here.parent / "src")])
    done = subprocess.run([sys.executable, "-O", "-c", script], cwd=here,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "rejected\nrejected\n"


@given(st.integers(1, 16), st.integers(1, 16), st.data())
@settings(max_examples=100, deadline=None)
def test_write_read_round_trip(rows, cols, data):
    matrix = [[data.draw(st.booleans()) for _ in range(cols)] for _ in range(rows)]
    mem = MatchIndexMemory(rows, cols)
    bits = full_cycle_read(mem, matrix)
    assert bits.dtype == bool
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
        assert bits.dtype == bool
        assert bits.tolist() == matrix.flatten().tolist()
        assert not mem.cells.any()


@st.composite
def matrix_and_splits(draw):
    rows, cols = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    matrix = np.array([[draw(st.booleans()) for _ in range(cols)] for _ in range(rows)])
    cuts = sorted(draw(st.sets(st.integers(0, cols), max_size=cols)) | {0, cols})
    return matrix, cuts


@given(matrix_and_splits())
@settings(max_examples=100, deadline=None)
def test_block_write_in_chunks_equals_column_by_column(case):
    # a write phase taken in chunks of columns, empty chunks included, leaves
    # the cells and the read-out of one write_column call per column
    matrix, cuts = case
    by_column = MatchIndexMemory(*matrix.shape)
    write_matrix(by_column, matrix)
    chunked = MatchIndexMemory(*matrix.shape)
    for start, end in zip(cuts, cuts[1:]):
        chunked.write_columns(matrix[:, start:end])
    assert np.array_equal(chunked.cells, by_column.cells)
    streams = []
    for mem in (by_column, chunked):
        streams.append(mem.read_all())
    assert np.array_equal(*streams)
    assert streams[0].tolist() == matrix.astype(int).ravel().tolist()


def test_block_write_keeps_every_protocol_check():
    mem = MatchIndexMemory(2, 3)
    with pytest.raises(ValueError, match="tag length 3 != memory rows 2"):
        mem.write_columns(np.ones((3, 1), dtype=bool))
    with pytest.raises(IndexError, match="^column 3 is past the last column 2$"):
        mem.write_columns(np.ones((2, 4), dtype=bool))
    assert mem.mode is Mode.IDLE    # a refused first write leaves the memory in Idle
    mem.write_columns(np.array([[True, False], [False, False]]))
    # the third column follows the first two; a fourth is past the end
    with pytest.raises(IndexError, match="^column 3 is past the last column 2$"):
        mem.write_columns(np.zeros((2, 2), dtype=bool))
    mem.write_column([False, True])
    with pytest.raises(IndexError, match="^column 3 is past the last column 2$"):
        mem.write_column([True, True])
    assert mem.cells.tolist() == [[True, False, False], [False, False, True]]
    mem.read_all()
    with pytest.raises(ModeViolation):
        mem.write_columns(np.ones((2, 1), dtype=bool))
    with pytest.raises(ModeViolation):
        mem.write_column([True, True])
    mem.reset_all()
    mem.write_column([True, True])    # a new write phase starts at column 0
    assert mem.cells.tolist() == [[True, False, False], [True, False, False]]


@given(st.integers(1, 8), st.integers(1, 8), st.data())
@settings(max_examples=200, deadline=None)
def test_write_phase_refused_exactly_when_a_cell_is_still_set(rows, cols, data):
    # phases write random tag columns, all-zero ones included, in up to two
    # calls, and sometimes skip reset_all; the cells SET since the last
    # reset_all are tracked apart from the memory.  Only reset_all leaves
    # Read, so a write phase with a cell possibly still SET (its reset_all
    # skipped, all-zero tags included) is refused, and an accepted one
    # starts all-HRS
    mem = MatchIndexMemory(rows, cols)
    still_set = np.zeros((rows, cols), dtype=bool)
    reset_skipped = False
    read = []   # (stream, a copy taken when it was read)
    for _ in range(data.draw(st.integers(1, 6))):
        if reset_skipped:
            with pytest.raises(ModeViolation):
                mem.write_columns(np.ones((rows, 1), dtype=bool))
            assert mem.mode is Mode.READ
            break
        assert not mem.cells.any()
        end = data.draw(st.integers(0, cols))
        cut = data.draw(st.integers(0, end))
        tags = np.zeros((rows, end), dtype=bool)
        if data.draw(st.booleans()):
            tags.flat = data.draw(st.lists(st.booleans(), min_size=tags.size,
                                           max_size=tags.size))
        mem.write_columns(tags[:, :cut])
        mem.write_columns(tags[:, cut:])
        still_set[:, :end] |= tags
        stream = mem.read_all()
        assert stream.tolist() == still_set.ravel().tolist()
        read.append((stream, stream.copy()))
        if data.draw(st.booleans()):
            mem.reset_all()
            still_set[:] = False
        else:
            reset_skipped = True
        assert all(np.array_equal(stream, copy) for stream, copy in read)
    assert np.array_equal(mem.cells, still_set)
    assert all(np.array_equal(stream, copy) for stream, copy in read)


def ring_step(mode, col, cells, op, tags):
    """The protocol as a reference: (mode, column counter, cells) after
    ``op``, or the error type that refuses it."""
    if op == "read_all":
        return ModeViolation if mode is Mode.IDLE else (Mode.READ, col, cells)
    if op == "reset_all":
        return ModeViolation if mode is not Mode.READ else (Mode.IDLE, 0, np.zeros_like(cells))
    if mode is Mode.READ:
        return ModeViolation
    if tags.shape[0] != cells.shape[0]:
        return ValueError
    if col + tags.shape[1] > cells.shape[1]:
        return IndexError
    cells = cells.copy()
    cells[:, col:col + tags.shape[1]] = tags
    return Mode.WRITE, col + tags.shape[1], cells


@st.composite
def operations(draw, rows, cols):
    op = draw(st.sampled_from(["write_columns", "write_column", "read_all", "reset_all"]))
    if op in ("read_all", "reset_all"):
        return op, None
    height = draw(st.sampled_from([rows, rows, rows, rows - 1, rows + 1]))
    width = 1 if op == "write_column" else draw(st.integers(0, cols + 1))
    bits = draw(st.lists(st.booleans(), min_size=height * width, max_size=height * width))
    return op, np.array(bits, dtype=bool).reshape(height, width)


@given(st.integers(1, 5), st.integers(1, 5), st.data())
@settings(max_examples=300, deadline=None)
def test_operations_follow_the_ring_and_a_refused_one_changes_nothing(rows, cols, data):
    # sequences of operations in and out of ring order, against ring_step;
    # every read equals the columns written since the last reset_all, and a
    # stream already read never changes
    mem = MatchIndexMemory(rows, cols)
    state = (Mode.IDLE, 0, np.zeros((rows, cols), dtype=bool))
    read = []   # (stream, a copy taken when it was read)
    for _ in range(data.draw(st.integers(1, 12))):
        op, tags = data.draw(operations(rows, cols))
        expected = ring_step(*state, op, tags)
        args = () if tags is None else (tags[:, 0] if op == "write_column" else tags,)
        if isinstance(expected, type):
            with pytest.raises(expected):
                getattr(mem, op)(*args)
        else:
            out = getattr(mem, op)(*args)
            state = expected
            if op == "read_all":
                assert out.tolist() == state[2].ravel().tolist()
                read.append((out, out.copy()))
        assert (mem.mode, mem._next_col) == state[:2]
        assert np.array_equal(mem.cells, state[2])
        assert all(np.array_equal(stream, copy) for stream, copy in read)
