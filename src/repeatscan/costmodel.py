"""Analytic latency and energy accounting for the accelerator.

Latency closed forms (times in nanoseconds, T = clock period):

    t_load     = 8 * M * T_w            programming, several arrays one after another
    dt12       = (W + 0.5) * T          pattern search with overlapped column writes
    dt23       = 0.125 * (m*n + 5) * T  memory read + detection at 8x the read clock
    dt34       = T                      memory reset
    t_total    = t_load + K * (dt12 + dt23 + dt34)

W is the number of search windows per row (data width), m x n the
match-index memory, K <= B the number of searched blocks.  The detector is
charged m*n stream bits plus five post-stream cycles per block, hence the +5;
``pipeline`` states how that meets a run of consecutive blocks.

Block energy comes from one table, PHASE_ENERGY: each phase's energy per
block as characterized on the 64 x 128 memory instance, with the phase's
cycle count there.  Other geometries scale each phase linearly by its
metered cycle count (read energy scales by cells sensed).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .detector import POST_STREAM_CYCLES
from .matchmem import PISO_WIDTH


# Columns of the characterized array: W data columns plus p - 1 replicated.
PHYSICAL_COLS = 130

# Cells a simulated array may hold, rows x (W + p - 1), checked before
# anything is allocated.  A scan peaks at about 6.9 bytes per cell (10.4 in
# cycle mode), so a scan at the cap needs up to about 2.8 GB; at W = 128 it
# holds a text of up to 264 M characters, the largest human chromosome
# included.
MAX_ARRAY_CELLS = 2**28


class InternalInvariantError(RuntimeError):
    """The simulation contradicted itself, as metered cycle counts that
    disagree with the closed form do; results must not be trusted."""


@dataclass(frozen=True)
class TimingParams:
    """Clock and geometry inputs to the latency model: the array as
    programmed, M rows in B blocks.  K, the blocks a search visits, is the
    scan's, an argument of the closed forms that use it.  ``write_ns`` (T_w)
    None is one clock; it settles when the params are built, so
    ``dataclasses.replace`` keeps it, and a derived geometry passes
    ``write_ns=None`` to settle it again.  The periods are held as Python
    floats and the geometry as Python ints, so any number reports as its
    Python equal does.
    """

    clock_ns: float = 1.0
    write_ns: float | None = None
    rows: int = 512          # M
    data_width: int = 128    # W, also the memory column count n
    pattern_len: int = 3
    blocks: int = 8          # B

    def __post_init__(self) -> None:
        for name in ("rows", "data_width", "pattern_len", "blocks"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        clock, write = self.clock_ns, self.clock_ns if self.write_ns is None else self.write_ns
        if not (0 < clock < math.inf and 0 < write < math.inf):     # NaN fails both
            raise ValueError("clock and write periods must be positive and finite")
        object.__setattr__(self, "clock_ns", float(clock))
        object.__setattr__(self, "write_ns", float(write))
        if min(self.rows, self.data_width, self.pattern_len, self.blocks) < 1:
            raise ValueError("geometry values must be positive")
        if self.rows % self.blocks != 0:
            raise ValueError(f"rows {self.rows} not divisible into {self.blocks} blocks")
        if self.pattern_len > self.data_width:
            raise ValueError("pattern length exceeds data width")
        cols = self.data_width + self.pattern_len - 1
        if self.rows * cols > MAX_ARRAY_CELLS:
            raise ValueError(f"an array of {self.rows} rows x {cols} columns exceeds "
                             f"{MAX_ARRAY_CELLS} cells")

    @property
    def mem_rows(self) -> int:
        return self.rows // self.blocks

    @property
    def mem_cols(self) -> int:
        return self.data_width


# phase: (nJ per block, the phase's cycle count per block) on the
# characterized instance, W = 128, m = 64, n = 128; energy_shares() lists the
# phases in this order.
PHASE_ENERGY = {
    "write": (1.228, 128),
    "reset": (1.228, 1),
    "read": (0.82, 64 * 128),
    "search": (1.1769, 128),
    "detect": (0.7709, 64 * 128 + POST_STREAM_CYCLES),
}


@dataclass(frozen=True)
class CycleCounts:
    """Phase cycle totals over all searched blocks."""

    search: int
    write_columns: int
    read_groups: int
    detector_ticks: int
    resets: int

    @classmethod
    def closed_form(cls, params: TimingParams, k: int) -> "CycleCounts":
        if not 0 < k <= params.blocks:
            raise ValueError(f"searched blocks {k} outside [1, {params.blocks}]")
        m, n = params.mem_rows, params.mem_cols
        return cls(
            search=k * params.data_width,
            write_columns=k * params.data_width,
            read_groups=k * m * math.ceil(n / PISO_WIDTH),
            detector_ticks=k * (m * n + POST_STREAM_CYCLES),
            resets=k,
        )

    @property
    def read_cells(self) -> int:
        # one reset per searched block
        return self.detector_ticks - POST_STREAM_CYCLES * self.resets


@dataclass(frozen=True)
class LatencyFigures:
    t_load_ns: float
    dt12_ns: float
    dt23_ns: float
    dt34_ns: float
    per_block_ns: float
    t_total_ns: float


@dataclass(frozen=True)
class EnergyFigures:
    write_nj: float
    reset_nj: float
    read_nj: float
    search_nj: float
    detect_nj: float
    total_nj: float
    per_char_pj: float


@dataclass(frozen=True)
class CostReport:
    params: TimingParams
    searched_blocks: int     # K
    cycles: CycleCounts
    latency: LatencyFigures
    energy: EnergyFigures


def latency(params: TimingParams, k: int) -> LatencyFigures:
    if not 0 < k <= params.blocks:
        raise ValueError(f"searched blocks {k} outside [1, {params.blocks}]")
    t = params.clock_ns
    m, n = params.mem_rows, params.mem_cols
    t_load = 8 * params.rows * params.write_ns
    dt12 = (params.data_width + 0.5) * t
    dt23 = 0.125 * (m * n + POST_STREAM_CYCLES) * t
    dt34 = t
    per_block = dt12 + dt23 + dt34
    return LatencyFigures(
        t_load_ns=t_load,
        dt12_ns=dt12,
        dt23_ns=dt23,
        dt34_ns=dt34,
        per_block_ns=per_block,
        t_total_ns=t_load + k * per_block,
    )


def energy(cycles: CycleCounts) -> EnergyFigures:
    """Scale each phase's characterized energy by its metered cycle count.

    The per-character figure divides the total by the characters searched,
    i.e. the memory cells read across all blocks (blocks * m * n).
    """
    metered = {"write": cycles.write_columns, "reset": cycles.resets,
               "read": cycles.read_cells, "search": cycles.search,
               "detect": cycles.detector_ticks}
    nj = {f"{phase}_nj": e * metered[phase] / ref for phase, (e, ref) in PHASE_ENERGY.items()}
    total = sum(nj.values())    # in PHASE_ENERGY's order
    return EnergyFigures(**nj, total_nj=total, per_char_pj=total * 1000.0 / cycles.read_cells)


def build_report(tparams: TimingParams, k: int, metered: CycleCounts) -> CostReport:
    """Assemble the report of a K-block search; metered counts must match the closed form."""
    predicted = CycleCounts.closed_form(tparams, k)
    if metered != predicted:
        raise InternalInvariantError(
            f"metered cycle counts {metered} != closed-form {predicted}")
    return CostReport(tparams, k, metered, latency(tparams, k), energy(metered))


def latency_shares(figures: LatencyFigures) -> dict[str, float]:
    """Per-block latency split; write overlaps search and detect overlaps read."""
    return {
        "search_write": figures.dt12_ns / figures.per_block_ns,
        "read_detect": figures.dt23_ns / figures.per_block_ns,
        "reset": figures.dt34_ns / figures.per_block_ns,
    }


def energy_shares(figures: EnergyFigures) -> dict[str, float]:
    return {phase: getattr(figures, f"{phase}_nj") / figures.total_nj
            for phase in PHASE_ENERGY}


def arrays_for_text(chars: int, data_width: int) -> int:
    """The fewest default arrays that hold ``chars`` characters, ``data_width`` a row."""
    return -(-chars // (data_width * TimingParams.rows))   # ceil(ceil(N / W) / 512)


def geometry_for_text(chars: int, pattern_len: int) -> TimingParams:
    """The fewest default arrays, a, that hold the text, as one array of
    their 512a rows and 8a blocks (a scan picks the K it searches); the data
    width is what ``PHYSICAL_COLS`` leaves beside the p - 1 replicated columns.
    """
    if pattern_len > PHYSICAL_COLS:
        raise ValueError(f"pattern length {pattern_len} exceeds {PHYSICAL_COLS} columns")
    width = PHYSICAL_COLS - (pattern_len - 1)
    arrays = arrays_for_text(chars, width)
    return TimingParams(rows=arrays * TimingParams.rows, data_width=width,
                        pattern_len=pattern_len, blocks=arrays * TimingParams.blocks)
