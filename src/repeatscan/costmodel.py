"""Analytic latency and energy accounting for the accelerator.

Latency closed forms (times in nanoseconds, T = clock period):

    t_load     = 8 * M * T_w            one-time array programming overhead
    dt12       = (W + 0.5) * T          pattern search with overlapped column writes
    dt23       = 0.125 * (m*n + 5) * T  memory read + detection at 8x the read clock
    dt34       = T                      memory reset
    t_total    = t_load + K * (dt12 + dt23 + dt34)

W is the number of search windows per row (data width), m x n the
match-index memory, K the number of searched blocks.  The detector consumes
m*n stream bits plus five post-stream cycles, hence the +5.

Per-block energies are characterized constants for the 64 x 128 memory
instance; other geometries scale each phase linearly by its metered cycle
count (read energy scales by cells sensed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .detector import POST_STREAM_CYCLES


class CycleCountMismatch(RuntimeError):
    """Metered cycle counts disagree with the closed-form prediction."""


@dataclass(frozen=True)
class TimingParams:
    """Clock and geometry inputs to the latency model.

    ``searched_blocks`` (K) may exceed ``blocks`` when a text spans several
    arrays of the same geometry.
    """

    clock_ns: float = 1.0
    write_ns: float = 1.0
    rows: int = 512          # M
    data_width: int = 128    # W, also the memory column count n
    pattern_len: int = 3
    blocks: int = 8          # B
    searched_blocks: int = 8  # K

    def __post_init__(self) -> None:
        if not all(math.isfinite(t) and t > 0 for t in (self.clock_ns, self.write_ns)):
            raise ValueError("clock and write periods must be positive and finite")
        if min(self.rows, self.data_width, self.pattern_len,
               self.blocks, self.searched_blocks) < 1:
            raise ValueError("geometry values must be positive")
        if self.rows % self.blocks != 0:
            raise ValueError(f"rows {self.rows} not divisible into {self.blocks} blocks")
        if self.pattern_len > self.data_width:
            raise ValueError("pattern length exceeds data width")

    @property
    def mem_rows(self) -> int:
        return self.rows // self.blocks

    @property
    def mem_cols(self) -> int:
        return self.data_width

    @property
    def total_cols(self) -> int:
        return self.data_width + self.pattern_len - 1


@dataclass(frozen=True)
class EnergyParams:
    """Per-block energy constants (nJ) at the reference cycle counts below."""

    write_nj: float = 1.228
    reset_nj: float = 1.228
    read_nj: float = 0.82
    search_nj: float = 1.1769
    detect_nj: float = 0.7709


# Cycle counts of the instance the per-block energies were characterized at
# (W = 128, m = 64, n = 128).
REF_SEARCH_CYCLES = 128
REF_WRITE_COLUMNS = 128
REF_READ_CELLS = 64 * 128
REF_DETECT_TICKS = 64 * 128 + POST_STREAM_CYCLES
REF_RESET_CYCLES = 1


@dataclass(frozen=True)
class CycleCounts:
    """Phase cycle totals over all searched blocks."""

    search: int
    write_columns: int
    read_groups: int
    detector_ticks: int
    resets: int
    blocks: int

    @classmethod
    def closed_form(cls, params: TimingParams) -> "CycleCounts":
        k = params.searched_blocks
        m, n = params.mem_rows, params.mem_cols
        return cls(
            search=k * params.data_width,
            write_columns=k * params.data_width,
            read_groups=k * m * math.ceil(n / 8),
            detector_ticks=k * (m * n + POST_STREAM_CYCLES),
            resets=k,
            blocks=k,
        )

    @property
    def read_cells(self) -> int:
        return self.detector_ticks - POST_STREAM_CYCLES * self.blocks


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
    cycles: CycleCounts
    latency: LatencyFigures
    energy: EnergyFigures


def latency(params: TimingParams) -> LatencyFigures:
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
        t_total_ns=t_load + params.searched_blocks * per_block,
    )


def energy(params: EnergyParams, cycles: CycleCounts) -> EnergyFigures:
    """Scale each phase's characterized energy by its metered cycle count.

    The per-character figure divides the total by the characters searched,
    i.e. the memory cells read across all blocks (blocks * m * n).
    """
    write = params.write_nj * cycles.write_columns / REF_WRITE_COLUMNS
    reset = params.reset_nj * cycles.resets / REF_RESET_CYCLES
    read = params.read_nj * cycles.read_cells / REF_READ_CELLS
    search = params.search_nj * cycles.search / REF_SEARCH_CYCLES
    detect = params.detect_nj * cycles.detector_ticks / REF_DETECT_TICKS
    total = write + reset + read + search + detect
    return EnergyFigures(
        write_nj=write,
        reset_nj=reset,
        read_nj=read,
        search_nj=search,
        detect_nj=detect,
        total_nj=total,
        per_char_pj=total * 1000.0 / cycles.read_cells,
    )


def build_report(tparams: TimingParams, eparams: EnergyParams,
                 metered: CycleCounts | None = None) -> CostReport:
    """Assemble the full report; metered counts must match the closed form."""
    predicted = CycleCounts.closed_form(tparams)
    if metered is not None and metered != predicted:
        raise CycleCountMismatch(
            f"metered cycle counts {metered} != closed-form {predicted}")
    cycles = metered if metered is not None else predicted
    return CostReport(tparams, cycles, latency(tparams), energy(eparams, cycles))


def latency_shares(figures: LatencyFigures) -> dict[str, float]:
    """Per-block latency split; write overlaps search and detect overlaps read."""
    return {
        "search_write": figures.dt12_ns / figures.per_block_ns,
        "read_detect": figures.dt23_ns / figures.per_block_ns,
        "reset": figures.dt34_ns / figures.per_block_ns,
    }


def energy_shares(figures: EnergyFigures) -> dict[str, float]:
    return {
        "write": figures.write_nj / figures.total_nj,
        "reset": figures.reset_nj / figures.total_nj,
        "read": figures.read_nj / figures.total_nj,
        "search": figures.search_nj / figures.total_nj,
        "detect": figures.detect_nj / figures.total_nj,
    }


def geometry_for_text(chars: int, pattern_len: int, total_cols: int = 130,
                      rows: int = 512, blocks: int = 8, clock_ns: float = 1.0,
                      write_ns: float = 1.0) -> TimingParams:
    """Size K for a text spread over as many fixed arrays as needed.

    The physical array has ``total_cols`` columns, so the usable data width
    shrinks as the pattern (and its replicated columns) grows.
    """
    width = total_cols - (pattern_len - 1)
    if width < pattern_len:
        raise ValueError("pattern too long for the array width")
    rows_needed = math.ceil(chars / width)
    arrays = math.ceil(rows_needed / rows)
    return TimingParams(
        clock_ns=clock_ns,
        write_ns=write_ns,
        rows=rows,
        data_width=width,
        pattern_len=pattern_len,
        blocks=blocks,
        searched_blocks=arrays * blocks,
    )
