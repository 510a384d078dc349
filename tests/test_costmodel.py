import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeatscan.acam import load_text
from repeatscan.costmodel import (MAX_ARRAY_CELLS, PHASE_ENERGY, PHYSICAL_COLS, CostReport,
                                  CycleCounts, InternalInvariantError, TimingParams,
                                  build_report, energy, energy_shares,
                                  geometry_for_text, latency, latency_shares)
from repeatscan.seqio import parse_text

DEFAULTS = TimingParams()


def test_default_geometry():
    assert DEFAULTS.mem_rows == 64
    assert DEFAULTS.mem_cols == 128
    grid = load_text(parse_text("ACGT"), DEFAULTS)
    assert (grid.rows, grid.total_cols) == (512, 130)


def test_latency_reference_instance_exact():
    fig = latency(DEFAULTS)
    assert fig.t_load_ns == 4096.0
    assert fig.dt12_ns == 128.5
    assert fig.dt23_ns == 1024.625
    assert fig.dt34_ns == 1.0
    assert fig.per_block_ns == 1154.125


def test_total_composition():
    # 16 default arrays as one array of their rows and blocks
    fig = latency(TimingParams(rows=16 * 512, blocks=16 * 8))
    assert fig.t_total_ns == fig.t_load_ns + 128 * fig.per_block_ns
    assert fig.t_total_ns - fig.t_load_ns == 147728.0


def test_million_char_sizing():
    sizes = {p: geometry_for_text(1_000_000, p) for p in (3, 5, 10)}
    assert {p: (g.rows, g.blocks, g.searched_blocks, g.data_width)
            for p, g in sizes.items()} == {3: (8192, 128, 128, 128),
                                           5: (8192, 128, 128, 126),
                                           10: (8704, 136, 136, 121)}
    p10 = sizes[10]
    assert latency(p10).t_total_ns - latency(p10).t_load_ns == 148393.0
    # the 16 arrays' loads are charged one after another
    assert latency(sizes[3]).t_load_ns == 16 * 4096.0


@given(st.integers(1, 3_000_000), st.integers(2, 10))
@settings(max_examples=200, deadline=None)
def test_text_geometry_is_the_fewest_default_arrays(chars, p):
    g = geometry_for_text(chars, p)
    arrays, rest = divmod(g.rows, 512)
    assert rest == 0 and arrays >= 1
    assert (g.blocks, g.searched_blocks, g.data_width, g.mem_rows) == (8 * arrays, 8 * arrays,
                                                                         131 - p, 64)
    # the text fits, and one array fewer would not hold it
    assert (g.rows - 512) * g.data_width < chars <= g.rows * g.data_width


def test_searched_blocks_default_to_every_block_and_never_exceed_them():
    assert TimingParams(blocks=4).searched_blocks == 4
    assert DEFAULTS.searched_blocks == DEFAULTS.blocks == 8
    for k in (0, 9):
        with pytest.raises(ValueError, match=rf"^searched blocks {k} outside \[1, 8\]$"):
            TimingParams(searched_blocks=k)


def test_replace_keeps_the_settled_k_and_write_time_unless_passed_none():
    # K and T_w settle at construction, so a derived geometry keeps the old
    # ones until it passes None again
    assert replace(DEFAULTS, rows=8192, blocks=128).searched_blocks == 8
    assert replace(DEFAULTS, rows=8192, blocks=128, searched_blocks=None).searched_blocks == 128
    assert replace(DEFAULTS, clock_ns=2.0).write_ns == 1.0
    assert replace(DEFAULTS, clock_ns=2.0, write_ns=None).write_ns == 2.0


def test_closed_form_cycles():
    cyc = CycleCounts.closed_form(DEFAULTS)
    k = DEFAULTS.searched_blocks
    assert cyc.search == k * 128
    assert cyc.write_columns == k * 128
    assert cyc.read_groups == k * 1024
    assert cyc.detector_ticks == k * 8197
    assert cyc.resets == k
    assert cyc.read_cells == k * 8192


def test_energy_reference_instance():
    fig = energy(CycleCounts.closed_form(
        replace(DEFAULTS, searched_blocks=1)))
    assert fig.write_nj == pytest.approx(1.228)
    assert fig.reset_nj == pytest.approx(1.228)
    assert fig.read_nj == pytest.approx(0.82)
    assert fig.search_nj == pytest.approx(1.1769)
    assert fig.detect_nj == pytest.approx(0.7709)
    assert fig.total_nj == pytest.approx(5.2238)
    assert fig.per_char_pj == pytest.approx(5223.8 / 8192)


def test_energy_phases_sum_to_total():
    fig = energy(CycleCounts.closed_form(DEFAULTS))
    assert fig.total_nj == pytest.approx(
        fig.write_nj + fig.reset_nj + fig.read_nj + fig.search_nj + fig.detect_nj)


def test_energy_scaled_pattern_lengths():
    p10 = TimingParams(data_width=121, pattern_len=10, searched_blocks=1)
    fig = energy(CycleCounts.closed_form(p10))
    assert fig.search_nj == pytest.approx(1.1769 * 121 / 128)
    assert abs(fig.total_nj - 4.9) / 4.9 < 0.03
    p5 = TimingParams(data_width=126, pattern_len=5, searched_blocks=1)
    fig5 = energy(CycleCounts.closed_form(p5))
    assert abs(fig5.total_nj - 5.09) / 5.09 < 0.05


def test_energy_linear_in_cycles():
    base = TimingParams(rows=64, data_width=32, pattern_len=3, blocks=4,
                        searched_blocks=4)
    doubled = replace(base, data_width=64)
    e1 = energy(CycleCounts.closed_form(base))
    e2 = energy(CycleCounts.closed_form(doubled))
    assert e2.search_nj == pytest.approx(2 * e1.search_nj)
    assert e2.write_nj == pytest.approx(2 * e1.write_nj)
    assert e2.read_nj == pytest.approx(2 * e1.read_nj)
    assert e2.reset_nj == pytest.approx(e1.reset_nj)


def test_breakdown_shares():
    fig = latency(DEFAULTS)
    shares = latency_shares(fig)
    assert shares["reset"] == pytest.approx(1 / 1154.125)
    assert shares["read_detect"] == pytest.approx(1024.625 / 1154.125)
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
    eshares = energy_shares(energy(CycleCounts.closed_form(DEFAULTS)))
    assert sum(eshares.values()) == pytest.approx(1.0, abs=1e-9)


def test_build_report_accepts_matching_meter():
    metered = CycleCounts.closed_form(DEFAULTS)
    report = build_report(DEFAULTS, metered)
    assert isinstance(report, CostReport)
    assert report.cycles == metered


def test_build_report_rejects_mismatched_meter():
    metered = CycleCounts.closed_form(DEFAULTS)
    wrong = replace(metered, search=metered.search + 1)
    with pytest.raises(InternalInvariantError):
        build_report(DEFAULTS, wrong)


def test_params_validation():
    with pytest.raises(ValueError):
        TimingParams(rows=10, blocks=4)
    with pytest.raises(ValueError):
        TimingParams(clock_ns=0)
    with pytest.raises(ValueError):
        TimingParams(data_width=2, pattern_len=3)
    with pytest.raises(ValueError):
        geometry_for_text(100, 100)
    with pytest.raises(ValueError):  # no data column left, not a division by zero
        geometry_for_text(100, PHYSICAL_COLS + 1)


def test_params_cap_the_cells_of_one_array():
    # rows x (W + p - 1) cells, counted before load_text allocates them
    assert MAX_ARRAY_CELLS == 2**28
    TimingParams(rows=2**21, data_width=126, pattern_len=3, blocks=8)
    TimingParams(rows=2**21, data_width=128, pattern_len=1, blocks=8)
    # GRCh38 chromosome 1, 248,956,422 bases, at W = 128 and p = 10
    TimingParams(rows=1_944_976, data_width=128, pattern_len=10, blocks=8)
    for rows, width, p in [(2**21 + 8, 128, 1), (2**21, 127, 3), (8, 2**25 + 1, 1)]:
        with pytest.raises(ValueError, match="lower --rows or --width"):
            TimingParams(rows=rows, data_width=width, pattern_len=p, blocks=8)


@pytest.mark.parametrize("field", ["clock_ns", "write_ns"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
def test_params_reject_non_finite_or_negative_periods(field, value):
    with pytest.raises(ValueError, match="positive and finite"):
        TimingParams(**{field: value})


geometries = st.sampled_from([1, 2, 4, 8]).flatmap(lambda blocks: st.builds(
    TimingParams,
    clock_ns=st.just(1.0),
    write_ns=st.just(1.0),
    rows=st.integers(1, 64).map(lambda x: x * 8),
    data_width=st.integers(4, 256),
    pattern_len=st.integers(1, 4),
    blocks=st.just(blocks),
    searched_blocks=st.integers(1, blocks),
))


@given(geometries, st.data())
@settings(max_examples=200, deadline=None)
def test_latency_monotone(params, data):
    fig = latency(params)
    growable = ["rows", "data_width"] + (["searched_blocks"]
                                         if params.searched_blocks < params.blocks else [])
    grow = data.draw(st.sampled_from(growable))
    bumped = replace(params, **{grow: getattr(params, grow) +
                                (params.blocks if grow == "rows" else 1)})
    other = latency(bumped)
    assert other.t_total_ns >= fig.t_total_ns


@given(geometries)
@settings(max_examples=100, deadline=None)
def test_metered_closed_form_consistency(params):
    cyc = CycleCounts.closed_form(params)
    k, m, n = params.searched_blocks, params.mem_rows, params.mem_cols
    assert cyc.search == k * params.data_width
    assert cyc.detector_ticks == k * (m * n + 5)
    assert cyc.read_groups == k * m * math.ceil(n / 8)
    assert cyc.resets == k


def test_reference_constants_describe_the_64x128_instance():
    refs = {phase: ref for phase, (_, ref) in PHASE_ENERGY.items()}
    assert refs == {"write": 128, "reset": 1, "read": 8192, "search": 128,
                    "detect": 8197}
    one = CycleCounts.closed_form(replace(DEFAULTS, searched_blocks=1))
    assert (one.write_columns, one.resets, one.read_cells, one.search,
            one.detector_ticks) == tuple(refs.values())
