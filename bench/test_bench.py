"""Tests of the benchmark itself: seeded inputs, the output check, and the
traced-run wrappers.  Run with ``PYTHONPATH=src python -m pytest bench``."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from spans import TRACED, Tracer, layer_totals  # noqa: E402

from repeatscan import cli, pipeline  # noqa: E402
from repeatscan.seqio import parse_pattern, parse_text  # noqa: E402


def _tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = workloads.generate(workload, 7, tmp_path / "a")
    second = workloads.generate(workload, 7, tmp_path / "b")
    assert first == second
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    other = workloads.generate(workload, 8, tmp_path / "c")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    assert len(other) == len(first)


def test_panel_covers_catalog_and_saturation(tmp_path):
    specs = workloads.generate("panel_full_array", 3, tmp_path)
    assert {s.disease for s in specs} == {e[0] for e in workloads.CATALOG}
    assert all(s.chars == workloads.FULL_CHARS for s in specs)
    assert any(s.saturated and s.expected_label == workloads.INDETERMINATE for s in specs)


def _spec(**changes):
    base = dict(file="x.fa", disease="Friedreich's ataxia", unit="GAA", count_class="disease",
                planted=100, chars=100, blocks=None, mode="functional", trace=False, oracle_max=100,
                expected_max=100, expected_label=workloads.DISEASE)
    base.update(changes)
    return workloads.ScanSpec(**base)


def test_check_accepts_matching_report():
    assert workloads.check_scan(_spec(), {"global_max": 100, "classification": "Disease"}, None) == []


def test_check_flags_tampered_global_max():
    assert workloads.check_scan(_spec(), {"global_max": 99, "classification": "Disease"},
                                None) == ["global_max"]


def test_check_flags_confident_wrong_label():
    assert workloads.check_scan(_spec(), {"global_max": 100, "classification": "Normal"},
                                None) == ["label"]


def test_check_saturated_scan_may_be_indeterminate_but_not_wrongly_confident():
    spec = _spec(oracle_max=1400, expected_max=255, expected_label=workloads.INDETERMINATE,
                 count_class="above")
    assert workloads.check_scan(spec, {"global_max": 255, "classification": "Indeterminate"},
                                None) == []
    assert workloads.check_scan(spec, {"global_max": 255, "classification": "Disease"},
                                None) == ["saturated_label"]


def test_check_reads_the_trace_final_line():
    report = {"global_max": 100, "classification": "Disease"}
    assert workloads.check_scan(_spec(), report, "cycle,state\n1,S1\nglobal_max,100\n") == []
    assert workloads.check_scan(_spec(), report, "cycle,state\nglobal_max,101\n") == ["trace"]


def test_oracle_counts_phase_aligned_runs():
    assert workloads.oracle_max_tandem("AAACAAA", "AA") == 1
    assert workloads.oracle_max_tandem("AAAAAA", "AA") == 3
    assert workloads.oracle_max_tandem("TTCAGCAGCAGTT", "CAG") == 3
    assert workloads.oracle_max_tandem("TTTT", "CAG") == 0


@pytest.mark.parametrize("blocks", [(0, 1), (1, 3), (2, 3, 6)])
def test_expected_rule_matches_scan_on_gapped_blocks(blocks):
    # a repeat straddling the block 1 / block 2 boundary
    text = "ACGT" * (workloads.BLOCK_CHARS // 4 * 2 - 30) + "CAG" * 90
    text += "T" * (workloads.FULL_CHARS - len(text))
    result = pipeline.scan(pipeline.make_request(parse_text(text), parse_pattern("CAG"),
                                                 active_blocks=blocks))
    assert result.global_max == workloads.expected_raw_max(text, "CAG", blocks)


def test_wrappers_restore_every_patched_attribute():
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TRACED]
    tracer = Tracer()
    with tracer.patched():
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in originals)
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
    with pytest.raises(RuntimeError):
        with tracer.patched():
            raise RuntimeError("scan failed")
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)


def test_traced_scan_records_nested_spans(tmp_path):
    raw = tmp_path / "read.txt"
    raw.write_text("ACGT" * 100 + "CAG" * 30 + "\n")
    tracer = Tracer()
    with tracer.patched():
        code = tracer.call(0, cli.main, ["--input", str(raw), "--pattern", "CAG",
                                         "--report", str(tmp_path / "r.json")])
    assert code == 0
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0].parent is None
    assert names.count("acam.search_cycle") == 128
    assert all(s.parent is not None for s in tracer.spans[1:])
    totals = layer_totals(tracer.spans, 1)
    assert totals["detector.detect_functional"]["units"][0] == 2 * 64 * 128
    root = tracer.spans[0]
    assert sum(t["self_s"][0] for t in totals.values()) == pytest.approx(root.end - root.start)
