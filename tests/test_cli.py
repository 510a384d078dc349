import json
from pathlib import Path

import pytest

from repeatscan.cli import main, reference_rows, row_passes

GOLDEN = Path(__file__).parent / "golden" / "trace_101110000.csv"

REPORT_KEYS = {
    "pattern", "disease", "gene", "classification", "range_overlap_flagged",
    "mode", "text_length", "global_max", "saturated", "per_block_max", "active_blocks",
    "rows", "data_width", "pattern_len", "blocks", "mem_rows", "mem_cols",
    "searched_blocks", "clock_ns", "write_ns", "t_load_ns", "dt12_ns",
    "dt23_ns", "dt34_ns", "per_block_ns", "search_time_ns", "t_total_ns",
    "cycles_search", "cycles_write_columns", "cycles_read_groups",
    "cycles_detector_ticks", "cycles_reset", "set_events", "energy_write_nj",
    "energy_reset_nj", "energy_read_nj", "energy_search_nj",
    "energy_detect_nj", "energy_total_nj", "energy_per_char_pj",
    "energy_per_char_divisor", "latency_share_search_write",
    "latency_share_read_detect", "latency_share_reset", "energy_share_write",
    "energy_share_reset", "energy_share_read", "energy_share_search",
    "energy_share_detect",
}


def write_seq(tmp_path, text, name="seq.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_scan_to_report(tmp_path, *args):
    report = tmp_path / "report.json"
    code = main(list(args) + ["--report", str(report)])
    return code, (json.loads(report.read_text()) if report.exists() else None)


def test_scan_happy_path(tmp_path, capsys):
    inp = write_seq(tmp_path, "CAGCAGCAGTT")
    code, report = run_scan_to_report(
        tmp_path, "--input", inp, "--pattern", "CAG",
        "--rows", "2", "--width", "8", "--array-blocks", "2")
    assert code == 0
    assert report["global_max"] == 3
    assert report["classification"] is None
    assert set(report) == REPORT_KEYS


def test_scan_fasta_autodetect(tmp_path):
    inp = write_seq(tmp_path, ">hdr\ncagcag\n", "seq.fa")
    code, report = run_scan_to_report(
        tmp_path, "--input", inp, "--pattern", "CAG",
        "--rows", "2", "--width", "4", "--array-blocks", "2")
    assert code == 0
    assert report["text_length"] == 6
    assert report["global_max"] == 2


def test_scan_disease_preset(tmp_path):
    inp = write_seq(tmp_path, "CAG" * 45)
    code, report = run_scan_to_report(
        tmp_path, "--input", inp, "--disease", "Huntington's disease",
        "--rows", "4", "--width", "64", "--array-blocks", "2")
    assert code == 0
    assert report["pattern"] == "CAG"
    assert report["gene"] == "HTT"
    assert report["global_max"] == 45
    assert report["classification"] == "Disease"


def test_scan_invalid_pattern_exits_1(tmp_path, capsys):
    inp = write_seq(tmp_path, "CAGCAG")
    code = main(["--input", inp, "--pattern", "CAGX"])
    assert code == 1
    assert "invalid character" in capsys.readouterr().err


def test_scan_invalid_text_exits_1(tmp_path, capsys):
    inp = write_seq(tmp_path, "CAGN")
    code = main(["--input", inp, "--pattern", "CAG"])
    assert code == 1


def test_scan_missing_input_exits_1(tmp_path, capsys):
    assert main(["--pattern", "CAG"]) == 1
    assert main(["--input", str(tmp_path / "absent.txt"), "--pattern", "CAG"]) == 1


def test_scan_requires_exactly_one_target(tmp_path, capsys):
    inp = write_seq(tmp_path, "CAG")
    assert main(["--input", inp]) == 1
    assert main(["--input", inp, "--pattern", "CAG",
                 "--disease", "Huntington's disease"]) == 1


def test_scan_text_too_long_exits_1(tmp_path, capsys):
    inp = write_seq(tmp_path, "ACGT" * 10)
    code = main(["--input", inp, "--pattern", "CAG",
                 "--rows", "2", "--width", "4", "--array-blocks", "2"])
    assert code == 1


def test_pattern_len_mismatch_exits_1(tmp_path, capsys):
    inp = write_seq(tmp_path, "CAGCAG")
    code = main(["--input", inp, "--pattern", "CAG", "--pattern-len", "4"])
    assert code == 1


def test_unknown_disease_exits_1(tmp_path, capsys):
    inp = write_seq(tmp_path, "CAGCAG")
    assert main(["--input", inp, "--disease", "nope"]) == 1


def test_custom_catalog(tmp_path):
    catalog = tmp_path / "cat.csv"
    catalog.write_text("Custom disorder,GENEX,CCTG,1,5,9,*\n")
    inp = write_seq(tmp_path, "CCTG" * 12)
    code, report = run_scan_to_report(
        tmp_path, "--input", inp, "--disease", "Custom disorder",
        "--catalog", str(catalog), "--rows", "2", "--width", "64",
        "--array-blocks", "2")
    assert code == 0
    assert report["global_max"] == 12
    assert report["classification"] == "Disease"


def test_explicit_blocks_flag(tmp_path):
    inp = write_seq(tmp_path, "CAG" * 8)
    code, report = run_scan_to_report(
        tmp_path, "--input", inp, "--pattern", "CAG", "--rows", "4",
        "--width", "8", "--array-blocks", "4", "--blocks", "0,1,2")
    assert code == 0
    assert report["active_blocks"] == [0, 1, 2]
    assert report["searched_blocks"] == 3


def test_geometry_flags_flow_into_report(tmp_path):
    inp = write_seq(tmp_path, "CAGCAG")
    code, report = run_scan_to_report(
        tmp_path, "--input", inp, "--pattern", "CAG", "--rows", "4",
        "--width", "8", "--array-blocks", "2", "--clock-ns", "2.0",
        "--write-ns", "3.0")
    assert code == 0
    assert report["clock_ns"] == 2.0
    assert report["write_ns"] == 3.0
    assert report["t_load_ns"] == 8 * 4 * 3.0
    assert report["dt12_ns"] == (8 + 0.5) * 2.0


def test_report_is_byte_stable(tmp_path):
    inp = write_seq(tmp_path, "CAGCAGCAG")
    args = ["--input", inp, "--pattern", "CAG", "--rows", "2", "--width", "8",
            "--array-blocks", "2"]
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(args + ["--report", str(r1)]) == 0
    assert main(args + ["--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


CLEAN = "TTCAGCAGCAGCAGCAGAAT"   # five tandem CAG copies
SMALL_ARRAY = ["--pattern", "CAG", "--rows", "4", "--width", "16",
               "--array-blocks", "2"]


@pytest.mark.parametrize("name, content, extra", [
    ("crlf.fa", ">seq\r\nTTCAGCAGCA\r\nGCAGCAGAAT\r\n", []),
    ("lower.txt", CLEAN.lower(), []),
    ("n.txt", "TTCAGNCAGCAG", []),
    ("empty.fa", ">seq\r\n", []),
    ("clean.txt", CLEAN, ["--blocks", "a"]),
    ("clean.txt", CLEAN, ["--blocks", "9"]),
    ("clean.txt", CLEAN, ["--clock-ns", "nan"]),
    ("clean.txt", CLEAN, ["--clock-ns", "inf"]),
    ("clean.txt", CLEAN, ["--write-ns", "nan"]),
    ("clean.txt", CLEAN, ["--catalog", "bad_catalog.csv"]),
    ("two_records.fa", ">a\nTTCAGCAG\n>b\nCAGCAGTT\n", []),
])
def test_input_robustness(tmp_path, capsys, name, content, extra):
    """Variant spellings of a clean text scan like it; malformed input or
    flags fail with exit 1 and a one-line error, never a traceback."""
    (tmp_path / "bad_catalog.csv").write_text("Custom disorder,GENEX,CCTG,1\n")
    path = tmp_path / name
    path.write_bytes(content.encode())
    code, report = run_scan_to_report(tmp_path, "--input", str(path),
                                      *SMALL_ARRAY, *extra)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if name in ("crlf.fa", "lower.txt"):
        _, clean = run_scan_to_report(tmp_path, "--input",
                                      write_seq(tmp_path, CLEAN), *SMALL_ARRAY)
        assert code == 0
        assert report["global_max"] == clean["global_max"] == 5
    else:
        assert code == 1
        assert report is None
        assert "error:" in err


def test_trace_requires_cycle_mode(tmp_path, capsys):
    inp = write_seq(tmp_path, "CAGCAG")
    code = main(["--input", inp, "--pattern", "CAG",
                 "--trace", str(tmp_path / "t.csv")])
    assert code == 1


def test_cycle_mode_scan_writes_trace(tmp_path):
    inp = write_seq(tmp_path, "CAGCAGCAG")
    trace = tmp_path / "trace.csv"
    code, report = run_scan_to_report(
        tmp_path, "--input", inp, "--pattern", "CAG", "--rows", "2",
        "--width", "8", "--array-blocks", "2", "--mode", "cycle",
        "--trace", str(trace))
    assert code == 0
    assert report["mode"] == "cycle"
    text = trace.read_text()
    assert text.startswith("run,blocks=0-1\n")
    assert f"global_max,{report['global_max']}" in text


def test_cycle_mode_rejects_non_trinucleotide(tmp_path, capsys):
    inp = write_seq(tmp_path, "CCTGCCTG")
    code = main(["--input", inp, "--pattern", "CCTG", "--mode", "cycle",
                 "--rows", "2", "--width", "8", "--array-blocks", "2"])
    assert code == 1


def test_bits_trace_reproduces_golden(capsys):
    code = main(["--bits", "101110000", "--d-bits", "000000001"])
    assert code == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


def test_bits_trace_to_file(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    code = main(["--bits", "101110000", "--d-bits", "000000001",
                 "--trace", str(trace)])
    assert code == 0
    assert trace.read_text() == GOLDEN.read_text()
    assert "global_max 2" in capsys.readouterr().out


def test_bits_trace_all_zero(capsys):
    code = main(["--bits", "000000"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.strip().splitlines()[-1] == "global_max,0"


def test_bits_trace_validates_characters(capsys):
    assert main(["--bits", "10a"]) == 1


def test_bits_trace_inputs_after_exit_exit_1(capsys):
    # D raised before the last input: the FSM cannot consume the rest
    assert main(["--bits", "10", "--d-bits", "11"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: detector stepped after reaching the exit state")


def test_bad_flag_exits_1(capsys):
    assert main(["--no-such-flag"]) == 1


def test_paper_numbers_all_pass(capsys):
    assert main(["--paper-numbers"]) == 0
    out = capsys.readouterr().out
    assert "all reference checks passed" in out
    assert "FAIL" not in out
    assert "known discrepancy" in out   # the ambiguous reference is flagged


def test_reference_rows_individually():
    rows = {r["name"]: r for r in reference_rows()}
    assert rows["dt12_ns"]["computed"] == 128.5
    assert rows["dt23_ns"]["computed"] == 1024.625
    assert all(row_passes(r) for r in rows.values())


def test_package_exports_resolve():
    import repeatscan
    missing = [name for name in repeatscan.__all__ if not hasattr(repeatscan, name)]
    assert missing == []
