import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeatscan.cli import build_parser, main, reference_rows, row_passes
from repeatscan.detector import REGISTER_MAX, TRACE_HEADER, oracle_max_tandem

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "trace_101110000.csv"

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
    # a disease scan over gapped blocks at odd periods, against the golden
    # report (dt23_ns 3.2375 rounds to 3.237)
    text = "GA" + "CAG" * 8 + "TT" + "CAG" * 4 + "ACGTTGCATACGTTGCATA"
    inp = write_seq(tmp_path, text, "htt.txt")
    assert main(["--input", inp, "--disease", "Huntington's disease",
                 "--rows", "8", "--width", "16", "--array-blocks", "4",
                 "--blocks", "0,2,3", "--clock-ns", "0.7", "--write-ns", "1.3",
                 "--report", str(r1)]) == 0
    assert r1.read_bytes() == (GOLDEN_DIR / "report_htt_gapped.json").read_bytes()


CLEAN = "TTCAGCAGCAGCAGCAGAAT"   # five tandem CAG copies
SMALL_ARRAY = ["--pattern", "CAG", "--rows", "4", "--width", "16",
               "--array-blocks", "2"]


# The part of the error a row must print where the error names the fault,
# keyed by the row's file name and flags.
ERROR_NAMES = {
    ("n.txt",): "invalid character 'N' at position 6",
    ("empty.fa",): "input contains no sequence data",
    ("two_records.fa",): "FASTA input holds 2 records",
    ("data_first.fa",): "FASTA input holds 2 records",
    ("clean.txt", "--blocks", ",,"): "at least one block must be activated",
    ("clean.txt", "--catalog", "bad_catalog.csv"): "line 1: expected 7 fields",
    ("clean.txt", "--catalog", "bad_range.csv"): "line 1: bad range endpoint 'x'",
    ("clean.txt", "--write-ns", "1e308"): "t_load_ns is inf",
    ("clean.txt", "--clock-ns", "1e308"): "t_load_ns is inf",
    ("clean.txt", "--clock-ns", "1e308", "--write-ns", "1"): "dt12_ns is inf",
}


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
    ("data_first.fa", "CAGCAG\n>x\nCAGCAGTT\n", []),
    ("clean.txt", CLEAN, ["--write-ns", "1e308"]),
    ("clean.txt", CLEAN, ["--clock-ns", "1e308"]),
    ("clean.txt", CLEAN, ["--clock-ns", "1e308", "--write-ns", "1"]),
    ("clean.txt", CLEAN, ["--blocks", ",,"]),
    ("clean.txt", CLEAN, ["--catalog", "bad_range.csv"]),
])
def test_input_robustness(tmp_path, monkeypatch, capsys, name, content, extra):
    """Variant spellings of a clean text scan like it; malformed input or
    flags fail with exit 1 and a one-line error, never a traceback, naming
    the fault where ``ERROR_NAMES`` gives it."""
    monkeypatch.chdir(tmp_path)     # the catalog paths are relative
    (tmp_path / "bad_catalog.csv").write_text("Custom disorder,GENEX,CCTG,1\n")
    (tmp_path / "bad_range.csv").write_text("Inv,GENEX,CAG,x,10,60,*\n")
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
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ERROR_NAMES.get((name, *extra), "") in err


# Pieces of the robustness inputs: bases in both cases, header lines, line
# ends, blanks, a non-ASCII space, an ambiguity code and NUL.
FUZZ_PIECES = ["A", "C", "G", "T", "a", "c", "g", "t", "CAG", "cag", ">x", ">",
               "\n", "\r\n", "\t", " ", "\xa0", "N", "\x00"]


def read_as_dna(raw: bytes) -> tuple[str, int]:
    """An independent reading of an input file: the text left once header
    lines and ASCII whitespace are dropped and case is folded, and the number
    of records (sequence before the first header counts as one)."""
    lines = re.split(r"\r\n|\r|\n", raw.decode("latin-1"))
    blank = " \t\x0b\x0c"
    header = [ln.lstrip(blank).startswith(">") for ln in lines]
    first_is_header = next((h for ln, h in zip(lines, header) if ln.strip(blank)), True)
    kept = "".join(ln for ln, h in zip(lines, header) if not h)
    return re.sub(f"[{blank}]", "", kept).upper(), sum(header) + (not first_is_header)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(FUZZ_PIECES), max_size=60))
def test_cli_fuzz_scans_or_fails_with_one_error_line(tmp_path_factory, pieces):
    """A scan of any mix of the pieces either equals the oracle on the text
    as read above, or exits 1 with one ``error:`` line; never 2, never a
    traceback."""
    raw = "".join(pieces).encode("latin-1")
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "in.fa").write_bytes(raw)
    report = directory / "report.json"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--input", str(directory / "in.fa"), "--pattern", "CAG",
                     "--rows", "16", "--width", "32", "--array-blocks", "4",
                     "--report", str(report)])
    text, records = read_as_dna(raw)
    if text and set(text) <= set("ACGT") and records <= 1:
        assert (code, err.getvalue()) == (0, "")
        result = json.loads(report.read_text())
        assert result["text_length"] == len(text)
        assert result["global_max"] == min(oracle_max_tandem(text, "CAG"), REGISTER_MAX)
    else:
        assert code == 1 and not report.exists()
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


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


def test_gapped_cycle_scan_writes_one_trace_section_per_run(tmp_path):
    # blocks 0-1 hold a 4-copy run across their boundary; block 2, left out,
    # would join block 3's two copies into a longer run
    inp = write_seq(tmp_path, "TCAGCAGC" "AGCAGTTA" "CAGCAGCA" "GCAGCAGA")
    report, trace = tmp_path / "report.json", tmp_path / "trace.csv"
    assert main(["--input", inp, "--pattern", "CAG", "--rows", "4", "--width", "8",
                 "--array-blocks", "4", "--blocks", "0,1,3", "--mode", "cycle",
                 "--report", str(report), "--trace", str(trace)]) == 0
    assert report.read_bytes() == (GOLDEN_DIR / "report_cag_cycle_gapped.json").read_bytes()
    assert trace.read_bytes() == (GOLDEN_DIR / "trace_cag_gapped.csv").read_bytes()


def test_cycle_mode_rejects_non_trinucleotide(tmp_path, capsys):
    inp = write_seq(tmp_path, "CCTGCCTG")
    code = main(["--input", inp, "--pattern", "CCTG", "--mode", "cycle",
                 "--rows", "2", "--width", "8", "--array-blocks", "2"])
    assert code == 1


def test_bits_trace_reproduces_golden(capsys):
    code = main(["--bits", "101110000", "--d-bits", "000000001"])
    assert code == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


def test_main_calls_share_the_parser_but_no_flag_values(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    assert main(["--bits", "101110000", "--d-bits", "000000001",
                 "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == "global_max 2\n"
    # neither --trace nor --d-bits carries over: the trace goes to stdout
    # and D defaults to the last input
    assert main(["--bits", "10"]) == 0
    assert capsys.readouterr().out.startswith(TRACE_HEADER + "\n1,Initial,1,0,")
    assert build_parser() is build_parser()


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
    assert out == (GOLDEN_DIR / "paper_numbers.txt").read_text()


def test_module_entry_point():
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "repeatscan", *args],
                              capture_output=True, text=True, env=env)

    paper = run("--paper-numbers")
    assert paper.returncode == 0
    assert paper.stdout == (GOLDEN_DIR / "paper_numbers.txt").read_text()
    version = run("--version")
    assert version.returncode == 0
    assert version.stdout.startswith("repeatscan ")


def test_reference_rows_individually():
    rows = {r["name"]: r for r in reference_rows()}
    assert rows["dt12_ns"]["computed"] == 128.5
    assert rows["dt23_ns"]["computed"] == 1024.625
    assert all(row_passes(r) for r in rows.values())


def test_package_exports_resolve():
    import repeatscan
    missing = [name for name in repeatscan.__all__ if not hasattr(repeatscan, name)]
    assert missing == []
