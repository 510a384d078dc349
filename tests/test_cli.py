import contextlib
import hashlib
import inspect
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repeatscan import acam, cli, detector, matchmem, seqio
from repeatscan.cli import (build_parser, build_scan_report, json_members, json_object,
                            main, reference_rows, row_passes)
from repeatscan.costmodel import TimingParams
from repeatscan.detector import REGISTER_MAX, oracle_max_tandem, trace_header
from repeatscan.pipeline import ScanRequest, make_request, scan
from repeatscan.seqio import parse_pattern, parse_text

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


@pytest.mark.parametrize("target, flagged", [
    (["--disease", "Huntington's disease-like 2"], True),   # JPH3: 6-28 and 4-60 overlap
    (["--disease", "Huntington's disease"], False),
    (["--pattern", "CAG"], False),                           # no disease, no ranges
])
def test_report_flags_overlapping_catalog_ranges(tmp_path, target, flagged):
    inp = write_seq(tmp_path, "CTG" * 20 + "CAG" * 20)
    code, report = run_scan_to_report(
        tmp_path, "--input", inp, *target,
        "--rows", "4", "--width", "64", "--array-blocks", "2")
    assert code == 0
    assert report["range_overlap_flagged"] is flagged


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


def test_catalog_is_read_as_utf8_in_the_c_locale(tmp_path):
    # a catalog saved with a byte-order mark, a non-ASCII name on line 2 and
    # a process whose locale encoding is ASCII
    catalog = tmp_path / "cat.csv"
    catalog.write_bytes("My HTT,HTT,CAG,*,26,41,*\nCafé ataxia,GENEX,CTG,1,5,6,*\n"
                        .encode("utf-8-sig"))
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "repeatscan", "--input",
                           write_seq(tmp_path, "CAG" * 45), "--disease", "My HTT",
                           "--catalog", str(catalog)], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert (report["disease"], report["global_max"], report["classification"]) == (
        "My HTT", 45, "Disease")


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


def test_full_array_report_is_byte_stable(tmp_path):
    # all 8 blocks of the default 512 x 128 array, the first 65,536 bases of
    # a seeded text with 60 CAG copies across the block 3/4 boundary at base
    # 32,768: blocks 3 and 4 hold 31 and 29 copies, the run counts whole
    rng = random.Random(2205)
    text = "".join(rng.choices("ACGT", k=65536))
    start = 4 * 8192 - 91
    text = text[:start] + "CAG" * 60 + text[start + 180:]
    assert oracle_max_tandem(text, "CAG") == 60
    report = tmp_path / "r.json"
    assert main(["--input", write_seq(tmp_path, text), "--disease", "Huntington's disease",
                 "--report", str(report)]) == 0
    assert report.read_bytes() == (GOLDEN_DIR / "report_full_array_cag.json").read_bytes()


def dumps(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**200, 2**200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308, 0.1, 1e-7]),
    st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028", "\ud800", "Normal"]))


@given(st.dictionaries(st.text(), st.one_of(json_scalars, st.lists(st.integers()),
                                            st.lists(json_scalars, max_size=3),
                                            st.lists(st.lists(st.integers(), max_size=2),
                                                     max_size=2))),
       st.data())
@example({}, None)
@settings(max_examples=500)
def test_report_writer_is_byte_identical_to_json_dumps(report, data):
    assert json_object(json_members(report)) == dumps(report)
    if data is not None:    # the members of two disjoint parts merge in key order
        part = data.draw(st.sets(st.sampled_from(sorted(report)) if report else st.nothing()))
        members = (json_members({k: v for k, v in report.items() if k in part})
                   + json_members({k: v for k, v in report.items() if k not in part}))
        assert json_object(members) == dumps(report)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, [1.0, math.nan]])
def test_report_writer_refuses_non_finite_floats(value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        dumps({"x": value})
    with pytest.raises(ValueError, match="not JSON compliant"):
        json_members({"x": value})


@pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), b"CAG", {3}, object()])
def test_report_writer_refuses_what_json_refuses(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        dumps({"x": value})
    with pytest.raises(TypeError, match="is not JSON serializable"):
        json_members({"x": value})


def test_int_periods_report_as_floats():
    # an int period is held as its float, so both share one cache entry
    text, pattern = parse_text("CAGCAG"), parse_pattern("CAG")
    for clock in (1.0, 1, 1.0):
        request = make_request(text, pattern, rows=2, data_width=8, blocks=2, clock_ns=clock)
        report = json.loads(build_scan_report(request, scan(request)))
        assert type(report["clock_ns"]) is type(report["dt34_ns"]) is float


@pytest.mark.parametrize("clock, write", [(2, 3), (np.float32(0.7), np.float32(1.3)),
                                          (np.float64(0.7), np.float64(1.3))])
def test_any_number_type_of_period_reports_as_the_equal_python_float(clock, write):
    # each order starts the cost cache cold, so neither form rides on the other's entry
    text, pattern = parse_text("CAGCAG" * 4), parse_pattern("CAG")
    periods = [(clock, write), (float(clock), float(write))]
    for order in (periods, periods[::-1]):
        cli._cost_members.cache_clear()
        reports = []
        for clock_ns, write_ns in order:
            request = make_request(text, pattern, rows=4, data_width=8, blocks=2,
                                   clock_ns=clock_ns, write_ns=write_ns)
            assert {type(v) for v in vars(request.timing).values()} == {int, float}
            reports.append(build_scan_report(request, scan(request)))
        assert reports[0] == reports[1]


def test_numpy_int_geometry_reports_as_python_int_geometry():
    # equal cost reports share a cache entry, so each order starts it cold
    text, pattern = parse_text("CAGCAG" * 4), parse_pattern("CAG")
    for kinds in ((np.int64, int), (int, np.int64)):
        cli._cost_members.cache_clear()
        reports = []
        for kind in kinds:
            request = make_request(text, pattern, rows=kind(4), data_width=kind(8),
                                   blocks=kind(2))
            assert {type(v) for v in vars(request.timing).values()} == {int, float}
            reports.append(build_scan_report(request, scan(request)))
        assert reports[0] == reports[1]


def test_full_array_scans_decode_no_text_and_encode_one_cost_report_once(tmp_path,
                                                                          monkeypatch):
    # the text goes from file bytes to the array as codes; two scans at one
    # geometry and block count share one encoding of the cost members
    rng = random.Random(23)
    decoded, decode = [], seqio.decode
    monkeypatch.setattr(seqio, "decode", lambda codes: decoded.append(len(codes)) or decode(codes))
    cli._cost_members.cache_clear()
    for name, text in [("a.fa", rng.choices("ACGT", k=65536)), ("b.fa", ["CAG"] * 21845 + ["T"])]:
        path = tmp_path / name
        path.write_text(">read\n" + "".join(text) + "\n")
        assert main(["--input", str(path), "--pattern", "cag",
                     "--report", str(tmp_path / "r.json")]) == 0
        assert json.loads((tmp_path / "r.json").read_text())["text_length"] == 65536
    assert decoded == [3, 3]        # the parsed pattern of each call, for the report
    info = cli._cost_members.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_cli_scan_imports_no_logging(tmp_path):
    # the per-block debug logger is looked up only once a program has
    # imported logging itself; importing it would cost every run memory
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["--input", write_seq(tmp_path, CLEAN), "--pattern", "CAG",
            "--report", str(tmp_path / "r.json")]
    code = ("import sys; from repeatscan.cli import main; "
            f"print(main({argv!r}), 'logging' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "0 False\n"


@pytest.mark.parametrize("flags", [["--rows", "1000000000", "--array-blocks", "1"],
                                   ["--width", "100000000"]])
def test_oversized_geometry_is_refused_before_anything_is_allocated(tmp_path, monkeypatch,
                                                                    capsys, flags):
    def allocate(text, timing):
        raise AssertionError("load_text was called")
    monkeypatch.setattr(acam, "load_text", allocate)
    code = main(["--input", write_seq(tmp_path, CLEAN), "--pattern", "CAG", *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceeds 268435456 cells; lower --rows or --width" in err


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
    ("clean.txt", "--blocks", "a"): "--blocks must list block indices, not 'a'",
    ("clean.txt", "--blocks", "9"): "block 9 outside [0, 2)",
    ("clean.txt", "--blocks", ",,"): "at least one block must be activated",
    ("clean.txt", "--blocks", ""): "at least one block must be activated",
    ("clean.txt", "--catalog", "bad_catalog.csv"): "line 1: expected 7 fields",
    ("clean.txt", "--catalog", "bad_range.csv"): "line 1: bad range endpoint 'x'",
    ("clean.txt", "--catalog", "dup_name.csv"): "line 2: disease 'foo' repeats line 1",
    ("clean.txt", "--write-ns", "1e308"): "t_load_ns is inf",
    ("clean.txt", "--clock-ns", "1e308"): "t_load_ns is inf",
    ("clean.txt", "--clock-ns", "1e308", "--write-ns", "1"): "dt12_ns is inf",
    ("clean.txt", "--mode", "cycle", "--trace", "missing/t.csv"):
        "No such file or directory: 'missing/t.csv'",
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
    ("clean.txt", CLEAN, ["--catalog", "dup_name.csv"]),
    ("clean.txt", CLEAN, ["--mode", "cycle", "--trace", "missing/t.csv"]),
    ("clean.txt", CLEAN, ["--blocks", ""]),
])
def test_input_robustness(tmp_path, monkeypatch, capsys, name, content, extra):
    """Variant spellings of a clean text scan like it; malformed input or
    flags fail with exit 1 and a one-line error, never a traceback, naming
    the fault where ``ERROR_NAMES`` gives it."""
    monkeypatch.chdir(tmp_path)     # the catalog paths are relative
    (tmp_path / "bad_catalog.csv").write_text("Custom disorder,GENEX,CCTG,1\n")
    (tmp_path / "bad_range.csv").write_text("Inv,GENEX,CAG,x,10,60,*\n")
    (tmp_path / "dup_name.csv").write_text("Foo,G1,CAG,1,20,30,*\nfoo,G2,CTG,1,5,6,*\n")
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


@pytest.mark.parametrize("old", [None, b"{\r\n" + b"x" * 4096 + b"\r\n}\r\n"],
                         ids=["new", "longer_existing"])
def test_report_file_holds_the_stdout_report_and_no_older_bytes(tmp_path, capsys, old):
    # a new report file, or an existing longer one that the scan overwrites
    inp = write_seq(tmp_path, CLEAN)
    assert main(["--input", inp, *SMALL_ARRAY]) == 0
    shown = capsys.readouterr().out.encode("ascii")
    report = tmp_path / "r.json"
    if old is not None:
        report.write_bytes(old)
        assert len(old) > len(shown)
    assert main(["--input", inp, *SMALL_ARRAY, "--report", str(report)]) == 0
    assert report.read_bytes() == shown and b"\r" not in shown


def test_crlf_fasta_input_reports_as_its_lf_form(tmp_path):
    lf = ">read one\nTTCAGCAG\nCAGCAGCAG\nAAT\n"
    reports = []
    for name, text in (("lf.fa", lf), ("crlf.fa", lf.replace("\n", "\r\n"))):
        (tmp_path / name).write_bytes(text.encode())
        report = tmp_path / f"{name}.json"
        assert main(["--input", str(tmp_path / name), *SMALL_ARRAY,
                     "--report", str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["global_max"] == 5


def test_latin1_input_byte_exits_1_with_the_parsers_message(tmp_path, capsys):
    raw = b"TTCAG\xe9CAGCAG"
    (tmp_path / "latin1.txt").write_bytes(raw)
    with pytest.raises(seqio.InvalidCharacter) as parsed:
        parse_text(raw)
    assert main(["--input", str(tmp_path / "latin1.txt"), *SMALL_ARRAY]) == 1
    assert capsys.readouterr().err == f"error: {parsed.value}\n"
    assert "'\xe9' at position 6" in str(parsed.value)


def test_unwritable_report_leaves_no_trace_file(tmp_path, monkeypatch, capsys):
    # a run that exits 1 leaves neither of the files it was asked to write
    monkeypatch.chdir(tmp_path)
    inp = write_seq(tmp_path, CLEAN)
    code = main(["--input", inp, *SMALL_ARRAY, "--mode", "cycle", "--trace", "t.csv",
                 "--report", "missing/r.json"])
    assert code == 1
    assert "No such file or directory: 'missing/r.json'" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def _scan_outputs(tmp_path, report, trace):
    """Exit code of a traced scan of CLEAN, writing its report and trace to
    the given paths."""
    return main(["--input", write_seq(tmp_path, CLEAN), *SMALL_ARRAY, "--mode", "cycle",
                 "--report", str(report), "--trace", str(trace)])


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_outputs_to_the_null_device_exit_0(tmp_path, capsys):
    assert _scan_outputs(tmp_path, os.devnull, tmp_path / "t.csv") == 0
    assert _scan_outputs(tmp_path, tmp_path / "r.json", os.devnull) == 0
    assert main(["--bits", "101", "--trace", os.devnull]) == 0
    assert capsys.readouterr().err == ""
    assert os.path.exists(os.devnull)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_failed_report_write_keeps_a_trace_that_is_no_regular_file(tmp_path, capsys):
    # only a regular trace file is removed; a pipe or a device stays
    fifo = tmp_path / "trace.pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the scan open it
    try:
        code = _scan_outputs(tmp_path, tmp_path / "missing" / "r.json", fifo)
    finally:
        os.close(reader)
    assert code == 1 and capsys.readouterr().err.startswith("error: [Errno 2]")
    assert fifo.exists()


@pytest.mark.parametrize("spell", ["same", "relative", "symlink", "hardlink", "new"])
def test_report_and_trace_on_one_file_exit_1_before_either_is_written(tmp_path, monkeypatch,
                                                                     capsys, spell):
    # written to one file, the trace would overwrite the report
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "out.txt"
    if spell != "new":
        target.write_text("kept\n")
        (tmp_path / "link.txt").symlink_to(target)
        os.link(target, tmp_path / "hard.txt")
    other = {"same": str(target), "relative": "./out.txt", "symlink": "link.txt",
             "hardlink": "hard.txt", "new": "./out.txt"}[spell]
    code = main(["--input", write_seq(tmp_path, CLEAN), *SMALL_ARRAY, "--mode", "cycle",
                 "--report", str(target), "--trace", other])
    assert code == 1
    assert capsys.readouterr().err == "error: --report and --trace name the same file\n"
    assert target.read_text() == "kept\n" if spell != "new" else not target.exists()


@pytest.mark.parametrize("mode", [["--bits", "101"], ["--paper-numbers"]])
def test_report_outside_a_scan_exits_1_and_writes_nothing(tmp_path, capsys, mode):
    report = tmp_path / "r.json"
    assert main([*mode, "--report", str(report)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --report") and err.count("\n") == 1
    assert not report.exists()


@pytest.mark.parametrize("out", ["--report", "--trace"])
@pytest.mark.parametrize("inp, spell", [("--input", "same"), ("--input", "symlink"),
                                        ("--catalog", "same"), ("--catalog", "relative")])
def test_output_naming_an_input_exits_1_and_keeps_the_input(tmp_path, monkeypatch, capsys,
                                                            out, inp, spell):
    # written over the input, the report or trace would destroy it
    monkeypatch.chdir(tmp_path)
    seq = write_seq(tmp_path, CLEAN)
    catalog = tmp_path / "catalog.csv"
    catalog.write_text("Huntington's disease,HTT,CAG,0,35,36,*\n")
    (tmp_path / "link.txt").symlink_to(seq if inp == "--input" else catalog)
    target = seq if inp == "--input" else str(catalog)
    before = Path(target).read_bytes()
    other = {"same": target, "symlink": "link.txt", "relative": "./catalog.csv"}[spell]
    args = ["--input", seq, "--catalog", str(catalog), *SMALL_ARRAY, "--mode", "cycle"]
    code = main([*args, out, other])
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {out} and {inp} name the same file\n")
    assert Path(target).read_bytes() == before


@pytest.mark.parametrize("mode", [["--bits", "101"], ["--paper-numbers"]])
@pytest.mark.parametrize("flag", [
    ["--input", "missing.txt"], ["--pattern", "CAG"], ["--disease", "Huntington's disease"],
    ["--catalog", "missing.csv"], ["--blocks", "0"], ["--rows", "4"], ["--width", "16"],
    ["--array-blocks", "2"], ["--clock-ns", "2"], ["--write-ns", "2"], ["--mode", "cycle"]])
def test_scan_flag_beside_another_mode_exits_1_and_reads_and_writes_nothing(
        tmp_path, monkeypatch, capsys, mode, flag):
    # a flag the mode would ignore is an error, not a silent no-op; the
    # input named is not there, so reading it would word another error
    monkeypatch.chdir(tmp_path)
    assert main([*mode, *flag]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {flag[0]} does not apply to {mode[0]}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, flag", [
    (["--paper-numbers", "--trace", "pt.csv"], "--trace"),
    (["--bits", "101", "--paper-numbers"], "--bits")])
def test_paper_numbers_takes_neither_a_trace_nor_bits(tmp_path, monkeypatch, capsys,
                                                      args, flag):
    monkeypatch.chdir(tmp_path)
    assert main(args) == 1
    assert capsys.readouterr() == ("", f"error: {flag} does not apply to --paper-numbers\n")
    assert list(tmp_path.iterdir()) == []


def test_scan_flags_at_their_defaults_are_accepted_beside_another_mode(tmp_path, capsys):
    # only a value that differs from the default would be ignored
    trace = tmp_path / "t.csv"
    assert main(["--bits", "101110000", "--trace", str(trace), "--mode", "functional",
                 "--rows", "512", "--clock-ns", "1"]) == 0
    assert trace.read_text() == GOLDEN.read_text()
    assert main(["--paper-numbers", "--width", "128"]) == 0
    assert capsys.readouterr().out.endswith("all reference checks passed\n")


def test_out_of_memory_exits_1_with_one_error_line(tmp_path, monkeypatch, capsys):
    # a geometry too large to hold fails in load_text; a real one of a few GB
    # could be granted and touched where memory is overcommitted
    def refuse(text, timing):
        raise MemoryError("Unable to allocate 119. GiB")
    monkeypatch.setattr(acam, "load_text", refuse)
    code = main(["--input", write_seq(tmp_path, CLEAN), *SMALL_ARRAY])
    assert code == 1
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 119. GiB\n"


def test_detector_disagreement_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    # with no flush zero, phase 0's run of three is never compared
    monkeypatch.setattr(detector, "flush_zeros", lambda p: 0)
    code = main(["--input", write_seq(tmp_path, "CAGCAGCAG"), "--pattern", "CAG",
                 "--rows", "1", "--width", "9", "--array-blocks", "1", "--mode", "cycle"])
    assert code == 2
    assert capsys.readouterr().err == (
        "internal error: cycle-accurate detector returned 0, functional 3\n")


def test_cycle_count_mismatch_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    # the closed-form check raises the same error type as the detector check
    read_all = matchmem.MatchIndexMemory.read_all
    monkeypatch.setattr(matchmem.MatchIndexMemory, "read_all",
                        lambda memory: read_all(memory)[:-1])
    code = main(["--input", write_seq(tmp_path, CLEAN), *SMALL_ARRAY])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("internal error: metered cycle counts ") and err.count("\n") == 1


@pytest.mark.parametrize("args, message", [
    # an unset shell variable in --disease "$D" gives the empty value
    (["--pattern", "CAG", "--disease", ""], "exactly one of --pattern or --disease"),
    (["--pattern", "", "--disease", "Huntington's disease"],
     "exactly one of --pattern or --disease"),
    (["--pattern", "CAG", "--catalog", ""], "No such file or directory: ''"),
    (["--pattern", "CAG", "--report", ""], "No such file or directory: ''"),
    (["--pattern", "CAG", "--mode", "cycle", "--trace", ""], "No such file or directory: ''"),
    (["--bits", "101", "--trace", ""], "No such file or directory: ''"),
], ids=["disease", "pattern", "catalog", "report", "trace", "bits-trace"])
def test_an_empty_flag_value_exits_1_with_one_error_line(
        tmp_path, monkeypatch, capsys, args, message):
    monkeypatch.chdir(tmp_path)
    inp = write_seq(tmp_path, "CAGCAGCAG")
    assert main(args if args[0] == "--bits" else ["--input", inp, *args]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert [path.name for path in tmp_path.iterdir()] == ["seq.txt"]


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


def test_scan_across_fill_passes_reports_the_oracle_and_one_pass_blocks(tmp_path,
                                                                        monkeypatch):
    # 16 blocks filled in passes of 3: repeats planted across the first pass
    # boundary (block 3) and across character rows/2 * W, the array's middle
    rows, width, m = 1024, 128, 64
    rng = random.Random(28)
    text = [rng.choice("ACGT") for _ in range(rows * width)]
    for middle, copies in ((3 * m * width, 40), (rows // 2 * width, 70)):
        start = middle - 3 * copies // 2 - 1
        text[start:start + 3 * copies] = "CAG" * copies
    text = "".join(text)
    inp = write_seq(tmp_path, text)
    reports = []
    for cells in (3 * m * (width + 2), 16 * m * (width + 2)):
        monkeypatch.setattr(acam, "FILL_CELLS", cells)
        code, report = run_scan_to_report(tmp_path, "--input", inp, "--pattern", "CAG",
                                          "--rows", str(rows), "--array-blocks", "16")
        assert code == 0
        reports.append(report)
    assert reports[0]["global_max"] == oracle_max_tandem(text, "CAG") == 70
    assert reports[0]["per_block_max"] == reports[1]["per_block_max"]
    assert reports[0] == reports[1]


def test_full_array_gapped_cycle_trace_is_byte_stable(tmp_path):
    # blocks 0, 1 and 3 of the default 512 x 128 array: a 16,389-row section
    # for run 0-1, where 300 CAG copies across the block 0/1 boundary saturate
    # the counter, and an 8,197-row one for block 3.  The digest was recorded
    # before the trace's chunk layout changed.
    rng = random.Random(1515)
    text = "".join(rng.choices("ACGT", k=65536))
    start = 8192 - 450
    text = text[:start] + "CAG" * 300 + text[start + 900:]
    report, trace = tmp_path / "r.json", tmp_path / "t.csv"
    assert main(["--input", write_seq(tmp_path, text), "--pattern", "CAG", "--mode", "cycle",
                 "--blocks", "0,1,3", "--report", str(report), "--trace", str(trace)]) == 0
    data = trace.read_bytes()
    assert data.count(b"run,blocks=") == 2 and json.loads(report.read_text())["saturated"]
    assert len(data) == 906_517
    assert hashlib.sha256(data).hexdigest() == \
        "d8547e1cc30eadb3d6daa1051cba00736f30f6b3b257d38fdd15ec8c26ed0778"


def test_cycle_mode_rejects_pattern_length_1(tmp_path, capsys):
    inp = write_seq(tmp_path, "CCTGCCTG")
    code = main(["--input", inp, "--pattern", "C", "--mode", "cycle",
                 "--rows", "2", "--width", "8", "--array-blocks", "2"])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: the detector FSM cannot serve pattern length 1\n"


def test_cycle_mode_scans_a_tetranucleotide_disease_at_the_default_geometry(tmp_path):
    # CNBP's CCTG: the FSM runs with four phases, and its trace shows them
    inp = write_seq(tmp_path, "GATTACA" + "CCTG" * 80 + "TTAGGC")
    trace = tmp_path / "t4.csv"
    code, report = run_scan_to_report(tmp_path, "--input", inp, "--disease",
                                      "Myotonic dystrophy 2", "--mode", "cycle",
                                      "--trace", str(trace))
    assert code == 0
    assert (report["global_max"], report["classification"]) == (80, "Disease")
    assert report["gene"] == "CNBP"
    lines = trace.read_text().splitlines()
    assert lines[0] == "run,blocks=0-0"
    assert lines[1].startswith("cycle,state,x,d,C1,C2,C3,C4,R1,")
    assert lines[-1] == f"global_max,{report['global_max']}"


def test_bits_trace_reproduces_golden(capsys):
    code = main(["--bits", "101110000"])
    assert code == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


def test_bits_trace_writes_text_to_a_stdout_without_a_buffer():
    # an in-process caller may redirect stdout to a text-only stream
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--bits", "101110000"]) == 0
    assert out.getvalue() == GOLDEN.read_text()


def test_main_calls_share_the_parser_but_no_flag_values(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    assert main(["--bits", "101110000", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out == "global_max 2\n"
    # --trace does not carry over: the trace goes to stdout
    assert main(["--bits", "10"]) == 0
    assert capsys.readouterr().out.startswith(trace_header(3) + "\n1,Initial,1,0,")
    assert build_parser() is build_parser()


def test_bits_trace_to_file(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    code = main(["--bits", "101110000", "--trace", str(trace)])
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


def test_bad_flag_exits_1(capsys):
    assert main(["--no-such-flag"]) == 1
    # there is no D vector to give: D is raised with the last --bits input
    assert main(["--bits", "101110000", "--d-bits", "000000001"]) == 1


def test_option_set_is_pinned():
    # adding or removing a setting shows up here as a reviewed diff
    assert sorted(s for a in build_parser()._actions for s in a.option_strings) == [
        "--array-blocks", "--bits", "--blocks", "--catalog", "--clock-ns", "--disease",
        "--help", "--input", "--mode", "--paper-numbers", "--pattern", "--report",
        "--rows", "--trace", "--version", "--width", "--write-ns", "-h"]


def test_scan_settings_are_pinned():
    # a new knob of a scan shows up here as a reviewed diff; the pattern
    # length and K of a request's timing are derived, not set
    assert [name for name, param in inspect.signature(make_request).parameters.items()
            if param.kind is param.KEYWORD_ONLY] == [
        "rows", "data_width", "blocks", "clock_ns", "write_ns", "active_blocks",
        "disease", "cycle_accurate", "record_detector_trace"]
    assert [f.name for f in fields(ScanRequest)] == [
        "text", "pattern", "timing", "active_blocks", "disease", "cycle_accurate",
        "record_detector_trace"]
    assert [f.name for f in fields(TimingParams)] == [
        "clock_ns", "write_ns", "rows", "data_width", "pattern_len", "blocks",
        "searched_blocks"]


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
