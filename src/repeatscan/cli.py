"""Command-line frontend.

One flat command: scan a sequence for a pattern or disease preset, dump the
detector trace of a 0/1 string (--bits, D raised on its last input), or check
the cost model against the reference figures of the characterized design
instance (--paper-numbers).  Traces are streamed to the --trace file (or
stdout for --bits) as they are formatted.
The input file is read as bytes: raw text or one FASTA record, which
``seqio.parse_text`` tells apart by their header lines, so there is no format
option.  Reports are flat JSON objects with times in ns and energies in nJ,
rounded to three decimals so report files diff cleanly; a --report file gets
them as ASCII bytes with LF line ends.  The report writer (``json_members``,
``json_object``) writes them byte for byte as ``json.dumps(report, indent=2,
sort_keys=True, allow_nan=False)`` plus a newline would.  Most members come
from the scan's cost report alone, so each distinct cost report is encoded
once and its member lines are merged with the scan's own.  The in-process
loop of ``bench/run.py`` decided to keep both: one ``json.dumps`` call in
their place made short_reads ``scan_ms_p50`` 19.6% slower (16 of 16 pairs)
and panel_full_array 13.5% (12 of 12), seed 5, on a 2-core host.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
import os
import stat
import sys
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from typing import Iterable

from . import __version__, detector
from .costmodel import (MAX_ARRAY_CELLS, CostReport, CycleCounts, InternalInvariantError,
                        TimingParams, energy, energy_shares, geometry_for_text, latency,
                        latency_shares)
from .pipeline import ScanRequest, ScanResult, make_request, scan
from .seqio import (builtin_catalog, find_entry, load_catalog, parse_pattern,
                    parse_text)

# Published figures for the characterized instance (M=512, 130 columns, B=8,
# T = T_w = 1 ns), with the acceptance tolerance per row.  The p=5 total is
# known not to be reproducible exactly from the closed forms; its deviation
# is printed, not hidden.
_EXACT = 0.0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors: exit 1
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built on first use; ``parse_args`` leaves it
    unchanged, so every call shares it."""
    p = _Parser(prog="repeatscan",
                description="Simulate an analog-CAM tandem-repeat scan over a DNA sequence.")
    p.add_argument("--version", action="version", version=f"repeatscan {__version__}")
    p.add_argument("--input",
                   help="sequence file: raw text or one FASTA record ('>' lines are headers)")
    p.add_argument("--pattern", help="pattern to search, e.g. CAG")
    p.add_argument("--disease", help="disease preset from the catalog (pattern implied)")
    p.add_argument("--catalog", help="catalog file overriding the built-in one")
    p.add_argument("--blocks", help="comma-separated activated block indices (0-based)")
    p.add_argument("--rows", type=int, default=TimingParams.rows,
                   help="array rows M (default %(default)s); the text must fit in M x W "
                   f"cells, and M x (W + p - 1) may not exceed {MAX_ARRAY_CELLS} cells")
    p.add_argument("--width", type=int, default=TimingParams.data_width,
                   help="data width W (default %(default)s)")
    p.add_argument("--array-blocks", type=int, default=TimingParams.blocks,
                   help="row blocks B the array is split into (default %(default)s)")
    p.add_argument("--clock-ns", type=float, default=TimingParams.clock_ns,
                   help="clock period T in ns")
    p.add_argument("--write-ns", type=float, default=None,
                   help="memristor write time in ns (default: one clock)")
    p.add_argument("--mode", choices=["functional", "cycle"], default="functional",
                   help="detector mode (cycle = the FSM too, checked against functional)")
    p.add_argument("--trace", help="write the cycle-accurate detector trace here (--mode cycle)")
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.add_argument("--paper-numbers", action="store_true",
                   help="check the cost model against the reference figures and exit")
    p.add_argument("--bits", help=f"drive the detector FSM for pattern length "
                   f"{TimingParams.pattern_len} with this 0/1 string, the "
                   "end-of-sequence signal raised on its last input, and exit")
    return p


def _json_value(value, indent: str) -> str:
    """``value`` as ``json.dumps(..., indent=2, allow_nan=False)`` writes it
    at ``indent``, with json's type tests in json's order and its errors.
    Lists and tuples may nest; a dict value raises TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        return (f"[\n{inner}" + f",\n{inner}".join([_json_value(v, inner) for v in value])
                + f"\n{indent}]")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_members(fields: dict[str, object]) -> list[tuple[str, str]]:
    """Each field as one member of an indent-2 JSON object: its key, for
    sorting, and its text."""
    return [(key, f"  {encode_basestring_ascii(key)}: {_json_value(value, '  ')}")
            for key, value in fields.items()]


def json_object(members: Iterable[tuple[str, str]]) -> str:
    """Members with distinct keys, in sorted key order, as one JSON object
    and a newline: for ``json_members(report)`` byte for byte
    ``json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\\n"``."""
    lines = [text for _, text in sorted(members)]
    return "{\n" + ",\n".join(lines) + "\n}\n" if lines else "{}\n"


@functools.lru_cache(maxsize=16)
def _cost_members(cost: CostReport) -> tuple[tuple[str, str], ...]:
    """The report members that the cost report alone decides, encoded once
    per distinct report: a process that scans many texts at one geometry
    and block count reuses them, one that scans once always misses."""
    timing, lat = cost.params, cost.latency
    return tuple(json_members({
        **vars(timing),
        "mem_rows": timing.mem_rows,
        "mem_cols": timing.mem_cols,
        **{k: round(v, 3) for k, v in vars(lat).items()},
        "search_time_ns": round(lat.t_total_ns - lat.t_load_ns, 3),
        **{f"cycles_{'reset' if k == 'resets' else k}": v
           for k, v in vars(cost.cycles).items()},
        **{f"energy_{k}": round(v, 3) for k, v in vars(cost.energy).items()},
        "energy_per_char_divisor": "searched_blocks * mem_rows * mem_cols",
        **{f"latency_share_{k}": round(v, 6) for k, v in latency_shares(lat).items()},
        **{f"energy_share_{k}": round(v, 6) for k, v in energy_shares(cost.energy).items()},
    }))


def build_scan_report(request: ScanRequest, result: ScanResult) -> str:
    """The flat JSON report of one scan, as text; its mode is read from the
    request, and the cost members, timing included, from the result."""
    return json_object([
        *_cost_members(result.report),
        *json_members({
            "pattern": str(request.pattern),
            "disease": request.disease.name if request.disease else None,
            "gene": request.disease.gene if request.disease else None,
            "classification": result.classification,
            "range_overlap_flagged": (request.disease is not None
                                      and request.disease.overlapping),
            "mode": "cycle" if request.cycle_accurate else "functional",
            "text_length": len(request.text),
            "global_max": result.global_max,
            "saturated": result.saturated,
            "per_block_max": result.per_block_max,
            "active_blocks": request.active_blocks,
            "set_events": result.set_events,
        }),
    ])


def reference_rows() -> list[dict]:
    """Computed vs reference figures with their acceptance tolerances."""
    base = TimingParams()
    lat = latency(base)
    rows = [
        {"name": "t_load_ns", "computed": lat.t_load_ns, "reference": 4096.0,
         "tol_pct": _EXACT, "note": ""},
        {"name": "dt12_ns", "computed": lat.dt12_ns, "reference": 128.5,
         "tol_pct": _EXACT, "note": ""},
        {"name": "dt23_ns", "computed": lat.dt23_ns, "reference": 1024.625,
         "tol_pct": _EXACT, "note": ""},
        {"name": "dt34_ns", "computed": lat.dt34_ns, "reference": 1.0,
         "tol_pct": _EXACT, "note": ""},
        {"name": "per_block_ns", "computed": lat.per_block_ns, "reference": 1150.0,
         "tol_pct": 1.0, "note": "reference rounded to 1.15 us"},
    ]
    totals = [(3, 147.7, 0.5, ""),
              (5, 144.4, 5.0, "known discrepancy: reference sizing is ambiguous"),
              (10, 148.393, 5.0, "")]
    for p, ref_us, tol, note in totals:
        params = geometry_for_text(1_000_000, p)
        fig = latency(params)
        rows.append({"name": f"total_1m_p{p}_us",
                     "computed": (fig.t_total_ns - fig.t_load_ns) / 1000.0,
                     "reference": ref_us, "tol_pct": tol, "note": note})
    energies = [(3, 5.2, 1.0, ""), (5, 5.09, 5.0, "informational"), (10, 4.9, 3.0, "")]
    per_char = None
    for p, ref_nj, tol, note in energies:
        params = replace(geometry_for_text(1_000_000, p), searched_blocks=1)
        fig = energy(CycleCounts.closed_form(params))
        rows.append({"name": f"energy_block_p{p}_nj", "computed": fig.total_nj,
                     "reference": ref_nj, "tol_pct": tol, "note": note})
        if p == 3:
            per_char = fig.per_char_pj
    rows.append({"name": "energy_per_char_pj", "computed": per_char,
                 "reference": 0.61, "tol_pct": 10.0,
                 "note": "divisor: searched_blocks * mem_rows * mem_cols"})
    return rows


def row_passes(row: dict) -> bool:
    dev = abs(row["computed"] - row["reference"]) / row["reference"]
    return dev <= row["tol_pct"] / 100.0


def run_paper_numbers() -> int:
    rows = reference_rows()
    all_ok = True
    print(f"{'figure':<22}{'computed':>14}{'reference':>12}{'dev%':>9}"
          f"{'tol%':>8}  result")
    for row in rows:
        dev = abs(row["computed"] - row["reference"]) / row["reference"] * 100.0
        ok = row_passes(row)
        all_ok = all_ok and ok
        tol = "exact" if row["tol_pct"] == _EXACT else f"{row['tol_pct']:g}"
        note = f"  ({row['note']})" if row["note"] else ""
        print(f"{row['name']:<22}{row['computed']:>14.3f}{row['reference']:>12.3f}"
              f"{dev:>9.3f}{tol:>8}  {'PASS' if ok else 'FAIL'}{note}")
    base = latency(TimingParams())
    lsh = latency_shares(base)
    esh = energy_shares(energy(CycleCounts.closed_form(TimingParams(searched_blocks=1))))
    print("\nper-block latency shares: "
          + ", ".join(f"{k}={v:.4%}" for k, v in lsh.items()))
    print("per-block energy shares:  "
          + ", ".join(f"{k}={v:.4%}" for k, v in esh.items()))
    print("all reference checks passed" if all_ok else "some reference checks FAILED")
    return 0 if all_ok else 2


def run_bits_trace(args) -> int:
    if set(args.bits) - set("01"):
        raise ValueError("--bits must be a string of 0s and 1s")
    global_max, trace = detector.run_trace(args.bits, TimingParams.pattern_len)
    if args.trace is not None:
        with open(args.trace, "wb") as out:
            detector.format_trace(trace, out)
        print(f"global_max {global_max}")
    elif hasattr(sys.stdout, "buffer"):
        detector.format_trace(trace, sys.stdout.buffer)
    else:                           # a text-only stdout, such as io.StringIO
        text = io.BytesIO()
        detector.format_trace(trace, text)
        sys.stdout.write(text.getvalue().decode())
    return 0


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file, also through a symlink or a hard link."""
    there = os.path.exists(a), os.path.exists(b)
    if all(there):
        return os.path.samefile(a, b)
    return not any(there) and os.path.realpath(a) == os.path.realpath(b)  # both to be created


def run_scan(args) -> int:
    if args.input is None:
        raise ValueError("--input is required")
    if (args.pattern is None) == (args.disease is None):
        raise ValueError("exactly one of --pattern or --disease is required")
    # an output written over the report or an input would destroy it
    paths = vars(args)
    for out, other in (("report", "trace"), ("report", "input"), ("report", "catalog"),
                       ("trace", "input"), ("trace", "catalog")):
        if None not in (paths[out], paths[other]) and _same_file(paths[out], paths[other]):
            raise ValueError(f"--{out} and --{other} name the same file")
    with open(args.input, "rb") as f:
        text = parse_text(f.read())

    catalog = builtin_catalog() if args.catalog is None else load_catalog(args.catalog)
    disease = None if args.disease is None else find_entry(catalog, args.disease)
    pattern = parse_pattern(args.pattern) if disease is None else disease.pattern

    try:
        active = (None if args.blocks is None
                  else [int(b) for b in args.blocks.split(",") if b.strip()])
    except ValueError:
        raise ValueError(f"--blocks must list block indices, not {args.blocks!r}") from None
    request = make_request(
        text, pattern, rows=args.rows, data_width=args.width,
        blocks=args.array_blocks, clock_ns=args.clock_ns, write_ns=args.write_ns,
        active_blocks=active, disease=disease,
        cycle_accurate=args.mode == "cycle",
        record_detector_trace=args.trace is not None)
    result = scan(request)

    # build_report names a non-finite figure; none may reach the JSON
    report = build_scan_report(request, result)
    # an unwritable trace path fails before any report is written, and a
    # report that cannot be written takes the opened trace file with it
    with open(args.trace, "wb") if args.trace is not None else contextlib.nullcontext() as out:
        try:
            if args.report is not None:
                with open(args.report, "wb") as f:
                    f.write(report.encode("ascii"))
            else:
                sys.stdout.write(report)
        except OSError:
            # only a regular file is removed: a device or a pipe stays
            if out is not None and stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.close()
                os.unlink(args.trace)
            raise
        for run, trace in result.detector_trace:
            out.write(f"run,blocks={run[0]}-{run[-1]}\n".encode())
            detector.format_trace(trace, out)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse usage error (1) or --help/--version (0)
        return int(exc.code or 0)
    try:
        if args.paper_numbers or args.bits is not None:  # reject what would be ignored
            mode, own = (("--paper-numbers", {"paper_numbers"}) if args.paper_numbers
                         else ("--bits", {"bits", "trace"}))
            for dest, value in vars(args).items():
                if dest not in own and value != build_parser().get_default(dest):
                    raise ValueError(f"--{dest.replace('_', '-')} does not apply to {mode}")
        if args.paper_numbers:
            return run_paper_numbers()
        if args.bits is not None:
            return run_bits_trace(args)
        return run_scan(args)
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:      # e.g. a geometry too large to hold
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
