"""Command-line frontend.

One flat command: scan a sequence for a pattern or disease preset, dump a
cycle-accurate detector trace, or check the cost model against the reference
figures of the characterized design instance (--paper-numbers).  Traces are
streamed to the --trace file (or stdout for --bits) as they are formatted.
The input file is raw text or one FASTA record; ``seqio.parse_text`` tells
them apart by their header lines, so there is no format option.  Reports are
flat JSON objects with times in ns and energies in nJ, rounded to three
decimals so report files diff cleanly.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__, detector
from .acam import GeometryError
from .costmodel import (PHYSICAL_COLS, CycleCounts, CycleCountMismatch,
                        TimingParams, energy, energy_shares, geometry_for_text,
                        latency, latency_shares)
from .detector import SteppedAfterExit, run_trace
from .pipeline import (InternalInvariantError, ScanRequest, ScanResult,
                       make_request, scan)
from .seqio import (CatalogError, SequenceError, builtin_catalog, find_entry,
                    load_catalog, parse_pattern, parse_text)

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
    p.add_argument("--rows", type=int, default=512, help="array rows M (default 512)")
    p.add_argument("--width", type=int, default=128, help="data width W (default 128)")
    p.add_argument("--array-blocks", type=int, default=8,
                   help="row blocks B the array is split into (default 8)")
    p.add_argument("--clock-ns", type=float, default=1.0, help="clock period T in ns")
    p.add_argument("--write-ns", type=float, default=None,
                   help="memristor write time in ns (default: one clock)")
    p.add_argument("--mode", choices=["functional", "cycle"], default="functional",
                   help="detector mode (cycle = FSM, pattern length 3 only)")
    p.add_argument("--trace", help="write the cycle-accurate detector trace here (--mode cycle)")
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.add_argument("--paper-numbers", action="store_true",
                   help="check the cost model against the reference figures and exit")
    p.add_argument("--bits", help="drive the detector FSM with this 0/1 string and exit")
    p.add_argument("--d-bits", help="explicit end-of-sequence vector for --bits")
    return p


def build_scan_report(request: ScanRequest, result: ScanResult, mode: str) -> dict:
    timing = request.timing
    cost = result.report
    lat = cost.latency
    return {
        "pattern": str(request.pattern),
        "disease": request.disease.name if request.disease else None,
        "gene": request.disease.gene if request.disease else None,
        "classification": result.classification,
        "range_overlap_flagged": result.range_overlap_flagged,
        "mode": mode,
        "text_length": len(request.text),
        "global_max": result.global_max,
        "saturated": result.saturated,
        "per_block_max": result.per_block_max,
        "active_blocks": list(request.active_blocks),
        **vars(timing),
        "mem_rows": timing.mem_rows,
        "mem_cols": timing.mem_cols,
        **{k: round(v, 3) for k, v in vars(lat).items()},
        "search_time_ns": round(lat.t_total_ns - lat.t_load_ns, 3),
        **{f"cycles_{'reset' if k == 'resets' else k}": v
           for k, v in vars(cost.cycles).items() if k != "blocks"},
        "set_events": result.set_events,
        **{f"energy_{k}": round(v, 3) for k, v in vars(cost.energy).items()},
        "energy_per_char_divisor": "searched_blocks * mem_rows * mem_cols",
        **{f"latency_share_{k}": round(v, 6) for k, v in latency_shares(lat).items()},
        **{f"energy_share_{k}": round(v, 6) for k, v in energy_shares(cost.energy).items()},
    }


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
        params = TimingParams(data_width=PHYSICAL_COLS - (p - 1), pattern_len=p,
                              searched_blocks=1)
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
    if row["tol_pct"] == _EXACT:
        return row["computed"] == row["reference"]
    dev = abs(row["computed"] - row["reference"]) / row["reference"]
    return dev <= row["tol_pct"] / 100.0


def run_paper_numbers(out=None) -> int:
    out = out or sys.stdout
    rows = reference_rows()
    all_ok = True
    print(f"{'figure':<22}{'computed':>14}{'reference':>12}{'dev%':>9}"
          f"{'tol%':>8}  result", file=out)
    for row in rows:
        dev = abs(row["computed"] - row["reference"]) / row["reference"] * 100.0
        ok = row_passes(row)
        all_ok = all_ok and ok
        tol = "exact" if row["tol_pct"] == _EXACT else f"{row['tol_pct']:g}"
        note = f"  ({row['note']})" if row["note"] else ""
        print(f"{row['name']:<22}{row['computed']:>14.3f}{row['reference']:>12.3f}"
              f"{dev:>9.3f}{tol:>8}  {'PASS' if ok else 'FAIL'}{note}", file=out)
    base = latency(TimingParams())
    lsh = latency_shares(base)
    esh = energy_shares(energy(CycleCounts.closed_form(TimingParams(searched_blocks=1))))
    print("\nper-block latency shares: "
          + ", ".join(f"{k}={v:.4%}" for k, v in lsh.items()), file=out)
    print("per-block energy shares:  "
          + ", ".join(f"{k}={v:.4%}" for k, v in esh.items()), file=out)
    print("all reference checks passed" if all_ok else "some reference checks FAILED",
          file=out)
    return 0 if all_ok else 2


def run_bits_trace(args) -> int:
    for name, value in (("--bits", args.bits), ("--d-bits", args.d_bits)):
        if value is not None and set(value) - set("01"):
            raise ValueError(f"{name} must be a string of 0s and 1s")
    global_max, trace = run_trace(args.bits, args.d_bits)
    if args.trace:
        with open(args.trace, "wb") as out:
            detector.format_trace(trace, global_max, out)
        print(f"global_max {global_max}")
    else:
        detector.format_trace(trace, global_max, sys.stdout.buffer)
    return 0


def run_scan(args) -> int:
    if args.input is None:
        raise ValueError("--input is required")
    if bool(args.pattern) == bool(args.disease):
        raise ValueError("exactly one of --pattern or --disease is required")
    text = parse_text(Path(args.input).read_bytes())

    catalog = load_catalog(args.catalog) if args.catalog else builtin_catalog()
    disease = find_entry(catalog, args.disease) if args.disease else None
    pattern = disease.pattern if disease else parse_pattern(args.pattern)

    active = None
    if args.blocks:
        active = [int(b) for b in args.blocks.split(",") if b.strip() != ""]
    request = make_request(
        text, pattern, rows=args.rows, data_width=args.width,
        blocks=args.array_blocks, clock_ns=args.clock_ns, write_ns=args.write_ns,
        active_blocks=active, disease=disease,
        cycle_accurate=args.mode == "cycle",
        record_detector_trace=bool(args.trace))
    result = scan(request)

    # build_report names a non-finite figure; none may reach the JSON
    report = json.dumps(build_scan_report(request, result, args.mode),
                        indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.report:
        Path(args.report).write_text(report)
    else:
        sys.stdout.write(report)
    if args.trace:
        with open(args.trace, "wb") as out:
            for run, trace, fsm_max in result.detector_trace:
                out.write(f"run,blocks={run[0]}-{run[-1]}\n".encode())
                detector.format_trace(trace, fsm_max, out)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse usage error (1) or --help/--version (0)
        return int(exc.code or 0)
    try:
        if args.paper_numbers:
            return run_paper_numbers()
        if args.bits is not None:
            return run_bits_trace(args)
        return run_scan(args)
    except (InternalInvariantError, CycleCountMismatch) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (SequenceError, CatalogError, GeometryError, SteppedAfterExit,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
