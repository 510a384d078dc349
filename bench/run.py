"""Benchmark for repeatscan: whole CLI scans, closed loop, one client.

    python3 bench/run.py --workload panel_full_array --seed 1 --seconds 20 --trace 0

Inputs are generated from the seed before timing starts.  One client in one
thread calls ``repeatscan.cli.main(argv)`` in-process; each scan starts when
the previous one returns.  The loop runs whole passes over the generated
inputs until ``--seconds`` have elapsed, so counts and simulated figures
repeat exactly for a seed.  Every scan's report (and trace) is checked
against answers worked out ahead, outside the timed region.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries per-layer metrics from a traced run, in which each
input is scanned once untraced and once traced to measure the overhead.
See README.md for the workloads and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import hostspeed
from workloads import BLOCKS, WORKLOADS, check_scan, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
SETUP_CODE = ("import time; t = time.perf_counter(); import repeatscan; "
              "repeatscan.builtin_catalog(); t = time.perf_counter() - t; "
              "import hostspeed; print(t * hostspeed.scale())")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(samples: list[float]) -> tuple[int, int, float]:
    """Highest whole percentile with at least ten samples above it (nearest
    rank): the percentile, the samples above it and its value."""
    n = len(samples)
    ordered = sorted(samples)
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= 10:
            return q, n - rank, ordered[rank - 1]
    raise ValueError(f"{n} samples are too few for a tail percentile")


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import the package and build the
    catalog, scaled to reference-host speed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), str(BENCH), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


class Client:
    """Runs scans through ``cli.main`` and checks each one afterwards."""

    def __init__(self, cli, workload: str, specs, directory: Path):
        self.cli = cli
        self.workload = workload
        self.specs = specs
        self.dir = directory
        self.failures: dict[str, int] = {}
        self.attempted = self.failed = 0
        self.reports: dict[str, dict] = {}   # last report per input file

    def scan(self, spec, timed) -> float:
        """One timed scan plus its check; returns host seconds for the call."""
        report_file, trace = self.dir / "report.json", self.dir / "trace.csv"
        for stale in (report_file, trace):
            stale.unlink(missing_ok=True)
        code, elapsed = timed(spec.argv(self.dir))
        if code != 0 or not report_file.exists():
            problems = ["error"]
        else:
            report = json.loads(report_file.read_text())
            trace_text = None
            if spec.trace:
                trace_text = trace.read_text() if trace.exists() else ""
            problems = check_scan(spec, report, trace_text)
            self.reports[spec.file] = report
        self.attempted += 1
        if problems:
            self.failed += 1
            for name in problems:
                self.failures[name] = self.failures.get(name, 0) + 1
        return elapsed

    def call(self, args) -> tuple[int | None, float]:
        start = perf_counter()
        try:
            code = self.cli.main(args)
        except Exception as exc:  # a crashing scan is a failed scan
            print(f"scan raised {type(exc).__name__}: {exc}", file=sys.stderr)
            code = None
        return code, perf_counter() - start

    @property
    def correct(self) -> bool:
        """True unless some check other than the known saturation-label defect failed."""
        return not set(self.failures) - {"saturated_label"}


def run_untraced(client: Client, seconds: float) -> tuple[list[float], list[float], int]:
    """Scan durations (s) and host speed factors, from kernels timed before
    and after each scan."""
    durations, kernels, chars = [], [hostspeed.kernel_seconds()], 0
    start = perf_counter()
    while True:
        for spec in client.specs:
            durations.append(client.scan(spec, client.call))
            kernels.append(hostspeed.kernel_seconds())
            chars += spec.chars
        if perf_counter() - start >= seconds:
            scales = [2 * hostspeed.REFERENCE_S / (a + b) for a, b in zip(kernels, kernels[1:])]
            return durations, scales, chars


def run_traced(client: Client, seconds: float):
    from spans import Tracer
    tracer = Tracer()
    plain, traced = [], []
    start = perf_counter()
    while True:
        for spec in client.specs:
            def timed(args, scan_id=len(traced)):
                with tracer.patched():
                    return tracer.call(scan_id, client.call, args)
            if len(traced) % 2:    # alternate which of the pair goes first
                plain.append(client.scan(spec, client.call))
                traced.append(client.scan(spec, timed))
            else:
                traced.append(client.scan(spec, timed))
                plain.append(client.scan(spec, client.call))
        if perf_counter() - start >= seconds:
            return tracer, plain, traced


def sim_means(reports: dict[str, dict]) -> dict[str, float]:
    """Means over the inputs, so they do not depend on the number of passes."""
    reports = [reports[name] for name in sorted(reports)]
    n = len(reports)
    keys = ("t_total_ns", "energy_total_nj", "cycles_search", "cycles_read_groups",
            "cycles_detector_ticks", "set_events")
    return {k: sum(r[k] for r in reports) / n for k in keys}


def end_to_end(client, durations, scales, chars) -> dict:
    scaled = [d * f for d, f in zip(durations, scales)]
    q, beyond, tail_s = tail(scaled)
    sim = sim_means(client.reports)
    metrics = {
        "scan_ms_p50": (statistics.median(scaled) * 1e3, "ms"),
        "scan_ms_tail": (tail_s * 1e3, "ms"),
        "text_chars_per_s": (chars / sum(scaled), "char/s"),
        "setup_s": (setup_seconds(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sim_us_per_scan": (sim["t_total_ns"] / 1e3, "us_simulated"),
        "sim_nj_per_scan": (sim["energy_total_nj"], "nJ_simulated"),
        "passed_share": (1 - client.failed / client.attempted, "share"),
    }
    print(f"# scans={len(scaled)} tail=p{q} with {beyond} samples beyond;"
          f" unscaled p50={statistics.median(durations) * 1e3:.2f} ms"
          f" p{q}={tail(durations)[2] * 1e3:.2f} ms; host speed factor median"
          f" {statistics.median(scales):.3f}; failed_share={client.failed / client.attempted:.6f}"
          f" {client.failures}")
    return metrics


def per_layer(client, tracer, plain, traced) -> dict:
    from spans import layer_totals, searched_blocks
    n = len(traced)
    totals = layer_totals(tracer.spans, n)
    zeros = {key: [0.0] * n for key in ("s", "self_s", "calls", "units")}
    per = lambda name, key: sum(totals.get(name, zeros)[key]) / n
    ms = lambda name, key="s": per(name, key) * 1e3
    cells = per("acam.load_text", "units")
    searched = searched_blocks(tracer.spans) / n * cells / BLOCKS
    read_bits = per("matchmem.read_all", "units")
    sim = sim_means(client.reports)
    plain_mean, traced_mean = statistics.mean(plain), statistics.mean(traced)
    metrics = {
        "cli.main.self_ms": (ms("cli.main", "self_s"), "ms"),
        "cli.build_scan_report.ms": (ms("cli.build_scan_report"), "ms"),
        "seqio.parse_text.ms": (ms("seqio.parse_text"), "ms"),
        "seqio.parse_text.chars": (per("seqio.parse_text", "units"), "count"),
        "pipeline.scan.ms": (ms("pipeline.scan"), "ms"),
        "pipeline.scan.self_ms": (ms("pipeline.scan", "self_s"), "ms"),
        "acam.load_text.ms": (ms("acam.load_text"), "ms"),
        "acam.load_text.cells": (per("acam.load_text", "units"), "count"),
        "acam.cells_per_searched_cell": (cells / searched, "ratio"),
        "acam.search_cycle.ms": (ms("acam.search_cycle"), "ms"),
        "acam.search_cycle.calls": (per("acam.search_cycle", "calls"), "count"),
        "matchmem.write_column.ms": (ms("matchmem.write_column"), "ms"),
        "matchmem.write_column.calls": (per("matchmem.write_column", "calls"), "count"),
        "matchmem.read_all.ms": (ms("matchmem.read_all"), "ms"),
        "matchmem.read_all.bits": (per("matchmem.read_all", "units"), "count"),
        "matchmem.reset_all.ms": (ms("matchmem.reset_all"), "ms"),
        "detector.detect_functional.ms": (ms("detector.detect_functional"), "ms"),
        "detector.detect_functional.bits": (per("detector.detect_functional", "units"), "count"),
        "detector.bits_per_read_bit": (per("detector.detect_functional", "units") / read_bits,
                                       "ratio"),
        "detector.run_cycle_accurate.ms": (ms("detector.run_cycle_accurate"), "ms"),
        "detector.run_cycle_accurate.bits": (per("detector.run_cycle_accurate", "units"), "count"),
        "detector.format_trace.ms": (ms("detector.format_trace"), "ms"),
        "detector.format_trace.rows": (per("detector.format_trace", "units"), "count"),
        "costmodel.build_report.ms": (ms("costmodel.build_report"), "ms"),
        "sim.cycles_search": (sim["cycles_search"], "count"),
        "sim.cycles_read_groups": (sim["cycles_read_groups"], "count"),
        "sim.detector_ticks": (sim["cycles_detector_ticks"], "count"),
        "sim.set_events": (sim["set_events"], "count"),
        "trace.self_ms_sum": (sum(ms(name, "self_s") for name in totals), "ms"),
        "trace.untraced_scan_ms_mean": (plain_mean * 1e3, "ms"),
        "trace.overhead_pct": ((traced_mean - plain_mean) / plain_mean * 100, "%"),
    }
    spans_file = WORK / f"spans-{client.workload}.csv"
    tracer.write(spans_file)
    print(f"# traced scans={n} spans={len(tracer.spans)} written to {spans_file.relative_to(ROOT)}"
          f" failures={client.failures}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repeatscan" / "__init__.py").is_file():
        print(f"error: no repeatscan package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from repeatscan import cli
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        specs = generate(args.workload, args.seed, directory)
        client = Client(cli, args.workload, specs, directory)
        with contextlib.redirect_stdout(io.StringIO()):
            paper_ok = cli.main(["--paper-numbers"]) == 0
            cli.main(specs[0].argv(directory))   # warm-up, not counted
        if args.trace:
            tracer, plain, traced = run_traced(client, args.seconds)
            metrics = per_layer(client, tracer, plain, traced)
        else:
            metrics = end_to_end(client, *run_untraced(client, args.seconds))
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    print(json.dumps({
        "correct": paper_ok and client.correct,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
