"""Seeded inputs for the repeatscan benchmark, with answers worked out ahead.

Everything here is independent of the package under test: the disorder
table, the classification rule and the tandem-repeat oracle are restated so
that a change to the program cannot move the inputs or the expected answers.
The same (workload, seed) always writes byte-identical files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path

# Array geometry the CLI uses by default: M rows of W data columns, B blocks.
ROWS, WIDTH, BLOCKS = 512, 128, 8
BLOCK_CHARS = ROWS // BLOCKS * WIDTH
FULL_CHARS = ROWS * WIDTH
REGISTER_MAX = 255
FASTA_COLS = 60
MIN_FLANK = 64

NORMAL, INDETERMINATE, DISEASE = "Normal", "Indeterminate", "Disease"

# name, gene, repeat unit, normal range, disease range (inclusive, None = open)
CATALOG = [
    ("Ataxia syndrome", "FMR1", "CGG", (6, 54), (55, 200)),
    ("Friedreich's ataxia", "FXN", "GAA", (5, 33), (66, 1300)),
    ("Huntington's disease", "HTT", "CAG", (None, 26), (41, None)),
    ("Fragile XE syndrome", "AFF2", "CCG", (6, 25), (201, None)),
    ("Myotonic dystrophy 2", "DMPK", "CCTG", (11, 26), (75, 11000)),
    ("Spinocerebellar ataxia 1", "ATXN1", "CAG", (6, 35), (39, None)),
    ("Huntington's disease-like 2", "JPH3", "CTG", (6, 28), (4, 60)),
    ("Spinal and bulbar muscular atrophy", "AR", "CAG", (11, 24), (40, 62)),
    ("Dentatorubral-pallidoluysian atrophy", "ATN1", "CAG", (7, 25), (49, 88)),
    ("Oculopharyngeal muscular dystrophy", "PABPN1", "GCG", (None, 10), (12, 17)),
]

# Counts drawn for an open disease range reach this far past its lower bound,
# so some planted repeats exceed the 8-bit counters.
OPEN_RANGE_SPAN = 300

WORKLOADS = ("panel_full_array", "short_reads", "cycle_trace_p3")


def _in_range(count: int, rng: tuple) -> bool:
    lo, hi = rng
    return (lo is None or count >= lo) and (hi is None or count <= hi)


def classify(count: int, entry: tuple) -> str:
    """Disease wins inside an overlap; outside both ranges is Indeterminate."""
    _, _, _, normal, disease = entry
    if _in_range(count, disease):
        return DISEASE
    if _in_range(count, normal):
        return NORMAL
    return INDETERMINATE


def oracle_max_tandem(text: str, unit: str) -> int:
    """Largest k with occurrences of ``unit`` at q, q+p, ..., q+(k-1)p."""
    p = len(unit)
    chain: dict[int, int] = {}
    starts = []
    q = text.find(unit)
    while q != -1:
        starts.append(q)
        q = text.find(unit, q + 1)
    for q in reversed(starts):
        chain[q] = 1 + chain.get(q + p, 0)
    return max(chain.values(), default=0)


def default_blocks(chars: int) -> tuple[int, ...]:
    """Blocks overlapping the rows a text occupies, as the CLI activates them."""
    rows_used = max(1, math.ceil(chars / WIDTH))
    return tuple(range(min(BLOCKS, math.ceil(rows_used / (ROWS // BLOCKS)))))


def segments(blocks: tuple[int, ...]) -> list[tuple[int, int]]:
    """Runs of consecutive blocks as (first, last) pairs."""
    runs: list[list[int]] = []
    for b in sorted(blocks):
        if runs and b == runs[-1][-1] + 1:
            runs[-1].append(b)
        else:
            runs.append([b])
    return [(r[0], r[-1]) for r in runs]


def expected_raw_max(text: str, unit: str, blocks: tuple[int, ...]) -> int:
    """Oracle count per detection segment, maximised over the segments.

    A segment sees its rows' text plus the p-1 characters replicated from
    the row after its last row; a gap in the active blocks splits detection.
    """
    p = len(unit)
    return max(oracle_max_tandem(text[first * BLOCK_CHARS:(last + 1) * BLOCK_CHARS + p - 1], unit)
               for first, last in segments(blocks))


def count_classes(entry: tuple, cap: int) -> list[tuple[str, int, int]]:
    """Count ranges to draw from: normal, gap, disease and above a bounded
    disease range, each clipped to ``cap`` repeats (what fits the text)."""
    _, _, _, (nlo, nhi), (dlo, dhi) = entry
    classes = [("normal", nlo or 1, nhi),
               ("gap", nhi + 1, dlo - 1),
               ("disease", dlo, dhi if dhi is not None else dlo + OPEN_RANGE_SPAN)]
    if dhi is not None:
        classes.append(("above", dhi + 1, dhi + max(50, dhi // 2)))
    return [(name, lo, min(hi, cap)) for name, lo, hi in classes if lo <= min(hi, cap)]


@dataclass(frozen=True)
class ScanSpec:
    """One scan of the workload and the answers it must give."""

    file: str
    disease: str
    unit: str
    count_class: str
    planted: int
    chars: int
    blocks: tuple[int, ...] | None   # None: the CLI's default active blocks
    mode: str
    trace: bool                      # also write --trace (cycle mode only)
    oracle_max: int                  # true count, before 8-bit saturation
    expected_max: int                # what the saturating hardware reports
    expected_label: str              # classify(oracle_max)

    @property
    def saturated(self) -> bool:
        return self.oracle_max > REGISTER_MAX

    def argv(self, directory: Path) -> list[str]:
        args = ["--input", str(directory / self.file), "--disease", self.disease,
                "--report", str(directory / "report.json")]
        if self.blocks is not None:
            args += ["--blocks", ",".join(map(str, self.blocks))]
        if self.mode != "functional":
            args += ["--mode", self.mode]
        if self.trace:
            args += ["--trace", str(directory / "trace.csv")]
        return args


def _background(rng: random.Random, n: int) -> str:
    return "".join(rng.choices("ACGT", k=n))


def _plant(rng: random.Random, text: str, repeat: str, lo: int, hi: int) -> str:
    """Overwrite text with ``repeat`` at a random offset inside [lo, hi)."""
    off = rng.randint(lo, hi - len(repeat))
    return text[:off] + repeat + text[off + len(repeat):]


def _fasta(name: str, text: str) -> str:
    lines = [text[i:i + FASTA_COLS] for i in range(0, len(text), FASTA_COLS)]
    return f">{name}\n" + "\n".join(lines) + "\n"


def _spec(entry, cls, count, text, blocks, mode, file, trace=False) -> ScanSpec:
    unit = entry[2]
    raw = expected_raw_max(text, unit, blocks if blocks is not None else default_blocks(len(text)))
    return ScanSpec(file=file, disease=entry[0], unit=unit, count_class=cls,
                    planted=count, chars=len(text), blocks=blocks, mode=mode, trace=trace,
                    oracle_max=raw, expected_max=min(REGISTER_MAX, raw),
                    expected_label=classify(raw, entry))


def _full_array_scans(rng, entries, mode) -> list[tuple[ScanSpec, str]]:
    """One text per entry and count class.  In cycle mode every third scan
    also writes a trace: with every other one, the median would fall in the
    gap between the traced and untraced modes."""
    out = []
    for entry in entries:
        unit = entry[2]
        for cls, lo, hi in count_classes(entry, (FULL_CHARS - 2 * MIN_FLANK) // len(unit)):
            count = rng.randint(lo, hi)
            text = _plant(rng, _background(rng, FULL_CHARS), unit * count, 0, FULL_CHARS)
            name = f"{len(out):03d}_{entry[1]}_{cls}.fa"
            trace = mode == "cycle" and len(out) % 3 == 2
            out.append((_spec(entry, cls, count, text, None, mode, name, trace),
                        _fasta(f"{entry[1]} {unit}x{count}", text)))
    return out


# short_reads shapes: targeted raw reads over one or two blocks (default
# activation) and full-array FASTA texts restricted to 1-3 blocks, some
# gapped.  The mix is fixed so every seed scans the same block counts.
_READ_SHAPES = [("read", (500, BLOCK_CHARS))] * 9 + [("read", (BLOCK_CHARS + 1, 2 * BLOCK_CHARS))] * 8
_BLOCK_SETS = [1, 1, 1, 1, 1, 1, 2, 2, 2, "2gap", "2gap", "2gap", 3, 3, "3gap", "3gap", "3gap"]


def _block_set(rng: random.Random, kind) -> tuple[int, ...]:
    if kind in (1, 2, 3):
        first = rng.randint(0, BLOCKS - kind)
        return tuple(range(first, first + kind))
    size = int(kind[0])
    while True:
        chosen = tuple(sorted(rng.sample(range(BLOCKS), size)))
        if len(segments(chosen)) > 1:
            return chosen


def _short_read_scans(rng) -> list[tuple[ScanSpec, str]]:
    cap = lambda unit: (BLOCK_CHARS - 2 * MIN_FLANK) // len(unit)
    combos = [(entry, cls, lo, hi) for entry in CATALOG
              for cls, lo, hi in count_classes(entry, cap(entry[2]))]
    shapes = _READ_SHAPES + [("blocks", kind) for kind in _BLOCK_SETS]
    assert len(shapes) == len(combos), "shape mix must cover every combination"
    rng.shuffle(shapes)
    out = []
    for (entry, cls, lo, hi), (shape, arg) in zip(combos, shapes):
        unit = entry[2]
        count = rng.randint(lo, hi)
        repeat = unit * count
        if shape == "read":
            n = rng.randint(max(arg[0], len(repeat) + 2 * MIN_FLANK), arg[1])
            start, end = 0, n
            blocks = None
        else:
            n = FULL_CHARS
            blocks = _block_set(rng, arg)
            first, last = rng.choice(segments(blocks))
            start, end = first * BLOCK_CHARS, (last + 1) * BLOCK_CHARS
        text = _plant(rng, _background(rng, n), repeat, start + MIN_FLANK, end - MIN_FLANK)
        name = f"{len(out):03d}_{entry[1]}_{cls}.{'txt' if shape == 'read' else 'fa'}"
        body = text + "\n" if shape == "read" else _fasta(f"{entry[1]} {unit}x{count}", text)
        out.append((_spec(entry, cls, count, text, blocks, "functional", name), body))
    return out


def generate(workload: str, seed: int, directory: Path) -> list[ScanSpec]:
    """Write the workload's input files and ``expected.json`` into directory."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "panel_full_array":
        scans = _full_array_scans(rng, CATALOG, "functional")
    elif workload == "short_reads":
        scans = _short_read_scans(rng)
    else:
        scans = _full_array_scans(rng, [e for e in CATALOG if len(e[2]) == 3], "cycle")
    directory.mkdir(parents=True, exist_ok=True)
    for spec, body in scans:
        (directory / spec.file).write_text(body)
    specs = [spec for spec, _ in scans]
    (directory / "expected.json").write_text(
        json.dumps([asdict(s) for s in specs], indent=1, sort_keys=True) + "\n")
    return specs


def check_scan(spec: ScanSpec, report: dict, trace_text: str | None) -> list[str]:
    """Names of the checks a scan's output fails; empty when it passes.

    ``saturated_label`` is the known open defect: a saturated count given a
    confident label that the true count does not have.
    """
    failures = []
    if report.get("global_max") != spec.expected_max:
        failures.append("global_max")
    if trace_text is not None:
        last = trace_text.rstrip("\n").rsplit("\n", 1)[-1]
        if last != f"global_max,{spec.expected_max}":
            failures.append("trace")
    label = report.get("classification")
    if spec.saturated:
        if label not in (spec.expected_label, INDETERMINATE):
            failures.append("saturated_label")
    elif label != spec.expected_label:
        failures.append("label")
    return failures
