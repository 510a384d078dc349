"""DNA text ingestion plus the repeat-expansion disorder catalog.

Sequences are plain uppercase strings over A/C/G/T.  Raw and FASTA inputs
are normalized (the header dropped, whitespace removed, case folded) before
validation, so every downstream module can assume a clean alphabet.  FASTA
input holds one record: joined records would let a repeat run across them.
Ambiguity codes such as N are rejected rather than mapped: the array cells
have no wildcard storage state.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

ALPHABET = "ACGT"

NORMAL = "Normal"
INDETERMINATE = "Indeterminate"
DISEASE = "Disease"

# Inclusive integer interval; None marks an unbounded endpoint.
Range = tuple[int | None, int | None]


class SequenceError(ValueError):
    """Invalid DNA input."""


class EmptyInput(SequenceError):
    def __init__(self) -> None:
        super().__init__("input contains no sequence data")


class InvalidCharacter(SequenceError):
    """Character outside A/C/G/T; ``position`` is 1-based in the normalized text."""

    def __init__(self, position: int, char: str) -> None:
        super().__init__(f"invalid character {char!r} at position {position}")
        self.position = position
        self.char = char


class MultipleRecords(SequenceError):
    """Joined FASTA records would count a repeat across their boundary."""

    def __init__(self, count: int) -> None:
        super().__init__(f"FASTA input holds {count} records; scan one at a time")
        self.count = count


class CatalogError(ValueError):
    """Malformed disorder-catalog file."""


_INVALID_SYMBOL = re.compile(f"[^{ALPHABET}]")


def _validate_symbols(symbols: str) -> None:
    if not symbols:
        raise EmptyInput()
    bad = _INVALID_SYMBOL.search(symbols)
    if bad:
        raise InvalidCharacter(bad.start() + 1, bad.group())


@dataclass(frozen=True)
class DnaSequence:
    """Validated DNA text."""

    symbols: str

    def __post_init__(self) -> None:
        _validate_symbols(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return self.symbols


@dataclass(frozen=True)
class Pattern:
    """Validated search pattern.

    Length limits against a concrete array geometry are enforced when the
    pattern is actually used (load/search), not here.
    """

    symbols: str

    def __post_init__(self) -> None:
        _validate_symbols(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return self.symbols


def normalize(raw: str | bytes, fmt: str = "raw") -> str:
    """Strip the one FASTA header / whitespace and fold case; no validation yet."""
    if isinstance(raw, (bytes, bytearray)):
        raw = raw.decode("latin-1")
    if fmt not in ("raw", "fasta"):
        raise ValueError(f"unknown format {fmt!r}")
    lines = raw.splitlines()
    if fmt == "fasta":
        data = [ln for ln in lines if not ln.lstrip().startswith(">")]
        if len(lines) - len(data) > 1:
            raise MultipleRecords(len(lines) - len(data))
        lines = data
    return "".join("".join(ln.split()) for ln in lines).upper()


def parse_text(raw: str | bytes, fmt: str = "raw") -> DnaSequence:
    """Parse a raw or FASTA stream into a validated sequence.

    Raises EmptyInput when nothing remains after stripping, or
    InvalidCharacter for any symbol outside the alphabet (case-insensitive).
    """
    return DnaSequence(normalize(raw, fmt))


def parse_pattern(raw: str) -> Pattern:
    return Pattern(normalize(raw, "raw"))


def in_range(count: int, rng: Range) -> bool:
    lo, hi = rng
    return (lo is None or count >= lo) and (hi is None or count <= hi)


def _ranges_overlap(a: Range, b: Range) -> bool:
    lo = max(a[0] or 0, b[0] or 0)
    hi_a = a[1] if a[1] is not None else float("inf")
    hi_b = b[1] if b[1] is not None else float("inf")
    return lo <= min(hi_a, hi_b)


@dataclass(frozen=True)
class DiseaseEntry:
    """One repeat-expansion disorder: gene, repeat unit, and count thresholds.

    ``normal_range``/``disease_range`` are inclusive; catalog rows whose two
    ranges overlap are kept verbatim and flagged via ``overlapping`` rather
    than rejected, and classification prefers Disease inside the overlap.
    """

    name: str
    gene: str
    pattern: Pattern
    normal_range: Range
    disease_range: Range

    @property
    def overlapping(self) -> bool:
        return _ranges_overlap(self.normal_range, self.disease_range)


def classify(count: int, entry: DiseaseEntry, saturated: bool = False) -> str:
    """Map a repeat count to Normal / Indeterminate / Disease.

    Total over non-negative counts: everything outside both ranges (the gap
    between them, or below a bounded normal range) is Indeterminate.  A
    ``saturated`` count is only a lower bound on the true count: its label
    stands only if every count from there up gets the same one, otherwise it
    is Indeterminate.
    """
    if count < 0:
        raise ValueError("repeat count must be non-negative")
    if saturated:
        # the label can only change where a range starts or just past its end
        ranges = (entry.normal_range, entry.disease_range)
        edges = [lo for lo, _ in ranges if lo is not None]
        edges += [hi + 1 for _, hi in ranges if hi is not None]
        labels = {classify(c, entry) for c in [count, *edges] if c >= count}
        return labels.pop() if len(labels) == 1 else INDETERMINATE
    if in_range(count, entry.disease_range):
        return DISEASE
    if in_range(count, entry.normal_range):
        return NORMAL
    return INDETERMINATE


def builtin_catalog() -> list[DiseaseEntry]:
    """The built-in ten-disorder catalog.

    Strict bounds from the source material are stored as the equivalent
    inclusive integer endpoints (e.g. "more than 40" becomes lower bound 41).
    """
    rows = [
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
    return [
        DiseaseEntry(name, gene, Pattern(pat), normal, disease)
        for name, gene, pat, normal, disease in rows
    ]


def find_entry(catalog: list[DiseaseEntry], name: str) -> DiseaseEntry:
    for entry in catalog:
        if entry.name.lower() == name.lower():
            return entry
    raise CatalogError(f"unknown disease {name!r}")


def _parse_bound(field: str) -> int | None:
    field = field.strip()
    if field == "*":
        return None
    try:
        return int(field)
    except ValueError as exc:
        raise CatalogError(f"bad range endpoint {field!r}") from exc


def load_catalog(path: str | Path) -> list[DiseaseEntry]:
    """Load a catalog file: name,gene,pattern,normal_lo,normal_hi,disease_lo,disease_hi.

    '*' marks an unbounded endpoint; blank lines and '#' comments are skipped.
    """
    entries = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 7:
            raise CatalogError(f"line {lineno}: expected 7 fields, got {len(fields)}")
        name, gene, pat, nlo, nhi, dlo, dhi = fields
        try:
            pattern = parse_pattern(pat)
        except SequenceError as exc:
            raise CatalogError(f"line {lineno}: {exc}") from exc
        entries.append(
            DiseaseEntry(
                name.strip(),
                gene.strip(),
                pattern,
                (_parse_bound(nlo), _parse_bound(nhi)),
                (_parse_bound(dlo), _parse_bound(dhi)),
            )
        )
    if not entries:
        raise CatalogError("catalog file contains no entries")
    return entries
