"""DNA text ingestion plus the repeat-expansion disorder catalog.

Text takes one path from file bytes to base codes.  ``normalize`` drops
header lines (a line whose first non-blank character is '>'), ASCII
whitespace and line ends, and folds ASCII case, so raw text and FASTA need
no format switch.  ``encode`` then maps every byte through one 256-entry
table: A/C/G/T become the codes 0..3, their index in ``ALPHABET``, and any
other byte is rejected with its position.  ``DnaSequence`` (search patterns
included) validates through it and the array loader stores its codes.

Input holds one record: joined records would let a repeat run across them,
and sequence before the first header counts as a record of its own.
Ambiguity codes such as N are rejected rather than mapped: the array cells
have no wildcard storage state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

ALPHABET = "ACGT"
_NOT_A_BASE = 0xFF

# The one byte -> code table: A, C, G, T -> 0..3, every other byte -> _NOT_A_BASE.
_BASE_CODE = bytes(ALPHABET.index(chr(b)) if chr(b) in ALPHABET else _NOT_A_BASE
                   for b in range(256))

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


def encode(symbols: str) -> bytes:
    """One code per symbol, its index in ``ALPHABET``; case is not folded.

    Raises InvalidCharacter at the first symbol outside the alphabet.
    """
    codes = symbols.encode("latin-1", "replace").translate(_BASE_CODE)
    bad = codes.find(_NOT_A_BASE)
    if bad >= 0:
        raise InvalidCharacter(bad + 1, symbols[bad])
    return codes


@dataclass(frozen=True)
class DnaSequence:
    """Validated, non-empty DNA text.

    It also serves as a search pattern, whose length limits against a
    concrete array geometry are enforced where the pattern is used
    (load/search), not here.  ``codes`` keeps ``encode``'s result, which
    the array loader stores.
    """

    symbols: str
    codes: bytes = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.symbols:
            raise EmptyInput()
        object.__setattr__(self, "codes", encode(self.symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return self.symbols


Pattern = DnaSequence  # a search pattern is validated DNA text like any other


def normalize(raw: str | bytes) -> str:
    """Drop the header line and ASCII whitespace, fold case; no validation yet.

    Bytes are read as Latin-1, one character per byte.  Raises
    MultipleRecords when a header follows sequence or another header.
    """
    encoding = "utf-8" if isinstance(raw, str) else "latin-1"
    if isinstance(raw, str):  # UTF-8 puts no ASCII byte inside another character
        raw = raw.encode(encoding)
    lines = raw.splitlines()
    data = [ln for ln in lines if not ln.lstrip().startswith(b">")]
    records = len(lines) - len(data)
    if records and next(ln for ln in lines if ln.strip()).lstrip()[:1] != b">":
        records += 1
    if records > 1:
        raise MultipleRecords(records)
    return b"".join(b"".join(data).split()).upper().decode(encoding)


def parse_text(raw: str | bytes) -> DnaSequence:
    """Parse raw text or one FASTA record into a validated sequence.

    Raises EmptyInput when nothing remains after stripping, or
    InvalidCharacter for any symbol outside the alphabet (case-insensitive;
    the character is reported case-folded).
    """
    return DnaSequence(normalize(raw))


def parse_pattern(raw: str) -> Pattern:
    return Pattern(normalize(raw))


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
            ranges = ((_parse_bound(nlo), _parse_bound(nhi)),
                      (_parse_bound(dlo), _parse_bound(dhi)))
        except (SequenceError, CatalogError) as exc:
            raise CatalogError(f"line {lineno}: {exc}") from exc
        for lo, hi in ranges:
            if lo is not None and hi is not None and lo > hi:
                raise CatalogError(f"line {lineno}: inverted range {lo}..{hi}")
        entries.append(DiseaseEntry(name.strip(), gene.strip(), pattern, *ranges))
    if not entries:
        raise CatalogError("catalog file contains no entries")
    return entries
