"""DNA text ingestion plus the repeat-expansion disorder catalog.

Text takes one path from file bytes to base codes, the one form a sequence
is held in.  ``parse_text`` drops header lines (a line whose first
non-blank character is '>') and maps the rest through one 256-entry table
in one ``bytes.translate`` that deletes ASCII whitespace and folds case:
A/C/G/T become the codes 0..3, their index in ``ALPHABET``, and any other
byte a marker.  So raw text and FASTA need no format switch.  Every byte
before the first marker is a one-byte base, so the marker's index names
the first invalid character's position too.  ``DnaSequence`` (search
patterns included) keeps the codes, which the array loader stores, and
decodes its symbols only when asked.

Input holds one record: joined records would let a repeat run across them,
and sequence before the first header counts as a record of its own.
Ambiguity codes such as N are rejected rather than mapped: the array cells
have no wildcard storage state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

ALPHABET = "ACGT"
_NOT_A_BASE = 0xFF
_WHITESPACE = b" \t\n\r\x0b\x0c"  # ASCII whitespace, as bytes.split() sees it
_UPPER = bytes(range(256)).upper()  # folds ASCII case, as bytes.upper() does

# The one byte -> code table, case folded: A, C, G, T and a, c, g, t -> 0..3,
# every other byte -> _NOT_A_BASE.
_FOLDED_CODE = bytes(ALPHABET.index(chr(b)) if chr(b) in ALPHABET else _NOT_A_BASE
                     for b in _UPPER)
_CODE_BASE = bytes.maketrans(bytes(range(len(ALPHABET))), ALPHABET.encode())  # and back

NORMAL = "Normal"
INDETERMINATE = "Indeterminate"
DISEASE = "Disease"

# Inclusive integer interval; None marks an unbounded endpoint.
Range = tuple[int | None, int | None]


class SequenceError(ValueError):
    """Invalid DNA input."""


class EmptyInput(SequenceError):
    def __init__(self, source: str = "input") -> None:
        super().__init__(f"{source} contains no sequence data")


class InvalidCharacter(SequenceError):
    """Character outside A/C/G/T; ``position`` is 1-based in the stripped text."""

    def __init__(self, position: int, char: str, source: str = "input") -> None:
        of = "" if source == "input" else f" of the {source}"
        super().__init__(f"invalid character {char!r} at position {position}{of}")
        self.position = position
        self.char = char


class MultipleRecords(SequenceError):
    """Joined FASTA records would count a repeat across their boundary."""

    def __init__(self, count: int) -> None:
        super().__init__(f"FASTA input holds {count} records; scan one at a time")
        self.count = count


class CatalogError(ValueError):
    """Malformed disorder-catalog file."""


def decode(codes: bytes) -> str:
    """The symbols of valid codes, each code's letter in ``ALPHABET``."""
    return codes.translate(_CODE_BASE).decode("ascii")


@dataclass(frozen=True, slots=True, repr=False)
class DnaSequence:
    """Non-empty DNA text, held as its base codes; ``parse_text`` builds it
    from text and checks the codes.

    ``codes`` is the one representation: equality and hashing compare it,
    and the array stores and searches it.  ``symbols``, also ``str()``, is
    decoded from the codes on each use.  It also serves as a search pattern,
    whose length limits against a concrete array geometry are enforced where
    the pattern is used (load/search), not here.
    """

    codes: bytes

    @property
    def symbols(self) -> str:
        return decode(self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __str__(self) -> str:
        return self.symbols

    def __repr__(self) -> str:
        return f"DnaSequence(symbols={self.symbols!r})"


Pattern = DnaSequence  # a search pattern is validated DNA text like any other


def _record_body(raw: bytes) -> bytes:
    """The one record's bytes, its header line dropped; line ends and case
    stay.  Raises MultipleRecords when a header follows sequence or another
    header."""
    at = raw.find(b">")
    if at < 0:
        return raw
    raw = raw.replace(b"\r", b"\n") + b"\n"   # every line, the last too, ends in LF
    records, start = 0, 0
    while at >= 0:
        line, end = raw.rfind(b"\n", 0, at) + 1, raw.find(b"\n", at)
        if not raw[line:at].strip():  # a header; sequence before the first is a record
            records += 1 if records or not raw[:line].strip() else 2
            start = end
        at = raw.find(b">", end)
    if records > 1:
        raise MultipleRecords(records)
    return raw[start:]


def _sequence(body: bytes, encoding: str, source: str) -> DnaSequence:
    """The sequence of ``body``'s bases; its errors name ``source``."""
    codes = body.translate(_FOLDED_CODE, _WHITESPACE)
    if not codes:
        raise EmptyInput(source)
    bad = codes.find(_NOT_A_BASE)
    if bad >= 0:
        stripped = body.translate(_UPPER, _WHITESPACE)
        raise InvalidCharacter(bad + 1, stripped[bad:].decode(encoding)[0], source)
    return DnaSequence(codes)


def parse_text(raw: str | bytes) -> DnaSequence:
    """Parse raw text or one FASTA record into a validated sequence.

    A str is read as its UTF-8 bytes, which hold no ASCII byte inside
    another character, and bytes as Latin-1.  Raises MultipleRecords,
    EmptyInput when no base remains, or InvalidCharacter at the first symbol
    outside the alphabet: its position counts characters without the header
    and ASCII whitespace, and it is reported case-folded.
    """
    encoding = "utf-8" if isinstance(raw, str) else "latin-1"
    body = _record_body(raw.encode() if isinstance(raw, str) else bytes(raw))
    return _sequence(body, encoding, "input")


def parse_pattern(raw: str | bytes) -> Pattern:
    """Parse a search pattern as ``parse_text`` parses a text with no header
    lines, so '>' is an invalid character; the errors name the pattern."""
    encoding = "utf-8" if isinstance(raw, str) else "latin-1"
    return _sequence(raw.encode() if isinstance(raw, str) else bytes(raw), encoding, "pattern")


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


# The built-in ten-disorder catalog, built once per process: entries are frozen.
# Strict bounds from the source material are stored as the equivalent
# inclusive integer endpoints (e.g. "more than 40" becomes lower bound 41).
_BUILTIN = tuple(DiseaseEntry(name, gene, parse_pattern(pat), normal, disease)
                 for name, gene, pat, normal, disease in [
    ("Ataxia syndrome", "FMR1", "CGG", (6, 54), (55, 200)),
    ("Friedreich's ataxia", "FXN", "GAA", (5, 33), (66, 1300)),
    ("Huntington's disease", "HTT", "CAG", (None, 26), (41, None)),
    ("Fragile XE syndrome", "AFF2", "CCG", (6, 25), (201, None)),
    ("Myotonic dystrophy 2", "CNBP", "CCTG", (11, 26), (75, 11000)),
    ("Spinocerebellar ataxia 1", "ATXN1", "CAG", (6, 35), (39, None)),
    ("Huntington's disease-like 2", "JPH3", "CTG", (6, 28), (4, 60)),
    ("Spinal and bulbar muscular atrophy", "AR", "CAG", (11, 24), (40, 62)),
    ("Dentatorubral-pallidoluysian atrophy", "ATN1", "CAG", (7, 25), (49, 88)),
    ("Oculopharyngeal muscular dystrophy", "PABPN1", "GCG", (None, 10), (12, 17)),
])


def builtin_catalog() -> list[DiseaseEntry]:
    """The built-in ten-disorder catalog, as a fresh list on every call."""
    return list(_BUILTIN)


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


def load_catalog(path: str | os.PathLike) -> list[DiseaseEntry]:
    """Load a catalog file: name,gene,pattern,normal_lo,normal_hi,disease_lo,disease_hi.

    The file is UTF-8 in any locale, a leading byte-order mark ignored.  '*'
    marks an unbounded endpoint; blank lines and '#' comments are skipped.
    """
    with open(path, "rb") as f:
        text = f.read().decode("utf-8-sig")
    entries = []
    first_line: dict[str, int] = {}     # find_entry matches names case-insensitively
    for lineno, line in enumerate(text.splitlines(), start=1):
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
        key = name.strip().lower()
        if key in first_line:
            raise CatalogError(f"line {lineno}: disease {name.strip()!r} "
                               f"repeats line {first_line[key]}")
        first_line[key] = lineno
        entries.append(DiseaseEntry(name.strip(), gene.strip(), pattern, *ranges))
    if not entries:
        raise CatalogError("catalog file contains no entries")
    return entries
