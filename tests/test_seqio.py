import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repeatscan import seqio
from repeatscan.seqio import (DISEASE, INDETERMINATE, NORMAL, CatalogError,
                              DiseaseEntry, DnaSequence, EmptyInput, InvalidCharacter,
                              MultipleRecords, builtin_catalog,
                              classify, find_entry, load_catalog,
                              parse_pattern, parse_text)

dna_text = st.text(alphabet="ACGT", min_size=1, max_size=200)


def huntington():
    return find_entry(builtin_catalog(), "Huntington's disease")


def test_parse_fasta_strips_header():
    seq = parse_text(">h\nCAGCAG\n")
    assert str(seq) == "CAGCAG"
    assert len(seq) == 6


def test_parse_raw_normalizes_case():
    seq = parse_text("cagTT")
    assert str(seq) == "CAGTT"
    assert len(seq) == 5


def test_parse_rejects_invalid_character():
    with pytest.raises(InvalidCharacter) as exc:
        parse_text("CAXG")
    assert exc.value.position == 3
    assert exc.value.char == "X"


def test_parse_rejects_ambiguity_codes():
    with pytest.raises(InvalidCharacter):
        parse_text("ACGTN")


# Bytes that Unicode, unlike ASCII, counts as whitespace or line breaks: they
# are not bases, so they fail where they stand instead of vanishing.
NON_ASCII_SPACE = "\x85\xa0\x1c\x1d\x1e\x1f"


@given(dna_text, st.data())
def test_first_invalid_symbol_position_and_char(s, data):
    pos = data.draw(st.integers(0, len(s)))
    # an emoji (4 bytes in UTF-8) and a Unicode line separator in str input
    bad = data.draw(st.sampled_from("NX-" + NON_ASCII_SPACE + "\U0001f600\u2028"))
    later = data.draw(st.text(alphabet="ACGTNX-", max_size=10))
    text = s[:pos] + bad + s[pos:] + later
    as_bytes = bad <= "\xff" and data.draw(st.booleans())
    with pytest.raises(InvalidCharacter) as exc:
        parse_text(text.encode("latin-1") if as_bytes else text)
    assert (exc.value.position, exc.value.char) == (pos + 1, bad)


def test_parse_rejects_empty():
    with pytest.raises(EmptyInput):
        parse_text("")
    with pytest.raises(EmptyInput):
        parse_text(">only a header\n")


def test_parse_multi_record_fasta_is_rejected():
    # joining the records would count a repeat across their boundary
    with pytest.raises(MultipleRecords) as exc:
        parse_text(">a\nCAG\n>b\nTT\n")
    assert exc.value.count == 2
    assert isinstance(exc.value, seqio.SequenceError)


def test_parse_accepts_bytes():
    assert str(parse_text(b"acgt")) == "ACGT"


def line_based_normalize(raw: str | bytes) -> str:
    """Reference: the input without its header line and ASCII whitespace,
    case folded, found line by line.

    ``bytes.splitlines`` ends lines at LF, CR and CRLF only; a line whose
    first non-blank byte is '>' is a header, and the first non-blank line not
    being one makes the sequence before the first header a record of its own.
    """
    encoding = "utf-8" if isinstance(raw, str) else "latin-1"
    if isinstance(raw, str):
        raw = raw.encode(encoding)
    lines = raw.splitlines()
    data = [ln for ln in lines if not ln.lstrip().startswith(b">")]
    records = len(lines) - len(data)
    if records and next(ln for ln in lines if ln.strip()).lstrip()[:1] != b">":
        records += 1
    if records > 1:
        raise MultipleRecords(records)
    return b"".join(b"".join(data).split()).upper().decode(encoding)


def character_parse(raw: str | bytes) -> DnaSequence:
    """Reference: ``line_based_normalize``, then one symbol at a time."""
    text = line_based_normalize(raw)
    if not text:
        raise EmptyInput()
    for position, char in enumerate(text, start=1):
        if char not in seqio.ALPHABET:
            raise InvalidCharacter(position, char)
    return DnaSequence(bytes(seqio.ALPHABET.index(char) for char in text))


@given(dna_text)
def test_round_trip_after_normalization(s):
    assert str(parse_text(s)) == s
    assert str(parse_text(s.lower())) == s


@given(dna_text, st.data())
def test_fasta_round_trip_with_line_wrapping(s, data):
    width = data.draw(st.integers(1, 80))
    eol = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    header = data.draw(st.sampled_from([">x", ">", "  >x y", "\t>x"]))
    lower = data.draw(st.booleans())

    def fasta(body: str) -> bytes:
        body = body.lower() if lower else body
        wrapped = eol.join(body[i:i + width] for i in range(0, len(body), width))
        return f"{header}{eol}{wrapped}{eol}".encode()

    assert str(parse_text(fasta(s))) == s
    # the position counts in the normalized text: no header, no line ends
    pos = data.draw(st.integers(0, len(s)))
    with pytest.raises(InvalidCharacter) as exc:
        parse_text(fasta(s[:pos] + "X" + s[pos:]))
    assert (exc.value.position, exc.value.char) == (pos + 1, "X")


def test_classify_huntington_thresholds():
    entry = huntington()
    assert classify(45, entry) == DISEASE
    assert classify(20, entry) == NORMAL
    assert classify(30, entry) == INDETERMINATE


def test_classify_boundaries():
    entry = huntington()
    assert classify(26, entry) == NORMAL     # top of the normal range
    assert classify(27, entry) == INDETERMINATE
    assert classify(40, entry) == INDETERMINATE
    assert classify(41, entry) == DISEASE    # strictly above 40
    assert classify(0, entry) == NORMAL      # normal range open below


def test_classify_below_bounded_normal_range():
    entry = find_entry(builtin_catalog(), "Ataxia syndrome")  # normal 6-54
    assert classify(3, entry) == INDETERMINATE
    assert classify(6, entry) == NORMAL


@given(st.integers(min_value=0, max_value=20000),
       st.integers(min_value=0, max_value=9))
def test_classify_total(count, idx):
    entry = builtin_catalog()[idx]
    assert classify(count, entry) in (NORMAL, INDETERMINATE, DISEASE)


def test_classify_rejects_negative():
    with pytest.raises(ValueError):
        classify(-1, huntington())


def test_catalog_has_ten_entries():
    assert len(builtin_catalog()) == 10


def test_catalog_is_built_once_and_handed_out_as_a_fresh_list():
    first = builtin_catalog()
    assert builtin_catalog() == first
    assert builtin_catalog()[0] is first[0]
    first.append(first[0])
    assert len(builtin_catalog()) == 10


def test_catalog_known_rows():
    cat = builtin_catalog()
    fxn = find_entry(cat, "Friedreich's ataxia")
    assert (fxn.gene, str(fxn.pattern)) == ("FXN", "GAA")
    assert fxn.normal_range == (5, 33)
    assert fxn.disease_range == (66, 1300)
    fmr1 = find_entry(cat, "Ataxia syndrome")
    assert (fmr1.gene, str(fmr1.pattern)) == ("FMR1", "CGG")
    assert fmr1.normal_range == (6, 54)
    assert fmr1.disease_range == (55, 200)
    # type 2's CCTG expansion lies in CNBP; DMPK holds type 1's CTG
    dm2 = find_entry(cat, "Myotonic dystrophy 2")
    assert (dm2.gene, str(dm2.pattern)) == ("CNBP", "CCTG")


def test_catalog_pattern_lengths():
    assert {len(e.pattern) for e in builtin_catalog()} == {3, 4}


def test_catalog_boundary_classes():
    # At the top of a bounded normal range and at the bottom of the disease
    # range the classes are exact.  The one catalog row with overlapping
    # ranges is excluded from the normal-side check: inside the overlap the
    # disease class wins by design.
    for entry in builtin_catalog():
        if entry.disease_range[0] is not None:
            assert classify(entry.disease_range[0], entry) == DISEASE
        if entry.normal_range[1] is not None and not entry.overlapping:
            assert classify(entry.normal_range[1], entry) == NORMAL


def test_overlapping_row_is_flagged_and_prefers_disease():
    entry = find_entry(builtin_catalog(), "Huntington's disease-like 2")
    assert entry.overlapping
    assert classify(20, entry) == DISEASE  # inside both ranges
    others = [e for e in builtin_catalog() if e.name != entry.name]
    assert not any(e.overlapping for e in others)


def test_catalog_file_round_trip(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text(
        "# custom catalog\n"
        "Huntington's disease,HTT,CAG,*,26,41,*\n"
        "Made-up disorder,GENE1,CCTG,1,5,10,20\n")
    entries = load_catalog(path)
    assert len(entries) == 2
    assert entries[0].normal_range == (None, 26)
    assert entries[0].disease_range == (41, None)
    assert str(entries[1].pattern) == "CCTG"
    assert classify(15, entries[1]) == DISEASE


def test_catalog_file_is_utf8_and_a_leading_byte_order_mark_is_ignored(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_bytes("My HTT,HTT,CAG,*,26,41,*\nCafé ataxia,GENEX,CTG,1,5,6,*\n"
                     .encode("utf-8-sig"))
    entries = load_catalog(path)
    assert [e.name for e in entries] == ["My HTT", "Café ataxia"]
    assert find_entry(entries, "my htt").gene == "HTT"
    path.write_bytes(b"Caf\xe9 ataxia,GENEX,CTG,1,5,6,*\n")    # Latin-1, not UTF-8
    with pytest.raises(UnicodeDecodeError):
        load_catalog(path)


def test_catalog_file_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("only,three,fields\n")
    with pytest.raises(CatalogError):
        load_catalog(bad)
    bad.write_text("name,GENE,CXG,1,2,3,4\n")
    with pytest.raises(CatalogError):
        load_catalog(bad)
    bad.write_text("name,GENE,>CAG,1,2,3,4\n")
    with pytest.raises(CatalogError, match="^line 1: invalid character '>' at position 1 of "
                                           "the pattern$"):
        load_catalog(bad)
    bad.write_text("\n")
    with pytest.raises(CatalogError):
        load_catalog(bad)


@pytest.mark.parametrize("row", ["Inv,GENEX,CAG,50,10,60,*", "Inv,GENEX,CAG,5,10,60,20"])
def test_catalog_rejects_inverted_range(tmp_path, row):
    # an inverted range holds no count, so every count would be Indeterminate
    bad = tmp_path / "bad.csv"
    bad.write_text(f"Ok,GENEY,CAG,5,5,6,*\n{row}\n")
    with pytest.raises(CatalogError, match="line 2: inverted range"):
        load_catalog(bad)


def test_catalog_bad_endpoint_names_its_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("Ok,GENEY,CAG,5,5,6,*\nInv,GENEX,CAG,x,10,60,*\n")
    with pytest.raises(CatalogError, match="line 2: bad range endpoint 'x'"):
        load_catalog(bad)


def test_catalog_rejects_a_name_repeated_in_another_case(tmp_path):
    # find_entry matches names case-insensitively and takes the first entry
    bad = tmp_path / "bad.csv"
    bad.write_text("Foo,G1,CAG,1,20,30,*\nfoo,G2,CTG,1,5,6,*\n")
    with pytest.raises(CatalogError, match="^line 2: disease 'foo' repeats line 1$"):
        load_catalog(bad)


def test_find_entry_unknown():
    with pytest.raises(CatalogError):
        find_entry(builtin_catalog(), "no such disease")


def test_pattern_validation():
    assert str(parse_pattern("cag")) == "CAG"
    assert parse_pattern(" ca\tg\n") == parse_pattern(b"CAG")
    with pytest.raises(InvalidCharacter):
        parse_pattern("CAGX")
    # a pattern has no header lines, and its errors name it
    with pytest.raises(InvalidCharacter, match="^invalid character '>' at position 1 of "
                                               "the pattern$"):
        parse_pattern(">CAG")
    with pytest.raises(EmptyInput, match="^pattern contains no sequence data$"):
        parse_pattern(" ")


def test_sequence_keeps_its_codes_outside_equality_and_repr():
    seq = parse_text("gatc")
    assert seq.codes == bytes([2, 0, 3, 1])
    assert seq == parse_pattern("GATC") and hash(seq) == hash(parse_pattern("GATC"))
    assert repr(seq) == "DnaSequence(symbols='GATC')"


def parse_outcome(parse, raw):
    """A parse's codes and text, or its error's type and fields."""
    try:
        seq = parse(raw)
    except MultipleRecords as exc:
        return MultipleRecords, exc.count
    except InvalidCharacter as exc:
        return InvalidCharacter, exc.position, exc.char
    except EmptyInput:
        return EmptyInput
    return seq.codes, str(seq), len(seq)


# Headers, both line ends, mixed case, every ASCII whitespace byte, and bytes
# that are no base: ASCII, Latin-1 and (in str input) beyond, among them bytes
# Unicode but not ASCII counts as whitespace or line breaks.
PARSE_AWKWARD = "ACGTacgt>> \t\r\n\x0b\x0cNx-\x1c\x1d\x85\xa0"


@given(st.one_of(st.text(alphabet=PARSE_AWKWARD, max_size=60).map(lambda t: t.encode("latin-1")),
                 st.text(alphabet=PARSE_AWKWARD + "\u00e9\u2028\U0001f600", max_size=60),
                 st.binary(max_size=60),
                 st.lists(st.sampled_from(["ACGT", "acgt", "\n", "\r\n", ">h\n", "N", " "]),
                          max_size=12).map("".join)))
@settings(max_examples=1000)
def test_parse_text_is_the_sequence_of_the_normalized_text(raw):
    # the one-pass parse gives the same codes, text and errors as the
    # line-by-line, symbol-by-symbol reference, for str and bytes
    assert parse_outcome(parse_text, raw) == parse_outcome(character_parse, raw)


@pytest.mark.parametrize("raw, bases", [(b">h x\r\nacgT\tAC\x0bGT\x0c\n gg \r\n", "ACGTACGTGG"),
                                        ("  cat\ng\n", "CATG")])
def test_valid_text_is_parsed_in_one_pass(raw, bases):
    # case and every ASCII whitespace byte are handled by the one table
    assert parse_text(raw).codes == bytes(map(seqio.ALPHABET.index, bases))


def test_parsed_sequence_holds_only_its_codes_and_decodes_on_each_use(monkeypatch):
    decoded = []
    decode = seqio.decode
    monkeypatch.setattr(seqio, "decode", lambda codes: decoded.append(codes) or decode(codes))
    seq = parse_text(b">h\ngat\ncA\n")
    assert (seq.codes, len(seq), decoded) == (bytes([2, 0, 3, 1, 0]), 5, [])
    assert not hasattr(seq, "__dict__")
    assert str(seq) == seq.symbols == "GATCA" and repr(seq) == "DnaSequence(symbols='GATCA')"
    assert decoded == [seq.codes] * 3
    assert DnaSequence(seq.codes) == seq and decoded == [seq.codes] * 3   # equal by codes
    with pytest.raises(dataclasses.FrozenInstanceError):
        seq.codes = b""


def test_entry_overlap_helper():
    e = DiseaseEntry("x", "G", parse_pattern("CAG"), (1, 10), (5, 20))
    assert e.overlapping
    e2 = DiseaseEntry("y", "G", parse_pattern("CAG"), (1, 10), (11, 20))
    assert not e2.overlapping
