import pytest
from hypothesis import given
from hypothesis import strategies as st

from repeatscan import seqio
from repeatscan.seqio import (DISEASE, INDETERMINATE, NORMAL, CatalogError,
                              DiseaseEntry, EmptyInput, InvalidCharacter,
                              MultipleRecords, Pattern, builtin_catalog,
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
    bad = data.draw(st.sampled_from("NX-" + NON_ASCII_SPACE))
    later = data.draw(st.text(alphabet="ACGTNX-", max_size=10))
    text = s[:pos] + bad + s[pos:] + later
    as_bytes = data.draw(st.booleans())
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


def test_catalog_file_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("only,three,fields\n")
    with pytest.raises(CatalogError):
        load_catalog(bad)
    bad.write_text("name,GENE,CXG,1,2,3,4\n")
    with pytest.raises(CatalogError):
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


def test_find_entry_unknown():
    with pytest.raises(CatalogError):
        find_entry(builtin_catalog(), "no such disease")


def test_pattern_validation():
    assert str(parse_pattern("cag")) == "CAG"
    with pytest.raises(InvalidCharacter):
        Pattern("CAGX")


def test_sequence_keeps_its_codes_outside_equality_and_repr():
    seq = parse_text("gatc")
    assert seq.codes == seqio.encode("GATC") == bytes([2, 0, 3, 1])
    assert seq == Pattern("GATC") and hash(seq) == hash(Pattern("GATC"))
    assert repr(seq) == "DnaSequence(symbols='GATC')"


def test_entry_overlap_helper():
    e = DiseaseEntry("x", "G", Pattern("CAG"), (1, 10), (5, 20))
    assert e.overlapping
    e2 = DiseaseEntry("y", "G", Pattern("CAG"), (1, 10), (11, 20))
    assert not e2.overlapping
