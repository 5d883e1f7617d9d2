"""Tests for filename anomaly detection, including the labeled fixture set."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from contentoracle.name_analyzer import (
    BIDI_CONTROLS,
    NameAnomaly,
    analyze_name,
    render_display,
    strip_bidi_controls,
)

KNOWN = frozenset({
    "pdf", "exe", "gif", "jpg", "jpeg", "png", "txt", "csv", "zip",
    "tar", "gz", "sh", "bat", "mp3", "doc", "html",
})

D = NameAnomaly.DOUBLE_EXTENSION
M = NameAnomaly.MISSING_EXTENSION
B = NameAnomaly.BIDI_OVERRIDE
X = NameAnomaly.MIXED_SCRIPT_EXTENSION
W = NameAnomaly.TRAILING_WHITESPACE

# Twenty hand-labeled names: the module's ground truth for false-positive /
# false-negative accounting. Labels follow the detection rules exactly;
# benign-but-chained names (archive.tar.gz) are flagged by design because
# severity judgment belongs to the discrepancy engine, not here.
LABELED_NAMES: list[tuple[str, set[NameAnomaly]]] = [
    ("report.pdf", set()),
    ("photo.jpg", set()),
    ("run.bat", set()),
    ("script.sh", set()),
    ("archive.zip", set()),
    ("Резюме.pdf", set()),
    ("hello.tXt", set()),
    ("file.name.with.dots.txt", set()),
    ("archive.tar.gz", {D}),
    ("invoice.pdf.exe", {D}),
    ("face.jpg.exe", {D}),
    ("readme", {M}),
    ("no_extension_file", {M}),
    (".bashrc", {M}),
    ("annexe‮fdp.exe", {B}),
    ("evil‮3pm.exe", {B}),
    ("data.csv⁦", {B, M}),
    ("doc.pdф", {X, M}),
    ("notes.txt ", {W, M}),
    ("trailing.pdf\t", {W, M}),
]


class TestLabeledFixture:
    @pytest.mark.parametrize("name,expected", LABELED_NAMES,
                             ids=[repr(n) for n, _ in LABELED_NAMES])
    def test_exact_classification(self, name, expected):
        report = analyze_name(name, KNOWN)
        assert report.anomalies == frozenset(expected)

    def test_zero_false_positives_and_negatives(self):
        misses = []
        for name, expected in LABELED_NAMES:
            got = analyze_name(name, KNOWN).anomalies
            if got != frozenset(expected):
                misses.append((name, expected, got))
        assert misses == []


class TestExtensionExtraction:
    def test_double_extension_example(self):
        report = analyze_name("invoice.pdf.exe", {"pdf", "exe"})
        assert report.logical_extension == "exe"
        assert NameAnomaly.DOUBLE_EXTENSION in report.anomalies
        assert report.extension_chain == ("pdf", "exe")

    def test_no_extension(self):
        report = analyze_name("report", KNOWN)
        assert report.logical_extension is None
        assert report.anomalies == {NameAnomaly.MISSING_EXTENSION}

    def test_logical_is_last_chain_element(self):
        report = analyze_name("a.tar.gz", KNOWN)
        assert report.logical_extension == report.extension_chain[-1]

    def test_long_tail_is_not_an_extension(self):
        report = analyze_name("file.backup copy", KNOWN)
        assert report.logical_extension is None
        assert NameAnomaly.MISSING_EXTENSION in report.anomalies

    def test_eleven_char_tail_rejected(self):
        report = analyze_name("file." + "a" * 11, KNOWN)
        assert report.logical_extension is None

    def test_double_needs_both_known(self):
        report = analyze_name("notes.weird.exe", {"exe"})
        assert NameAnomaly.DOUBLE_EXTENSION not in report.anomalies

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            analyze_name("", KNOWN)


class TestBidi:
    def test_override_display_shows_spoofed_suffix(self):
        report = analyze_name("annexe‮fdp.exe", KNOWN)
        assert NameAnomaly.BIDI_OVERRIDE in report.anomalies
        assert report.display_name == "annexeexe.pdf"
        assert report.display_name.endswith(".pdf")
        # the logical extension remains the real one
        assert report.logical_extension == "exe"

    def test_isolates_detected(self):
        report = analyze_name("file⁧gij.tab⁩le.txt", KNOWN)
        assert NameAnomaly.BIDI_OVERRIDE in report.anomalies

    def test_controls_never_rendered(self):
        for cp in sorted(BIDI_CONTROLS):
            assert cp not in render_display(f"a{cp}b.c")

    def test_nested_overrides(self):
        assert render_display("a‮bc‮def‬‬") == "adefcb"


@given(st.text(alphabet="abcdefg.", min_size=1, max_size=12),
       st.sampled_from(sorted(BIDI_CONTROLS)),
       st.integers(min_value=0, max_value=12))
def test_bidi_ablation_property(name, control, pos):
    # injecting a directional control raises the flag; removing every
    # trigger character removes it again
    spiked = name[:pos] + control + name[pos:]
    assert NameAnomaly.BIDI_OVERRIDE in analyze_name(spiked, KNOWN).anomalies
    clean = strip_bidi_controls(spiked)
    if clean:
        assert NameAnomaly.BIDI_OVERRIDE not in analyze_name(clean, KNOWN).anomalies


@given(st.text(alphabet="abcdefg.", min_size=1, max_size=12))
def test_trailing_whitespace_ablation_property(name):
    spiked = name + " "
    assert NameAnomaly.TRAILING_WHITESPACE in analyze_name(spiked, KNOWN).anomalies
    assert NameAnomaly.TRAILING_WHITESPACE not in analyze_name(name, KNOWN).anomalies


@given(st.text(min_size=1, max_size=40))
def test_total_over_unicode_strings(name):
    report = analyze_name(name, KNOWN)
    if report.logical_extension is not None:
        assert report.logical_extension == report.extension_chain[-1]
    # purity
    assert analyze_name(name, KNOWN) == report


@pytest.mark.parametrize("name", ["doc.pdfα", "doc.pdf中"])
def test_latin_extension_mixed_with_greek_or_another_script(name):
    assert X in analyze_name(name, KNOWN).anomalies
