"""Every text parser gives a result or a DomainError, never a bare exception.

`FamilySpec.parse` and `split_top_level` read command-line text;
`read_set_file` and `read_lines_csv` read files.  Any text, and any bytes
for the files, must either parse or raise DomainError (a zero slope is the
documented DivisionDomainError); file errors name the file and the line.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sumsetlab import DivisionDomainError, DomainError, FamilySpec, Line, read_lines_csv, read_set_file
from sumsetlab.cli import main
from sumsetlab.sets import split_top_level

KINDS = ["AP", "GP", "ConvexPower", "ConvexCustom", "RandomSubset", "Perturbed", "Foo", ""]
# digits, signs, separators and exponents: the text numbers and lists are made of
NUMBER_TEXT = st.text(alphabet="0123456789/-+._eE, ()[]#\t\n\x00x", max_size=30)
# family labels, nested one level deep at most
LABELS = st.one_of(
    st.text(max_size=30),
    st.builds(lambda k, body: f"{k}({body})", st.sampled_from(KINDS), NUMBER_TEXT),
    st.builds(lambda k, body: f"Perturbed({k}({body}),3)", st.sampled_from(KINDS), NUMBER_TEXT),
)
FILE_TEXT = st.one_of(st.text(max_size=80), NUMBER_TEXT,
                      st.lists(NUMBER_TEXT, max_size=6).map("\n".join))
fuzz = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@fuzz
@given(LABELS)
def test_family_spec_parse_gives_a_spec_or_a_domain_error(text):
    try:
        spec = FamilySpec.parse(text, 5)
    except DomainError:
        return
    assert isinstance(spec, FamilySpec) and spec.n == 5
    assert FamilySpec.parse(spec.label(), 5) == spec


@fuzz
@given(st.text(max_size=40))
def test_split_top_level_returns_stripped_nonempty_pieces(text):
    parts = split_top_level(text)
    assert all(p and p == p.strip() for p in parts)
    assert sum(len(p) for p in parts) <= len(text)


@fuzz
@given(st.one_of(FILE_TEXT.map(lambda t: t.encode("utf-8")), st.binary(max_size=60)))
def test_read_set_file_gives_a_set_or_a_domain_error(tmp_path, data):
    path = tmp_path / "set.txt"
    path.write_bytes(data)
    try:
        A = read_set_file(path)
    except DomainError as exc:
        assert str(exc).startswith(f"{path}:")
        return
    assert list(A.elements) == sorted(set(A.elements))


@fuzz
@given(st.one_of(FILE_TEXT.map(lambda t: t.encode("utf-8")), st.binary(max_size=60)))
def test_read_lines_csv_gives_lines_or_a_domain_error(tmp_path, data):
    path = tmp_path / "lines.csv"
    path.write_bytes(data)
    try:
        lines = read_lines_csv(path)
    except (DomainError, DivisionDomainError) as exc:
        assert str(exc).startswith(f"{path}:")
        return
    assert all(isinstance(line, Line) for line in lines)


def test_read_lines_csv_rejects_a_third_field(tmp_text):
    p = tmp_text("three.csv", "slope,intercept\n1,2,3\n")
    with pytest.raises(DomainError, match=r"three\.csv:2: .*3 fields"):
        read_lines_csv(p)
    with pytest.raises(DomainError, match=":1: "):
        read_lines_csv(tmp_text("header.csv", "slope,intercept,weight\n1,2\n"))


def test_read_lines_csv_reports_reader_errors_by_line(tmp_text):
    # the csv module refuses a field past its size limit (131 072 characters)
    with pytest.raises(DomainError, match=":2: field larger than field limit"):
        read_lines_csv(tmp_text("long.csv", "1,2\n3," + "4" * 200_000 + "\n"))


def test_huge_exponent_is_refused_not_evaluated(tmp_text):
    with pytest.raises(DomainError, match=":2: "):
        read_set_file(tmp_text("exp.txt", "1\n1e999999999\n"))
    with pytest.raises(DomainError):
        FamilySpec.parse("AP(1e-999999999,1)")


def test_incidence_cli_rejects_a_third_field(tmp_text, capsys):
    lines = tmp_text("lines.csv", "slope,intercept\n1,0\n2,0,5\n")
    xs = tmp_text("xs.txt", "1\n2\n3\n")
    assert main(["incidence", "--xset", str(xs), "--lines", str(lines)]) == 2
    assert "lines.csv:3: expected 'slope,intercept', got 3 fields" in capsys.readouterr().err
