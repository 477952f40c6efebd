"""Rational literal round-tripping for the file formats."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from incilab.qformat import qint, qliterals, qparse, qparts, qstr, ratio_str


def test_qstr_forms():
    assert qstr(Fraction(3, 4)) == "3/4"
    assert qstr(Fraction(5)) == "5"
    assert qstr(Fraction(-7, 2)) == "-7/2"
    assert qstr(Fraction(0)) == "0"
    assert qstr(Fraction(2, -4)) == "-1/2"


def test_qparse_accepts_well_formed():
    assert qparse("3/4") == Fraction(3, 4)
    assert qparse("-7/2") == Fraction(-7, 2)
    assert qparse("0") == 0
    assert qparse("4/2") == 2  # reducible is tolerated on input


@pytest.mark.parametrize(
    "bad",
    [
        "", "3.5", "1.5", "+3", "+1", " 3", " 1", "3 ", "1 ", "12\n", "1/0", "1/-2",
        "03", "01", "3/", "/4", "1e3", "nan", None, 7, "١", "１", "1١", "2１", "1_0",
    ],
)
def test_qparse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        qparse(bad)


@given(st.fractions())
def test_round_trip(q):
    assert qparse(qstr(q)) == q


_OLD_QPAT = re.compile(r"^-?(0|[1-9][0-9]*)(/([1-9][0-9]*))?$")


def _qparse_reference(text):
    """The earlier parser: a `$`-anchored match, then `Fraction(text)`."""
    if not isinstance(text, str) or not _OLD_QPAT.match(text):
        raise ValueError(text)
    return Fraction(text)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return "rejected"


no_space = st.text().filter(lambda t: not any(c.isspace() for c in t))


@given(st.one_of(no_space, st.text(alphabet="-/0123456789", max_size=12)))
def test_qparse_matches_the_reference_without_whitespace(text):
    assert _outcome(qparse, text) == _outcome(_qparse_reference, text)


def test_qparts_keeps_the_literal_integers():
    assert qparts("4/2") == (4, 2)
    assert qparts("-0") == (0, 1)
    assert qparts("-6/4") == (-6, 4)
    assert qparts("7") == (7, 1)
    with pytest.raises(ValueError, match="not a canonical rational literal: '1/0'"):
        qparts("1/0")


@given(st.integers(), st.integers(min_value=1))
def test_ratio_str_is_the_lowest_terms_string(num, den):
    f = Fraction(num, den)
    ref = str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    assert ratio_str(num, den) == ref == qstr(f)


def test_qint_reads_integer_literals_only():
    assert [qint(t) for t in ("7", "-0", "-12", "0")] == [7, 0, -12, 0]
    for text in ("+3", "007", "١", "１", "1_0", "3/1", "4/2", " 3", "3\n", "", "x"):
        assert qint(text) is None


def test_qliterals_checks_each_item():
    assert qliterals(["1", "-2/3", "-0"]) and qliterals([])
    for bad in (["1", 2], ["1", None], ["01", "1"], ["1", "1/0"], ["1", "١"], ["1 ", "2"], ["1,2"]):
        assert not qliterals(bad)


@given(st.lists(st.one_of(st.text(alphabet="-/0123456789,", max_size=5), no_space), max_size=4))
def test_qliterals_accepts_exactly_lists_of_literals(literals):
    ok = all(_outcome(qparse, t) != "rejected" for t in literals)
    assert qliterals(literals) == ok
