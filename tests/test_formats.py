import numpy as np
import pytest

from gf4bp.formats import (
    FormatError,
    HeaderFormatError,
    IndexOutOfRangeError,
    parse_alist,
    parse_stabilizer_text,
    write_alist,
    write_stabilizer_text,
)
from gf4bp.stabilizer import NonCommutingRowsError, build_code_4_1_1

GOLDEN_411 = "XZXIX\nXXIXZ\nYZZXI\nZXXYI\n!ebits=1\n"


def test_parse_stabilizer_golden():
    code = parse_stabilizer_text(GOLDEN_411)
    reference = build_code_4_1_1()
    assert code.checks.tolist() == reference.checks.tolist()
    assert code.n_sent == 4
    assert code.n_ebits == 1


def test_parse_stabilizer_without_annotation():
    code = parse_stabilizer_text("XZXIX\nXXIXZ\nYZZXI\nZXXYI")
    assert code.checks.tolist() == build_code_4_1_1().checks.tolist()
    assert code.n_ebits == 0


def test_parse_stabilizer_comments_and_blanks():
    text = "# the worked example\n\nXZXIX  # first row\nXXIXZ\nYZZXI\nZXXYI\n!ebits=1\n"
    code = parse_stabilizer_text(text)
    assert code.n_ebits == 1
    assert code.n_checks == 4


def test_parse_stabilizer_errors():
    with pytest.raises(FormatError):
        parse_stabilizer_text("")
    with pytest.raises(FormatError):
        parse_stabilizer_text("# only comments\n")
    with pytest.raises(FormatError):
        parse_stabilizer_text("XZQ\n")
    with pytest.raises(FormatError):
        parse_stabilizer_text("XX\nXXX\n")
    with pytest.raises(HeaderFormatError):
        parse_stabilizer_text("XX\n!foo=1\n")
    with pytest.raises(HeaderFormatError):
        parse_stabilizer_text("XX\n!ebits=two\n")
    with pytest.raises(HeaderFormatError):
        parse_stabilizer_text("XX\n!ebits=2\n")
    with pytest.raises(NonCommutingRowsError):
        parse_stabilizer_text("XI\nZI\n")


def test_parse_stabilizer_line_handling():
    reference = build_code_4_1_1()
    for text in (
        "XZXIX\r\nXXIXZ\r\nYZZXI\r\nZXXYI\r\n!ebits=1\r\n",  # CRLF
        "# worked example\r\n\r\nXZXIX  # first\n\tXXIXZ \nYZZXI\n! ebits = 1 \nZXXYI",
        "!ebits=1\nXZXIX\nXXIXZ\nYZZXI\nZXXYI#no newline at the end",
    ):
        code = parse_stabilizer_text(text)
        assert code.checks.tolist() == reference.checks.tolist()
        assert code.checks.dtype == np.uint8 and code.checks.flags.writeable
        assert (code.n_sent, code.n_ebits) == (4, 1)


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("", FormatError, "no generators found"),
        ("# only\r\n\r\n", FormatError, "no generators found"),
        ("XX\nXXX\n", FormatError, "generator rows have mixed lengths [2, 3]"),
        ("XX\r\nXXX\r\nX\r\n", FormatError, "generator rows have mixed lengths [1, 2, 3]"),
        # a bad symbol is reported before mixed lengths, on its first row
        ("XX\nXQX\n", FormatError, "invalid Pauli symbol 'Q' in 'XQX'"),
        ("XX\nXq\nQX\n", FormatError, "invalid Pauli symbol 'q' in 'Xq'"),
        ("XI\nix\n", FormatError, "invalid Pauli symbol 'i' in 'ix'"),
        ("XI\nX1\n", FormatError, "invalid Pauli symbol '1' in 'X1'"),
        ("X X\n", FormatError, "invalid Pauli symbol ' ' in 'X X'"),
        ("X\tX\n", FormatError, "invalid Pauli symbol '\\t' in 'X\\tX'"),
        ("XéX\n", FormatError, "invalid Pauli symbol 'é' in 'XéX'"),
        ("X→X\n", FormatError, "invalid Pauli symbol '→' in 'X→X'"),
        ("XZ\r\nZQ\r\n", FormatError, "invalid Pauli symbol 'Q' in 'ZQ'"),
        ("XX\n!ebits=\n", HeaderFormatError, "bad ebit count in '!ebits='"),
        ("XX\n!ebits=-1\n", HeaderFormatError, "negative ebit count in '!ebits=-1'"),
        ("XX\nZZ\n!ebits=2\n", HeaderFormatError,
         "ebit count 2 must be smaller than row length 2"),
        ("XI\nZI\n", NonCommutingRowsError, "generators 0 and 1 anticommute"),
    ],
)
def test_parse_stabilizer_messages(text, error, message):
    with pytest.raises(error) as raised:
        parse_stabilizer_text(text)
    assert type(raised.value) is error
    assert str(raised.value) == message


def test_stabilizer_round_trip():
    code = build_code_4_1_1()
    text = write_stabilizer_text(code)
    assert text == GOLDEN_411
    again = parse_stabilizer_text(text)
    assert again.checks.tolist() == code.checks.tolist()
    assert again.n_ebits == code.n_ebits


GOLDEN_ALIST = """3 2
2 2
1 2 1
2 2
1
1 2
2
1 2
2 3
"""


def test_parse_alist_golden():
    matrix = parse_alist(GOLDEN_ALIST)
    assert matrix.tolist() == [[1, 1, 0], [0, 1, 1]]


def test_alist_round_trip_binary():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m, n = rng.integers(1, 9, size=2)
        matrix = (rng.random((m, n)) < 0.4).astype(np.uint8)
        if not matrix.any():
            matrix[0, 0] = 1
        text = write_alist(matrix)
        assert parse_alist(text).tolist() == matrix.tolist()


def test_alist_round_trip_gf4():
    rng = np.random.default_rng(29)
    for _ in range(10):
        m, n = rng.integers(1, 8, size=2)
        matrix = (rng.integers(0, 4, size=(m, n)) * (rng.random((m, n)) < 0.5)).astype(
            np.uint8
        )
        if matrix.max() <= 1:
            matrix[0, 0] = 3
        text = write_alist(matrix)
        assert text.splitlines()[0].endswith(" 4")
        assert parse_alist(text).tolist() == matrix.tolist()


def test_write_alist_checks_values():
    # a 1.5 entry used to be written as 1; an integral float is exact
    for matrix in ([[1.5, 0], [0, 1]], [[4, 0], [0, 1]], np.array([[4, 0]], dtype=np.uint8)):
        with pytest.raises(ValueError, match="GF\\(4\\) values must lie in 0..3"):
            write_alist(matrix)
    assert write_alist([[1.0, 0.0], [0.0, 3.0]]) == write_alist(np.array([[1, 0], [0, 3]]))


def test_alist_zero_padding_tolerated():
    padded = """3 2
2 2
1 2 1
2 2
1 0
1 2
2 0
1 2
2 3
"""
    assert parse_alist(padded).tolist() == [[1, 1, 0], [0, 1, 1]]


def test_alist_errors():
    with pytest.raises(HeaderFormatError):
        parse_alist("")
    with pytest.raises(FormatError):
        parse_alist("3 x\n")
    with pytest.raises(HeaderFormatError):
        parse_alist("3 2 7\n")
    with pytest.raises(HeaderFormatError):
        parse_alist("0 2\n")
    with pytest.raises(FormatError):
        parse_alist("3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n")  # truncated
    bad_index = GOLDEN_ALIST.replace("1 2\n2 3\n", "1 2\n2 9\n")
    with pytest.raises(FormatError):
        parse_alist(bad_index)
    with pytest.raises(IndexOutOfRangeError):
        parse_alist("1 1\n1 1\n1\n1\n5\n1\n")
    mismatch = GOLDEN_ALIST.replace("1 2 1", "1 1 1")
    with pytest.raises(FormatError):
        parse_alist(mismatch)


# write_alist of [[X, Z, I], [I, Y, X]]: header, maximum degrees, column and
# row degrees, then the column lists (lines 4-6) and the row lists (7-8).
GF4_ALIST_LINES = [
    "3 2 4", "2 2", "1 2 1", "2 2",
    "1 1 0 0", "1 2 2 3", "2 1 0 0",
    "1 1 2 2", "2 3 3 1",
]


@pytest.mark.parametrize(
    "lines, line, error, message",
    [
        (GF4_ALIST_LINES, (5, "1 2 2"), FormatError, "odd .* column 2"),
        (GF4_ALIST_LINES, (8, "2 3 3"), FormatError, "odd .* row 2"),
        (GF4_ALIST_LINES, (6, "5 1"), IndexOutOfRangeError, "index 5 .* column 3"),
        (GF4_ALIST_LINES, (8, "2 3 4 1"), IndexOutOfRangeError, "index 4 .* row 2"),
        (GF4_ALIST_LINES, (5, "1 2 0 0"), FormatError, "column 2 lists 1 entries"),
        (GF4_ALIST_LINES, (7, "1 1 0 0"), FormatError, "row 1 lists 1 entries"),
        (GF4_ALIST_LINES, (4, "1 0"), FormatError, "value 0 invalid .* column 1"),
        (GF4_ALIST_LINES, (4, "1 5"), FormatError, "value 5 invalid .* column 1"),
        (GF4_ALIST_LINES, (8, "2 2 3 1"), FormatError, r"disagrees .* \(2, 2\)"),
        (GOLDEN_ALIST.splitlines(), (4, "3"), IndexOutOfRangeError, "column 1"),
        (GOLDEN_ALIST.splitlines(), (8, "2 9"), IndexOutOfRangeError, "row 2"),
        (GOLDEN_ALIST.splitlines(), (7, "1 3"), FormatError, r"disagrees .* \(1, 3\)"),
    ],
    ids=[
        "column-odd-pairs", "row-odd-pairs", "column-index-range", "row-index-range",
        "column-degree", "row-degree", "column-value-zero", "column-value-five",
        "row-disagrees", "binary-column-index-range", "binary-row-index-range",
        "binary-row-disagrees",
    ],
)
def test_malformed_alist_lists(lines, line, error, message):
    index, replacement = line
    lines = list(lines)
    lines[index] = replacement
    with pytest.raises(error, match=message):
        parse_alist("\n".join(lines))
