"""Text formats: stabilizer generator files and MacKay-style alist matrices.

Stabilizer text is one generator per line over {I, X, Z, Y}; `#` starts a
comment, blank lines are ignored, and one optional annotation line
`!ebits=c` declares that the last c columns are receiver-held ebits.

The alist format is the usual sparse-matrix interchange: header `n m`
(columns, rows) for binary matrices or `n m 4` for GF(4), then maximum
degrees, column degrees, row degrees, the n column adjacency lists and the
m row adjacency lists, all 1-indexed.  GF(4) lists carry (index, value)
pairs.  Zero-padded irregular lists are tolerated on input, but the row
lists must restate the column lists exactly.
"""

from pathlib import Path

import numpy as np

from . import gf4
from .gf4 import as_values
from .stabilizer import NonCommutingRowsError, StabilizerCode, build_code_4_1_1

BUILTIN_CODES = {"4_1_1": build_code_4_1_1}


class FormatError(ValueError):
    """Malformed input file."""


class HeaderFormatError(FormatError):
    """Missing or inconsistent header fields."""


class IndexOutOfRangeError(FormatError):
    """An adjacency index points outside the declared matrix."""


def parse_stabilizer_text(text: str) -> StabilizerCode:
    """Parse stabilizer text into a StabilizerCode."""
    rows, n_ebits = [], None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("!"):
            key, _, value = line[1:].partition("=")
            if key.strip() != "ebits":
                raise HeaderFormatError(f"unknown annotation {line!r}")
            if n_ebits is not None:
                raise HeaderFormatError(f"second ebit annotation {line!r}")
            try:
                n_ebits = int(value)
            except ValueError:
                raise HeaderFormatError(f"bad ebit count in {line!r}") from None
            if n_ebits < 0:
                raise HeaderFormatError(f"negative ebit count in {line!r}")
            continue
        rows.append(line)
    if not rows:
        raise FormatError("no generators found")
    try:
        values = gf4.pauli_to_values("".join(rows))  # one table pass
    except ValueError:
        try:  # name the first row with a bad symbol
            for line in rows:
                gf4.pauli_to_values(line)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    lengths = {len(line) for line in rows}
    if len(lengths) != 1:
        raise FormatError(f"generator rows have mixed lengths {sorted(lengths)}")
    n_total, n_ebits = lengths.pop(), n_ebits or 0
    if n_ebits >= n_total:
        raise HeaderFormatError(
            f"ebit count {n_ebits} must be smaller than row length {n_total}"
        )
    try:
        return StabilizerCode(values.reshape(len(rows), n_total), n_ebits=n_ebits)
    except NonCommutingRowsError:
        raise
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def load_code(source) -> StabilizerCode:
    """Resolve a code source: a StabilizerCode, a built-in name or a file path."""
    if isinstance(source, StabilizerCode):
        return source
    name = str(source)
    if name in BUILTIN_CODES:
        return BUILTIN_CODES[name]()
    if not Path(name).is_file():
        raise ValueError(f"unknown code {name!r}: not a built-in name or file")
    return parse_stabilizer_text(Path(name).read_text())


def write_stabilizer_text(code: StabilizerCode) -> str:
    """Render a StabilizerCode as stabilizer text (round-trips with parse)."""
    lines = [code.row_pauli(i) for i in range(code.n_checks)]
    if code.n_ebits:
        lines.append(f"!ebits={code.n_ebits}")
    return "\n".join(lines) + "\n"


def _int_tokens(line: str, what: str):
    try:
        return [int(tok) for tok in line.split()]
    except ValueError:
        raise FormatError(f"non-integer token in {what}: {line!r}") from None


def _alist_side(lines, degree_line: str, q: int, side: str, limit: int):
    """One side of an alist, its column or its row lists, as a dense
    (len(lines), limit) matrix: (index, value) pairs with zero padding
    dropped; each list must hold as many pairs as its degree, each index lie
    in 1..limit once and each value be nonzero in GF(q)."""
    degrees = _int_tokens(degree_line, f"{side} degree list")
    if len(degrees) != len(lines):
        raise FormatError(f"expected {len(lines)} {side} degrees, got {len(degrees)}")
    dense = np.zeros((len(lines), limit), dtype=np.uint8)
    for i, (line, degree) in enumerate(zip(lines, degrees)):
        what = f"{side} {i + 1}"
        tokens = _int_tokens(line, f"{what} list")
        if q != 2 and len(tokens) % 2:
            raise FormatError(f"odd (index, value) list for {what}")
        pairs = zip(tokens, [1] * len(tokens)) if q == 2 else zip(tokens[0::2], tokens[1::2])
        entries = [(index, value) for index, value in pairs if index != 0]
        if len(entries) != degree:
            raise FormatError(f"{what} lists {len(entries)} entries, degree says {degree}")
        for index, value in entries:
            if not 1 <= index <= limit:
                raise IndexOutOfRangeError(
                    f"index {index} out of range 1..{limit} in {what} list"
                )
            if not 0 < value < q:
                raise FormatError(f"entry value {value} invalid for GF({q}) in {what}")
            if dense[i, index - 1]:
                raise FormatError(f"index {index} listed twice in {what} list")
            dense[i, index - 1] = value
    return dense


def parse_alist(text: str) -> np.ndarray:
    """Parse an alist file into a dense (m, n) uint8 matrix.

    Binary files (2-integer header) yield entries in {0, 1}; GF(4) files
    (header `n m 4`) yield entries in 0..3.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise HeaderFormatError("empty alist file")
    header = _int_tokens(lines[0], "header")
    if len(header) == 2:
        q = 2
    elif len(header) == 3 and header[2] in (2, 4):
        q = header[2]
    else:
        raise HeaderFormatError(f"bad alist header {lines[0]!r}")
    n, m = header[0], header[1]
    if n <= 0 or m <= 0:
        raise HeaderFormatError(f"non-positive dimensions in header {lines[0]!r}")
    if len(lines) < 4 + n + m:
        raise FormatError(f"expected {4 + n + m} lines for a {m} x {n} alist, got {len(lines)}")
    # The column lists first, then the row lists, which restate them exactly.
    columns = _alist_side(lines[4 : 4 + n], lines[2], q, "column", m).T
    rows = _alist_side(lines[4 + n : 4 + n + m], lines[3], q, "row", n)
    differ = rows != columns
    if differ.any():  # name an entry the row lists hold, else one they leave out
        listed = differ & (rows != 0)
        row, col = np.argwhere(listed if listed.any() else differ)[0] + 1
        raise FormatError(f"row list disagrees with column lists at ({row}, {col})")
    return rows


def write_alist(matrix: np.ndarray) -> str:
    """Render a dense matrix as alist text (binary, or GF(4) if entries > 1)."""
    matrix = as_values(matrix)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("matrix must be a nonempty 2-D array")
    m, n = matrix.shape
    q = 4 if matrix.max() > 1 else 2
    widths, degrees, lists = [], [], []
    for rows in (matrix.T, matrix):  # the column lists, then the row lists
        indices = [np.flatnonzero(row).tolist() for row in rows]
        width = max(map(len, indices))
        widths.append(str(width))
        degrees.append(" ".join(str(len(idx)) for idx in indices))
        for row, idx in zip(rows, indices):
            items = [str(i + 1) if q == 2 else f"{i + 1} {row[i]}" for i in idx]
            lists.append(" ".join(items + ["0" if q == 2 else "0 0"] * (width - len(idx))))
    lines = [f"{n} {m}" if q == 2 else f"{n} {m} {q}", " ".join(widths), *degrees, *lists]
    return "\n".join(lines) + "\n"
