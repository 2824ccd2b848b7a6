"""Text formats: stabilizer generator files and MacKay-style alist matrices.

Stabilizer text is one generator per line over {I, X, Z, Y}; `#` starts a
comment, blank lines are ignored, and an optional annotation line
`!ebits=c` declares that the last c columns are receiver-held ebits.

The alist format is the usual sparse-matrix interchange: header `n m`
(columns, rows) for binary matrices or `n m 4` for GF(4), then maximum
degrees, column degrees, row degrees, the n column adjacency lists and the
m row adjacency lists, all 1-indexed.  GF(4) lists carry (index, value)
pairs.  Zero-padded irregular lists are tolerated on input.
"""

from pathlib import Path

import numpy as np

from . import gf4
from .stabilizer import NonCommutingRowsError, StabilizerCode, as_values, build_code_4_1_1

BUILTIN_CODES = {"4_1_1": build_code_4_1_1}


class FormatError(ValueError):
    """Malformed input file."""


class HeaderFormatError(FormatError):
    """Missing or inconsistent header fields."""


class IndexOutOfRangeError(FormatError):
    """An adjacency index points outside the declared matrix."""


def parse_stabilizer_text(text: str) -> StabilizerCode:
    """Parse stabilizer text into a StabilizerCode."""
    rows = []
    n_ebits = 0
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("!"):
            key, _, value = line[1:].partition("=")
            if key.strip() != "ebits":
                raise HeaderFormatError(f"unknown annotation {line!r}")
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
    n_total = lengths.pop()
    if n_ebits >= n_total:
        raise HeaderFormatError(
            f"ebit count {n_ebits} must be smaller than row length {n_total}"
        )
    try:
        return StabilizerCode(
            values.reshape(len(rows), n_total), n_sent=n_total - n_ebits, n_ebits=n_ebits
        )
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


def _alist_entries(line: str, q: int, what: str, limit: int, degree: int):
    """(index, value) pairs of one adjacency list, zero padding dropped; each
    index must lie in 1..limit and the pair count must equal the degree."""
    tokens = _int_tokens(line, f"{what} list")
    if q == 2:
        entries = [(index, 1) for index in tokens]
    else:
        if len(tokens) % 2:
            raise FormatError(f"odd (index, value) list for {what}")
        entries = list(zip(tokens[0::2], tokens[1::2]))
    entries = [(index, value) for index, value in entries if index != 0]
    for index, _ in entries:
        if not 1 <= index <= limit:
            raise IndexOutOfRangeError(
                f"index {index} out of range 1..{limit} in {what} list"
            )
    if len(entries) != degree:
        raise FormatError(f"{what} lists {len(entries)} entries, degree says {degree}")
    return entries


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
        raise FormatError(
            f"expected {4 + n + m} lines for a {m} x {n} alist, got {len(lines)}"
        )
    col_degrees = _int_tokens(lines[2], "column degree list")
    row_degrees = _int_tokens(lines[3], "row degree list")
    if len(col_degrees) != n:
        raise FormatError(f"expected {n} column degrees, got {len(col_degrees)}")
    if len(row_degrees) != m:
        raise FormatError(f"expected {m} row degrees, got {len(row_degrees)}")

    matrix = np.zeros((m, n), dtype=np.uint8)
    for col in range(n):
        what = f"column {col + 1}"
        entries = _alist_entries(lines[4 + col], q, what, m, col_degrees[col])
        for row, value in entries:
            if not 0 < value < q:
                raise FormatError(f"entry value {value} invalid for GF({q}) in {what}")
            matrix[row - 1, col] = value

    # Cross-check the redundant row lists.
    for row in range(m):
        what = f"row {row + 1}"
        entries = _alist_entries(lines[4 + n + row], q, what, n, row_degrees[row])
        for col, value in entries:
            if matrix[row, col - 1] != value:
                raise FormatError(
                    f"row list disagrees with column lists at ({row + 1}, {col})"
                )
    return matrix


def write_alist(matrix: np.ndarray) -> str:
    """Render a dense matrix as alist text (binary, or GF(4) if entries > 1)."""
    matrix = as_values(matrix)
    if matrix.ndim != 2 or matrix.size == 0:
        raise ValueError("matrix must be a nonempty 2-D array")
    m, n = matrix.shape
    q = 4 if matrix.max() > 1 else 2
    col_lists = [np.nonzero(matrix[:, col])[0] + 1 for col in range(n)]
    row_lists = [np.nonzero(matrix[row, :])[0] + 1 for row in range(m)]
    max_col = max(lst.size for lst in col_lists)
    max_row = max(lst.size for lst in row_lists)

    def render(indices, axis_matrix_get, width):
        items = []
        for idx in indices:
            if q == 2:
                items.append(str(idx))
            else:
                items.append(f"{idx} {axis_matrix_get(idx)}")
        pad = "0" if q == 2 else "0 0"
        items.extend([pad] * (width - len(indices)))
        return " ".join(items)

    lines = []
    lines.append(f"{n} {m}" if q == 2 else f"{n} {m} {q}")
    lines.append(f"{max_col} {max_row}")
    lines.append(" ".join(str(lst.size) for lst in col_lists))
    lines.append(" ".join(str(lst.size) for lst in row_lists))
    for col in range(n):
        lines.append(
            render(col_lists[col], lambda r, c=col: matrix[r - 1, c], max_col)
        )
    for row in range(m):
        lines.append(
            render(row_lists[row], lambda c, r=row: matrix[r, c - 1], max_row)
        )
    return "\n".join(lines) + "\n"
