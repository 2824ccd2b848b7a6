"""Exact GF(4) tables and the Pauli <-> GF(4) correspondence.

Field elements are plain integers 0..3 encoding {0, 1, omega, omega_bar}.
Under the Pauli identification

    I <-> 0,  X <-> 1,  Z <-> omega (2),  Y <-> omega_bar (3),

the low bit of the encoding is the X part of the Pauli and the high bit is
the Z part, so field addition (= phase-free Pauli multiplication) is bitwise
XOR.  Multiplication, conjugation and the trace onto GF(2) are tables; the
test suite cross-checks multiplication against polynomial arithmetic modulo
x^2 + x + 1, and its field operations (tests/oracles.py) read the tables.

Two single-qubit Paulis P, Q commute iff trace(P_hat * conj(Q_hat)) == 0;
for n-qubit strings the criterion is the trace inner product of the symbol
vectors.  stabilizer.ANTICOMMUTES tabulates the per-symbol term from these
tables, and every commutation parity in the package is read from it.
"""

import numpy as np

ZERO, ONE, OMEGA, OMEGA_BAR = 0, 1, 2, 3

#: Pauli symbol for each GF(4) value (index == value).
PAULI_ORDER = "IXZY"

_PAULI_BYTES = np.frombuffer(PAULI_ORDER.encode("ascii"), dtype=np.uint8)

# The Pauli byte of every uint8 value; 0 marks a value outside 0..3.
_PAULI_OF_BYTE = np.zeros(256, dtype=np.uint8)
_PAULI_OF_BYTE[:4] = _PAULI_BYTES

# The GF(4) value of every Latin-1 byte; 4 marks a byte that is not a Pauli symbol.
_VALUE_OF_BYTE = np.full(256, 4, dtype=np.uint8)
_VALUE_OF_BYTE[_PAULI_BYTES] = np.arange(4)

MUL_TABLE = np.array(
    [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
    ],
    dtype=np.uint8,
)

#: Conjugation swaps omega and omega_bar, fixes the prime subfield.
CONJ_TABLE = np.array([0, 1, 3, 2], dtype=np.uint8)

#: Trace onto GF(2): 0 on {0, 1}, 1 on {omega, omega_bar}.
TRACE_TABLE = np.array([0, 0, 1, 1], dtype=np.uint8)


def pauli_to_values(pauli: str) -> np.ndarray:
    """Convert a Pauli string over {I, X, Z, Y} to GF(4) values."""
    # one byte per symbol ("?" if outside Latin-1), then each byte's value
    values = pauli.encode("latin-1", "replace").translate(_VALUE_OF_BYTE)
    bad = values.find(4)
    if bad >= 0:
        raise ValueError(f"invalid Pauli symbol {pauli[bad]!r} in {pauli!r}")
    return np.frombuffer(bytearray(values), dtype=np.uint8)


def values_to_pauli(values) -> str:
    """Convert GF(4) values, read in C order, back to their Pauli string."""
    values = np.asarray(values)
    if values.dtype == np.uint8:  # the lookup marks invalid values itself
        text = _PAULI_OF_BYTE.take(values).tobytes()
        if b"\0" not in text:
            return text.decode("ascii")
    elif not values.size or (0 <= values.min() and values.max() <= 3):
        text = _PAULI_BYTES.take(values.astype(np.intp, copy=False)).tobytes()
        return text.decode("ascii")
    raise ValueError(f"GF(4) values must lie in 0..3, got {values.min()}..{values.max()}")
