"""Exact GF(4) arithmetic and the Pauli <-> GF(4) correspondence.

Field elements are plain integers 0..3 encoding {0, 1, omega, omega_bar}.
Under the Pauli identification

    I <-> 0,  X <-> 1,  Z <-> omega (2),  Y <-> omega_bar (3),

the low bit of the encoding is the X part of the Pauli and the high bit is
the Z part, so field addition (= phase-free Pauli multiplication) is bitwise
XOR.  Multiplication uses a 16-entry table, cross-checked at import time
against polynomial arithmetic modulo x^2 + x + 1.

Two single-qubit Paulis P, Q commute iff trace(P_hat * conj(Q_hat)) == 0;
for n-qubit strings the criterion is the trace inner product of the symbol
vectors.  stabilizer.ANTICOMMUTES tabulates the per-symbol term from these
tables, and every commutation parity in the package is read from it.  All
functions accept scalars or numpy arrays.
"""

import numpy as np

ZERO, ONE, OMEGA, OMEGA_BAR = 0, 1, 2, 3

#: Pauli symbol for each GF(4) value (index == value).
PAULI_ORDER = "IXZY"

PAULI_TO_VALUE = {symbol: value for value, symbol in enumerate(PAULI_ORDER)}

_PAULI_BYTES = np.frombuffer(PAULI_ORDER.encode("ascii"), dtype=np.uint8)

# The Pauli byte of every uint8 value; 0 marks a value outside 0..3.
_PAULI_OF_BYTE = np.zeros(256, dtype=np.uint8)
_PAULI_OF_BYTE[:4] = _PAULI_BYTES

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


def _poly_mul(a: int, b: int) -> int:
    # GF(4) as GF(2)[x] / (x^2 + x + 1) with value = c0 + 2*c1.
    a0, a1 = a & 1, a >> 1
    b0, b1 = b & 1, b >> 1
    c0 = (a0 & b0) ^ (a1 & b1)
    c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
    return c0 + 2 * c1


# Build-time validation of the lookup table against the polynomial field.
assert all(
    MUL_TABLE[a, b] == _poly_mul(a, b) for a in range(4) for b in range(4)
), "GF(4) multiplication table is inconsistent"


def add(a, b):
    """GF(4) addition (Klein four-group, bitwise XOR on the encoding)."""
    return np.bitwise_xor(a, b)


def mul(a, b):
    """GF(4) multiplication."""
    return MUL_TABLE[a, b]


def conj(a):
    """GF(4) conjugation (the Frobenius map x -> x^2)."""
    return CONJ_TABLE[a]


def trace(a):
    """Trace onto GF(2): 0 for {0, 1}, 1 for {omega, omega_bar}."""
    return TRACE_TABLE[a]


def pauli_to_values(pauli: str) -> np.ndarray:
    """Convert a Pauli string over {I, X, Z, Y} to GF(4) values."""
    try:
        return np.array([PAULI_TO_VALUE[symbol] for symbol in pauli], dtype=np.uint8)
    except KeyError as exc:
        raise ValueError(f"invalid Pauli symbol {exc.args[0]!r} in {pauli!r}") from None


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
