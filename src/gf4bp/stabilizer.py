"""Stabilizer codes over GF(4): Pauli strings, syndromes, EA canonicalization
and code constructions.

Pauli operators are phase-free throughout: an n-qubit operator is its vector
of GF(4) symbols (see gf4) and operator products are entrywise GF(4) sums.
Entanglement-assisted codes keep the c receiver-held ebit columns after the
n_sent transmitted columns; channel errors never touch ebit columns, so any
error string has identity there.

The binary symplectic representation maps column j of a symbol vector to the
bit pair (x_j, z_j) with X=(1,0), Z=(0,1), Y=(1,1); rank and membership
questions reduce to GF(2) linear algebra in that picture.  Both read a code's
reduced row-echelon basis: its row count is the rank, and a Pauli is in the
group iff it equals the XOR of the basis rows whose pivot bits it sets.
"""

import operator
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import gf4
from .gf4 import as_values


#: ANTICOMMUTES[s, e] = 1 if symbol e anticommutes with symbol s, else 0.
ANTICOMMUTES = gf4.TRACE_TABLE[gf4.MUL_TABLE[gf4.CONJ_TABLE]]


#: The syndrome entry of a parity bit: 0 -> +1, 1 -> -1.
_SIGNS = np.array([1, -1], dtype=np.int8)


def check_integer(name: str, value, least: int | None = 0) -> None:
    """The package's one rule for counts, iteration caps, seeds and pins:
    ValueError unless value is an integer (int or numpy integer, not a bool
    or a float, even an integral one) of at least `least` (None: any)."""
    try:
        if isinstance(value, bool):
            raise TypeError
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if least is not None and value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}")


class NonCommutingRowsError(ValueError):
    """A generator set that is supposed to commute does not."""


def to_symplectic(values: np.ndarray) -> np.ndarray:
    """Binary symplectic image [x-bits | z-bits] along the last axis."""
    values = np.asarray(values, dtype=np.uint8)
    return np.concatenate([values & 1, values >> 1], axis=-1)


def symplectic_products(vec: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Commutation parities (0/1) of one Pauli vector against each row of rows."""
    return np.bitwise_xor.reduce(ANTICOMMUTES[rows, vec], axis=-1)


def commutes(p, q) -> int:
    """+1 if two equal-length Pauli strings commute, -1 if they anticommute."""
    u = as_values(p)
    v = as_values(q)
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    return 1 - 2 * int(symplectic_products(u, v))


def gf2_row_reduce(matrix: np.ndarray):
    """Row-reduce a binary matrix over GF(2).

    Returns (reduced_rows, pivot_columns); reduced_rows has one row per
    pivot and is in reduced row-echelon form.
    """
    m = np.array(matrix, dtype=np.uint8) % 2
    n_rows, n_cols = m.shape
    pivots = []
    r = 0
    for c in range(n_cols):
        hits = np.nonzero(m[r:, c])[0]
        if hits.size == 0:
            continue
        pivot = r + hits[0]
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        m[others] ^= m[r]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m[:r], np.array(pivots, dtype=np.intp)


@dataclass(eq=False)
class StabilizerCode:
    """An m-generator stabilizer over its check columns: the n_sent
    transmitted ones, then the last n_ebits (keyword only), receiver-held.

    checks holds GF(4) values; rows must be nonzero and mutually commuting.
    Redundant (dependent) rows are allowed.  At least one column is sent.
    """

    checks: np.ndarray
    n_ebits: int = field(default=0, kw_only=True)

    def __post_init__(self):
        checks = as_values(self.checks)
        if checks.ndim != 2 or checks.shape[0] == 0:
            raise ValueError("check matrix must be a nonempty 2-D array")
        check_integer("n_ebits", self.n_ebits)
        if self.n_ebits >= checks.shape[1]:
            raise ValueError(f"{self.n_ebits} ebits leave none of {checks.shape[1]} columns sent")
        if not checks.any(axis=1).all():
            raise ValueError("every generator row must be nonzero")
        self.checks = checks
        self._check_commutation()

    def _check_commutation(self):
        words = _parity_words(self, self.checks)
        if words.any():  # unpack only the first anticommuting row, to name the pair
            i = np.flatnonzero(words.any(axis=1))[0]
            j = np.flatnonzero(np.unpackbits(words[i].view(np.uint8), bitorder="little"))[0]
            raise NonCommutingRowsError(f"generators {i} and {j} anticommute")

    @property
    def n_total(self) -> int:
        return self.checks.shape[1]

    @property
    def n_sent(self) -> int:
        return self.n_total - self.n_ebits

    @property
    def n_checks(self) -> int:
        return self.checks.shape[0]

    @property
    def rank(self) -> int:
        """Number of independent generators (GF(2) symplectic rank)."""
        return self._span_basis[0].shape[0]

    @cached_property
    def logical_k(self) -> int:
        """Encoded qubits: n_sent - (independent generators - ebits)."""
        return self.n_sent - self.rank + self.n_ebits

    @cached_property
    def _span_basis(self):
        return gf2_row_reduce(to_symplectic(self.checks))

    @cached_property
    def _anticommutation_words(self):
        """(n_total * 4, words) uint64 columns: row 4 * j + s holds, bit c
        of its little-endian bytes, whether symbol s on column j
        anticommutes with check c."""
        n_words = -(-self.n_checks // 64)
        columns = self.checks.T.copy()  # C order: packbits is fastest along contiguous rows
        x = np.packbits(columns & 1, axis=-1, bitorder="little")
        z = np.packbits(columns >> 1, axis=-1, bitorder="little")
        packed = np.zeros((self.n_total, 4, 8 * n_words), dtype=np.uint8)
        # X anticommutes with Z and Y entries, Z with X and Y, Y with X and Z
        packed[:, 1:, : x.shape[1]] = np.stack([z, x, x ^ z], axis=1)
        return packed.view(np.uint64).reshape(self.n_total * 4, n_words)

    def __getstate__(self):
        """Pickle the defining fields only; cached properties are rebuilt on use."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def row_pauli(self, index: int) -> str:
        return gf4.values_to_pauli(self.checks[index])

    def embed_sent(self, e_sent) -> np.ndarray:
        """Pad an error on the transmitted qubits with identity ebit columns."""
        values = as_values(e_sent)
        if values.shape != (self.n_sent,):
            raise ValueError(
                f"an error must cover the {self.n_sent} sent qubits, not shape {values.shape}"
            )
        full = np.zeros(self.n_total, dtype=np.uint8)
        full[: self.n_sent] = values
        return full


def syndrome(code: StabilizerCode, error) -> np.ndarray:
    """Syndrome of an error: entry c is +1 iff generator c commutes with it.
    A (B, n_total) array of errors gives the (B, n_checks) syndromes of its
    rows."""
    return syndrome_signs(code, syndrome_words(code, error))


def syndrome_words(code: StabilizerCode, error) -> np.ndarray:
    """An error's syndrome packed as _parity_words: bit c % 64 of uint64 word
    c // 64 is set iff check c reads -1, so the all +1 syndrome is all zero.
    Each error's parities are the XOR of the packed anticommutation columns
    of its nonzero symbols."""
    values = as_values(error)
    if values.ndim not in (1, 2) or values.shape[-1] != code.n_total:
        raise ValueError(f"error shape {values.shape} does not match {code.n_total} columns")
    words = _parity_words(code, values.reshape(-1, code.n_total))
    return words.reshape(values.shape[:-1] + words.shape[-1:])


def syndrome_signs(code: StabilizerCode, words: np.ndarray) -> np.ndarray:
    """The +1/-1 int8 syndromes of syndrome_words."""
    bits = np.unpackbits(words.view(np.uint8), axis=-1, count=code.n_checks, bitorder="little")
    return _SIGNS.take(bits)


def _parity_words(code: StabilizerCode, rows: np.ndarray) -> np.ndarray:
    """(B, words) uint64 parities of each error row, packed as the columns are."""
    columns = code._anticommutation_words
    words = np.zeros((len(rows), columns.shape[1]), dtype=np.uint64)
    hits = np.flatnonzero(rows != 0)  # numpy's uint8 nonzero is several times slower than bool's
    if hits.size:
        hit_rows, hit_cols = np.divmod(hits, rows.shape[1])
        # the first nonzero symbol of each row that has one
        first = np.empty(hits.size, dtype=bool)
        first[0] = True
        np.not_equal(hit_rows[1:], hit_rows[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        words[hit_rows[starts]] = np.bitwise_xor.reduceat(
            columns[hit_cols * 4 + rows.ravel()[hits]], starts, axis=0
        )
    return words


def quaternary_to_pauli(h: np.ndarray) -> np.ndarray:
    """Stack a k' x n quaternary check matrix into 2k' generator candidates.

    Returns the GF(4) matrix [h; omega*h]; the rows are read as Pauli
    strings via the standard identification.
    """
    h = as_values(h)
    if h.ndim != 2:
        raise ValueError("check matrix must be 2-D")
    return np.concatenate([h, gf4.MUL_TABLE[gf4.OMEGA, h]], axis=0)


def ea_canonicalize(gens: np.ndarray):
    """Bring generators to canonical form by symplectic Gram-Schmidt.

    Returns (canonical, pair_count): the first 2*pair_count rows form
    anticommuting pairs (row 2i with row 2i+1), the remaining rows commute
    with everything.  Every output row is a product of input rows, so the
    generated group is unchanged.  Raises ValueError on dependent input rows.
    """
    gens = as_values(gens)
    if gens.ndim != 2 or gens.shape[0] == 0:
        raise ValueError("generator matrix must be a nonempty 2-D array")
    if not gens.any(axis=1).all():
        raise ValueError("every generator row must be nonzero")
    reduced, _ = gf2_row_reduce(to_symplectic(gens))
    if reduced.shape[0] < gens.shape[0]:
        raise ValueError(
            f"generators are dependent: rank {reduced.shape[0]} < {gens.shape[0]} rows"
        )

    rest, paired, commuting = gens, [], []
    while len(rest):
        g, rest = rest[0], rest[1:]
        hits = np.flatnonzero(symplectic_products(g, rest))
        if hits.size == 0:
            commuting.append(g)
            continue
        h, rest = rest[hits[0]], np.delete(rest, hits[0], axis=0)
        # Sweep the pair out of every remaining generator:
        # r -> r * g^<r,h> * h^<r,g> commutes with both g and h.
        rest = (rest ^ symplectic_products(h, rest)[:, None] * g
                ^ symplectic_products(g, rest)[:, None] * h)
        paired += [g, h]
    return np.array(paired + commuting, dtype=np.uint8), len(paired) // 2


def extend_with_ebits(gens: np.ndarray, pair_count: int) -> StabilizerCode:
    """Append ebit columns that make a canonicalized set commute.

    Pair row 2i gets X in ebit column i, pair row 2i+1 gets Z there; rows
    already commuting get identity.
    """
    gens = as_values(gens)
    if gens.ndim != 2:
        raise ValueError("generator matrix must be a 2-D array")
    m, n = gens.shape
    check_integer("pair_count", pair_count, None)
    if pair_count < 0 or 2 * pair_count > m:
        raise ValueError(f"pair_count {pair_count} out of range for {m} rows")
    extended = np.zeros((m, n + pair_count), dtype=np.uint8)
    extended[:, :n] = gens
    for i in range(pair_count):
        extended[2 * i, n + i] = gf4.ONE
        extended[2 * i + 1, n + i] = gf4.OMEGA
    return StabilizerCode(extended, n_ebits=pair_count)


def construction_b(circulant_first_row, rows_to_keep=None) -> StabilizerCode:
    """Dual-containing CSS code from a circulant: H0 = [C, C^T], rows kept.

    circulant_first_row is the first row of the (n/2 x n/2) binary circulant
    C (row i is the first row cyclically shifted right by i).  X-type
    generators come from the kept rows of H0, Z-type generators from the
    same rows with entries mapped to omega.
    """
    first = np.asarray(circulant_first_row)
    if first.ndim != 1 or first.size == 0:
        raise ValueError("first row must be a nonempty bit vector")
    bits = np.isin(first, (0, 1))
    if not bits.all():  # checked before the cast, which truncates
        raise ValueError(f"first row entries must be 0 or 1, not {first[~bits][0].item()!r}")
    first = first.astype(np.uint8)
    if not first.any():
        raise ValueError("circulant first row must be nonzero")
    size = first.size
    circ = np.array([np.roll(first, shift) for shift in range(size)], dtype=np.uint8)
    h0 = np.concatenate([circ, circ.T], axis=1)

    if rows_to_keep is None:
        keep = np.arange(size)
    else:
        rows = list(rows_to_keep)
        for row in rows:  # checked before the cast, which truncates
            check_integer("row to keep", row, None)
        keep = np.unique(np.asarray(rows, dtype=np.intp))
        if keep.size == 0:
            raise ValueError("rows_to_keep must not be empty")
        if keep.min() < 0 or keep.max() >= size:
            raise ValueError(f"row indices must lie in 0..{size - 1}")
    # Kept rows of H0 are orthogonal: H0 H0^T = C C^T + C^T C = 2 C C^T = 0
    # over GF(2), since circulants commute.
    h = h0[keep]

    x_rows = h * gf4.ONE
    z_rows = h * gf4.OMEGA
    checks = np.concatenate([x_rows, z_rows], axis=0).astype(np.uint8)
    return StabilizerCode(checks)


def group_membership(error, code: StabilizerCode) -> bool:
    """Whether a phase-free Pauli lies in the group generated by the checks."""
    values = as_values(error)
    if values.shape != (code.n_total,):
        raise ValueError(
            f"error length {values.shape} does not match {code.n_total} columns"
        )
    reduced, pivots = code._span_basis
    vec = to_symplectic(values)
    # in reduced row-echelon form a pivot column is set in its own row only
    return np.array_equal(np.bitwise_xor.reduce(reduced[vec[pivots] == 1], axis=0), vec)


def build_code_4_1_1() -> StabilizerCode:
    """The worked [[4, 1; 1]] EA code (one ebit column, held by the receiver)."""
    rows = ["XZXIX", "XXIXZ", "YZZXI", "ZXXYI"]
    checks = np.array([gf4.pauli_to_values(row) for row in rows])
    return StabilizerCode(checks, n_ebits=1)
