import hashlib
import pickle
from functools import partial

import numpy as np
import pytest
from click.testing import CliRunner

from gf4bp import gf4
from gf4bp.cli import main
from gf4bp.formats import parse_stabilizer_text, write_alist
from gf4bp.stabilizer import (
    ANTICOMMUTES,
    NonCommutingRowsError,
    StabilizerCode,
    build_code_4_1_1,
    commutes,
    construction_b,
    ea_canonicalize,
    extend_with_ebits,
    group_membership,
    quaternary_to_pauli,
    syndrome,
    syndrome_signs,
    syndrome_words,
    to_symplectic,
)

from oracles import (
    anticommutation_words_by_cube,
    enumerate_group,
    pauli_commutation_sign,
    syndrome_by_counting,
    syndrome_by_entries,
)

C62_ROW = [1 if i in (1, 5, 11, 24, 25, 27) else 0 for i in range(31)]
N510_ROW = [1 if i in (8, 36, 118, 128, 190, 240) else 0 for i in range(255)]


@pytest.fixture
def code411():
    return build_code_4_1_1()


def test_commutes_examples():
    assert commutes("XX", "XX") == 1
    assert commutes("YZZXI", "IIZXI") == 1
    assert commutes("XZXIX", "IIZXI") == -1


def test_commutes_matches_counting_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = rng.integers(1, 9)
        u = rng.integers(0, 4, size=n).astype(np.uint8)
        v = rng.integers(0, 4, size=n).astype(np.uint8)
        assert commutes(u, v) == pauli_commutation_sign(u, v)


def test_code_4_1_1_construction(code411):
    assert [code411.row_pauli(i) for i in range(4)] == [
        "XZXIX", "XXIXZ", "YZZXI", "ZXXYI",
    ]
    assert code411.n_sent == 4
    assert code411.n_ebits == 1
    assert code411.logical_k == 1  # [[n, 2k-n+c; c]] with 2*2-4+1 = 1
    for i in range(4):
        for j in range(4):
            assert commutes(code411.checks[i], code411.checks[j]) == 1


def test_syndrome_golden(code411):
    assert syndrome(code411, "IIZXI").tolist() == [-1, 1, 1, 1]
    assert syndrome(code411, "IIIII").tolist() == [1, 1, 1, 1]
    assert syndrome(code411, "IYIII").tolist() == [-1, -1, -1, -1]


def test_syndrome_matches_counting_oracle(code411):
    rng = np.random.default_rng(6)
    for _ in range(50):
        e = np.zeros(5, dtype=np.uint8)
        e[:4] = rng.integers(0, 4, size=4)
        assert syndrome(code411, e).tolist() == syndrome_by_counting(code411, e).tolist()
    # the syndrome covers every column, the receiver's ebit included
    for _ in range(50):
        e = rng.integers(0, 4, size=5).astype(np.uint8)
        assert syndrome(code411, e).tolist() == syndrome_by_counting(code411, e).tolist()
    # a (B, n_total) array gives the syndrome of each row
    errors = rng.integers(0, 4, size=(50, 5)).astype(np.uint8)
    assert syndrome(code411, errors).tolist() == [
        syndrome_by_counting(code411, e).tolist() for e in errors
    ]


@pytest.mark.parametrize(
    "code_name, checks", [("4_1_1", 4), ("c62", 62), ("n510", 510)]
)
def test_syndrome_matches_per_entry_reference(code_name, checks):
    # The packed columns hold 1, 1 and 8 words of check bits: both ends of
    # a word, a partial last word and several words per row.
    code = {
        "4_1_1": build_code_4_1_1,
        "c62": lambda: construction_b(C62_ROW),
        "n510": lambda: construction_b(N510_ROW),
    }[code_name]()
    assert code.n_checks == checks
    rng = np.random.default_rng(checks)
    for density in (0.01, 0.1, 1.0):
        errors = rng.integers(0, 4, size=(40, code.n_total)).astype(np.uint8)
        errors[rng.random(errors.shape) >= density] = 0
        errors[::7] = 0  # all-identity rows, first and last among them
        errors[-1] = 0
        expected = syndrome_by_entries(code, errors)
        got = syndrome(code, errors)
        assert got.dtype == np.int8 and np.array_equal(got, expected)
        for error, row in zip(errors[:8], expected):
            one = syndrome(code, error)
            assert one.dtype == np.int8 and np.array_equal(one, row)
    # every symbol on every column alone, ebit columns included
    singles = np.zeros((3 * code.n_total, code.n_total), dtype=np.uint8)
    singles[np.arange(3 * code.n_total), np.repeat(np.arange(code.n_total), 3)] = (
        np.tile([1, 2, 3], code.n_total)
    )
    assert np.array_equal(syndrome(code, singles), syndrome_by_entries(code, singles))
    if code.n_ebits:
        ebit_only = np.zeros((3, code.n_total), dtype=np.uint8)
        ebit_only[:, code.n_sent:] = np.array([[1], [2], [3]])
        assert np.array_equal(
            syndrome(code, ebit_only), syndrome_by_entries(code, ebit_only)
        )
        assert (syndrome(code, ebit_only) < 0).any()
    assert np.array_equal(
        syndrome(code, np.zeros((0, code.n_total), dtype=np.uint8)),
        np.zeros((0, code.n_checks), dtype=np.int8),
    )


@pytest.mark.parametrize("code_name, n_words", [("4_1_1", 1), ("n510", 8)])
def test_syndrome_words_pack_the_syndrome(code_name, n_words):
    # syndrome is the signs of syndrome_words: bit c % 64 of word c // 64 is
    # set iff check c reads -1, so the quiet (all +1) rows are the zero rows
    code = build_code_4_1_1() if code_name == "4_1_1" else construction_b(N510_ROW)
    rng = np.random.default_rng(n_words)
    errors = rng.integers(0, 4, size=(30, code.n_total)).astype(np.uint8)
    errors[rng.random(errors.shape) >= 0.02] = 0
    words = syndrome_words(code, errors)
    assert words.dtype == np.uint64 and words.shape == (30, n_words)
    expected = syndrome_by_entries(code, errors)
    checks = np.arange(code.n_checks)
    bits = words[:, checks // 64] >> (checks % 64).astype(np.uint64) & np.uint64(1)
    assert np.array_equal(bits == 1, expected < 0)
    assert np.array_equal(~words.any(axis=1), (expected > 0).all(axis=1))
    assert np.array_equal(syndrome_signs(code, words), expected)
    assert np.array_equal(syndrome_words(code, errors[3]), words[3])
    with pytest.raises(ValueError):
        syndrome_words(code, errors[:, 1:])


def test_syndrome_is_homomorphism(code411):
    rng = np.random.default_rng(7)
    for _ in range(50):
        e1 = np.zeros(5, dtype=np.uint8)
        e2 = np.zeros(5, dtype=np.uint8)
        e1[:4] = rng.integers(0, 4, size=4)
        e2[:4] = rng.integers(0, 4, size=4)
        combined = syndrome(code411, np.bitwise_xor(e1, e2))
        assert combined.tolist() == (syndrome(code411, e1) * syndrome(code411, e2)).tolist()


def test_syndrome_length_check(code411):
    with pytest.raises(ValueError):
        syndrome(code411, "IIZX")
    with pytest.raises(ValueError):
        syndrome(code411, np.zeros((3, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        syndrome(code411, np.zeros((2, 3, 5), dtype=np.uint8))


def test_symbol_values_are_checked_not_truncated(code411):
    # 1.7 used to be read as X (1) and -1 as 255; an integral float is exact
    for values in ([0, 1.7, 2, 3, 0], [0, -1, 2, 3, 0], [0, 4, 2, 3, 0],
                   np.array([0, 4, 2, 3, 0], dtype=np.uint8)):
        with pytest.raises(ValueError, match="GF\\(4\\) values must lie in 0..3"):
            syndrome(code411, values)
    with pytest.raises(ValueError, match="0..3"):
        code411.embed_sent([0, 2.5, 1, 0])
    assert syndrome(code411, [0.0, 1.0, 2.0, 3.0, 0.0]).tolist() == (
        syndrome(code411, np.array([0, 1, 2, 3, 0], dtype=np.uint8)).tolist()
    )


def test_check_matrix_values_are_checked_not_truncated():
    # the matrix was cast to uint8 before its 0..3 check: 1.5 was read as X
    # and built the check XX; an integral float is exact
    with pytest.raises(ValueError, match="GF\\(4\\) values must lie in 0..3"):
        StabilizerCode(np.array([[1.5, 1.0]]))
    assert StabilizerCode(np.array([[1.0, 1.0]])).row_pauli(0) == "XX"


def test_embed_sent(code411):
    assert gf4.values_to_pauli(code411.embed_sent("IIZX")) == "IIZXI"
    with pytest.raises(ValueError):
        code411.embed_sent("IIZXI")


HC = np.array([[1, 2, 1, 0], [1, 1, 0, 1]], dtype=np.uint8)  # the [4,2] quaternary code


def test_quaternary_to_pauli_golden():
    stacked = quaternary_to_pauli(HC)
    assert stacked.tolist() == [
        [1, 2, 1, 0],
        [1, 1, 0, 1],
        [2, 3, 2, 0],
        [2, 2, 0, 2],
    ]
    assert [gf4.values_to_pauli(row) for row in stacked] == [
        "XZXI", "XXIX", "ZYZI", "ZZIZ",
    ]


def test_quaternary_to_pauli_checks_values():
    # 1.7 used to be read as 1 ([[1 0] [2 0]]) and 5 to raise an IndexError
    for h in ([[1.7, 0]], [[5, 0]], np.array([[5, 0]], dtype=np.uint8)):
        with pytest.raises(ValueError, match="GF\\(4\\) values must lie in 0..3"):
            quaternary_to_pauli(h)


def test_quaternary_to_pauli_zero_matrix_rejected_downstream():
    stacked = quaternary_to_pauli(np.zeros((1, 3), dtype=np.uint8))
    assert not stacked.any()
    with pytest.raises(ValueError):
        StabilizerCode(stacked)


def test_ea_canonicalize_golden():
    gens = quaternary_to_pauli(HC)
    canonical, pairs = ea_canonicalize(gens)
    assert pairs == 1
    # first pair anticommutes, everything else commutes
    assert commutes(canonical[0], canonical[1]) == -1
    for i in range(2, 4):
        assert commutes(canonical[0], canonical[i]) == 1
        assert commutes(canonical[1], canonical[i]) == 1
        for j in range(2, 4):
            assert commutes(canonical[i], canonical[j]) == 1
    # rows generate the same group as the input
    before = {
        tuple(np.bitwise_xor.reduce(gens[list(sel)], axis=0)) if sel else (0,) * 4
        for sel in _subsets(4)
    }
    after = {
        tuple(np.bitwise_xor.reduce(canonical[list(sel)], axis=0)) if sel else (0,) * 4
        for sel in _subsets(4)
    }
    assert before == after


def _subsets(n):
    for mask in range(1 << n):
        yield [i for i in range(n) if mask >> i & 1]


def test_ea_canonicalize_checks_values():
    # [[1.7, 2]] used to come back as [[1 2]]
    with pytest.raises(ValueError, match="GF\\(4\\) values must lie in 0..3"):
        ea_canonicalize([[1.7, 2]])


def test_ea_canonicalize_already_commuting():
    gens = np.array([gf4.pauli_to_values("XXI"), gf4.pauli_to_values("IXX")])
    canonical, pairs = ea_canonicalize(gens)
    assert pairs == 0
    assert canonical.tolist() == gens.tolist()


def test_ea_canonicalize_single_qubit_pair():
    gens = np.array([[1], [2]], dtype=np.uint8)  # X and Z on one qubit
    _, pairs = ea_canonicalize(gens)
    assert pairs == 1


def test_ea_canonicalize_dependent_rows():
    gens = np.array([[1, 1], [1, 1]], dtype=np.uint8)
    with pytest.raises(ValueError, match="dependent"):
        ea_canonicalize(gens)


def test_ea_canonicalize_pair_count_permutation_invariant():
    gens = quaternary_to_pauli(HC)
    rng = np.random.default_rng(9)
    for _ in range(10):
        perm = rng.permutation(4)
        _, pairs = ea_canonicalize(gens[perm])
        assert pairs == 1


def test_ea_canonicalize_seeded_corpus_digest():
    # The exact output, row order included, on 1,000 random generator sets of
    # up to 8 x 8 (736 canonicalized, 138 dependent, 126 with a zero row): one
    # sha256 over each set's canonical bytes and pair count, or its error.
    rng = np.random.default_rng(44)
    digest = hashlib.sha256()
    for _ in range(1000):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        gens = rng.integers(0, 4, size=(m, n), dtype=np.uint8)
        try:
            canonical, pairs = ea_canonicalize(gens)
        except ValueError as error:
            digest.update(str(error).encode())
        else:
            digest.update(canonical.tobytes() + bytes([pairs]))
    assert digest.hexdigest() == "280ab63c2511d60446a8b05caf2297704e3d9d4725f24fd77ee8cae7aa68678f"


def test_ea_canonicalize_random_groups_preserved():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, min(5, 2 * n) + 1))
        while True:
            gens = rng.integers(0, 4, size=(m, n)).astype(np.uint8)
            if not gens.any(axis=1).all():
                continue
            sym = to_symplectic(gens)
            from gf4bp.stabilizer import gf2_row_reduce

            reduced, _ = gf2_row_reduce(sym)
            if reduced.shape[0] == m:
                break
        canonical, pairs = ea_canonicalize(gens)
        before = {
            tuple(np.bitwise_xor.reduce(gens[sel], axis=0)) if sel else (0,) * n
            for sel in _subsets(m)
        }
        after = {
            tuple(np.bitwise_xor.reduce(canonical[sel], axis=0)) if sel else (0,) * n
            for sel in _subsets(m)
        }
        assert before == after
        assert 2 * pairs <= m


def test_ea_parameters_match_classical_code():
    # a classical [n, k] quaternary code yields an EA [[n, 2k - n + c; c]] code
    rng = np.random.default_rng(33)
    built = 0
    while built < 10:
        n = int(rng.integers(2, 7))
        rows = int(rng.integers(1, n + 1))
        h = rng.integers(0, 4, size=(rows, n)).astype(np.uint8)
        if not h.any(axis=1).all():
            continue
        stacked = quaternary_to_pauli(h)
        from gf4bp.stabilizer import gf2_row_reduce

        reduced, _ = gf2_row_reduce(to_symplectic(stacked))
        if reduced.shape[0] != stacked.shape[0]:
            continue  # classical rows dependent; EA pipeline rejects these
        canonical, pairs = ea_canonicalize(stacked)
        code = extend_with_ebits(canonical, pairs)
        k_classical = n - rows
        assert code.logical_k == 2 * k_classical - n + code.n_ebits
        built += 1


def test_extend_with_ebits_golden(code411):
    canonical, pairs = ea_canonicalize(quaternary_to_pauli(HC))
    code = extend_with_ebits(canonical, pairs)
    assert code.n_sent == 4
    assert code.n_ebits == 1
    assert [code.row_pauli(i) for i in range(4)] == [
        code411.row_pauli(i) for i in range(4)
    ]


def test_extend_with_ebits_no_pairs():
    gens = np.array([gf4.pauli_to_values("XXI"), gf4.pauli_to_values("IXX")])
    code = extend_with_ebits(gens, 0)
    assert code.n_ebits == 0
    assert code.checks.tolist() == gens.tolist()


def test_extend_with_ebits_checks_values_and_pair_count():
    # a 1.5 entry used to be read as X, and a pair count of 0.5 raised a
    # TypeError from range
    gens = np.array([gf4.pauli_to_values("XI"), gf4.pauli_to_values("ZI")])
    with pytest.raises(ValueError, match="GF\\(4\\) values must lie in 0..3"):
        extend_with_ebits([[1.5, 0], [2, 0]], 1)
    # a 1-D matrix used to raise numpy's "not enough values to unpack"
    for flat in ([1, 2], 3):
        with pytest.raises(ValueError, match="generator matrix must be a 2-D array"):
            extend_with_ebits(flat, 0)
    for count in (0.5, 1.0, True):
        with pytest.raises(ValueError, match=f"pair_count must be an integer, not {count!r}"):
            extend_with_ebits(gens, count)
    assert extend_with_ebits(gens, np.int64(1)).row_pauli(1) == "ZIZ"


def test_extend_with_ebits_two_disjoint_pairs():
    gens = np.array(
        [
            gf4.pauli_to_values("XIII"),
            gf4.pauli_to_values("ZIII"),
            gf4.pauli_to_values("IIXI"),
            gf4.pauli_to_values("IIZI"),
        ]
    )
    code = extend_with_ebits(gens, 2)
    assert code.n_ebits == 2
    assert code.row_pauli(0) == "XIIIXI"
    assert code.row_pauli(1) == "ZIIIZI"
    assert code.row_pauli(2) == "IIXIIX"
    assert code.row_pauli(3) == "IIZIIZ"
    for i in range(4):
        for j in range(4):
            assert commutes(code.checks[i], code.checks[j]) == 1


def test_construction_b_small():
    h0_first = np.array([1, 1, 0], dtype=np.uint8)
    circ = np.array([np.roll(h0_first, s) for s in range(3)])
    h0 = np.concatenate([circ, circ.T], axis=1)
    assert h0.shape == (3, 6)
    assert not ((h0 @ h0.T) % 2).any()  # direct matrix multiply oracle
    code = construction_b(h0_first)
    assert code.n_checks == 6
    assert code.n_sent == 6
    for i in range(6):
        for j in range(6):
            assert commutes(code.checks[i], code.checks[j]) == 1
    # X rows carry 1s, Z rows carry omegas
    assert set(np.unique(code.checks[:3])) <= {0, 1}
    assert set(np.unique(code.checks[3:])) <= {0, 2}


def test_construction_b_identity_circulant():
    code = construction_b(np.array([1, 0, 0, 0], dtype=np.uint8))
    assert code.n_sent == 8
    assert code.n_checks == 8


def test_construction_b_row_selection():
    code = construction_b(np.array([1, 1, 0], dtype=np.uint8), rows_to_keep=[0, 2])
    assert code.n_checks == 4
    with pytest.raises(ValueError):
        construction_b(np.array([1, 1, 0], dtype=np.uint8), rows_to_keep=[])
    with pytest.raises(ValueError):
        construction_b(np.array([1, 1, 0], dtype=np.uint8), rows_to_keep=[5])
    with pytest.raises(ValueError):
        construction_b(np.zeros(4, dtype=np.uint8))


def test_construction_b_checks_bits_and_kept_rows():
    # the first row was reduced with % 2 after a uint8 cast, so 2 was read
    # as 0 and 1.5 as 1; a kept row of 1.5 kept row 1
    for first, bad in (([2, 1, 0, 0, 0, 1, 1], "2"), ([1.5, 0, 0], "1.5"), ([1, -1, 0], "-1")):
        with pytest.raises(ValueError, match=f"first row entries must be 0 or 1, not {bad}$"):
            construction_b(first)
    for row in (1.5, 1.0, True):
        with pytest.raises(ValueError, match=f"row to keep must be an integer, not {row!r}"):
            construction_b([1, 1, 0], rows_to_keep=[row, 0])
    kept = construction_b([True, True, False], rows_to_keep=[np.int64(0), 2])
    assert kept.checks.tolist() == construction_b([1, 1, 0], rows_to_keep=[0, 2]).checks.tolist()


def test_group_membership_golden(code411):
    product = np.bitwise_xor(
        gf4.pauli_to_values("IIZXI"), gf4.pauli_to_values("YZIII")
    )
    assert gf4.values_to_pauli(product) == "YZZXI"
    assert group_membership(product, code411)
    assert group_membership("IIIII", code411)
    assert not group_membership("IYIII", code411)


def test_group_membership_matches_enumeration(code411):
    elements = enumerate_group(code411)
    rng = np.random.default_rng(13)
    for _ in range(60):
        e = rng.integers(0, 4, size=5).astype(np.uint8)
        assert group_membership(e, code411) == (tuple(int(v) for v in e) in elements)


def test_group_membership_random_codes():
    rng = np.random.default_rng(17)
    for _ in range(5):
        first = np.zeros(4, dtype=np.uint8)
        first[rng.integers(0, 4)] = 1
        code = construction_b(first)
        elements = enumerate_group(code)
        for _ in range(25):
            e = rng.integers(0, 4, size=code.n_total).astype(np.uint8)
            assert group_membership(e, code) == (tuple(int(v) for v in e) in elements)


def test_noncommuting_rows_rejected():
    # the first anticommuting pair in row-major order is reported
    for rows, message in (
        (["XI", "ZI"], "generators 0 and 1 anticommute"),
        (["XII", "IXI", "IIX", "IZI"], "generators 1 and 3 anticommute"),
    ):
        with pytest.raises(NonCommutingRowsError, match=message):
            StabilizerCode(np.array([gf4.pauli_to_values(row) for row in rows]))


def _first_anticommuting_pair(checks):
    """(i, j) of the first -1 in row-major order of the full sign matrix."""
    signs = np.bitwise_xor.reduce(ANTICOMMUTES[checks[:, None, :], checks[None]], axis=-1)
    return tuple(int(k) for k in np.argwhere(signs)[0])


X, Z, Y = gf4.ONE, gf4.OMEGA, gf4.OMEGA_BAR


@pytest.mark.parametrize(
    "changes",
    [
        {66: {67: X}},  # both rows in the second packed word
        {3: {65: X}},  # the partner in the second word
        {64: {70: X}},  # the last row, in a partly filled last word
        {70: {69: Y, 0: Z}, 2: {1: Z}},  # commuting changes before the first pair
    ],
)
def test_noncommuting_rows_past_the_first_word(changes):
    # Z on qubit k, one row per qubit, all commute; each change rewrites a row
    n = 71
    checks = np.zeros((n, n), dtype=np.uint8)
    checks[np.arange(n), np.arange(n)] = Z
    for row, symbols in changes.items():
        checks[row] = 0
        for qubit, symbol in symbols.items():
            checks[row, qubit] = symbol
    i, j = _first_anticommuting_pair(checks)
    assert j >= 64
    with pytest.raises(NonCommutingRowsError, match=rf"^generators {i} and {j} anticommute$"):
        StabilizerCode(checks)


def test_zero_row_rejected():
    with pytest.raises(ValueError):
        StabilizerCode(np.array([[1, 0], [0, 0]], dtype=np.uint8))


def test_ebit_count_is_keyword_only():
    # the sent width is the columns less the ebits; a positional call in the
    # old (checks, n_sent, n_ebits) order would read n_sent as the ebit count
    checks = build_code_4_1_1().checks
    with pytest.raises(TypeError):
        StabilizerCode(checks, 4, 1)
    with pytest.raises(TypeError):
        StabilizerCode(checks, 1)
    assert StabilizerCode(checks, n_ebits=1).n_sent == 4


@pytest.mark.parametrize(
    "call, args, message",
    [
        (StabilizerCode, ([1, 2],), "check matrix must be a nonempty 2-D array"),
        (partial(StabilizerCode, n_ebits=-1), ([[1, 2]],), "n_ebits must be nonnegative"),
        (partial(StabilizerCode, n_ebits=1.0), ([[1, 2]],), "n_ebits must be an integer, not 1.0"),
        (partial(StabilizerCode, n_ebits=True), ([[1, 2]],),
         "n_ebits must be an integer, not True"),
        (partial(StabilizerCode, n_ebits=2), ([[1, 2]],), "2 ebits leave none of 2 columns sent"),
        (partial(StabilizerCode, n_ebits=3), ([[1, 2]],), "3 ebits leave none of 2 columns sent"),
        (quaternary_to_pauli, ([1, 2],), "check matrix must be 2-D"),
        (ea_canonicalize, (np.zeros((0, 2), np.uint8),),
         "generator matrix must be a nonempty 2-D array"),
        (ea_canonicalize, ([[1, 2], [0, 0]],), "every generator row must be nonzero"),
        (extend_with_ebits, ([[1, 0], [2, 0]], 2), "pair_count 2 out of range for 2 rows"),
        (construction_b, ([],), "first row must be a nonempty bit vector"),
        (group_membership, ([1, 0, 0], build_code_4_1_1()),
         "error length \\(3,\\) does not match 5 columns"),
    ],
    ids=["1d-code", "negative-ebits", "float-ebits", "bool-ebits", "all-ebits", "ebit-count",
         "1d-check-matrix", "empty-generators", "zero-generator",
         "pair-count", "empty-first-row", "error-length"],
)
def test_shapes_and_sizes_are_checked(call, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(*args)


C62_ROW = [1 if i in (1, 5, 11, 24, 25, 27) else 0 for i in range(31)]


@pytest.mark.parametrize(
    "code", [build_code_4_1_1(), construction_b(C62_ROW)], ids=["4_1_1", "c62"]
)
def test_pickle_keeps_only_the_defining_fields(code):
    rng = np.random.default_rng(8)
    errors = [rng.integers(0, 4, size=code.n_total).astype(np.uint8) for _ in range(10)]
    errors.append(np.bitwise_xor(code.checks[0], code.checks[-1]))  # a stabilizer
    # fill every cached property before pickling
    expected = [(syndrome(code, e).tolist(), group_membership(e, code)) for e in errors]
    cached = (code.rank, code.logical_k)
    data = pickle.dumps(code)
    assert len(data) < 2 * len(pickle.dumps(code.checks))
    clone = pickle.loads(data)
    assert np.array_equal(clone.checks, code.checks)
    assert set(code.__getstate__()) == {"checks", "n_ebits"}  # n_sent is derived
    assert (clone.n_sent, clone.n_ebits) == (code.n_sent, code.n_ebits)
    assert [
        (syndrome(clone, e).tolist(), group_membership(e, clone)) for e in errors
    ] == expected
    assert any(member for _, member in expected)
    assert (clone.rank, clone.logical_k) == cached


def _ea_code(tmp_path):
    """A [[9, k; c]] EA code from `gf4bp build-code ea` on a random [9, 4]
    quaternary check matrix."""
    rng = np.random.default_rng(62)
    h = rng.integers(0, 4, size=(5, 9)).astype(np.uint8)
    h[h.any(axis=1) == 0, 0] = 1
    alist = tmp_path / "classical.alist"
    alist.write_text(write_alist(h))
    out = tmp_path / "ea.stab"
    result = CliRunner().invoke(
        main, ["build-code", "ea", "--alist", str(alist), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    return parse_stabilizer_text(out.read_text())


@pytest.mark.parametrize("name", ["4_1_1", "c62", "n510", "ea", "unpickled"])
def test_anticommutation_words_match_byte_cube(name, tmp_path):
    code = {
        "4_1_1": build_code_4_1_1,
        "c62": lambda: construction_b(C62_ROW),
        "n510": lambda: construction_b(N510_ROW),
        "ea": lambda: _ea_code(tmp_path),
        "unpickled": lambda: pickle.loads(pickle.dumps(construction_b(C62_ROW))),
    }[name]()
    if name == "ea":
        assert code.n_ebits >= 2
    if name == "unpickled":
        assert "_anticommutation_words" not in vars(code)
    words = code._anticommutation_words
    expected = anticommutation_words_by_cube(code)
    assert words.dtype == np.uint64 and words.shape == expected.shape
    assert np.array_equal(words, expected)
