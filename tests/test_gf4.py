import numpy as np
import pytest

from gf4bp import gf4
from gf4bp.stabilizer import commutes

from oracles import add, conj, mul, pauli_values_by_symbol, poly_mul, trace

O, I, W, WB = 0, 1, 2, 3  # 0, 1, omega, omega_bar

ADDITION = {
    (O, O): O, (O, I): I, (O, W): W, (O, WB): WB,
    (I, O): I, (I, I): O, (I, W): WB, (I, WB): W,
    (W, O): W, (W, I): WB, (W, W): O, (W, WB): I,
    (WB, O): WB, (WB, I): W, (WB, W): I, (WB, WB): O,
}

MULTIPLICATION = {
    (O, O): O, (O, I): O, (O, W): O, (O, WB): O,
    (I, O): O, (I, I): I, (I, W): W, (I, WB): WB,
    (W, O): O, (W, I): W, (W, W): WB, (W, WB): I,
    (WB, O): O, (WB, I): WB, (WB, W): I, (WB, WB): W,
}


def test_addition_table():
    for (a, b), want in ADDITION.items():
        assert add(a, b) == want


def test_multiplication_table():
    for (a, b), want in MULTIPLICATION.items():
        assert mul(a, b) == want


def test_multiplication_matches_polynomial_field():
    for a in range(4):
        for b in range(4):
            assert gf4.MUL_TABLE[a, b] == poly_mul(a, b)


def test_specific_entries():
    assert add(W, WB) == I
    assert add(WB, WB) == O
    assert mul(W, W) == WB
    assert mul(W, WB) == I
    for x in range(4):
        assert add(x, O) == x
        assert mul(x, I) == x


def test_field_axioms_exhaustive():
    for a in range(4):
        for b in range(4):
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            for c in range(4):
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(
                    mul(a, b), mul(a, c)
                )
    for a in range(4):
        assert add(a, a) == O  # additive inverse is the element itself
    for a in range(1, 4):
        assert any(mul(a, b) == I for b in range(1, 4))


def test_conjugation():
    assert list(gf4.CONJ_TABLE) == [O, I, WB, W]
    for x in range(4):
        assert conj(conj(x)) == x


def test_trace_values_and_additivity():
    assert trace(O) == 0
    assert trace(I) == 0
    assert trace(W) == 1
    assert trace(WB) == 1
    for a in range(4):
        for b in range(4):
            assert trace(add(a, b)) == trace(a) ^ trace(b)


def test_mul_by_conjugate_is_bijection():
    for s in range(1, 4):
        images = {int(mul(e, conj(s))) for e in range(4)}
        assert images == {0, 1, 2, 3}


# The trace inner product of two symbol vectors is their commutation parity;
# stabilizer.commutes reads it as +1 (trace 0) or -1 (trace 1).
def test_trace_inner_product_examples():
    assert commutes([I], [W]) == -1  # X vs Z anticommute
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = rng.integers(0, 4, size=rng.integers(1, 8))
        assert commutes(u, u) == 1


def test_trace_inner_product_derived_case():
    # YZIII vs YZZXI, term by term: 1 + 1 + 0 + 0 + 0 = 0.
    u = gf4.pauli_to_values("YZIII")
    v = gf4.pauli_to_values("YZZXI")
    terms = [mul(a, conj(b)) for a, b in zip(u, v)]
    assert [int(t) for t in terms] == [I, I, O, O, O]
    assert commutes(u, v) == 1


def test_trace_inner_product_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(1, 10)
        u = rng.integers(0, 4, size=n)
        v = rng.integers(0, 4, size=n)
        assert commutes(u, v) == commutes(v, u)


def test_trace_inner_product_length_mismatch():
    with pytest.raises(ValueError):
        commutes([1, 2], [1])


def test_pauli_bijection():
    assert gf4.pauli_to_values("IXZY").tolist() == [0, 1, 2, 3]
    for text in ["I", "XZXIX", "YYZZXXII"]:
        assert gf4.values_to_pauli(gf4.pauli_to_values(text)) == text
    for value in range(4):
        assert gf4.pauli_to_values(gf4.values_to_pauli([value]))[0] == value
    assert gf4.values_to_pauli([]) == ""
    for bad in ([0, -1, 3], [4], [1, 2, 7]):
        with pytest.raises(ValueError, match="0..3"):
            gf4.values_to_pauli(bad)
    for bad in (4, 255):
        with pytest.raises(ValueError, match="0..3"):
            gf4.values_to_pauli(np.array([0, bad, 3], dtype=np.uint8))
    assert gf4.values_to_pauli(np.array([[3, 2], [1, 0]], dtype=np.uint8)) == "YZXI"


def test_pauli_invalid_symbol():
    with pytest.raises(ValueError):
        gf4.pauli_to_values("XQZ")
    with pytest.raises(ValueError, match=r"^invalid Pauli symbol 'Q' in 'IXQI'$"):
        gf4.pauli_to_values("IXQI")
    with pytest.raises(ValueError, match=r"^invalid Pauli symbol '→' in 'I→'$"):
        gf4.pauli_to_values("I→")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "IXZY",
        "YYZZXXII",
        "IxZY",  # lowercase
        "IX1Y",  # digit
        "IX ZY",  # inner space
        "IX\tZY",  # inner tab
        "IXé",  # Latin-1, not ASCII
        "IX→Z",  # outside Latin-1
        "→",
        "XZ?",  # the byte a non-Latin-1 symbol is encoded as
        "XQZQ",  # the first bad symbol is named
        "IXZY\n",
    ],
)
def test_pauli_to_values_matches_per_symbol_conversion(text):
    try:
        expected = pauli_values_by_symbol(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            gf4.pauli_to_values(text)
        assert str(raised.value) == str(exc)
        return
    got = gf4.pauli_to_values(text)
    assert got.dtype == np.uint8 and got.shape == expected.shape
    assert np.array_equal(got, expected)
    got[:] = 0  # a fresh, writable array


def test_pauli_round_trip_random_strings():
    rng = np.random.default_rng(14)
    for length in (0, 1, 7, 64, 1000):
        for _ in range(5):
            text = "".join(rng.choice(list(gf4.PAULI_ORDER), size=length))
            assert gf4.values_to_pauli(gf4.pauli_to_values(text)) == text
