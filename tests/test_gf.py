"""Field construction, arithmetic and Frobenius."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc.errors import (
    DivisionByZero,
    NonPrimeP,
    ReduciblePolynomial,
    UnsupportedSize,
)
from qlrc.gf import GF, is_irreducible, smallest_irreducible

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2),
                (2, 4), (5, 2), (2, 5), (3, 3), (7, 2), (2, 6)]


def test_gf2_and_gf7_basics():
    F2 = GF(2)
    assert F2.q == 2 and F2.add(1, 1) == 0
    F7 = GF(7)
    assert F7.add(3, 5) == 1
    assert F7.mul(3, 5) == 1
    assert F7.inv(3) == 5


def test_gf4_modulus_and_multiplication():
    # x^2 + x + 1 is the only irreducible quadratic over GF(2); encoding 7
    F4 = GF(2, 2, [1, 1, 1])
    assert F4.poly_encoding == 7
    w = 2  # the class of x
    assert F4.mul(w, w) == 3            # w^2 = w + 1
    assert F4.mul(w, 1) == w
    assert GF(2, 2) is GF(2, 2)         # cached, deterministic modulus


def test_field_errors():
    with pytest.raises(NonPrimeP):
        GF(6)
    with pytest.raises(ReduciblePolynomial):
        GF(2, 2, [0, 0, 1])             # x^2 is reducible
    with pytest.raises(ReduciblePolynomial):
        GF(2, 2, [1, 1, 1, 1])          # wrong degree
    with pytest.raises(UnsupportedSize):
        GF(2, 25)                       # 2^25 > table limit, none supplied
    with pytest.raises(DivisionByZero):
        GF(5).inv(0)


def test_every_degree_one_modulus_gives_the_one_gf_p():
    """x + c for any c reduces nothing: one GF(p), written back as poly=p."""
    for p in (2, 3, 7):
        for c in range(p):
            F = GF(p, 1, [c, 1])
            assert F == GF(p) and F is GF(p) and hash(F) == hash(GF(p))
            assert F.poly_encoding == p
    with pytest.raises(ReduciblePolynomial):
        GF(3, 1, [1, 2])                # not monic


def test_smallest_irreducible_table_values():
    # classic smallest-encoding moduli
    assert smallest_irreducible(2, 2) == (1, 1, 1)       # 7
    assert smallest_irreducible(2, 3) == (1, 1, 0, 1)    # x^3+x+1
    assert smallest_irreducible(2, 6)[-1] == 1
    assert GF(2, 6).poly_encoding == 67                  # x^6+x+1
    for p, m in SMALL_FIELDS:
        assert is_irreducible(smallest_irreducible(p, m), p)


def test_frobenius_on_gf4():
    F4 = GF(2, 2)
    w = 2
    assert F4.frobenius(w, 1) == 3          # w^2 = w + 1
    assert F4.frobenius(F4.frobenius(w, 1), 1) == w
    assert all(F4.frobenius(a, 0) == a for a in F4.elements())


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, m):
    """For every field with q <= 64: a^q = a, the multiplicative group is
    cyclic, and Frobenius is a ring homomorphism."""
    F = GF(p, m)
    q = F.q
    assert q <= 64
    for a in F.elements():
        assert F.pow(a, q) == a

    def order(a):
        o, v = 1, a
        while v != 1:
            v = F.mul(v, a)
            o += 1
        return o

    assert q == 2 or any(order(a) == q - 1 for a in range(2, q))
    for a in F.elements():
        for b in F.elements():
            assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))
            assert F.frobenius(F.mul(a, b)) == F.mul(F.frobenius(a), F.frobenius(b))


@given(st.sampled_from([2, 3, 5, 7]), st.data())
@settings(max_examples=120, deadline=None)
def test_prime_field_ring_axioms(p, data):
    F = GF(p)
    a = data.draw(st.integers(0, p - 1))
    b = data.draw(st.integers(0, p - 1))
    c = data.draw(st.integers(0, p - 1))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.sub(a, a) == 0
    if b:
        assert F.mul(F.div(a, b), b) == a


# GF(251) sums reach 500, past uint8; GF(3^6) has six base-3 digits
ARRAY_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2),
                (3, 3), (251, 1), (3, 6)]


@given(st.sampled_from(ARRAY_FIELDS), st.data())
@settings(max_examples=150, deadline=None)
def test_add_arrays_matches_scalar_add(pm, data):
    """Field.add_arrays is Field.add entrywise, with broadcasting, on arrays
    of dtype Field.array_dtype that always hold the largest encodings."""
    import numpy as np

    F = GF(*pm)
    enc = st.lists(st.integers(0, F.q - 1), min_size=1, max_size=12)
    a = data.draw(enc) + [F.q - 1]
    b = data.draw(enc) + [F.q - 1]
    s = F.add_arrays(np.array(a, F.array_dtype())[:, None], np.array(b, F.array_dtype())[None, :])
    assert s.dtype == F.array_dtype()
    assert s.tolist() == [[F.add(x, y) for y in b] for x in a]


def test_enumeration_order_is_ascending_encoding():
    F9 = GF(3, 2)
    assert list(F9.elements()) == list(range(9))
    assert F9.coeffs(5) == (2, 1)      # little-endian base-3 digits of 5
    assert F9.encode((2, 1)) == 5
