"""Symplectic form, paired puncture/shorten, and symplectic weights."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc.errors import BudgetExceeded, FormMismatch, TOutOfRange, ZeroCode
from qlrc.gf import GF
from qlrc.code import (
    IndexSet,
    LinearCode,
    dual_euclidean,
    dual_hermitian,
    generalized_hamming_weights,
    weight_hierarchy,
)
from qlrc.symp import (
    SymplecticCode,
    css_product,
    dual_symplectic,
    gsw,
    gsw_hierarchy,
    is_self_orthogonal,
    max_isotropic_extension,
    min_symplectic_weight,
    puncture_paired,
    shorten_paired,
    symplectic_form,
    symplectic_weight,
)
from conftest import qudit_columns, random_symplectic_selforth, reference_shorten


def lagrangian(field, n):
    rows = [[1 if i == j else 0 for i in range(2 * n)] for j in range(n)]
    return SymplecticCode.from_rows(field, rows)


def test_form_canonical_pair_and_alternating():
    F5 = GF(5)
    e1_a = (1, 0, 0, 0, 0, 0)
    e1_b = (0, 0, 0, 1, 0, 0)
    assert symplectic_form(F5, e1_a, e1_b) == 1
    assert symplectic_form(F5, e1_b, e1_a) == F5.neg(1)
    rng = random.Random(0)
    F3 = GF(3)
    for _ in range(60):
        x = tuple(rng.randrange(3) for _ in range(8))
        y = tuple(rng.randrange(3) for _ in range(8))
        assert symplectic_form(F3, x, x) == 0
        assert symplectic_form(F3, x, y) == F3.neg(symplectic_form(F3, y, x))


def test_form_bilinear_exhaustive_gf2_n2():
    F2 = GF(2)
    vecs = [tuple((v >> i) & 1 for i in range(4)) for v in range(16)]
    for x in vecs:
        for y in vecs:
            for z in vecs:
                xy = tuple(F2.add(a, b) for a, b in zip(x, y))
                lhs = symplectic_form(F2, xy, z)
                rhs = F2.add(symplectic_form(F2, x, z), symplectic_form(F2, y, z))
                assert lhs == rhs


def test_lagrangian_is_self_dual():
    F2 = GF(2)
    L = lagrangian(F2, 3)
    assert dual_symplectic(L) == L
    assert is_self_orthogonal(L, "symplectic")
    assert min_symplectic_weight(L) == 1


def test_steane_self_orthogonal_with_dual_dim_8(steane):
    assert steane.dim == 6 and steane.n == 7
    assert is_self_orthogonal(steane, "symplectic")
    D = dual_symplectic(steane)
    assert D.dim == 8
    assert D.contains_code(steane)
    assert dual_symplectic(D) == steane


def test_self_orthogonality_other_forms(hamming74, simplex73):
    # dual-containing Hamming checked through its dual: simplex is self-orthogonal
    assert is_self_orthogonal(simplex73, "euclidean")
    assert not is_self_orthogonal(hamming74, "euclidean")
    F4 = GF(2, 2)
    assert is_self_orthogonal(LinearCode.from_rows(F4, [[1, 1]]), "hermitian")
    assert is_self_orthogonal(LinearCode.zero(GF(2), 3), "euclidean")
    with pytest.raises(FormMismatch):
        is_self_orthogonal(hamming74, "symplectic")


def test_paired_puncture_identity_and_lagrangian():
    F3 = GF(3)
    L = lagrangian(F3, 4)
    assert puncture_paired(L, IndexSet.full(4)) == L
    J = IndexSet.of(4, [2, 4])
    PJ = puncture_paired(L, J)
    assert PJ == lagrangian(F3, 2)


def test_steane_shorten_small_sets_are_zero(steane):
    # the component code has minimum weight 4, so 3 positions support nothing
    J = IndexSet.of(7, [1, 2, 3])
    assert shorten_paired(steane, J).dim == 0


def test_paired_duality_identity_random():
    """dual(pi_J(C)) equals sigma_J(dual C) for random symplectic codes."""
    rng = random.Random(1)
    F3 = GF(3)
    checked = 0
    for _ in range(30):
        rows = [[rng.randrange(3) for _ in range(8)] for _ in range(rng.randrange(1, 5))]
        C = SymplecticCode.from_rows(F3, rows)
        for _ in range(5):
            members = [j for j in range(1, 5) if rng.random() < 0.6] or [1]
            J = IndexSet.of(4, members)
            assert dual_symplectic(puncture_paired(C, J)) == shorten_paired(dual_symplectic(C), J)
            checked += 1
    assert checked >= 100


def test_symplectic_weight_values():
    assert symplectic_weight((0, 0, 0, 0, 0, 0)) == 0
    assert symplectic_weight((1, 0, 0, 0, 1, 0)) == 2
    assert symplectic_weight((1, 0, 0, 1, 0, 0)) == 1
    # swt is at most the Hamming weight of the length-2n vector
    rng = random.Random(2)
    for _ in range(40):
        v = tuple(rng.randrange(3) for _ in range(10))
        assert symplectic_weight(v) <= sum(1 for x in v if x)


def test_min_symplectic_weight_steane(steane):
    assert min_symplectic_weight(dual_symplectic(steane)) == 3
    # enumeration over the 64 codewords of the product code itself
    assert min_symplectic_weight(steane) == 4


def test_gsw_hierarchy_steane(steane):
    D = dual_symplectic(steane)
    assert gsw_hierarchy(D, 4) == (3, 3, 5, 5)
    assert gsw(D, 1) == 3 and gsw(D, 4) == 5
    with pytest.raises(TOutOfRange):
        gsw(D, 9)


def test_gsw_is_memoised_and_raising_calls_are_not(steane):
    D = dual_symplectic(steane)
    assert gsw(D, 2) == 3
    hits = gsw.cache_info().hits
    assert gsw(D, 2) == 3 and gsw.cache_info().hits == hits + 1
    size = gsw.cache_info().currsize
    for _ in range(2):
        with pytest.raises(BudgetExceeded):      # C(7, 1) sets exceed 5
            gsw(D, 4, 5)
    assert gsw.cache_info().currsize == size


def test_gsw_non_decreasing_and_first_equals_min_weight():
    rng = random.Random(3)
    for _ in range(20):
        q = rng.choice([2, 3])
        F = GF(q)
        C = random_symplectic_selforth(rng, F, rng.randrange(2, 5), 2)
        if C.dim == 0:
            continue
        hier = gsw_hierarchy(C, C.dim)
        assert hier[0] == min_symplectic_weight(C)
        assert all(a <= b for a, b in zip(hier, hier[1:]))


def test_css_product_layout(simplex73):
    C = css_product(simplex73, simplex73)
    assert C.n == 7 and C.dim == 6
    # a-block rows come from the first factor
    a_rows = {r[:7] for r in C.gen.data if not any(r[7:])}
    assert len(a_rows) == 3


def test_max_isotropic_extension_steane(steane):
    M = max_isotropic_extension(steane)
    assert M.dim == 7
    assert M.contains_code(steane)
    assert dual_symplectic(M) == M
    assert dual_symplectic(steane).contains_code(M)


@pytest.mark.parametrize("which", ["code", "dual"])
def test_min_symplectic_weight_scan_matches_enumeration(steane, which):
    C = steane if which == "code" else dual_symplectic(steane)
    enumerated = min_symplectic_weight(C)
    # a budget below q^dim forces the position-set scan
    assert min_symplectic_weight(C, budget=C.field.q ** C.dim - 1) == enumerated


def test_min_symplectic_weight_enumerates_a_low_dimension_code():
    """Keep the enumeration branch: a random binary [[40]] code of dimension
    4 has 16 words, while its first weight 25 lies C(40, 25) sets deep in
    the position-set scan (that scan raised at C(40, 8) after 570 s under
    the default budget)."""
    rnd = random.Random(1)
    C = SymplecticCode.from_rows(GF(2), [[rnd.randrange(2) for _ in range(80)] for _ in range(4)])
    assert C.dim == 4
    import numpy  # noqa: F401  -- the enumeration's first use imports it; keep that untimed
    start = time.perf_counter()
    assert min_symplectic_weight(C, budget=1 << 12) == 25
    with pytest.raises(BudgetExceeded, match=r"C\(40,3\) subsets exceed budget 4096"):
        gsw_hierarchy(C, 1, 1 << 12)
    assert time.perf_counter() - start < 0.1


def test_min_symplectic_weight_is_memoised_and_raising_calls_are_not(steane):
    D = dual_symplectic(steane)
    assert min_symplectic_weight(D) == 3
    hits = min_symplectic_weight.cache_info().hits
    assert min_symplectic_weight(D) == 3
    assert min_symplectic_weight.cache_info().hits == hits + 1
    size = min_symplectic_weight.cache_info().currsize
    for _ in range(2):
        with pytest.raises(BudgetExceeded):      # 2^8 words and C(7, 1) sets exceed 5
            min_symplectic_weight(D, 5)
    assert min_symplectic_weight.cache_info().currsize == size


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_min_symplectic_weight_matches_enumeration(data):
    q = data.draw(st.sampled_from((2, 3, 4, 5)))
    F = GF(*{2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1)}[q])
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(0, 4))
    rows = [[data.draw(st.integers(0, q - 1)) for _ in range(2 * n)] for _ in range(k)]
    C = SymplecticCode.from_rows(F, rows, n=n)
    if C.dim == 0:
        with pytest.raises(ZeroCode):
            min_symplectic_weight(C)
        return
    words = list(C.codewords())
    assert min_symplectic_weight(C) == min(symplectic_weight(w) for w in words[1:])


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_is_self_orthogonal_iff_inside_own_dual(data):
    form = data.draw(st.sampled_from(("euclidean", "hermitian", "symplectic")))
    q = data.draw(st.sampled_from((4, 9) if form == "hermitian" else (2, 3, 4, 5)))
    F = GF(*{2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 9: (3, 2)}[q])
    n = data.draw(st.integers(1, 4))
    cols = 2 * n if form == "symplectic" else n
    k = data.draw(st.integers(0, 3))
    rows = [[data.draw(st.integers(0, q - 1)) for _ in range(cols)] for _ in range(k)]
    if form == "symplectic":
        C = SymplecticCode.from_rows(F, rows, n=n)
        dual = dual_symplectic(C)
    else:
        C = LinearCode.from_rows(F, rows, n=n)
        dual = dual_hermitian(C) if form == "hermitian" else dual_euclidean(C)
    assert is_self_orthogonal(C, form) == dual.contains_code(C)


@given(st.sampled_from([GF(2), GF(3), GF(2, 2), GF(5)]), st.data())
@settings(max_examples=120, deadline=None)
def test_weight_hierarchies_match_the_shortening_reference(F, data):
    """GHW and GSW from column ranks equal the scan over shortened codes."""
    n = data.draw(st.integers(1, 6))
    paired = data.draw(st.booleans())
    rows = [[data.draw(st.integers(0, F.q - 1)) for _ in range(2 * n if paired else n)]
            for _ in range(data.draw(st.integers(1, 4)))]
    if paired:
        C = SymplecticCode.from_rows(F, rows, n=n)
        hierarchy = gsw_hierarchy
    else:
        C = LinearCode.from_rows(F, rows, n=n)
        hierarchy = generalized_hamming_weights
    if C.gen.rows == 0:
        return

    def shortened_dim(J):
        return reference_shorten(C.gen, qudit_columns(n, J.members, paired),
                                 qudit_columns(n, J.complement().members, paired)).rows

    assert hierarchy(C, C.gen.rows) == weight_hierarchy(n, shortened_dim, C.gen.rows)
