"""Classical codes: duals, puncture/shorten, distances, weight hierarchies."""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc.errors import BudgetExceeded, EmptyIndexSet, NotAQuadraticExtension, ZeroCode
from qlrc.gf import GF
from qlrc.code import (
    DEFAULT_BUDGET,
    _columns_dependent,
    IndexSet,
    LinearCode,
    dual_euclidean,
    dual_hermitian,
    generalized_hamming_weights,
    iter_codeword_blocks,
    min_distance,
    min_weight_dependency,
    min_weight_enumerate,
    puncture,
    shorten,
    support,
    weight,
)
from conftest import random_linear_code


def test_dual_euclidean_textbook_pairs():
    F2 = GF(2)
    rep3 = LinearCode.from_rows(F2, [[1, 1, 1]])
    par = dual_euclidean(rep3)
    assert (par.n, par.k) == (3, 2) and min_distance(par) == 2
    assert dual_euclidean(par) == rep3
    assert dual_euclidean(LinearCode.full(F2, 3)) == LinearCode.zero(F2, 3)
    assert dual_euclidean(LinearCode.zero(F2, 3)) == LinearCode.full(F2, 3)


def test_hamming_and_its_dual(hamming74, simplex73):
    assert (hamming74.n, hamming74.k) == (7, 4)
    assert min_distance(hamming74) == 3
    assert (simplex73.n, simplex73.k) == (7, 3)
    assert min_distance(simplex73) == 4
    # dual-containing orientation: the dual sits inside the Hamming code
    assert hamming74.contains_code(simplex73)


def test_dual_hermitian_involution_and_self_orthogonal_example():
    F4 = GF(2, 2)
    C = LinearCode.from_rows(F4, [[1, 1]])
    D = dual_hermitian(C)
    assert D == C                       # (1,1) .h (1,1) = 1 + 1 = 0 over GF(4)
    assert dual_hermitian(LinearCode.zero(F4, 3)) == LinearCode.full(F4, 3)
    rng = random.Random(3)
    for _ in range(20):
        C = random_linear_code(rng, F4, 6, 3)
        D = dual_hermitian(C)
        assert D.k == 6 - C.k
        assert dual_hermitian(D) == C
    with pytest.raises(NotAQuadraticExtension):
        dual_hermitian(LinearCode.full(GF(3), 2))


def test_puncture_and_shorten_basics():
    F2 = GF(2)
    rep3 = LinearCode.from_rows(F2, [[1, 1, 1]])
    R = IndexSet.of(3, [1, 2])
    assert puncture(rep3, R) == LinearCode.from_rows(F2, [[1, 1]])
    assert shorten(rep3, R) == LinearCode.zero(F2, 2)
    assert puncture(rep3, IndexSet.full(3)) == rep3
    assert shorten(rep3, IndexSet.full(3)) == rep3
    with pytest.raises(EmptyIndexSet):
        puncture(rep3, IndexSet(3, ()))


def test_punctured_hamming_keeps_distance_two(hamming74):
    for drop in range(1, 8):
        R = IndexSet.of(7, [j for j in range(1, 8) if j != drop])
        assert min_distance(puncture(hamming74, R)) >= 2


def test_puncture_shorten_duality_identity_random():
    """pi_R(C-dual) equals the dual of sigma_R(C), over random [8,4]_3 codes."""
    rng = random.Random(4)
    F3 = GF(3)
    checked = 0
    for _ in range(25):
        C = random_linear_code(rng, F3, 8, 4)
        if C.k == 0:
            continue
        for _ in range(6):
            members = [j for j in range(1, 9) if rng.random() < 0.6] or [1]
            R = IndexSet.of(8, members)
            assert puncture(dual_euclidean(C), R) == dual_euclidean(shorten(C, R))
            checked += 1
    assert checked > 100


def test_min_distance_strategies_agree():
    rng = random.Random(5)
    F3 = GF(3)
    for _ in range(25):
        C = random_linear_code(rng, F3, 8, 3)
        if C.k == 0:
            continue
        assert min_distance(C, "enumerate") == min_distance(C, "dependency")


def test_min_distance_guards():
    F2 = GF(2)
    with pytest.raises(ZeroCode):
        min_distance(LinearCode.zero(F2, 4))
    big = LinearCode.full(GF(5), 12)
    with pytest.raises(BudgetExceeded):
        min_distance(big, "enumerate", budget=1000)


def test_distance_witness_is_a_codeword(hamming74):
    d, wit = min_weight_dependency(hamming74)
    assert d == 3 and weight(wit) == 3
    assert hamming74.contains_word(wit)


def test_ghw_hierarchies_of_the_hamming_pair(hamming74, simplex73):
    assert generalized_hamming_weights(simplex73, 3) == (4, 6, 7)
    assert generalized_hamming_weights(hamming74, 4) == (3, 5, 6, 7)


def test_ghw_repetition():
    rep3 = LinearCode.from_rows(GF(2), [[1, 1, 1]])
    assert generalized_hamming_weights(rep3, 1) == (3,)


def test_ghw_first_weight_is_distance_and_strictly_increasing():
    rng = random.Random(6)
    F3 = GF(3)
    for _ in range(15):
        C = random_linear_code(rng, F3, 8, 3)
        if C.k == 0:
            continue
        hier = generalized_hamming_weights(C, C.k)
        assert hier[0] == min_distance(C)
        assert all(a < b for a, b in zip(hier, hier[1:]))   # strict for linear codes


def test_double_dual_identity_up_to_q9():
    """Involution of both dualities on random codes with q <= 9, n <= 10."""
    rng = random.Random(10)
    for p, m in ((5, 1), (7, 1), (2, 3), (3, 2)):
        F = GF(p, m)
        for _ in range(6):
            n = rng.randrange(2, 11)
            C = random_linear_code(rng, F, n, rng.randrange(1, n + 1))
            D = dual_euclidean(C)
            assert C.k + D.k == n
            assert dual_euclidean(D) == C
            if m == 2:
                H = dual_hermitian(C)
                assert C.k + H.k == n
                assert dual_hermitian(H) == C


def test_singleton_bound_on_random_codes():
    rng = random.Random(7)
    for q in (2, 3, 4):
        F = GF(2, 2) if q == 4 else GF(q)
        for _ in range(10):
            C = random_linear_code(rng, F, 7, rng.randrange(1, 6))
            if C.k == 0:
                continue
            assert C.k + min_distance(C) <= C.n + 1


def test_codeword_enumeration_order_and_count():
    F3 = GF(3)
    C = LinearCode.from_rows(F3, [[1, 0, 2], [0, 1, 1]])
    words = list(C.codewords())
    assert len(words) == 9 and len(set(words)) == 9
    assert words[0] == (0, 0, 0)
    assert words[1] == (1, 0, 2)        # first generator row, message (1, 0)


KERNEL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_codeword_blocks_match_scalar_enumeration(pm, data):
    """The split-table kernel yields the supports of codewords() in the same
    order, for every field and k = 1..5 (fewer when q^k would exceed 4096)."""
    F = GF(*pm)
    k = data.draw(st.integers(1, max(kk for kk in range(1, 6) if F.q ** kk <= 4096)))
    n = data.draw(st.integers(k, k + 4))
    cols = data.draw(st.permutations(range(n)))
    rows = [[1 if j == i else 0 for j in range(k)]
            + [data.draw(st.integers(0, F.q - 1)) for _ in range(n - k)] for i in range(k)]
    C = LinearCode.from_rows(F, [[row[c] for c in cols] for row in rows])
    assert C.k == k
    chunk = data.draw(st.sampled_from([1, 7, 1 << 16]))
    supports = []
    for start, nonzero in iter_codeword_blocks(C, chunk):
        assert start == len(supports)
        supports += [tuple(int(j) + 1 for j in row.nonzero()[0]) for row in nonzero]
    words = list(C.codewords())
    assert supports == [support(w) for w in words]
    assert [len(s) for s in supports] == [weight(w) for w in words]
    assert min_weight_enumerate(C) == min_weight_dependency(C)[0]


def test_min_distance_memo_keeps_the_budget(hamming74):
    assert min_distance(hamming74, "auto", DEFAULT_BUDGET) == 3
    hits = min_distance.cache_info().hits
    assert min_distance(hamming74, "auto", DEFAULT_BUDGET) == 3
    assert min_distance.cache_info().hits == hits + 1
    for _ in range(2):
        # 2^4 words exceed the budget, and so do the C(7, 2) weight-2 supports
        with pytest.raises(BudgetExceeded):
            min_distance(hamming74, "auto", budget=8)


def reference_min_weight_dependency(C, budget=DEFAULT_BUDGET, max_w=None):
    """The subset-by-subset scan: one kernel per column subset."""
    if C.k == 0:
        raise ZeroCode("zero code has no minimum weight")
    H = dual_euclidean(C).gen
    n = C.n
    top = max_w if max_w is not None else n
    for w in range(1, top + 1):
        if comb(n, w) > budget:
            raise BudgetExceeded(f"C({n},{w}) supports exceed budget {budget}")
        for cols in combinations(range(n), w):
            coeffs = _columns_dependent(C.field, H, cols)
            if coeffs is None:
                continue
            word = [0] * n
            for pos, coef in zip(cols, coeffs):
                word[pos] = coef
            return w, tuple(word)
    raise ZeroCode("no nonzero codeword found")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (BudgetExceeded, ZeroCode) as exc:
        return type(exc).__name__, str(exc)


# GF(3^6) lies above the lookup-table limit, so it takes the scalar row ops
SCAN_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4), (3, 6)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SCAN_FIELDS), st.data())
def test_dependency_scan_matches_subset_reference(pm, data):
    """Same (d, witness), ZeroCode past max_w and BudgetExceeded text as the
    subset-by-subset scan, on random codes with repeated and zero columns."""
    F = GF(*pm)
    n = data.draw(st.integers(1, 9))
    k = data.draw(st.integers(1, n))
    entry = st.one_of(st.just(0), st.integers(0, F.q - 1))
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(k)]
    if data.draw(st.booleans()):
        j = data.draw(st.integers(0, n - 1))          # a zero coordinate of C
        rows = [r[:j] + [0] + r[j + 1:] for r in rows]
    if data.draw(st.booleans()):
        j = data.draw(st.integers(0, n - 1))          # a unit word: zero column of H
        rows.append([1 if i == j else 0 for i in range(n)])
    C = LinearCode.from_rows(F, rows, n=n)
    if C.k == 0:
        return
    budget = data.draw(st.sampled_from([1, 4, 10, 40, DEFAULT_BUDGET]))
    max_w = data.draw(st.one_of(st.none(), st.integers(1, n)))
    assert (_outcome(min_weight_dependency, C, budget, max_w)
            == _outcome(reference_min_weight_dependency, C, budget, max_w))


def test_dependency_scan_edge_codes():
    for pm in ((2, 1), (3, 2), (3, 6)):
        F = GF(*pm)
        full = LinearCode.full(F, 4)                  # parity check with no rows
        assert dual_euclidean(full).gen.rows == 0
        assert min_weight_dependency(full) == reference_min_weight_dependency(full) \
            == (1, (1, 0, 0, 0))
        rep = LinearCode.from_rows(F, [[1, 1, 1, 1, 1]])
        for max_w in (None, 4, 5):
            assert (_outcome(min_weight_dependency, rep, DEFAULT_BUDGET, max_w)
                    == _outcome(reference_min_weight_dependency, rep, DEFAULT_BUDGET, max_w))
        assert _outcome(min_weight_dependency, rep, DEFAULT_BUDGET, 4)[0] == "ZeroCode"
        assert _outcome(min_weight_dependency, rep, 9, None) == (
            "BudgetExceeded", "C(5,2) supports exceed budget 9")
