"""Classical codes: duals, puncture/shorten, distances, weight hierarchies."""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qlrc.errors import BudgetExceeded, EmptyIndexSet, NotAQuadraticExtension, QlrcError, ZeroCode
from qlrc.gf import GF
from qlrc.code import (
    DEFAULT_BUDGET,
    _columns_dependent,
    IndexSet,
    LinearCode,
    dual_euclidean,
    dual_hermitian,
    generalized_hamming_weights,
    information_sets,
    iter_codeword_blocks,
    light_word_blocks,
    low_weight_words,
    min_distance,
    min_weight_dependency,
    min_weight_enumerate,
    min_weight_infoset,
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


def test_inclusion_is_one_elimination(hamming74, simplex73, monkeypatch):
    """C contains D iff D's generator stacked under C's keeps rank k: one
    elimination of k + dim D rows, however many rows D has."""
    from qlrc import matrix

    rows = []
    rref = matrix.rref
    monkeypatch.setattr(matrix, "rref", lambda M: rows.append(M.rows) or rref(M))
    assert hamming74.contains_code(simplex73)
    assert rows == [7]
    assert not simplex73.contains_code(hamming74)
    assert simplex73.contains_word(simplex73.gen.data[0])
    assert not simplex73.contains_word((1, 0, 0, 0, 0, 0, 0))
    assert rows == [7, 7, 4, 4]


def test_duals_take_the_kernel_basis_as_it_comes(hamming74, steane, monkeypatch):
    """kernel reads a canonical basis off one elimination (the form rows with
    their columns reversed), so a dual or a Hamming code costs one rref."""
    from qlrc import matrix
    from qlrc.code import dual_hermitian
    from qlrc.constructions import hamming_code
    from qlrc.symp import dual_symplectic

    F4 = GF(2, 2)
    calls = []
    rref = matrix.rref
    monkeypatch.setattr(matrix, "rref", lambda M: calls.append(1) or rref(M))
    hermitian_c = LinearCode.from_rows(F4, [[1, 1, 0], [0, 2, 1]])
    for build, arg in ((dual_euclidean.__wrapped__, hamming74),     # past the memo
                       (dual_symplectic.__wrapped__, steane),
                       (dual_hermitian.__wrapped__, hermitian_c),
                       (lambda q: hamming_code(3, q), GF(3))):
        calls.clear()
        D = build(arg)
        assert len(calls) == 1, build
        assert D.gen == matrix.row_space_canonical(D.gen)


# a ternary [7,4] code: over GF(2) tables its entries 2 index out of range
TERNARY_7_4 = ((1, 0, 0, 0, 1, 1, 2), (0, 1, 0, 0, 2, 2, 0), (0, 0, 1, 0, 1, 2, 1),
               (0, 0, 0, 1, 2, 0, 1))


def test_inclusion_across_fields_or_lengths_raises(hamming74):
    from qlrc.constructions import hamming_code

    for other in (LinearCode.from_rows(GF(3), TERNARY_7_4), hamming_code(4, GF(2))):
        with pytest.raises(QlrcError, match="one field and one column count"):
            hamming74.contains_code(other)
        with pytest.raises(QlrcError, match="one field and one column count"):
            other.contains_code(hamming74)
    with pytest.raises(QlrcError, match="one field and one column count"):
        hamming74.contains_word((1, 1, 1))


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


# GF(251) lies above the lookup-table limit: scalar row ops, uint16 arrays
KERNEL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4), (251, 1)]


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


def reference_min_weight_dependency(C, budget=DEFAULT_BUDGET):
    """The subset-by-subset scan: one kernel per column subset."""
    if C.k == 0:
        raise ZeroCode("zero code has no minimum weight")
    H = dual_euclidean(C).gen
    n = C.n
    for w in range(1, n + 1):
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
    """Same (d, witness) and BudgetExceeded text as the subset-by-subset
    scan, on random codes with repeated and zero columns."""
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
    assert (_outcome(min_weight_dependency, C, budget)
            == _outcome(reference_min_weight_dependency, C, budget))


def test_dependency_scan_edge_codes():
    for pm in ((2, 1), (3, 2), (3, 6)):
        F = GF(*pm)
        full = LinearCode.full(F, 4)                  # parity check with no rows
        assert dual_euclidean(full).gen.rows == 0
        assert min_weight_dependency(full) == reference_min_weight_dependency(full) \
            == (1, (1, 0, 0, 0))
        rep = LinearCode.from_rows(F, [[1, 1, 1, 1, 1]])
        assert (_outcome(min_weight_dependency, rep, DEFAULT_BUDGET)
                == _outcome(reference_min_weight_dependency, rep, DEFAULT_BUDGET))
        assert _outcome(min_weight_dependency, rep, 9) == (
            "BudgetExceeded", "C(5,2) supports exceed budget 9")


INFOSET_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (251, 1)]


def draw_code(data, F, max_n=9, max_words=4096):
    """A random code with k >= 1 and q^k <= max_words; zero columns, k = 1
    and k = n (the full space) are each drawn on purpose."""
    n = data.draw(st.integers(1, max_n))
    k_max = max(kk for kk in range(1, n + 1) if F.q ** kk <= max_words)
    shape = data.draw(st.sampled_from(["random", "k=1", "k=n"]))
    if shape == "k=n" and F.q ** n <= max_words:
        return LinearCode.full(F, n)
    k = 1 if shape == "k=1" else data.draw(st.integers(1, k_max))
    entry = st.one_of(st.just(0), st.integers(0, F.q - 1))
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(k)]
    for j in data.draw(st.sets(st.integers(0, n - 1), max_size=2)):
        rows = [r[:j] + [0] + r[j + 1:] for r in rows]         # a zero column
    C = LinearCode.from_rows(F, rows, n=n)
    assume(C.k > 0)
    return C


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(INFOSET_FIELDS), st.data())
def test_infoset_distance_matches_enumerate_and_dependency(pm, data):
    F = GF(*pm)
    C = draw_code(data, F, max_words=max(4096, F.q ** 2))   # GF(251) reaches level 2
    d = min_distance(C, "enumerate")
    assert min_distance(C, "infoset") == d == min_distance(C, "dependency"), C.gen.data
    assert min_distance(C, "auto") == d


def static_plan_messages(C, t):
    """Messages of the static plan that charged every level up front: all
    sets active at the smallest level w whose bound m(w + 1), plus the
    partial-rank terms, exceeds t (one full set if none below k does)."""
    if C.k == 0 or t < 1:
        return 0
    k, q = C.k, C.field.q
    ranks = [len(P) for _, P in information_sets(C)]
    w = next((w for w in range(k) if sum(max(0, w + 1 - (k - r)) for r in ranks) > t), k)
    active = 1 if w == k else sum(1 for r in ranks if w + 1 - (k - r) > 0)
    return active * sum(comb(k, i) * (q - 1) ** (i - 1) for i in range(1, w + 1))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(INFOSET_FIELDS), st.data())
def test_low_weight_words_match_filtered_enumeration(pm, data):
    """For every t, the words of weight <= t are found within the budget of
    the static plan: the per-level walk never charges more messages."""
    F = GF(*pm)
    C = draw_code(data, F, max_words=max(4096, F.q ** 2))   # GF(251) reaches level 2
    words = [w for w in C.codewords() if any(w)]
    for t in range(C.n + 2):
        expected = tuple(sorted(w for w in words if weight(w) <= t))
        assert low_weight_words(C, t, static_plan_messages(C, t)) == expected, (C.gen.data, t)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(INFOSET_FIELDS), st.data())
def test_information_sets_are_disjoint_and_systematic(pm, data):
    """Each generator spans C, is the identity on its own pivots, and its
    rows past r_j vanish on its pivots; the pivot sets are disjoint."""
    F = GF(*pm)
    C = draw_code(data, F)
    used = set()
    sets = information_sets(C)
    assert sets and len(sets[0][1]) == C.k
    for G, pivots in sets:
        assert LinearCode.from_matrix(G) == C
        for i, row in enumerate(G.data):
            assert [row[j] for j in pivots] == [int(i == s) for s in range(len(pivots))]
            if i >= len(pivots):   # past r_j, zero on every column not yet taken
                assert not any(row[j] for j in range(C.n) if j not in used)
        assert not used & set(pivots)
        used |= set(pivots)
    # the columns left over have rank 0: they are all zero
    assert all(not any(C.gen.column(j)) for j in range(C.n) if j not in used)


def test_partial_sets_enter_the_bound_only_once_enumerated():
    """Codes whose leftover columns form a partial information set: a word
    is lost if that set is counted in the bound but not enumerated, or is
    counted as a full set."""
    C = LinearCode.from_rows(GF(3), [[1, 0, 0, 0, 0, 2], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 1],
                                     [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 2]])
    assert [P for _, P in information_sets(C)] == [(0, 1, 2, 3, 4), (5,)]
    # weight <= 5 needs level 4: bound 5 from the full set plus 1 from the partial one
    assert low_weight_words(C, 5) == tuple(sorted(w for w in C.codewords() if 0 < weight(w) <= 5))
    C = LinearCode.from_rows(GF(2, 2), [[1, 0, 0, 0, 0, 0, 2, 1, 3], [0, 1, 0, 0, 0, 0, 1, 0, 1],
                                        [0, 0, 1, 0, 0, 0, 1, 3, 0], [0, 0, 0, 1, 0, 0, 3, 2, 1],
                                        [0, 0, 0, 0, 1, 0, 2, 1, 1], [0, 0, 0, 0, 0, 1, 1, 2, 0]])
    assert [len(P) for _, P in information_sets(C)] == [6, 3]
    assert min_distance(C, "infoset") == min_distance(C, "enumerate")


def test_infoset_budget_counts_messages():
    """One unit per message of weight w with first nonzero coefficient 1."""
    C = LinearCode.from_rows(GF(3), [[1, 0, 1, 1], [0, 1, 1, 2]])   # [4,2,3]_3, one set
    assert [P for _, P in information_sets(C)] == [(0, 1), (2, 3)]
    # level 1 on the first set is 2 messages, and it finds weight 3; the
    # bound is then 2 + 1 = 3 (the second set has a nonzero coordinate)
    assert min_weight_infoset(C, budget=2) == 3
    with pytest.raises(BudgetExceeded, match="information-set enumeration of 2 messages "
                                             "exceeds budget 1"):
        min_weight_infoset(C, budget=1)
    # weight <= 3 needs a bound of 4 = 2 (1 + 1): level 1 on both sets
    assert low_weight_words(C, 3, budget=4) == tuple(sorted(
        w for w in C.codewords() if any(w)))
    with pytest.raises(BudgetExceeded, match="enumeration of 4 messages exceeds budget 3"):
        low_weight_words(C, 3, budget=3)
    assert low_weight_words(C, 2) == () and low_weight_words(LinearCode.zero(GF(3), 4), 4) == ()


def test_auto_keeps_the_strategy_of_each_benchmark_shape():
    """auto answers from the code's shape: the flagship dual [49,7]_7 by
    information sets, [49,34]_7 and [12,9]_16 by the dependency scan, and
    the other benchmark and frontier shapes as below."""
    from qlrc.code import _auto_strategy
    from qlrc.constructions import DeltaSet, GridSpec, affine_variety_code, grs_code

    def affine_dual(p, m, delta, i, j):
        grid = GridSpec.build(GF(p, m), p ** m, p ** m)
        return dual_euclidean(affine_variety_code(grid, getattr(DeltaSet, delta)(
            p ** m, p ** m, i, j)))

    grid = GridSpec.build(GF(7), 7, 7)
    flagship = affine_variety_code(grid, DeltaSet.rect(7, 7, 5, 6))
    assert _auto_strategy(dual_euclidean(flagship), DEFAULT_BUDGET) == "infoset"
    step2 = affine_variety_code(grid, DeltaSet.step2(7, 7, 4, 3))
    assert (step2.n, step2.k) == (49, 34)
    assert _auto_strategy(step2, DEFAULT_BUDGET) == "dependency"
    assert _auto_strategy(grs_code(GF(2, 4), 12, 9), DEFAULT_BUDGET) == "dependency"
    assert min_distance(dual_euclidean(flagship)) == 7
    shapes = {
        "enumerate": [affine_dual(5, 1, "rect", 3, 4), affine_dual(2, 2, "step2", 2, 1),
                      dual_euclidean(grs_code(GF(2, 4), 12, 9)), grs_code(GF(2, 3), 9, 4)],
        "infoset": [grs_code(GF(3, 2), 10, 5), affine_dual(5, 1, "step2", 3, 1),
                    affine_dual(7, 1, "step2", 4, 3), affine_dual(2, 3, "rect", 6, 7),
                    affine_dual(3, 2, "rect", 7, 8), affine_dual(2, 3, "rect", 5, 7)],
    }
    assert {s: [(C.n, C.k, C.field.q) for C in codes] for s, codes in shapes.items()} == {
        "enumerate": [(25, 5, 5), (16, 5, 4), (12, 3, 16), (9, 4, 8)],
        "infoset": [(10, 5, 9), (25, 7, 5), (49, 15, 7), (64, 8, 8), (81, 9, 9), (64, 16, 8)],
    }
    for strategy, codes in shapes.items():
        for C in codes:
            assert _auto_strategy(C, DEFAULT_BUDGET) == strategy, (C.n, C.k, C.field.q)


def test_flagship_dual_light_words_cost_one_set_at_level_one():
    """The [49,7]_7 flagship dual has seven disjoint information sets.  Level
    1 on the first (7 messages) lifts the bound to 2 + 6 = 8 > 7, so its
    words of weight <= 7 cost 7 messages, not the 49 of all seven sets."""
    from qlrc.constructions import DeltaSet, GridSpec, affine_variety_code

    flagship = affine_variety_code(GridSpec.build(GF(7), 7, 7), DeltaSet.rect(7, 7, 5, 6))
    D = dual_euclidean(flagship)
    assert sum(len(b) for b in light_word_blocks(D, 7, budget=7)) == 7
    words = low_weight_words(D, 7, budget=7)
    assert len(words) == 42 and {weight(w) for w in words} == {7}
    with pytest.raises(BudgetExceeded, match="enumeration of 7 messages exceeds budget 6"):
        low_weight_words(D, 7, budget=6)
