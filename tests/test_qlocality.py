"""Quantum erasure/recoverability criteria, filters, bounds, and the bridge."""

import itertools
import random
from math import comb
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc.errors import (
    BadNesting,
    BadParameters,
    BudgetExceeded,
    EmptyIndexSet,
    HypothesisNotMet,
    NotNested,
    NotSelfOrthogonal,
    ParityViolation,
)
from qlrc.gf import GF
from qlrc.code import IndexSet, LinearCode, dual_euclidean, dual_hermitian, min_distance
from qlrc.constructions import hermitian_dc_grs_search
from qlrc.locality import LocalityCertificate, verify_rdelta_lrc
from qlrc.qlocality import (
    bridge_classical_quantum,
    classical_erasure_criterion,
    corrects_erasures_at,
    css_distance,
    ij_recoverable,
    ij_recoverable_css,
    ij_recoverable_euclidean,
    ij_recoverable_hermitian,
    ij_recoverable_via_bridge,
    impossibility_filter,
    purity_check,
    quantum_r_lrc_bound,
    quantum_singleton,
    stabilizer_distance_symplectic,
    sufficient_filter,
    verify_quantum_rdelta_lrc,
)
from qlrc.symp import (
    SymplecticCode,
    css_product,
    dual_symplectic,
    is_self_orthogonal,
    max_isotropic_extension,
    symplectic_weight,
)
from qlrc.matrix import Matrix
from conftest import (
    qudit_columns,
    random_linear_code,
    random_symplectic_selforth,
    reference_puncture,
    reference_shorten,
)


def lagrangian(field, n):
    rows = [[1 if i == j else 0 for i in range(2 * n)] for j in range(n)]
    return SymplecticCode.from_rows(field, rows)


def subsets(universe, size):
    return itertools.combinations(universe, size)


# ---------------------------------------------------------------------------
# erasure correction
# ---------------------------------------------------------------------------

def test_steane_corrects_up_to_two_erasures(steane):
    for size in (1, 2):
        for mem in subsets(range(1, 8), size):
            assert corrects_erasures_at(steane, IndexSet.of(7, mem))


def test_steane_fails_at_a_weight3_pattern(steane, hamming74, simplex73):
    # support of a weight-3 word of the dual pair difference
    w3 = next(w for w in hamming74.codewords() if sum(1 for x in w if x) == 3)
    assert not simplex73.contains_word(w3)
    I = IndexSet.of(7, [i + 1 for i, x in enumerate(w3) if x])
    assert not corrects_erasures_at(steane, I)


def test_lagrangian_corrects_everything():
    L = lagrangian(GF(3), 4)
    for size in (1, 2, 3):
        for mem in subsets(range(1, 5), size):
            assert corrects_erasures_at(L, IndexSet.of(4, mem))


def test_corrects_erasures_guards(steane, hamming74):
    with pytest.raises(EmptyIndexSet):
        corrects_erasures_at(steane, IndexSet(7, ()))
    with pytest.raises(BadNesting):
        corrects_erasures_at(steane, IndexSet.full(7))
    bad = css_product(hamming74, hamming74)    # not self-orthogonal
    with pytest.raises(NotSelfOrthogonal):
        corrects_erasures_at(bad, IndexSet.of(7, [1]))


# ---------------------------------------------------------------------------
# (I, J) criteria
# ---------------------------------------------------------------------------

def test_steane_all_size6_sets_recover_single_erasures(steane):
    for mem in subsets(range(1, 8), 6):
        J = IndexSet.of(7, mem)
        for i in mem:
            assert ij_recoverable(steane, IndexSet.of(7, [i]), J)


def test_full_j_reduces_to_erasure_correction(steane):
    for size in (1, 2, 3):
        for mem in subsets(range(1, 8), size):
            I = IndexSet.of(7, mem)
            assert (ij_recoverable(steane, I, IndexSet.full(7))
                    == corrects_erasures_at(steane, I))


def test_full_j_consistency_on_random_codes():
    rng = random.Random(10)
    for _ in range(25):
        q = rng.choice([2, 3])
        n = rng.randrange(2, 6)
        C = random_symplectic_selforth(rng, GF(q), n, rng.randrange(1, n + 1))
        if C.dim == 0:
            continue
        for size in range(1, n):
            for mem in subsets(range(1, n + 1), size):
                I = IndexSet.of(n, mem)
                assert (ij_recoverable(C, I, IndexSet.full(n))
                        == corrects_erasures_at(C, I))


def test_ij_monotone_in_j_exhaustive_small():
    """Enlarging J preserves recoverability (conjecture checked, not assumed)."""
    rng = random.Random(11)
    counterexamples = []
    for _ in range(20):
        q = rng.choice([2, 3])
        n = rng.randrange(3, 6)
        C = random_symplectic_selforth(rng, GF(q), n, rng.randrange(1, n + 1))
        if C.dim == 0:
            continue
        universe = range(1, n + 1)
        for isz in (1, 2):
            for imem in subsets(universe, isz):
                I = IndexSet.of(n, imem)
                good = [J for J in _all_supersets(n, imem) if ij_recoverable(C, I, J)]
                for J in good:
                    for J2 in _all_supersets(n, J.members):
                        if not ij_recoverable(C, I, J2):
                            counterexamples.append((C, I, J, J2))
    assert not counterexamples


def _all_supersets(n, members):
    rest = [j for j in range(1, n + 1) if j not in members]
    out = []
    for size in range(1, len(rest) + 1):
        for extra in itertools.combinations(rest, size):
            out.append(IndexSet.of(n, tuple(members) + extra))
    return out


def test_ij_bad_nesting_guards(steane):
    I = IndexSet.of(7, [1])
    with pytest.raises(BadNesting):
        ij_recoverable(steane, I, I)
    with pytest.raises(BadNesting):
        ij_recoverable(steane, IndexSet.of(7, [1, 2]), IndexSet.of(7, [2, 3]))
    with pytest.raises(EmptyIndexSet):
        ij_recoverable(steane, IndexSet(7, ()), IndexSet.of(7, [1, 2]))


def test_ij_hermitian_example():
    F4 = GF(2, 2)
    C = LinearCode.from_rows(F4, [[1, 1]])       # Hermitian self-orthogonal
    assert ij_recoverable_hermitian(C, IndexSet.of(2, [1]), IndexSet.full(2))


def test_ij_euclidean_repetition_example():
    C = LinearCode.from_rows(GF(2), [[1, 1]])    # self-orthogonal repetition
    assert ij_recoverable_euclidean(C, IndexSet.of(2, [1]), IndexSet.full(2))


def test_euclidean_carrier_matches_its_css_embedding():
    """For Euclidean self-orthogonal C, the paired code C x C gives the same
    (I, J) verdicts through the symplectic criterion."""
    rng = random.Random(12)
    from conftest import random_euclidean_selforth

    checked = 0
    for _ in range(25):
        q = rng.choice([2, 3])
        n = rng.randrange(3, 6)
        C = random_euclidean_selforth(rng, GF(q), n, n // 2)
        if C.k == 0:
            continue
        S = css_product(C, C)
        for imem in subsets(range(1, n + 1), 1):
            I = IndexSet.of(n, imem)
            for J in _all_supersets(n, imem):
                assert (ij_recoverable_euclidean(C, I, J)
                        == ij_recoverable(S, I, J))
                checked += 1
    assert checked >= 50


def test_ij_css_hamming_pair(hamming74):
    J = IndexSet.of(7, [1, 2, 3, 4, 5, 6])
    assert ij_recoverable_css(hamming74, hamming74, IndexSet.of(7, [1]), J)


def test_ij_css_degenerate_pair():
    F2 = GF(2)
    full = LinearCode.full(F2, 4)
    zero = LinearCode.zero(F2, 4)
    assert ij_recoverable_css(full, zero, IndexSet.of(4, [1]), IndexSet.of(4, [1, 2]))


def test_css_path_agrees_with_symplectic_path():
    """Random nested pairs: the two-code criterion equals the symplectic
    criterion on the product of the duals."""
    rng = random.Random(13)
    checked = 0
    for _ in range(20):
        q = rng.choice([2, 3])
        F = GF(q)
        n = rng.randrange(3, 6)
        C1 = random_linear_code(rng, F, n, rng.randrange(1, n + 1))
        if C1.k == 0:
            continue
        rows = C1.gen.data[:rng.randrange(0, C1.k + 1)]
        sub = LinearCode.from_rows(F, rows, n=n)     # sub <= C1
        C2 = dual_euclidean(sub)                     # C2-dual = sub <= C1
        S = css_product(dual_euclidean(C2), dual_euclidean(C1))
        for imem in subsets(range(1, n + 1), 1):
            I = IndexSet.of(n, imem)
            for J in _all_supersets(n, imem):
                assert (ij_recoverable_css(C1, C2, I, J)
                        == ij_recoverable(S, I, J)), (C1.gen.data, C2.gen.data, I, J)
                checked += 1
    assert checked >= 100


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------

def test_sufficient_filter_steane(steane):
    assert sufficient_filter(steane, 1, 6)
    assert not sufficient_filter(steane, 1, 5)


def test_sufficient_filter_lagrangian_never_fires_properly():
    L = lagrangian(GF(2), 4)
    for j_size in range(1, 4):
        assert not sufficient_filter(L, 1, j_size)


def test_sufficient_filter_implies_recoverable_exhaustive(steane):
    n = 7
    for i_size in (1, 2):
        for j_size in range(i_size + 1, n + 1):
            if not sufficient_filter(steane, i_size, j_size):
                continue
            for jmem in subsets(range(1, n + 1), j_size):
                J = IndexSet.of(n, jmem)
                for imem in subsets(jmem, i_size):
                    assert ij_recoverable(steane, IndexSet.of(n, imem), J)


def test_impossibility_filter_steane_and_cross_validation(steane):
    assert impossibility_filter(steane, (7, 1), 1, 3)
    assert not impossibility_filter(steane, (7, 1), 1, 6)   # t <= 0
    for j_size in (2, 3, 4):
        if not impossibility_filter(steane, (7, 1), 1, j_size):
            continue
        for jmem in subsets(range(1, 8), j_size):
            J = IndexSet.of(7, jmem)
            for i in jmem:
                assert not ij_recoverable(steane, IndexSet.of(7, [i]), J)


def test_impossibility_filter_hypothesis_guard():
    L = lagrangian(GF(2), 3)        # swt(L) = 1
    with pytest.raises(HypothesisNotMet):
        impossibility_filter(L, (3, 0), 1, 2)


# ---------------------------------------------------------------------------
# the quantum verifier
# ---------------------------------------------------------------------------

def test_verify_steane_certified_and_refuted(steane):
    v = verify_quantum_rdelta_lrc(steane, "symplectic", 6, 2)
    assert v.certified
    for i, J in v.certificate.sets:
        assert i in J and len(J) <= 7
    assert verify_quantum_rdelta_lrc(steane, "symplectic", 2, 2).status == "refuted"


def test_verify_certificate_checking(steane):
    cert = verify_quantum_rdelta_lrc(steane, "symplectic", 6, 2).certificate
    again = verify_quantum_rdelta_lrc(steane, "symplectic", 6, 2, certificate=cert)
    assert again.certified
    # sets with fewer than delta elements contain no I of size delta - 1 strictly inside
    for small in ({i: [i] for i in range(1, 8)}, {i: [i, i % 7 + 1] for i in range(1, 8)}):
        tiny = LocalityCertificate.of(7, 6, 3, {i: IndexSet.of(7, J) for i, J in small.items()})
        v = verify_quantum_rdelta_lrc(steane, "symplectic", 6, 3, certificate=tiny)
        assert v.status == "refuted"


def test_verify_quantum_guards(steane, hamming74):
    with pytest.raises(BadParameters):
        verify_quantum_rdelta_lrc(steane, "symplectic", 0, 2)
    with pytest.raises(NotSelfOrthogonal):
        verify_quantum_rdelta_lrc(hamming74, "euclidean", 2, 2)
    # a CSS pair is checked before any verdict: C2^perp_e (even weight) is not
    # inside C1, and the lengths differ, with or without a search or certificate
    rep7 = LinearCode.from_rows(GF(2), [[1] * 7])
    rep3 = LinearCode.from_rows(GF(2), [[1] * 3])
    cert3 = LocalityCertificate.of(3, 1, 2, {i: IndexSet.of(3, [i]) for i in (1, 2, 3)})
    for pair in ((hamming74, rep7), (hamming74, rep3)):
        for r, delta, cert in ((1, 9, None), (6, 2, cert3), (6, 2, None)):
            with pytest.raises(NotNested):
                verify_quantum_rdelta_lrc(pair, "css", r, delta, certificate=cert)


def test_verify_quantum_inconclusive_on_tiny_budget(steane):
    v = verify_quantum_rdelta_lrc(steane, "symplectic", 6, 2, budget=1)
    assert v.status == "inconclusive"


def test_set_searches_charge_one_unit_per_erasure_pattern(hamming74):
    """Both set searches charge C(n-1, s-1) C(s, delta-1) per size class s
    scanned: a budget of exactly that total certifies, one unit less does not."""
    def charge(n, delta, verdict):
        return sum(comb(n - 1, s - 1) * comb(s, delta - 1)
                   for _, J in verdict.certificate.sets for s in range(delta, len(J) + 1))

    runs = [(lambda budget: verify_quantum_rdelta_lrc((hamming74, hamming74), "css", 6, 2,
                                                      budget=budget), 2),
            (lambda budget: verify_rdelta_lrc(hamming74, 5, 3, budget=budget), 3)]
    for verify, delta in runs:
        full = charge(7, delta, verify(1 << 26))
        assert verify(full).certified
        assert verify(full - 1).status == "inconclusive"


def test_verify_hermitian_direct_on_stabilizer_side():
    F4 = GF(2, 2)
    C, _ = hermitian_dc_grs_search(F4, 5, 3)
    stab = dual_hermitian(C)
    v = verify_quantum_rdelta_lrc(stab, "hermitian", 3, 3)
    assert v.certified


def _verify_quantum_filter_free(C, r, delta):
    """Reference reimplementation: plain scan, no filters, no caching."""
    n = C.n
    max_size = min(r + delta - 1, n)
    for i in range(1, n + 1):
        hit = False
        for size in range(delta, max_size + 1):
            others = [j for j in range(1, n + 1) if j != i]
            for rest in itertools.combinations(others, size - 1):
                J = IndexSet.of(n, (i,) + rest)
                if all(ij_recoverable(C, IndexSet.of(n, imem), J)
                       for imem in itertools.combinations(J.members, delta - 1)):
                    hit = True
                    break
            if hit:
                break
        if not hit:
            return "refuted"
    return "certified"


def test_verify_css_form_matches_symplectic_form(steane, hamming74):
    for r, delta in ((6, 2), (2, 2), (3, 3)):
        via_pair = verify_quantum_rdelta_lrc((hamming74, hamming74), "css", r, delta)
        via_symp = verify_quantum_rdelta_lrc(steane, "symplectic", r, delta)
        assert via_pair.status == via_symp.status, (r, delta)


def test_quantum_verifier_matches_filter_free_scan(steane):
    """The size-class filters never change a verdict."""
    rng = random.Random(14)
    cases = []
    for r, delta in ((1, 2), (2, 2), (3, 2), (6, 2), (2, 3), (4, 3)):
        cases.append((steane, r, delta))
    for _ in range(12):
        q = rng.choice([2, 3])
        n = rng.randrange(2, 6)
        C = random_symplectic_selforth(rng, GF(q), n, rng.randrange(1, n + 1))
        if C.dim == 0:
            continue
        for delta in (2, 3):
            if delta > n:
                continue
            for r in range(1, n - delta + 2):
                cases.append((C, r, delta))
    for C, r, delta in cases:
        fast = verify_quantum_rdelta_lrc(C, "symplectic", r, delta)
        assert fast.status == _verify_quantum_filter_free(C, r, delta), (r, delta)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_quantum_singleton_examples():
    r = quantum_singleton((49, 35, 2), 6, 2)
    assert (r.lhs, r.rhs, r.attained) == (51, 51, True)
    r = quantum_singleton((25, 15, 2), 4, 2)
    assert (r.lhs, r.rhs, r.attained) == (27, 27, True)
    r = quantum_singleton((5, 1, 3), 3, 3)
    assert (r.lhs, r.rhs, r.attained) == (7, 7, True)
    with pytest.raises(ParityViolation):
        quantum_singleton((6, 1, 2), 2, 2)


def test_quantum_r_lrc_bound_examples():
    r = quantum_r_lrc_bound((49, 35, 2), 6)
    assert r.attained and r.lhs == 35 and r.rhs == 35
    # d = 1 degenerates to the plain rate bound (1 - 2/(r+1)) n
    r = quantum_r_lrc_bound((8, 3, 1), 3)
    assert dict(r.inputs)["rhs_exact"] == "4" and not r.attained
    # non-integral rhs: floor reported, exact equality required for attained
    r = quantum_r_lrc_bound((7, 1, 3), 3)
    assert r.rhs == 1 and r.lhs == 1 and not r.attained
    assert dict(r.inputs)["rhs_exact"] == "3/2"


# ---------------------------------------------------------------------------
# bridge and purity
# ---------------------------------------------------------------------------

def test_bridge_hamming_transfer(hamming74):
    res = bridge_classical_quantum(hamming74, "euclidean", 3, 2)
    assert res.hypothesis_met and res.via == "bridge"
    assert res.verdict.certified
    classical = verify_rdelta_lrc(hamming74, 3, 2)
    assert classical.status == res.verdict.status


def test_bridge_guard_falls_back_to_direct(hamming74):
    res = bridge_classical_quantum(hamming74, "euclidean", 3, 5)
    assert not res.hypothesis_met and res.via == "direct"


def test_bridge_agreement_small_corpus(hamming74):
    """Direct quantum verification and the classical verifier agree whenever
    delta <= d(dual)."""
    F4 = GF(2, 2)
    grs, _ = hermitian_dc_grs_search(F4, 5, 3)
    corpus = [(hamming74, "euclidean"), (grs, "hermitian"),
              (LinearCode.from_rows(GF(2), [[1, 1]]), "euclidean")]
    for C, form in corpus:
        dual = dual_hermitian(C) if form == "hermitian" else dual_euclidean(C)
        d_dual = min_distance(dual) if dual.k else C.n + 1
        for delta in range(2, min(d_dual, C.n) + 1):
            for r in range(1, C.n - delta + 2):
                classical = verify_rdelta_lrc(C, r, delta)
                direct = verify_quantum_rdelta_lrc(dual, form, r, delta)
                assert classical.status == direct.status, (form, r, delta)


def test_ij_level_bridge(hamming74):
    I = IndexSet.of(7, [1])
    for jmem in itertools.combinations(range(2, 8), 3):
        J = IndexSet.of(7, (1,) + jmem)
        assert (ij_recoverable_via_bridge(hamming74, "euclidean", I, J)
                == classical_erasure_criterion(hamming74, I, J))
    with pytest.raises(HypothesisNotMet):
        ij_recoverable_via_bridge(hamming74, "euclidean",
                                  IndexSet.of(7, [1, 2, 3, 4]),
                                  IndexSet.of(7, [1, 2, 3, 4, 5]))


def test_purity_examples(hamming74):
    pr = purity_check(hamming74, "euclidean")
    assert (pr.pure, pr.d_code, pr.d_dual) == (True, 3, 4)
    # self-dual boundary: equal distances still count as pure
    sd = LinearCode.from_rows(GF(2), [[1, 1]])
    pr = purity_check(sd, "euclidean")
    assert pr.pure and pr.d_code == pr.d_dual == 2
    F4 = GF(2, 2)
    grs, _ = hermitian_dc_grs_search(F4, 5, 3)
    pr = purity_check(grs, "hermitian")
    assert (pr.pure, pr.d_code, pr.d_dual) == (True, 3, 4)


def test_dual_containing_check_runs_once_per_code_and_form(monkeypatch):
    calls = []
    contains = LinearCode.contains_code
    monkeypatch.setattr(LinearCode, "contains_code",
                        lambda self, other: calls.append(1) or contains(self, other))
    # the dual of a self-orthogonal [7,3,2]_5 code (1 + 2^2 = 0 over GF(5))
    C = dual_euclidean(LinearCode.from_rows(GF(5), [[1, 2, 0, 0, 0, 0, 0], [0, 0, 1, 2, 0, 0, 0],
                                                    [0, 0, 0, 0, 1, 2, 0]]))
    for _ in range(2):
        bridge_classical_quantum(C, "euclidean", 2, 2)
        purity_check(C, "euclidean")
        ij_recoverable_via_bridge(C, "euclidean", IndexSet.of(7, [1]), IndexSet.of(7, [1, 2, 3]))
    assert len(calls) <= 1
    not_dc = LinearCode.from_rows(GF(2), [[1, 0, 0]])
    for _ in range(2):
        with pytest.raises(NotNested):
            purity_check(not_dc, "euclidean")


def test_stabilizer_distance_steane(steane):
    assert stabilizer_distance_symplectic(steane) == 3


def test_distance_budgets_count_subsets(steane, hamming74):
    # both distances are 3, found among the C(7, 3) = 35 subsets of size 3
    for distance in (partial(stabilizer_distance_symplectic, steane),
                     partial(css_distance, hamming74, hamming74)):
        with pytest.raises(BudgetExceeded, match=r"C\(7,3\) subsets exceed budget 34"):
            distance(budget=34)
        assert distance(budget=35) == 3


def test_distances_reject_k_zero(steane, hamming74, simplex73):
    with pytest.raises(BadParameters):
        stabilizer_distance_symplectic(max_isotropic_extension(steane))
    with pytest.raises(BadParameters):     # C2^perp_e = C1: k = 3 + 4 - 7 = 0
        css_distance(simplex73, hamming74)


# Reference loops: the stabilizer distance by enumerating the symplectic
# dual, and the CSS distance by enumerating both difference sets.

def reference_stabilizer_distance(C):
    dual = dual_symplectic(C)
    best = None
    for w in dual.codewords():
        if not any(w):
            continue
        sw = symplectic_weight(w)
        if (best is None or sw < best) and not C.contains_word(w):
            best = sw
    return best


def reference_css_distance(C1, C2):
    best = None
    for own, other in ((C1, C2), (C2, C1)):
        outside = dual_euclidean(other)
        for w in own.codewords():
            wt = sum(1 for x in w if x)
            if wt and (best is None or wt < best) and not outside.contains_word(w):
                best = wt
    return best


FIELDS = {2: GF(2), 3: GF(3), 4: GF(2, 2), 5: GF(5)}
MAX_WORDS = 1 << 12


def _draw_vector(data, F, cols):
    return [data.draw(st.integers(0, F.q - 1)) for _ in range(cols)]


def _draw_combination(data, C):
    """A word of C from drawn coefficients on its generator rows."""
    F = C.field
    word = [0] * C.gen.cols
    for row in C.gen.data:
        c = data.draw(st.integers(0, F.q - 1))
        word = [F.add(x, F.mul(c, y)) for x, y in zip(word, row)]
    return word


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_stabilizer_distance_matches_enumeration(data):
    F = FIELDS[data.draw(st.sampled_from(sorted(FIELDS)))]
    n = data.draw(st.integers(1, 5))
    # keep the dual (dimension 2n - dim C) small enough to enumerate
    lowest = next(d for d in range(n + 1) if F.q ** (2 * n - d) <= MAX_WORDS)
    target = data.draw(st.integers(lowest, n))
    C = SymplecticCode.zero(F, n)
    while C.dim < target:
        # any word of the current dual keeps C isotropic
        dual = dual_symplectic(C)
        word = _draw_combination(data, dual)
        if C.contains_word(word):
            word = next(r for r in dual.gen.data if not C.contains_word(r))
        C = SymplecticCode.from_rows(F, C.gen.data + (tuple(word),), n=n)
    expected = reference_stabilizer_distance(C)
    if expected is None:
        with pytest.raises(BadParameters):
            stabilizer_distance_symplectic(C)
    else:
        assert stabilizer_distance_symplectic(C) == expected


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_css_distance_matches_enumeration(data):
    F = FIELDS[data.draw(st.sampled_from(sorted(FIELDS)))]
    n = data.draw(st.integers(1, 5))
    rows = [_draw_vector(data, F, n) for _ in range(data.draw(st.integers(0, n)))]
    C1 = LinearCode.from_rows(F, rows, n=n)
    if data.draw(st.booleans()):
        # C1 + C1^perp_e contains its own dual: the pair (C, C)
        C1 = C2 = LinearCode.from_rows(F, C1.gen.data + dual_euclidean(C1).gen.data, n=n)
    else:
        # any C2 containing C1^perp_e has C2^perp_e inside C1
        extra = [_draw_vector(data, F, n) for _ in range(data.draw(st.integers(0, n)))]
        C2 = LinearCode.from_rows(F, dual_euclidean(C1).gen.data + tuple(map(tuple, extra)), n=n)
    expected = reference_css_distance(C1, C2)
    if expected is None:
        with pytest.raises(BadParameters):
            css_distance(C1, C2)
    else:
        assert css_distance(C1, C2) == expected


# Reference (I, J) criterion as it is stated: puncture at J, re-index I
# inside J, and compare the canonical shortenings.

def _relative_to(I, J):
    position = {j: pos + 1 for pos, j in enumerate(J.members)}
    return IndexSet(len(J), tuple(position[i] for i in I.members))


def _reference_sigma(gen, I, paired):
    n = I.n
    return reference_shorten(gen, qudit_columns(n, I.members, paired),
                             qudit_columns(n, I.complement().members, paired))


def reference_ij_condition(big, small, I, J, paired):
    """sigma_I[pi_J(big)] == sigma_I(small) on generator matrices."""
    punctured = reference_puncture(big, qudit_columns(I.n, J.members, paired))
    return _reference_sigma(punctured, _relative_to(I, J), paired) == \
        _reference_sigma(small, I, paired)


def reference_ij(carrier, form, I, J):
    if form == "css":
        C1, C2 = carrier
        return (reference_ij_condition(C1.gen, dual_euclidean(C2).gen, I, J, False)
                and reference_ij_condition(C2.gen, dual_euclidean(C1).gen, I, J, False))
    if form == "symplectic":
        return reference_ij_condition(dual_symplectic(carrier).gen, carrier.gen, I, J, True)
    dual = dual_hermitian(carrier) if form == "hermitian" else dual_euclidean(carrier)
    return reference_ij_condition(dual.gen, carrier.gen, I, J, False)


IJ_CHECKS = {
    "symplectic": ij_recoverable,
    "hermitian": ij_recoverable_hermitian,
    "euclidean": ij_recoverable_euclidean,
    "css": lambda pair, I, J: ij_recoverable_css(*pair, I, J),
}


def _draw_carrier(data, F, n, form):
    """A ``form`` self-orthogonal carrier grown from drawn words of its current
    dual, or a nested CSS pair."""
    if form == "css":
        C1 = LinearCode.from_rows(F, [_draw_vector(data, F, n)
                                      for _ in range(data.draw(st.integers(0, n)))], n=n)
        extra = [tuple(_draw_vector(data, F, n)) for _ in range(data.draw(st.integers(0, 2)))]
        return C1, LinearCode.from_rows(F, dual_euclidean(C1).gen.data + tuple(extra), n=n)
    if form == "symplectic":
        C, dual_of = SymplecticCode.zero(F, n), dual_symplectic
    else:
        C = LinearCode.zero(F, n)
        dual_of = dual_hermitian if form == "hermitian" else dual_euclidean
    for _ in range(data.draw(st.integers(0, n))):
        word = tuple(_draw_combination(data, dual_of(C)))
        grown = type(C).from_rows(F, C.gen.data + (word,), n=n)
        if is_self_orthogonal(grown, form):
            C = grown
    return C


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_rank_ij_criteria_match_the_shortening_reference(data):
    """All four (I, J) criteria, and the classical one, against puncturing and
    shortening: every I with |I| <= 2 strictly inside a drawn J and inside [n]."""
    form = data.draw(st.sampled_from(sorted(IJ_CHECKS)))
    F = FIELDS[4] if form == "hermitian" else FIELDS[data.draw(st.sampled_from(sorted(FIELDS)))]
    n = data.draw(st.integers(2, 6))
    carrier = _draw_carrier(data, F, n, form)
    drawn = data.draw(st.sets(st.integers(1, n), min_size=2, max_size=n))
    classical = carrier[0] if form == "css" else carrier
    for J in {IndexSet.of(n, drawn), IndexSet.full(n)}:
        for size in (1, 2):
            for members in itertools.combinations(J.members, size):
                if size == len(J):
                    continue
                I = IndexSet(n, members)
                assert IJ_CHECKS[form](carrier, I, J) == reference_ij(carrier, form, I, J), \
                    (form, I, J)
                if form != "symplectic":
                    zero = Matrix.empty(F, n)
                    assert classical_erasure_criterion(classical, I, J) == \
                        reference_ij_condition(classical.gen, zero, I, J, False)
