"""Classical (r, delta) recovery sets, the verifier, bounds, and filters."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qlrc.errors import BadParameters, BudgetExceeded, IndexInR, IndexNotInJ, ParseError
from qlrc.gf import GF
from qlrc.code import (
    IndexSet,
    LinearCode,
    dual_euclidean,
    iter_codeword_blocks,
    min_distance,
    puncture,
)
from qlrc.locality import (
    LocalityCertificate,
    _light_supports,
    _union_closure,
    classical_singleton,
    ghw_locality_filter,
    is_rdelta_recovery_set,
    is_recovery_set,
    punctured_distance_at_least,
    recovery_set_verdict,
    verify_rdelta_lrc,
)
from qlrc.oracle import erasure_decode
from conftest import random_linear_code


@pytest.fixture(scope="module")
def rs42():
    # [4,2,3]_5 Reed-Solomon on points 0..3
    return LinearCode.from_rows(GF(5), [[1, 1, 1, 1], [0, 1, 2, 3]])


def test_is_recovery_set_examples():
    F2 = GF(2)
    rep3 = LinearCode.from_rows(F2, [[1, 1, 1]])
    assert is_recovery_set(rep3, 1, IndexSet.of(3, [2]))
    # a coordinate with an identically-zero column is not recoverable this way
    C = LinearCode.from_rows(F2, [[1, 1, 0]])
    assert not is_recovery_set(C, 3, IndexSet.of(3, [1]))
    with pytest.raises(IndexInR):
        is_recovery_set(rep3, 1, IndexSet.of(3, [1, 2]))


def test_is_recovery_set_via_weight3_dual_word(hamming74, simplex73):
    # the dual of the simplex code is the Hamming code, whose weight-3 words
    # give size-2 recovery sets: {1,2,3} supports one, so {2,3} recovers 1
    w3 = next(w for w in hamming74.codewords()
              if sum(1 for x in w if x) == 3 and w[0])
    supp = [i + 1 for i, x in enumerate(w3) if x]
    assert supp[0] == 1
    assert is_recovery_set(simplex73, 1, IndexSet.of(7, supp[1:]))


def test_is_rdelta_recovery_set_examples(rs42):
    full = IndexSet.full(4)
    assert is_rdelta_recovery_set(rs42, 1, full, 3)      # MDS, delta = n-k+1
    assert is_rdelta_recovery_set(rs42, 1, full, 2)
    assert not is_rdelta_recovery_set(rs42, 1, full, 4)
    with pytest.raises(IndexNotInJ):
        is_rdelta_recovery_set(rs42, 1, IndexSet.of(4, [2, 3]), 2)
    with pytest.raises(BadParameters):
        is_rdelta_recovery_set(rs42, 1, full, 1)         # delta-1 is vacuous


def test_hermitian_mds_full_support(simplex73):
    F4 = GF(2, 2)
    from qlrc.constructions import hermitian_dc_grs_search

    C, _ = hermitian_dc_grs_search(F4, 5, 3)
    assert is_rdelta_recovery_set(C, 1, IndexSet.full(5), 3)


def test_verify_mds_certified(rs42):
    v = verify_rdelta_lrc(rs42, 2, 3)
    assert v.certified
    for i, J in v.certificate.sets:
        assert J.members == (1, 2, 3, 4)


def test_verify_hamming_refuted_and_certified(hamming74):
    assert verify_rdelta_lrc(hamming74, 1, 2).status == "refuted"
    assert verify_rdelta_lrc(hamming74, 2, 2).status == "refuted"
    v = verify_rdelta_lrc(hamming74, 3, 2)
    assert v.certified
    # every certified set is the support of a weight-4 word of the dual
    for i, J in v.certificate.sets:
        assert len(J) == 4 and i in J


def test_verify_bad_parameters(hamming74):
    with pytest.raises(BadParameters):
        verify_rdelta_lrc(hamming74, 0, 2)
    with pytest.raises(BadParameters):
        verify_rdelta_lrc(hamming74, 2, 1)


def test_verify_inconclusive_when_budget_runs_out(hamming74):
    v = verify_rdelta_lrc(hamming74, 4, 3, budget=1)
    assert v.status == "inconclusive"


def test_certificate_audit_is_idempotent(hamming74):
    v = verify_rdelta_lrc(hamming74, 3, 2)
    again = verify_rdelta_lrc(hamming74, 3, 2, certificate=v.certificate)
    assert again.certified
    for i, J in v.certificate.sets:
        assert is_rdelta_recovery_set(hamming74, i, J, 2)


def test_certificate_json_round_trip(hamming74):
    cert = verify_rdelta_lrc(hamming74, 3, 2).certificate
    data = cert.to_json()
    assert set(data) == {"r", "delta", "sets"}
    assert set(data["sets"]) == {str(i) for i in range(1, 8)}
    back = LocalityCertificate.from_json(data, n=7)
    assert back == cert


GOOD_CERT = {"r": 1, "delta": 2, "sets": {"1": [1, 2], "2": [1, 2]}}


@pytest.mark.parametrize("bad", [
    {"sets": {"1": "12", "2": [1, 2]}},
    {"sets": {"1": [1.9, 2], "2": [1, 2]}},
    {"sets": {"1": [True, 2], "2": [1, 2]}},
    {"sets": {"1": {"1": 2}, "2": [1, 2]}},
    {"r": 1.5},
    {"r": True},
    {"delta": "2"},
    {"sets": {"1": [1, 2], " +2": [1, 2]}},
    {"sets": {"1": [1, 2], "02": [1, 2]}},
    {"sets": {"1": [1, 1, 2], "2": [1, 2]}},
], ids=["set-as-string", "float-member", "bool-member", "set-as-object", "float-r", "bool-r",
        "string-delta", "signed-key", "zero-padded-key", "repeated-member"])
def test_certificate_json_takes_only_integers_and_lists(bad):
    """Values are not coerced: "12" is not [1, 2], nor 1.5 the integer 1,
    nor " +2" the key "2"; a repeated member is not dropped."""
    assert LocalityCertificate.from_json(GOOD_CERT, 2).r == 1
    with pytest.raises(ParseError):
        LocalityCertificate.from_json({**GOOD_CERT, **bad}, 2)


def test_certificate_for_other_parameters_is_refuted():
    """A certificate states its own (r, delta); both verifiers refuse one
    made for other parameters, even when its sets would pass."""
    from qlrc.qlocality import verify_quantum_rdelta_lrc

    rep = LinearCode.from_rows(GF(2), [[1, 1]])
    sets = {1: IndexSet.of(2, [1, 2]), 2: IndexSet.of(2, [1, 2])}
    assert verify_rdelta_lrc(rep, 1, 2, LocalityCertificate.of(2, 1, 2, sets)).certified
    other = LocalityCertificate.of(2, 7, 9, sets)
    verdict = verify_rdelta_lrc(rep, 1, 2, other)
    assert (verdict.status, verdict.reason) == (
        "refuted", "certificate is for (r, delta) = (7, 9), not (1, 2)")
    self_dual = LinearCode.from_rows(GF(2), [[1, 1, 0, 0], [0, 0, 1, 1]])
    cert = verify_quantum_rdelta_lrc(self_dual, "euclidean", 2, 3).certificate
    assert verify_quantum_rdelta_lrc(self_dual, "euclidean", 2, 3, cert).certified
    verdict = verify_quantum_rdelta_lrc(self_dual, "euclidean", 3, 3, cert)
    assert (verdict.status, verdict.reason) == (
        "refuted", "certificate is for (r, delta) = (2, 3), not (3, 3)")


def test_bad_certificate_refuted(hamming74):
    sets = {i: IndexSet.of(7, sorted({i, (i % 7) + 1})) for i in range(1, 8)}
    cert = LocalityCertificate.of(7, 3, 2, sets)
    assert verify_rdelta_lrc(hamming74, 3, 2, certificate=cert).status == "refuted"


def test_delta2_agrees_with_recovery_set_definition():
    """The (r, 2) verdict matches an r-locality check built directly from
    single-erasure recovery sets, on random small codes."""
    rng = random.Random(8)
    fields = [GF(2), GF(3), GF(2, 2)]
    done = 0
    for _ in range(40):
        F = rng.choice(fields)
        n = rng.randrange(3, 9)
        C = random_linear_code(rng, F, n, rng.randrange(1, n))
        if C.k == 0:
            continue
        r = rng.randrange(1, n)
        verdict = verify_rdelta_lrc(C, r, 2)
        if verdict.status == "inconclusive":
            continue
        by_definition = True
        for i in range(1, n + 1):
            others = [j for j in range(1, n + 1) if j != i]
            if not any(is_recovery_set(C, i, IndexSet.of(n, rest))
                       for size in range(1, r + 1)
                       for rest in itertools.combinations(others, size)):
                by_definition = False
                break
        assert verdict.certified == by_definition, (C.gen.data, r)
        done += 1
    assert done >= 30


def test_delta2_certificates_equal_the_plain_scan():
    """The light-support search certifies exactly the sets of the
    increasing-size lexicographic subset scan, over prime and extension fields."""
    rng = random.Random(12)
    fields = [GF(2), GF(3), GF(5), GF(2, 2), GF(2, 3), GF(3, 2)]
    table_runs = 0
    for _ in range(60):
        F = rng.choice(fields)
        n = rng.randrange(3, 8)
        C = random_linear_code(rng, F, n, rng.randrange(1, n))
        if C.k == 0:
            continue
        r = rng.randrange(1, n)
        fast = verify_rdelta_lrc(C, r, 2)
        plain = recovery_set_verdict(n, r, 2, lambda J: punctured_distance_at_least(C, J, 2),
                                     None, 1 << 26, "subset search")
        assert (fast.status, fast.certificate) == (plain.status, plain.certificate), \
            (F, C.gen.data, r)
        table_runs += all(any(C.gen.column(j)) for j in range(n))
    assert table_runs >= 30


def test_light_search_over_budget_falls_back_to_the_scan():
    """The ternary [7,1] repetition code.  At (2, 2) listing its dual's light
    words takes 116 messages and the scan 84 patterns, so a budget of 100
    certifies through the scan.  At (2, 3) the listing takes 236 messages,
    closing the 91 supports under union 56 * 91 = 5096 units, and the scan
    315 patterns: a budget of 5095 certifies through the scan, and 314 runs
    out in it.  Each fallback certifies the search's sets."""
    C = LinearCode.from_rows(GF(3), [[1] * 7])
    with pytest.raises(BudgetExceeded):
        _light_supports(C, 3, 100)
    assert _light_supports(C, 3, 116)
    scanned = verify_rdelta_lrc(C, 2, 2, budget=100)
    assert scanned.certified
    assert scanned.certificate == verify_rdelta_lrc(C, 2, 2).certificate
    assert verify_rdelta_lrc(C, 2, 2, budget=83).status == "inconclusive"

    supports = _light_supports(C, 4, 236)
    assert len(supports) == 91
    with pytest.raises(BudgetExceeded):
        _union_closure(supports, 4, 5095)
    assert _union_closure(supports, 4, 5096) == supports    # every small set is a support
    scanned = verify_rdelta_lrc(C, 2, 3, budget=5095)
    assert scanned.certified
    assert scanned.certificate == verify_rdelta_lrc(C, 2, 3).certificate
    verdict = verify_rdelta_lrc(C, 2, 3, budget=314)
    assert (verdict.status, verdict.reason) == (
        "inconclusive", "budget 314 exhausted during subset search")


def _with_zero_columns(F, rows, n, zero):
    rows = [[0 if j in zero else x for j, x in enumerate(row)] for row in rows]
    return LinearCode.from_rows(F, rows, n=n)


@given(st.sampled_from([GF(2), GF(3), GF(5), GF(2, 2), GF(2, 3), GF(3, 2)]), st.data())
@settings(max_examples=200, deadline=None)
def test_light_search_equals_the_plain_scan(F, data):
    """The search over unions of light dual supports gives the plain
    subset scan's status, certificate and reason, for delta = 2, 3, 4, with
    zero columns, k = 1 and k = n - 1.  Only a refuted delta = 2 code
    without zero columns words its reason differently."""
    n = data.draw(st.integers(2, 7))
    k = data.draw(st.sampled_from([1, n - 1, data.draw(st.integers(1, n))]))
    rows = [[data.draw(st.integers(0, F.q - 1)) for _ in range(n)] for _ in range(k)]
    C = _with_zero_columns(F, rows, n, data.draw(st.sets(st.integers(0, n - 1), max_size=2)))
    r, delta = data.draw(st.integers(1, 3)), data.draw(st.sampled_from([2, 3, 4]))
    fast = verify_rdelta_lrc(C, r, delta)
    plain = recovery_set_verdict(n, r, delta, lambda J: punctured_distance_at_least(C, J, delta),
                                 None, 1 << 26, "subset search")
    reason = plain.reason
    if delta == 2 and plain.status == "refuted" and all(any(C.gen.column(j)) for j in range(n)):
        i = plain.reason.split()[-2]
        reason = f"no recovery set of size <= {min(r + 1, n)} exists for coordinate {i}"
    assert (fast.status, fast.certificate, fast.reason) == (
        plain.status, plain.certificate, reason), (C.gen.data, r, delta)


def test_light_search_takes_unions_in_the_scan_order(hamming74):
    """Two cases random codes seldom reach.  In the binary [5,1] code of
    11101 the first set through coordinate 1 at (3, 3) is {1, 2, 3}, which
    supports no dual word: it is the union of {1, 2} and {2, 3}.  In the
    [7,4] Hamming code at (3, 2) each coordinate lies on several weight-4
    dual supports, and the scan takes the lexicographically first."""
    C = LinearCode.from_rows(GF(2), [[1, 1, 1, 0, 1]])
    for code, r, delta in ((C, 3, 3), (hamming74, 3, 2)):
        plain = recovery_set_verdict(code.n, r, delta,
                                     lambda J: punctured_distance_at_least(code, J, delta),
                                     None, 1 << 26, "subset search")
        assert verify_rdelta_lrc(code, r, delta) == plain
    assert verify_rdelta_lrc(C, 3, 3).certificate.sets[0] == (1, IndexSet.of(5, [1, 2, 3]))
    assert frozenset({1, 2, 3}) not in _light_supports(C, 5, 1 << 26)


@given(st.sampled_from([GF(2), GF(3), GF(2, 2)]), st.data())
@settings(max_examples=100, deadline=None)
def test_every_recovery_set_is_a_union_of_light_dual_supports(F, data):
    """Every J with d(pi_J(C)) >= delta >= 2 is the union of the supports of
    the dual words of weight <= |J| that lie inside it."""
    n = data.draw(st.integers(2, 6))
    rows = [[data.draw(st.integers(0, F.q - 1)) for _ in range(n)]
            for _ in range(data.draw(st.integers(1, n)))]
    C = _with_zero_columns(F, rows, n, data.draw(st.sets(st.integers(0, n - 1), max_size=1)))
    supports = _light_supports(C, n, 1 << 26)
    for size in range(2, n + 1):
        for members in itertools.combinations(range(1, n + 1), size):
            J = IndexSet.of(n, members)
            if punctured_distance_at_least(C, J, 2):
                inside = [S for S in supports if S <= set(members)]
                assert set().union(*inside) == set(members), (C.gen.data, members)


def test_certified_implies_ghw_filter_true():
    rng = random.Random(9)
    for _ in range(30):
        F = GF(rng.choice([2, 3]))
        n = rng.randrange(4, 8)
        C = random_linear_code(rng, F, n, rng.randrange(1, n - 1))
        if C.k == 0 or dual_euclidean(C).k == 0:
            continue
        r, delta = rng.randrange(1, n), 2
        v = verify_rdelta_lrc(C, r, delta)
        if v.certified:
            assert ghw_locality_filter(C, r, delta)


def test_certified_sets_decode_all_erasures(rs42, hamming74):
    """For every certified (i, J_i) and every I inside J_i of size delta-1,
    the oracle decoder recovers every erasure pattern at I."""
    for C, (r, delta) in ((rs42, (2, 3)), (hamming74, (3, 2))):
        v = verify_rdelta_lrc(C, r, delta)
        assert v.certified
        for i, J in v.certificate.sets:
            P = puncture(C, J)
            words = list(P.codewords())
            for I_members in itertools.combinations(range(1, len(J) + 1), delta - 1):
                I_rel = IndexSet.of(len(J), I_members)
                erased = set(I_rel.positions())
                for w in words:
                    rx = [None if j in erased else w[j] for j in range(len(J))]
                    res = erasure_decode(P, rx, I_rel)
                    assert res.recovered and res.word == w


def test_classical_singleton_examples():
    assert classical_singleton((4, 2, 3), 2, 3).attained
    r = classical_singleton((49, 42, 2), 6, 2)
    assert (r.lhs, r.rhs, r.attained) == (50, 50, True)
    r = classical_singleton((7, 4, 3), 4, 2)
    assert (r.lhs, r.rhs, r.attained) == (7, 8, False)


def test_ghw_locality_filter_examples(hamming74, simplex73):
    assert ghw_locality_filter(hamming74, 1, 2) is False     # needs r+2 >= 5
    assert ghw_locality_filter(hamming74, 3, 2) is True      # boundary r = w1-1
    assert ghw_locality_filter(simplex73, 2, 2) is True      # w1(dual) = 3
    with pytest.raises(BadParameters):
        ghw_locality_filter(hamming74, 2, 9)


@given(st.sampled_from([GF(2), GF(3), GF(2, 2), GF(5)]), st.data())
@settings(max_examples=150, deadline=None)
def test_punctured_distance_matches_the_puncturing_reference(F, data):
    """The rank test equals d(pi_J(C)) >= delta on the punctured code, for
    delta = 2, 3, 4, on random codes with zero coordinates."""
    n = data.draw(st.integers(1, 6))
    rows = [[data.draw(st.integers(0, F.q - 1)) for _ in range(n)]
            for _ in range(data.draw(st.integers(0, n)))]
    for j in data.draw(st.sets(st.integers(0, n - 1), max_size=2)):
        rows = [r[:j] + [0] + r[j + 1:] for r in rows]         # a zero column
    C = LinearCode.from_rows(F, rows, n=n)
    for _ in range(3):
        J = IndexSet.of(n, data.draw(st.sets(st.integers(1, n), min_size=1)))
        D = LinearCode.from_matrix(C.gen.submatrix_cols(J.positions()))   # pi_J(C)
        for delta in (2, 3, 4):
            expected = D.k > 0 and min_distance(D) >= delta
            assert punctured_distance_at_least(C, J, delta) == expected, (C.gen.data, J, delta)


def enumerated_support_table(C, max_weight):
    """The delta = 2 table from every dual word: per coordinate, the
    smallest (weight, support) of a dual word through it of weight <= max_weight."""
    D = dual_euclidean(C)
    best = {}
    if D.k == 0:
        return best
    for _, nonzero in iter_codeword_blocks(D):
        wts = nonzero.sum(axis=1)
        for idx in ((wts > 0) & (wts <= max_weight)).nonzero()[0]:
            supp = tuple(int(j) + 1 for j in nonzero[idx].nonzero()[0])
            for i in supp:
                if i not in best or (len(supp), supp) < best[i]:
                    best[i] = (len(supp), supp)
    return best


def support_table(supports):
    """Per coordinate, the smallest (weight, support) among ``supports``."""
    best = {}
    for S in supports:
        supp = tuple(sorted(S))
        for i in supp:
            if i not in best or (len(supp), supp) < best[i]:
                best[i] = (len(supp), supp)
    return best


@given(st.sampled_from([GF(2), GF(3), GF(2, 2), GF(5), GF(7), GF(2, 3)]), st.data())
@settings(max_examples=150, deadline=None)
def test_light_supports_match_the_enumerated_table(F, data):
    """Low-weight dual words by information sets give the same table as
    enumerating all of the dual, with zero columns, k = 1 and k = n."""
    n = data.draw(st.integers(1, 9))
    k_min = min(kk for kk in range(1, n + 1) if F.q ** (n - kk) <= 4096)
    k = data.draw(st.sampled_from(sorted({k_min, n, data.draw(st.integers(k_min, n))})))
    entry = st.one_of(st.just(0), st.integers(0, F.q - 1))
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(k)]
    for j in data.draw(st.sets(st.integers(0, n - 1), max_size=2)):
        rows = [r[:j] + [0] + r[j + 1:] for r in rows]         # a zero column
    C = LinearCode.from_rows(F, rows, n=n)
    assume(F.q ** (n - C.k) <= 4096)       # the dual is enumerated for reference
    max_weight = data.draw(st.integers(1, n))
    assert support_table(_light_supports(C, max_weight, 1 << 26)) == enumerated_support_table(
        C, max_weight), (C.gen.data, max_weight)


def test_light_supports_enumerate_the_partial_information_sets():
    """A [8,2]_4 dual with one full information set and three one-column
    partial ones: its weight-2 words are found only on the partial sets."""
    D = LinearCode.from_rows(GF(2, 2), [[1, 0, 0, 0, 1, 3, 1, 0], [0, 0, 1, 0, 3, 2, 3, 0]])
    C = dual_euclidean(D)
    assert dual_euclidean(C) == D
    assert support_table(_light_supports(C, 2, 1 << 26)) == enumerated_support_table(C, 2)
