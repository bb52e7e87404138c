"""Classical (r, delta) recovery sets, the verifier, bounds, and filters."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc.errors import BadParameters, IndexInR, IndexNotInJ
from qlrc.gf import GF
from qlrc.code import IndexSet, LinearCode, dual_euclidean, min_distance, puncture
from qlrc.locality import (
    LocalityCertificate,
    classical_singleton,
    ghw_locality_filter,
    is_rdelta_recovery_set,
    is_recovery_set,
    punctured_distance_at_least,
    scan_recovery_sets,
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
    """The dual-support table certifies exactly the sets of the increasing-size
    lexicographic subset scan, over prime and extension fields."""
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
        plain = scan_recovery_sets(n, r, 2, min(r + 1, n),
                                   lambda J: punctured_distance_at_least(C, J, 2),
                                   1 << 26, "subset search")
        assert (fast.status, fast.certificate) == (plain.status, plain.certificate), \
            (F, C.gen.data, r)
        table_runs += all(any(C.gen.column(j)) for j in range(n))
    assert table_runs >= 30


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
