"""Grid evaluation codes, Delta families, GRS codes, Hamming/Steane, CSS."""

import warnings

import pytest

from qlrc.errors import (
    BadGrid,
    BadParameters,
    ConstraintViolated,
    NotNested,
    RepeatedPoints,
    ZeroMultiplier,
)
from qlrc.gf import GF
from qlrc.code import (
    LinearCode,
    dual_euclidean,
    dual_hermitian,
    min_distance,
    min_weight_dependency,
    weight,
)
from qlrc.constructions import (
    DeltaSet,
    GridSpec,
    affine_variety_code,
    css_pair,
    delta_family,
    grs_code,
    hamming_code,
    hermitian_dc_grs_search,
    rect_dual_delta_dimension_consistent,
    rect_dual_delta_verbatim,
    steane_symplectic,
)
from qlrc.locality import classical_singleton, verify_rdelta_lrc
from qlrc.matrix import subspace_equal
from qlrc.qlocality import quantum_singleton
from qlrc.symp import is_self_orthogonal


@pytest.fixture(scope="module")
def grid7():
    return GridSpec.build(GF(7), 7, 7)


@pytest.fixture(scope="module")
def grid5():
    return GridSpec.build(GF(5), 5, 5)


def test_grid_points_and_order(grid5):
    assert grid5.n == 25
    assert grid5.points[0] == (0, 0)
    assert grid5.points[:5] == tuple((0, y) for y in range(5))
    with pytest.raises(BadGrid):
        GridSpec.build(GF(7), 5, 7)       # 4 does not divide 6


def test_full_box_gives_full_space(grid5):
    full = DeltaSet.rect(5, 5, 4, 4)
    C = affine_variety_code(grid5, full)
    assert C == LinearCode.full(GF(5), 25)


def test_rect_code_gf7(grid7):
    C = affine_variety_code(grid7, DeltaSet.rect(7, 7, 5, 6))
    assert (C.n, C.k) == (49, 42)
    d, wit = min_weight_dependency(C)
    assert d == 2 and weight(wit) == 2 and C.contains_word(wit)


def test_rect_code_gf5(grid5):
    C = affine_variety_code(grid5, DeltaSet.rect(5, 5, 3, 4))
    assert (C.n, C.k) == (25, 20)
    assert min_distance(C, "dependency") == 2


def test_dimension_equals_delta_size_for_decreasing_sets(grid5):
    for delta in (DeltaSet.rect(5, 5, 2, 3), DeltaSet.step2(5, 5, 3, 1),
                  DeltaSet.custom(5, 5, [(0, 0), (0, 1), (1, 0)])):
        assert delta.is_decreasing()
        assert affine_variety_code(grid5, delta).k == len(delta)


def test_delta_family_claims_and_guards():
    d = delta_family("rect", 7, 7, 7, i=5, j=6)
    assert dict(d.claims) == {"r": 6, "delta": 2, "qn": 49, "qk": 35, "qd": 2}
    d = delta_family("rect", 10, 10, 5, i=9, j=6)      # i = n1-1, j > n2/2: the second axis
    assert dict(d.claims) == {"r": 7, "delta": 4, "qn": 100, "qk": 40, "qd": 4}
    d = delta_family("step2", 5, 5, 5, i=3, s=1)
    assert dict(d.claims) == {"r": 4, "delta": 2, "qn": 25, "qk": 11, "qd": 4}
    with pytest.raises(ConstraintViolated):
        delta_family("rect", 7, 7, 7, i=3, j=6)       # i <= n1/2
    with pytest.raises(ConstraintViolated):
        delta_family("rect", 6, 6, 5, i=4, j=5)       # p does not divide n1
    with pytest.raises(ConstraintViolated):
        delta_family("rect", 5, 5, 5, i=4, j=4)       # the full box: delta = 1
    with pytest.raises(ConstraintViolated):
        delta_family("step2", 5, 5, 5, i=3, s=0)      # s below the floor
    with pytest.raises(ConstraintViolated):
        delta_family("step2s", 5, 5, 5, j=4, s=1)     # j > n2-2


@pytest.mark.parametrize("n1, n2, p, j, s", [(5, 5, 5, 3, 1), (4, 6, 2, 4, 2)])
def test_step2s_is_the_transposed_step2(n1, n2, p, j, s):
    """step2s on the n1 x n2 box is step2 on the n2 x n1 box with the two
    exponents swapped, claims included."""
    sigma = delta_family("step2s", n1, n2, p, j=j, s=s)
    step2 = delta_family("step2", n2, n1, p, i=j, s=s)
    assert sigma.pairs == tuple(sorted((b, a) for a, b in step2.pairs))
    assert sigma.claims == step2.claims


def test_step2_code_and_sigma_variant(grid5):
    C = affine_variety_code(grid5, DeltaSet.step2(5, 5, 3, 1))
    assert (C.n, C.k) == (25, 18)
    d, wit = min_weight_dependency(C)
    assert d == 4 and weight(wit) == 4
    Cs = affine_variety_code(grid5, DeltaSet.step2_sigma(5, 5, 3, 1))
    assert (Cs.n, Cs.k) == (25, 18)
    assert min_distance(Cs, "dependency") == 4


def test_rect_dual_identity_verbatim_is_reported_not_assumed(grid7, grid5):
    """The rectangle dual comes out as the (n1-2-i, j) rectangle; the source
    identity's (n1-i, j) indexing does not match and is recorded as a finding.
    """
    findings = []
    for grid, (i, j) in ((grid7, (5, 6)), (grid5, (3, 4))):
        n1 = n2 = grid.n1
        C = affine_variety_code(grid, DeltaSet.rect(n1, n2, i, j))
        dual = dual_euclidean(C)
        verbatim = affine_variety_code(grid, rect_dual_delta_verbatim(n1, n2, i, j))
        consistent = affine_variety_code(
            grid, rect_dual_delta_dimension_consistent(n1, n2, i, j))
        if not subspace_equal(dual.gen, verbatim.gen):
            findings.append((n1, i, j, "verbatim index (n1-i) does not give the dual"))
        assert subspace_equal(dual.gen, consistent.gen)
    assert findings, "expected the verbatim indexing to fail on these instances"
    for f in findings:
        warnings.warn(f"dual-rectangle index finding: {f}")


def test_rect_family_meets_its_claims(grid7, grid5):
    """Dual containment, certified locality, and attained bounds for the
    rectangle family instances used throughout."""
    for grid, (i, j) in ((grid5, (3, 4)), (grid7, (5, 6))):
        n1 = n2 = grid.n1
        delta = delta_family("rect", n1, n2, grid.field.p, i=i, j=j)
        C = affine_variety_code(grid, delta)
        claims = dict(delta.claims)
        assert is_self_orthogonal(dual_euclidean(C), "euclidean")
        assert C.contains_code(dual_euclidean(C))
        v = verify_rdelta_lrc(C, claims["r"], claims["delta"])
        assert v.certified
        d = min_distance(C, "dependency")
        assert d == claims["qd"]
        assert classical_singleton((C.n, C.k, d), claims["r"], claims["delta"]).attained
        qs = quantum_singleton((claims["qn"], claims["qk"], d),
                               claims["r"], claims["delta"])
        assert qs.attained


def test_grs_is_mds_and_guards():
    F5 = GF(5)
    C = grs_code(F5, 4, 2)
    assert min_distance(C) == 3                       # n - k + 1
    assert min_distance(dual_euclidean(C)) == 3      # dual of MDS is MDS (k+1)
    with pytest.raises(BadParameters):
        grs_code(F5, 4, 5)
    with pytest.raises(RepeatedPoints):
        grs_code(F5, 3, 2, points=[0, 0, 1])
    with pytest.raises(ZeroMultiplier):
        grs_code(F5, 3, 2, points=[0, 1, 2], multipliers=[1, 0, 1])


def test_grs_extended_point_at_infinity():
    F4 = GF(2, 2)
    C = grs_code(F4, 5, 3)            # needs the infinity column
    assert (C.n, C.k) == (5, 3)
    assert min_distance(C) == 3
    assert min_distance(dual_euclidean(C)) == 4


def test_hermitian_dc_search_yields_5_3_3(simplex73):
    F4 = GF(2, 2)
    C, mult = hermitian_dc_grs_search(F4, 5, 3)
    assert (C.n, C.k) == (5, 3)
    assert min_distance(C) == 3
    assert all(m != 0 for m in mult)
    dual = dual_hermitian(C)
    assert C.contains_code(dual)                      # Hermitian dual-containing
    assert is_self_orthogonal(dual, "hermitian")
    assert min_distance(dual) == 4                    # MDS dual: k + 1


def test_multiplier_search_caches_no_dual():
    """Each tried tuple's Hermitian dual is built outside the dual_hermitian
    cache: a found code and an exhaustive refusal leave it as it was."""
    before = dual_hermitian.cache_info().currsize
    assert hermitian_dc_grs_search(GF(2, 2), 5, 3)[1] == (1, 1, 1, 1, 1)
    with pytest.raises(BadParameters, match="no Hermitian dual-containing"):
        hermitian_dc_grs_search(GF(2, 2), 5, 4)       # all 3^5 tuples tried
    assert dual_hermitian.cache_info().currsize == before


def test_hamming_parameters():
    assert (hamming_code(3, 2).n, hamming_code(3, 2).k) == (7, 4)
    small = hamming_code(2, 2)
    assert (small.n, small.k) == (3, 1)
    assert min_distance(small) == 3                   # the repetition code
    C13 = hamming_code(2, 3)
    assert (C13.n, C13.k) == (4, 2)
    assert min_distance(C13) == 3


def test_steane_construction(steane, simplex73):
    S = steane_symplectic()
    assert S == steane
    assert S.dim == 6 and is_self_orthogonal(S, "symplectic")
    # block structure: both blocks span the dual of the Hamming code
    a_rows = [r[:7] for r in S.gen.data if not any(r[7:])]
    assert LinearCode.from_rows(GF(2), a_rows, n=7) == simplex73


def test_css_pair_hamming(hamming74, steane):
    S, params = css_pair(hamming74, hamming74)
    assert S == steane
    assert (params.n, params.k, params.d_lower) == (7, 1, 3)
    assert params.d_is_exact and params.label() == "[[7,1,3]]"


def test_css_pair_rect_gf5(grid5):
    C = affine_variety_code(grid5, DeltaSet.rect(5, 5, 3, 4))
    S, params = css_pair(C, C)
    assert (params.n, params.k, params.d_lower, params.d_is_exact) == (25, 15, 2, True)
    assert is_self_orthogonal(S, "symplectic")


def test_css_distance_matches_stabilizer_distance():
    """The two-difference-set distance equals the symplectic-side distance
    (min symplectic weight over the dual minus the stabilizer) on nested
    pairs small enough to enumerate both ways."""
    import random

    from qlrc.qlocality import css_distance, stabilizer_distance_symplectic
    from conftest import random_linear_code

    rng = random.Random(30)
    checked = 0
    while checked < 12:
        q = rng.choice([2, 3])
        F = GF(q)
        n = rng.randrange(3, 7)
        C1 = random_linear_code(rng, F, n, rng.randrange(1, n + 1))
        if C1.k == 0:
            continue
        sub = LinearCode.from_rows(F, C1.gen.data[:rng.randrange(0, C1.k + 1)], n=n)
        C2 = dual_euclidean(sub)
        if C1.k + C2.k - n == n or C1.k + C2.k == n:
            continue      # zero-rate or full-rate edge: no undetectable error
        S, params = css_pair(C1, C2)
        assert stabilizer_distance_symplectic(S) == css_distance(C1, C2) == params.d_lower
        checked += 1


def test_css_pair_full_and_not_nested():
    F2 = GF(2)
    full = LinearCode.full(F2, 4)
    S, params = css_pair(full, full)
    assert (params.n, params.k, params.d_lower) == (4, 4, 1)
    rep = LinearCode.from_rows(F2, [[1, 1, 1, 1]])
    with pytest.raises(NotNested):
        css_pair(rep, rep)            # dual of rep is not inside rep
