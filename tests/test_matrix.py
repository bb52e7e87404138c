"""Echelon forms, kernels, solving, and canonical subspace comparison."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlrc.errors import DimensionMismatch
from qlrc.gf import GF
from qlrc.matrix import (
    Matrix,
    in_row_space,
    intersect_row_spaces,
    kernel,
    rank,
    row_space_canonical,
    rref,
    solve,
    subspace_equal,
)
from conftest import random_matrix


def test_rref_identity_and_rank_one():
    F2 = GF(2)
    I3 = Matrix.identity(F2, 3)
    R, pivots = rref(I3)
    assert R == I3 and pivots == (0, 1, 2)
    M = Matrix(F2, [[1, 1], [1, 1]])
    R, pivots = rref(M)
    assert R.data == ((1, 1), (0, 0)) and pivots == (0,)


def test_rref_idempotent_on_random_gf4():
    rng = random.Random(0)
    F4 = GF(2, 2)
    for _ in range(25):
        M = random_matrix(rng, F4, 5, 9)
        R1, p1 = rref(M)
        R2, p2 = rref(R1)
        assert R1 == R2 and p1 == p2


def test_kernel_examples():
    F5 = GF(5)
    assert kernel(Matrix.zeros(F5, 2, 3)) == Matrix.identity(F5, 3)
    assert kernel(Matrix.identity(F5, 4)).rows == 0
    K = kernel(Matrix(GF(2), [[1, 1, 1]]))
    assert K.rows == 2
    for row in K.data:
        assert sum(row) % 2 == 0        # annihilates the all-ones functional


def test_kernel_annihilates_random():
    rng = random.Random(1)
    for _ in range(40):
        q = rng.choice([2, 3, 5])
        F = GF(q)
        M = random_matrix(rng, F, rng.randrange(1, 6), 8)
        K = kernel(M)
        assert rank(M) + K.rows == 8
        for row in K.data:
            assert not any(M.mul_vec(row))


def test_solve_classification():
    F5, F2 = GF(5), GF(2)
    r = solve(Matrix.identity(F5, 3), (1, 2, 3))
    assert r.status == "unique" and r.particular == (1, 2, 3)
    r = solve(Matrix(F2, [[1], [1]]), (0, 1))
    assert r.status == "none"
    r = solve(Matrix(F2, [[1, 1]]), (1,))
    assert r.status == "many"
    assert r.particular == (1, 0)
    assert r.kernel_basis.data == ((1, 1),)
    with pytest.raises(DimensionMismatch):
        solve(Matrix.identity(F2, 2), (1,))


def test_solve_many_matches_enumeration():
    # all four vectors over GF(2): solutions of [1 1] x = 1 are (1,0), (0,1)
    F2 = GF(2)
    M = Matrix(F2, [[1, 1]])
    r = solve(M, (1,))
    sols = {tuple(r.particular)}
    for krow in r.kernel_basis.data:
        sols.add(tuple(F2.add(a, b) for a, b in zip(r.particular, krow)))
    assert sols == {(1, 0), (0, 1)}


def test_subspace_equal_examples():
    F3 = GF(3)
    A = Matrix(F3, [[1, 0], [0, 1]])
    assert subspace_equal(A, Matrix(F3, [[0, 1], [1, 0]]))   # row permutation
    assert not subspace_equal(Matrix(F3, [[1, 0]]), Matrix(F3, [[0, 1]]))
    assert subspace_equal(Matrix(F3, [[1, 1]]), Matrix(F3, [[2, 2]]))


def test_subspace_equal_is_equivalence_on_random_triples():
    rng = random.Random(2)
    F3 = GF(3)
    for _ in range(25):
        A = random_matrix(rng, F3, 3, 6)
        B = Matrix(F3, [A.row((i * 2) % 3) for i in range(3)], cols=6)  # permuted
        C = random_matrix(rng, F3, 3, 6)
        assert subspace_equal(A, A)
        assert subspace_equal(A, B) == subspace_equal(B, A)
        if subspace_equal(A, B) and subspace_equal(B, C):
            assert subspace_equal(A, C)


@given(st.integers(2, 5).filter(lambda q: q in (2, 3, 5)), st.data())
@settings(max_examples=60, deadline=None)
def test_rank_of_rref_equals_rank(q, data):
    F = GF(q)
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 6))
    M = Matrix(F, [[data.draw(st.integers(0, q - 1)) for _ in range(cols)]
                   for _ in range(rows)], cols=cols)
    R, pivots = rref(M)
    assert rank(M) == len(pivots) == rank(R)


def test_canonical_form_drops_zero_rows():
    F2 = GF(2)
    M = Matrix(F2, [[1, 1], [1, 1], [0, 0]])
    C = row_space_canonical(M)
    assert C.rows == 1 and C.data == ((1, 1),)
    # empty subspace is a 0 x n value, not an absent one
    Z = row_space_canonical(Matrix.zeros(F2, 2, 3))
    assert Z.rows == 0 and Z.cols == 3


def test_row_space_membership_and_intersection():
    F2 = GF(2)
    A = Matrix(F2, [[1, 0, 0], [0, 1, 0]])
    B = Matrix(F2, [[0, 1, 0], [0, 0, 1]])
    assert in_row_space(A, (1, 1, 0))
    assert not in_row_space(A, (0, 0, 1))
    assert in_row_space(Matrix.empty(F2, 3), (0, 0, 0))
    assert not in_row_space(Matrix.empty(F2, 3), (0, 1, 0))
    with pytest.raises(DimensionMismatch):
        in_row_space(A, (1, 1))
    assert intersect_row_spaces(A, B).data == ((0, 1, 0),)


# ---------------------------------------------------------------------------
# differential test against the scalar Gauss-Jordan reference
# ---------------------------------------------------------------------------

def reference_rref(M):
    """Gauss-Jordan with one Field method call per entry (the pre-table body)."""
    F = M.field
    rows = [list(r) for r in M.data]
    nrows, ncols = M.rows, M.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = F.inv(rows[r][c])
        if inv != 1:
            rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [F.sub(x, F.mul(factor, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def reference_kernel(M):
    F, n = M.field, M.cols
    R, pivots = reference_rref(M)
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        vec = [0] * n
        vec[f] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = F.neg(R[i][f])
        basis.append(vec)
    if not basis:
        return ()
    K, kp = reference_rref(Matrix(F, basis, cols=n))
    return K[:len(kp)]


def reference_solve(M, s):
    """(status, particular, kernel rows) of M x^T = s^T."""
    n = M.cols
    aug = Matrix(M.field, [row + (si,) for row, si in zip(M.data, s)], cols=n + 1)
    R, pivots = reference_rref(aug)
    if n in pivots:
        return "none", None, None
    x = [0] * n
    for i, pc in enumerate(pivots):
        x[pc] = R[i][n]
    if len(pivots) == n:
        return "unique", tuple(x), None
    return "many", tuple(x), reference_kernel(M)


# GF(3^6) lies above the lookup-table limit, so it takes the scalar row ops
REFERENCE_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4), (2, 8),
                    (3, 6)]


@st.composite
def field_matrices(draw):
    F = GF(*draw(st.sampled_from(REFERENCE_FIELDS)))
    rows = draw(st.integers(0, 6))
    # many free columns too: kernel's basis rows are then mostly free entries
    cols = draw(st.integers(0, 8) | st.integers(rows + 6, rows + 12))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, F.q - 1))
    data = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    return Matrix(F, data, cols=cols)


@settings(max_examples=300, deadline=None)
@given(field_matrices(), st.data())
def test_kernels_match_the_scalar_reference(M, data):
    F = M.field
    R, pivots = rref(M)
    assert (R.data, pivots) == reference_rref(M)
    assert (R.rows, R.cols) == (M.rows, M.cols)
    assert kernel(M).data == reference_kernel(M)
    # right-hand sides: random, and consistent ones M x^T
    x = [data.draw(st.integers(0, F.q - 1)) for _ in range(M.cols)]
    for s in ([data.draw(st.integers(0, F.q - 1)) for _ in range(M.rows)], M.mul_vec(x)):
        res = solve(M, s)
        status, particular, kbasis = reference_solve(M, s)
        assert (res.status, res.particular) == (status, particular)
        assert (res.kernel_basis.data if res.kernel_basis is not None else None) == kbasis
    v = [data.draw(st.integers(0, F.q - 1)) for _ in range(M.cols)]
    for vec in (v, M.transpose().mul_vec([1] * M.rows)):
        expected = (not any(vec) if M.rows == 0
                    else reference_solve(M.transpose(), vec)[0] != "none")
        assert in_row_space(M, vec) == expected


@settings(max_examples=100, deadline=None)
@given(field_matrices())
def test_internal_constructor_equals_public(M):
    data = tuple(tuple(int(x) for x in row) for row in M.data)
    trusted = Matrix._of(M.field, data, M.cols)
    public = Matrix(M.field, [list(row) for row in data], cols=M.cols)
    assert trusted == public and public == trusted
    assert hash(trusted) == hash(public)
    R = rref(public)[0]
    copy = Matrix(M.field, R.data, cols=R.cols)
    assert R == copy and hash(R) == hash(copy)
