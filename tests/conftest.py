"""Shared fixtures and seeded random generators for the test suite."""

import random

import pytest

from qlrc.gf import GF
from qlrc.code import LinearCode, dual_euclidean
from qlrc.constructions import hamming_code, steane_symplectic
from qlrc.matrix import Matrix, dot, kernel, row_space_canonical
from qlrc.symp import SymplecticCode, dual_symplectic


@pytest.fixture(scope="session")
def hamming74():
    return hamming_code(3, GF(2))


@pytest.fixture(scope="session")
def simplex73(hamming74):
    return dual_euclidean(hamming74)


@pytest.fixture(scope="session")
def steane():
    return steane_symplectic()


def random_matrix(rng: random.Random, field, rows: int, cols: int) -> Matrix:
    return Matrix(field, [[rng.randrange(field.q) for _ in range(cols)]
                          for _ in range(rows)], cols=cols)


def random_linear_code(rng: random.Random, field, n: int, k_rows: int) -> LinearCode:
    return LinearCode.from_rows(
        field, [[rng.randrange(field.q) for _ in range(n)] for _ in range(k_rows)], n=n)


def random_symplectic_selforth(rng: random.Random, field, n: int,
                               target_dim: int) -> SymplecticCode:
    """Greedy isotropic subspace: adjoin random vectors from the current dual."""
    C = SymplecticCode.zero(field, n)
    tries = 0
    while C.dim < target_dim and tries < 200:
        tries += 1
        cand = tuple(rng.randrange(field.q) for _ in range(2 * n))
        if not any(cand):
            continue
        if not dual_symplectic(C).contains_word(cand):
            continue
        if C.contains_word(cand):
            continue
        C = SymplecticCode.from_rows(field, C.gen.data + (cand,), n=n)
    return C


def random_euclidean_selforth(rng: random.Random, field, n: int,
                              target_dim: int) -> LinearCode:
    """Greedy Euclidean self-orthogonal code of dimension <= target_dim."""
    C = LinearCode.zero(field, n)
    tries = 0
    while C.k < target_dim and tries < 200:
        tries += 1
        cand = tuple(rng.randrange(field.q) for _ in range(n))
        if not any(cand) or dot(field, cand, cand) != 0:
            continue
        if any(dot(field, cand, row) for row in C.gen.data):
            continue
        if C.contains_word(cand):
            continue
        C = LinearCode.from_rows(field, C.gen.data + (cand,), n=n)
    return C


def random_dual_containing(rng: random.Random, field, n: int) -> LinearCode:
    """A code C with C^perp_e inside C (dual of a random self-orthogonal code)."""
    D = random_euclidean_selforth(rng, field, n, rng.randrange(0, n // 2 + 1))
    return dual_euclidean(D)


# Reference puncturing and shortening on generator matrices, kept apart from
# the library's column-rank predicates so that each checks the other.

def qudit_columns(n: int, members, paired: bool) -> list:
    """0-based columns of 1-based positions; a qudit j is columns j and j + n."""
    cols = [j - 1 for j in members]
    return cols + [j - 1 + n for j in members] if paired else cols


def reference_puncture(gen: Matrix, keep) -> Matrix:
    """Canonical generator of the projection onto the ``keep`` columns."""
    return row_space_canonical(gen.submatrix_cols(keep))


def reference_shorten(gen: Matrix, keep, drop) -> Matrix:
    """Canonical generator of the words vanishing on ``drop``, projected onto
    ``keep``: the row combinations in the kernel of the ``drop`` block."""
    if gen.rows == 0 or not drop:
        return reference_puncture(gen, keep)
    combos = kernel(gen.submatrix_cols(drop).transpose())
    return row_space_canonical(combos.mat_mul(gen.submatrix_cols(keep)))
