"""Dense exact linear algebra over a finite field.

Matrices are immutable values: entries are integer-encoded field elements
held in a tuple of row tuples.  Reduction is plain Gauss-Jordan with the
first nonzero entry (scanning top to bottom) as pivot; over an exact field
there is no magnitude pivoting, and the fixed scan order makes every result
deterministic.

Elimination works a row at a time through :func:`row_ops`: scaling a row
by s and adding f times one row to another.  For q <= 2^8 both are table
lookups over the field's encodings (``MUL[s][x]`` and
``ADD[x][MUL[f][y]]``, see :meth:`Field.tables`); larger fields get the
same two primitives from the scalar methods, so there is one elimination
body for every field.  Results of the layer's own operations are built
through :meth:`Matrix._of`, which skips the entry validation of the public
constructor and computes the hash only when asked.

The canonical representative of a row space is its RREF with zero rows
dropped, so subspace equality is a plain comparison of canonical forms.
The empty subspace is the 0 x n matrix, which is a real value distinct
from "absent".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import DimensionMismatch
from .gf import Field

Row = Tuple[int, ...]


class Matrix:
    """Immutable dense matrix over a :class:`Field`."""

    __slots__ = ("field", "rows", "cols", "data", "_hash")

    def __init__(self, field: Field, data: Iterable[Iterable[int]], cols: Optional[int] = None):
        rows = tuple(tuple(int(x) for x in row) for row in data)
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise DimensionMismatch("ragged rows")
        elif cols is None:
            raise DimensionMismatch("empty matrix needs an explicit column count")
        self.field = field
        self.rows = len(rows)
        self.cols = cols
        self.data = rows
        self._hash = None

    # -- constructors --

    @staticmethod
    def _of(field: Field, data: Tuple[Row, ...], cols: int) -> "Matrix":
        """Trusted constructor: ``data`` is already a tuple of int tuples of
        length ``cols``, so nothing is converted or checked."""
        M = object.__new__(Matrix)
        M.field = field
        M.rows = len(data)
        M.cols = cols
        M.data = data
        M._hash = None
        return M

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix._of(field, ((0,) * cols,) * rows, cols)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix._of(field, tuple(tuple(1 if i == j else 0 for j in range(n))
                                       for i in range(n)), n)

    @staticmethod
    def empty(field: Field, cols: int) -> "Matrix":
        return Matrix._of(field, (), cols)

    # -- value semantics --

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.field, self.cols, self.data))
        return self._hash

    def __repr__(self) -> str:
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"

    def __getitem__(self, ij: Tuple[int, int]) -> int:
        return self.data[ij[0]][ij[1]]

    def row(self, i: int) -> Row:
        return self.data[i]

    def column(self, j: int) -> Row:
        return tuple(r[j] for r in self.data)

    # -- basic operations --

    def transpose(self) -> "Matrix":
        if self.rows == 0:
            return Matrix._of(self.field, ((),) * self.cols, 0)
        return Matrix._of(self.field, tuple(zip(*self.data)), self.rows)

    def vstack(self, other: "Matrix") -> "Matrix":
        if other.cols != self.cols or other.field != self.field:
            raise DimensionMismatch("vstack shape mismatch")
        return Matrix._of(self.field, self.data + other.data, self.cols)

    def submatrix_cols(self, cols: Sequence[int]) -> "Matrix":
        if len(cols) > 1:
            data = tuple(map(itemgetter(*cols), self.data))
        else:  # itemgetter of one column returns a bare entry, of none fails
            data = tuple(tuple([r[j] for j in cols]) for r in self.data)
        return Matrix._of(self.field, data, len(cols))

    def mat_mul(self, other: "Matrix") -> "Matrix":
        """Each output row is the combination of ``other``'s rows by one row
        of ``self``."""
        if self.cols != other.rows or self.field != other.field:
            raise DimensionMismatch("matmul shape mismatch")
        axpy = row_ops(self.field).axpy
        zero = (0,) * other.cols
        out = []
        for r in self.data:
            acc = zero
            for f, y in zip(r, other.data):
                if f:
                    acc = axpy(acc, f, y)
            out.append(tuple(acc))
        return Matrix._of(self.field, tuple(out), other.cols)

    def mul_vec(self, v: Sequence[int]) -> Row:
        if len(v) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        F = self.field
        return tuple(dot(F, r, v) for r in self.data)


def dot(field: Field, a: Sequence[int], b: Sequence[int]) -> int:
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc = field.add(acc, field.mul(x, y))
    return acc


# ---------------------------------------------------------------------------
# row primitives
# ---------------------------------------------------------------------------

class RowOps(NamedTuple):
    """Scalar and row primitives of one field.

    ``scale(x, s)`` is s * x and ``axpy(x, f, y)`` is x + f * y, both as
    new lists; ``inv`` and ``neg`` act on single elements.
    """

    inv: Callable[[int], int]
    neg: Callable[[int], int]
    scale: Callable[[Sequence[int], int], List[int]]
    axpy: Callable[[Sequence[int], int, Sequence[int]], List[int]]


@lru_cache(maxsize=64)
def row_ops(F: Field) -> RowOps:
    """Table lookups for q <= 2^8, the scalar field methods above."""
    tables = F.tables()
    if tables is None:
        def scale(x, s):
            return [F.mul(s, a) for a in x]

        def axpy(x, f, y):
            return [F.add(a, F.mul(f, b)) for a, b in zip(x, y)]

        return RowOps(F.inv, F.neg, scale, axpy)
    ADD, MUL, NEG, INV = tables

    def scale(x, s):
        ms = MUL[s]
        return [ms[a] for a in x]

    def axpy(x, f, y):
        mf = MUL[f]
        return [ADD[a][mf[b]] for a, b in zip(x, y)]

    return RowOps(INV.__getitem__, NEG.__getitem__, scale, axpy)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def rref(M: Matrix) -> Tuple[Matrix, Tuple[int, ...]]:
    """Reduced row echelon form and its (0-based, increasing) pivot columns."""
    F = M.field
    inv, neg, scale, axpy = row_ops(F)
    rows: List[Sequence[int]] = list(M.data)
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
        lead = rows[r][c]
        if lead != 1:
            rows[r] = scale(rows[r], inv(lead))
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                rows[i] = axpy(rows[i], neg(rows[i][c]), prow)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return Matrix._of(F, tuple(map(tuple, rows)), ncols), tuple(pivots)


def rank(M: Matrix) -> int:
    return len(rref(M)[1])


@lru_cache(maxsize=1 << 17)
def rank_of_columns(M: Matrix, cols: Tuple[int, ...]) -> int:
    """Rank of the columns ``cols`` (0-based) of M, memoised per (M, cols):
    the recoverability searches ask for the same column sets many times."""
    return rank(M.submatrix_cols(cols))


def row_space_canonical(M: Matrix) -> Matrix:
    """RREF with zero rows dropped: the unique representative of the row space."""
    R, pivots = rref(M)
    return Matrix._of(M.field, R.data[:len(pivots)], M.cols)


def kernel(M: Matrix) -> Matrix:
    """Basis (as rows) of the right null space {x : M x^T = 0}.

    Returns a (cols - rank) x cols matrix in canonical form; the full space
    comes back as the identity when M has no rows.
    """
    R, pivots = rref(M)
    F = M.field
    neg = row_ops(F).neg
    n = M.cols
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    basis = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = neg(R.data[i][f])
        basis.append(tuple(vec))
    if not basis:
        return Matrix.empty(F, n)
    return row_space_canonical(Matrix._of(F, tuple(basis), n))


@dataclass(frozen=True)
class SolveResult:
    """Classification of the solution set of M x^T = s^T."""

    status: str                      # "unique" | "none" | "many"
    particular: Optional[Row] = None
    kernel_basis: Optional[Matrix] = None


def solve(M: Matrix, s: Sequence[int]) -> SolveResult:
    """Exact solution classification of the linear system M x^T = s^T."""
    if len(s) != M.rows:
        raise DimensionMismatch(f"rhs length {len(s)} != rows {M.rows}")
    F = M.field
    n = M.cols
    aug = Matrix(F, [row + (si,) for row, si in zip(M.data, s)], cols=n + 1)
    if M.rows == 0:
        aug = Matrix.empty(F, n + 1)
    R, pivots = rref(aug)
    if n in pivots:
        return SolveResult("none")
    x = [0] * n
    for i, pc in enumerate(pivots):
        x[pc] = R.data[i][n]
    if len(pivots) == n:
        return SolveResult("unique", tuple(x))
    return SolveResult("many", tuple(x), kernel(M))


def subspace_equal(A: Matrix, B: Matrix) -> bool:
    """True iff the row spaces of A and B coincide."""
    if A.field != B.field or A.cols != B.cols:
        raise DimensionMismatch("subspace comparison needs same field and length")
    return row_space_canonical(A) == row_space_canonical(B)


def in_row_space(M: Matrix, v: Sequence[int]) -> bool:
    """True iff v lies in the row space of M."""
    if len(v) != M.cols:
        raise DimensionMismatch("vector length mismatch")
    if M.rows == 0:
        return not any(v)
    return solve(M.transpose(), v).status != "none"


def intersect_row_spaces(A: Matrix, B: Matrix) -> Matrix:
    """Canonical basis of the intersection of two row spaces."""
    if A.field != B.field or A.cols != B.cols:
        raise DimensionMismatch("intersection needs same field and length")
    # x in both spans  <=>  x is orthogonal to both kernels' duals; compute via
    # kernel of the stacked dual systems: span(A) = ker(K_A) with K_A = kernel(A).
    ka = kernel(A)
    kb = kernel(B)
    stacked = ka.vstack(kb)
    return kernel(stacked)
