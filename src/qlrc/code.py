"""Classical linear codes over GF(q).

A :class:`LinearCode` is an [n, k] subspace held by its canonical generator
matrix (RREF with zero rows dropped), so two objects describe the same code
iff their generators are equal.  Index sets follow the keep convention
throughout: ``R`` names the coordinates that survive puncturing/shortening,
and indices are 1-based on the public surface.

Distance and weight computations are exact and budgeted.  The ``enumerate``
strategy walks all q^k codewords with one split-table numpy kernel for every
field (:func:`iter_codeword_blocks`: two half-span tables, one comparison
per entry); the ``dependency`` strategy looks for the smallest w such that
w columns of a parity-check matrix are linearly dependent, scanning
w = 1, 2, ... over column subsets in lexicographic order.  That scan is
incremental: a depth-first walk keeps the columns after each prefix reduced
against it, so each subset costs one row operation, not one kernel.  Either
raises :class:`~qlrc.errors.BudgetExceeded` instead of running away.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    EmptyIndexSet,
    FormMismatch,
    NotAQuadraticExtension,
    TOutOfRange,
    ZeroCode,
)
from .gf import Field
from .matrix import Matrix, kernel, row_ops, row_space_canonical

DEFAULT_BUDGET = 1 << 26


# ---------------------------------------------------------------------------
# index sets (1-based, sorted, duplicate-free; these are the KEPT coordinates)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexSet:
    """Sorted duplicate-free subset of {1, ..., n}."""

    n: int
    members: Tuple[int, ...]

    @staticmethod
    def of(n: int, members: Iterable[int]) -> "IndexSet":
        ms = tuple(sorted(set(int(i) for i in members)))
        if ms and (ms[0] < 1 or ms[-1] > n):
            raise DimensionMismatch(f"indices {ms} out of range 1..{n}")
        return IndexSet(n, ms)

    @staticmethod
    def full(n: int) -> "IndexSet":
        return IndexSet(n, tuple(range(1, n + 1)))

    def complement(self) -> "IndexSet":
        inside = set(self.members)
        return IndexSet(self.n, tuple(i for i in range(1, self.n + 1) if i not in inside))

    def union(self, other: "IndexSet") -> "IndexSet":
        return IndexSet.of(self.n, self.members + other.members)

    def is_subset(self, other: "IndexSet") -> bool:
        return set(self.members) <= set(other.members)

    def positions(self) -> Tuple[int, ...]:
        """0-based column positions."""
        return tuple(i - 1 for i in self.members)

    def relative_to(self, J: "IndexSet") -> "IndexSet":
        """Re-index the members of self as positions inside J (1-based).

        Used when a set of original coordinates must be addressed inside a
        J-punctured code.
        """
        lookup = {idx: pos + 1 for pos, idx in enumerate(J.members)}
        try:
            return IndexSet(len(J), tuple(lookup[i] for i in self.members))
        except KeyError as exc:
            raise DimensionMismatch(f"{self} is not contained in {J}") from exc

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __repr__(self) -> str:
        return f"IndexSet({set(self.members) if self.members else '{}'} of 1..{self.n})"


# ---------------------------------------------------------------------------
# linear codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearCode:
    """An [n, k]_q linear code with canonical (RREF) generator matrix."""

    field: Field
    n: int
    k: int
    gen: Matrix

    @staticmethod
    def from_rows(field: Field, rows: Iterable[Iterable[int]], n: Optional[int] = None) -> "LinearCode":
        rows = [tuple(r) for r in rows]
        if rows:
            n = len(rows[0])
        elif n is None:
            raise DimensionMismatch("zero code needs an explicit length")
        gen = row_space_canonical(Matrix(field, rows, cols=n))
        return LinearCode(field, n, gen.rows, gen)

    @staticmethod
    def from_matrix(M: Matrix) -> "LinearCode":
        gen = row_space_canonical(M)
        return LinearCode(M.field, M.cols, gen.rows, gen)

    @staticmethod
    def zero(field: Field, n: int) -> "LinearCode":
        return LinearCode(field, n, 0, Matrix.empty(field, n))

    @staticmethod
    def full(field: Field, n: int) -> "LinearCode":
        return LinearCode.from_matrix(Matrix.identity(field, n))

    def contains_word(self, v: Sequence[int]) -> bool:
        from .matrix import in_row_space
        return in_row_space(self.gen, v)

    def contains_code(self, other: "LinearCode") -> bool:
        return all(self.contains_word(r) for r in other.gen.data)

    def __le__(self, other: "LinearCode") -> bool:
        return other.contains_code(self)

    def codewords(self) -> Iterator[Tuple[int, ...]]:
        """All q^k codewords in ascending message order (message digits are
        little-endian base-q over the generator rows).

        Digit values are coefficient encodings, so a digit step from t to
        t+1 changes the word by (t+1 - t) * row in FIELD arithmetic; over
        extension fields that difference is looked up per step.
        """
        F = self.field
        q = F.q
        word = (0,) * self.n
        yield word
        if self.k == 0:
            return
        digits = [0] * self.k
        scaled = [[tuple(F.mul(c, x) for x in row) for c in range(q)]
                  for row in self.gen.data]
        for _ in range(q ** self.k - 1):
            i = 0
            while True:
                old = digits[i]
                new = 0 if old == q - 1 else old + 1
                digits[i] = new
                srow = scaled[i][F.sub(new, old)]
                word = tuple(F.add(w, s) for w, s in zip(word, srow))
                if new:
                    break
                i += 1
            yield word


def weight(v: Sequence[int]) -> int:
    return sum(1 for x in v if x)


def support(v: Sequence[int]) -> Tuple[int, ...]:
    """1-based support of a word."""
    return tuple(i + 1 for i, x in enumerate(v) if x)


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------

FORMS = ("euclidean", "hermitian", "symplectic")


def form_rows(F: Field, rows: Sequence[Sequence[int]], form: str) -> Tuple[Tuple[int, ...], ...]:
    """Map each row x to x' with <x, y> = x' . y under ``form``.

    Euclidean is the identity, Hermitian (GF(q^2) only) the entrywise
    q-th power, and symplectic sends (a|b) to (-b|a).
    """
    if form == "euclidean":
        return tuple(tuple(r) for r in rows)
    if form == "hermitian":
        if F.m % 2:
            raise NotAQuadraticExtension(f"{F!r} is not a quadratic extension")
        return tuple(tuple(F.conj(x) for x in r) for r in rows)
    if form == "symplectic":
        return tuple(tuple(F.neg(x) for x in r[len(r) // 2:]) + tuple(r[:len(r) // 2])
                     for r in rows)
    raise FormMismatch(f"unknown form {form!r}")


def form_kernel(gen: Matrix, form: str) -> Matrix:
    """{y : <x, y> = 0 for every row x of gen} under ``form``."""
    return kernel(Matrix(gen.field, form_rows(gen.field, gen.data, form), cols=gen.cols))


@lru_cache(maxsize=1 << 17)
def dual_euclidean(C: LinearCode) -> LinearCode:
    """Euclidean dual: the kernel of the generator matrix."""
    return LinearCode.from_matrix(form_kernel(C.gen, "euclidean"))


@lru_cache(maxsize=1 << 17)
def dual_hermitian(C: LinearCode) -> LinearCode:
    """Hermitian dual over GF(q^2): Euclidean kernel of the entrywise
    q-th power of the generator."""
    return LinearCode.from_matrix(form_kernel(C.gen, "hermitian"))


# ---------------------------------------------------------------------------
# puncture / shorten (keep convention)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1 << 17)
def puncture(C: LinearCode, R: IndexSet) -> LinearCode:
    """Projection of C onto the coordinates in R."""
    if not R.members:
        raise EmptyIndexSet("puncture needs a nonempty index set")
    return LinearCode.from_matrix(C.gen.submatrix_cols(R.positions()))


@lru_cache(maxsize=1 << 17)
def shorten(C: LinearCode, R: IndexSet) -> LinearCode:
    """Codewords supported inside R, projected onto R."""
    if not R.members:
        raise EmptyIndexSet("shorten needs a nonempty index set")
    outside = R.complement().positions()
    if C.k == 0:
        return LinearCode.zero(C.field, len(R))
    if not outside:
        return puncture(C, R)
    return LinearCode.from_matrix(shortened_matrix(C.gen, R.positions(), outside))


def shortened_matrix(gen: Matrix, keep: Sequence[int], drop: Sequence[int]) -> Matrix:
    """Rows spanning the words of span(gen) that vanish on the ``drop``
    columns, projected onto the ``keep`` columns (0-based).

    The combinations of generator rows vanishing on ``drop`` are the kernel
    of that column block, transposed.
    """
    lam = kernel(gen.submatrix_cols(drop).transpose())
    return lam.mat_mul(gen.submatrix_cols(keep))


# ---------------------------------------------------------------------------
# codeword enumeration (bulk)
# ---------------------------------------------------------------------------

def iter_codeword_blocks(C: LinearCode, chunk: int = 1 << 16):
    """Yield (start_index, nonzero) for the q^k codewords of C in ascending
    message order (little-endian base-q digits over the generator rows),
    matching :meth:`LinearCode.codewords`.

    ``nonzero`` is a boolean array with one row per codeword, True where
    codeword start_index + row is nonzero.  The low ka = ceil(k/2) rows span
    a table A and the negated high rows a table -B, both of integer
    encodings, so message a + q^ka * b is A[a] + B[b], nonzero exactly where
    A[a] != -B[b]: one comparison per entry, the same for every field.
    """
    import numpy as np

    F, n = C.field, C.n
    dtype = np.min_scalar_type(F.q - 1)
    add = None
    if C.k > 2:
        # a half of two or more rows needs the field's q x q addition table;
        # then at least q^3 words are enumerated
        add = np.array([[F.add(a, b) for b in range(F.q)] for a in range(F.q)], dtype)

    def span(rows):
        table = np.zeros((1, n), dtype)
        for row in rows:
            multiples = np.array([[F.mul(c, x) for x in row] for c in range(F.q)], dtype)
            if len(table) > 1:
                multiples = add[multiples[:, None, :], table[None, :, :]]
            table = multiples.reshape(-1, n)
        return table

    ka = (C.k + 1) // 2
    low = span(C.gen.data[:ka])
    neg_high = span([[F.neg(x) for x in row] for row in C.gen.data[ka:]])
    per = max(1, chunk // len(low))
    for b in range(0, len(neg_high), per):
        yield b * len(low), (low[None, :, :] != neg_high[b:b + per, None, :]).reshape(-1, n)


def min_weight_enumerate(C: LinearCode, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum weight by full codeword enumeration (q^k messages)."""
    if C.k == 0:
        raise ZeroCode("zero code has no minimum weight")
    count = C.field.q ** C.k
    if count > budget:
        raise BudgetExceeded(f"enumerating {count} codewords exceeds budget {budget}")
    best = C.n + 1
    for start, nonzero in iter_codeword_blocks(C):
        weights = nonzero.sum(axis=1)
        if start == 0:
            weights[0] = C.n + 1  # mask the zero word
        best = min(best, int(weights.min()))
    return best


def _columns_dependent(F: Field, H: Matrix, cols: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """If the chosen columns of H are dependent, return one dependency
    (coefficients, not all zero, summing the columns to 0); else None."""
    sub = H.submatrix_cols(cols)
    ker = kernel(sub)
    if ker.rows == 0:
        return None
    return ker.data[0]


def min_weight_dependency(C: LinearCode, budget: int = DEFAULT_BUDGET,
                          max_w: Optional[int] = None) -> Tuple[int, Tuple[int, ...]]:
    """Minimum weight via the parity-check column-dependency scan.

    Returns (d, witness codeword).  The scan visits supports in ascending
    (size, lexicographic) order, so the witness is deterministic.  Raises
    :class:`~qlrc.errors.ZeroCode` when no support of size up to ``max_w``
    is dependent.
    """
    if C.k == 0:
        raise ZeroCode("zero code has no minimum weight")
    H = dual_euclidean(C).gen
    n = C.n
    top = max_w if max_w is not None else n
    columns = [H.column(j) for j in range(n)]
    for w in range(1, top + 1):
        if comb(n, w) > budget:
            raise BudgetExceeded(f"C({n},{w}) supports exceed budget {budget}")
        cols = _first_dependent_subset(H.field, columns, w)
        if cols is None:
            continue
        coeffs = _columns_dependent(C.field, H, cols)
        word = [0] * n
        for pos, coef in zip(cols, coeffs):
            word[pos] = coef
        # dependency of < w columns would have been found at a lower level,
        # so every coefficient here is nonzero and the weight is exactly w
        return w, tuple(word)
    raise ZeroCode("no nonzero codeword found")


def _first_dependent_subset(F: Field, columns: Sequence[Sequence[int]],
                            w: int) -> Optional[Tuple[int, ...]]:
    """The lexicographically first w-subset of ``columns`` that is linearly
    dependent, or None; every smaller subset must be independent.

    A depth-first walk over the w-combinations: each node keeps the columns
    after its prefix reduced against the prefix (the prefix is independent,
    so its last column always has a pivot), and a leaf is dependent exactly
    when its column reduces to zero.  One row operation per leaf.
    """
    inv, neg, scale, axpy = row_ops(F)

    def walk(prefix: Tuple[int, ...], start: int, reduced: list) -> Optional[Tuple[int, ...]]:
        if len(prefix) == w - 1:
            for i, v in enumerate(reduced):
                if not any(v):
                    return prefix + (start + i,)
            return None
        for i in range(len(reduced) - (w - 1 - len(prefix))):
            v = reduced[i]
            p = next(j for j, x in enumerate(v) if x)
            b = scale(v, inv(v[p]))
            rest = [axpy(u, neg(u[p]), b) if u[p] else u for u in reduced[i + 1:]]
            found = walk(prefix + (start + i,), start + i + 1, rest)
            if found is not None:
                return found
        return None

    return walk((), 0, list(columns))


@lru_cache(maxsize=1 << 10)
def min_distance(C: LinearCode, strategy: str = "auto", budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum Hamming distance.

    ``enumerate`` iterates all q^k codewords, ``dependency`` scans parity
    column supports by increasing size, ``auto`` picks whichever fits the
    budget (preferring enumeration when q^k is small).  Results are memoised
    per (C, strategy, budget); a call that raises is not.
    """
    if C.k == 0:
        raise ZeroCode("minimum distance of the zero code is undefined")
    if strategy == "auto":
        strategy = "enumerate" if C.field.q ** C.k <= min(budget, 1 << 20) else "dependency"
    if strategy == "enumerate":
        return min_weight_enumerate(C, budget)
    if strategy == "dependency":
        return min_weight_dependency(C, budget)[0]
    raise ValueError(f"unknown strategy {strategy!r}")


def distance_witness(C: LinearCode, budget: int = DEFAULT_BUDGET) -> Tuple[int, Tuple[int, ...]]:
    """(d, codeword of weight d) with a deterministic witness."""
    return min_weight_dependency(C, budget)


# ---------------------------------------------------------------------------
# generalized Hamming weights
# ---------------------------------------------------------------------------

def weight_hierarchy(n: int, dim_at: Callable[[IndexSet], int], t_max: int,
                     budget: int = DEFAULT_BUDGET) -> Tuple[int, ...]:
    """(w_1, ..., w_t_max) with w_t = min{|J| : dim_at(J) >= t}.

    Subsets J of 1..n are scanned in increasing cardinality, then
    lexicographically, and the scan stops at the first J completing the
    hierarchy.
    """
    out = [0] * t_max
    found = 0
    for size in range(1, n + 1):
        if comb(n, size) > budget:
            raise BudgetExceeded(f"C({n},{size}) subsets exceed budget {budget}")
        for cols in combinations(range(1, n + 1), size):
            dim = dim_at(IndexSet(n, cols))
            while found < dim and found < t_max:
                out[found] = size
                found += 1
            if found == t_max:
                return tuple(out)
    raise ZeroCode("hierarchy incomplete")  # pragma: no cover


def generalized_hamming_weights(C: LinearCode, t_max: int,
                                budget: int = DEFAULT_BUDGET) -> Tuple[int, ...]:
    """(w_1, ..., w_t_max) with w_t = min{|J| : dim sigma_J(C) >= t}."""
    if not 1 <= t_max <= C.k:
        raise TOutOfRange(f"t_max must be in 1..{C.k}")
    return weight_hierarchy(C.n, lambda J: shorten(C, J).k, t_max, budget)
