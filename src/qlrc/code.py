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
against it, so each subset costs one row operation, not one kernel.  The
``infoset`` strategy is Brouwer-Zimmermann enumeration: systematic
generators on m disjoint information sets (:func:`information_sets`), the
messages of weight <= w on each, and a word missed by all of them has
weight >= m(w + 1), plus Grassl's partial-rank terms for leftover columns.
The same bound makes :func:`light_word_blocks` and :func:`low_weight_words`
find every word of weight <= t exactly.  Each raises
:class:`~qlrc.errors.BudgetExceeded` instead of running away; ``auto``
picks the strategy by estimated time.

The two numpy kernels, the codeword one and the information-set one, take
their field arithmetic from :func:`~qlrc.matrix.row_ops` (scalar multiples
of a row) and :meth:`~qlrc.gf.Field.add_arrays` (entrywise sums of encoded
arrays), and build no field table of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice, product
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
from .matrix import Matrix, kernel, rank, rank_of_columns, row_ops, row_space_canonical, rref

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
        return rank(self.gen.vstack(Matrix(self.field, (v,)))) == self.k

    def contains_code(self, other: "LinearCode") -> bool:
        """C contains D iff stacking D's generator under C's keeps rank k;
        a different field or length raises DimensionMismatch."""
        return rank(self.gen.vstack(other.gen)) == self.k

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
    """{y : <x, y> = 0 for every row x of gen} under ``form``, as the
    canonical basis :func:`~qlrc.matrix.kernel` returns."""
    return kernel(Matrix(gen.field, form_rows(gen.field, gen.data, form), cols=gen.cols))


@lru_cache(maxsize=1 << 17)
def dual_euclidean(C: LinearCode) -> LinearCode:
    """Euclidean dual: the kernel of the generator matrix."""
    K = form_kernel(C.gen, "euclidean")
    return LinearCode(C.field, C.n, K.rows, K)


@lru_cache(maxsize=1 << 17)
def dual_hermitian(C: LinearCode) -> LinearCode:
    """Hermitian dual over GF(q^2): Euclidean kernel of the entrywise
    q-th power of the generator."""
    K = form_kernel(C.gen, "hermitian")
    return LinearCode(C.field, C.n, K.rows, K)


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
    ops = row_ops(F)

    def span(rows, coefs):
        table = np.zeros((1, n), F.array_dtype())
        for row in rows:
            multiples = np.array([ops.scale(row, c) for c in coefs], table.dtype)[:, None, :]
            if len(table) > 1:
                multiples = F.add_arrays(multiples, table[None, :, :])
            table = multiples.reshape(-1, n)
        return table

    ka = (C.k + 1) // 2
    low = span(C.gen.data[:ka], range(F.q))
    neg_high = span(C.gen.data[ka:], [ops.neg(c) for c in range(F.q)])
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


def min_weight_dependency(C: LinearCode,
                          budget: int = DEFAULT_BUDGET) -> Tuple[int, Tuple[int, ...]]:
    """Minimum weight via the parity-check column-dependency scan.

    Returns (d, witness codeword).  The scan visits supports in ascending
    (size, lexicographic) order, so the witness is deterministic.
    """
    if C.k == 0:
        raise ZeroCode("zero code has no minimum weight")
    H = dual_euclidean(C).gen
    n = C.n
    columns = [H.column(j) for j in range(n)]
    w, cols = 0, None
    # H has n - k < n rows, so its n columns are dependent: the loop ends by w = n
    while cols is None:
        w += 1
        if comb(n, w) > budget:
            raise BudgetExceeded(f"C({n},{w}) supports exceed budget {budget}")
        cols = _first_dependent_subset(H.field, columns, w)
    coeffs = _columns_dependent(C.field, H, cols)
    word = [0] * n
    for pos, coef in zip(cols, coeffs):
        word[pos] = coef
    # dependency of < w columns would have been found at a lower level,
    # so every coefficient here is nonzero and the weight is exactly w
    return w, tuple(word)


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


# ---------------------------------------------------------------------------
# low-weight words by information sets (Brouwer-Zimmermann)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1 << 10)
def information_sets(C: LinearCode) -> Tuple[Tuple[Matrix, Tuple[int, ...]], ...]:
    """Systematic generators of C on greedily chosen disjoint column sets.

    Entry j is (G_j, P_j) with r_j = |P_j| pivot columns (0-based).  G_j
    generates C; its first r_j rows are the identity on P_j, and its other
    rows vanish on every column still unused when P_j was taken, P_j
    included.  The first entries are full information sets (r_j = k); the
    partial ones that follow have r_j < k, and the scan stops when the
    unused columns have rank 0 (only zero columns, or none, are left).
    """
    n = C.n
    unused = list(range(n))
    out = []
    while unused:
        left = set(unused)
        order = unused + [j for j in range(n) if j not in left]
        R, pivots = rref(C.gen.submatrix_cols(order))
        chosen = tuple(order[p] for p in pivots if p < len(unused))
        if not chosen:
            break
        at = {j: pos for pos, j in enumerate(order)}
        out.append((Matrix(C.field, [[row[at[j]] for j in range(n)] for row in R.data], cols=n),
                    chosen))
        unused = [j for j in unused if j not in chosen]
    return tuple(out)


def _messages(k: int, q: int, i: int) -> int:
    """Messages of weight i with first nonzero coefficient 1."""
    return comb(k, i) * (q - 1) ** (i - 1)


def _message_words(F: Field, scaled, i: int):
    """Yield arrays of the codewords u G over the messages u of weight
    exactly i whose first nonzero coefficient is 1 (one word per
    projective point), in lexicographic order of the message support, at
    most about 2^15 words per array.  ``scaled[s, c]`` is c times row s
    of G, for every c when i >= 2 and for c < 2 when i = 1."""
    import numpy as np

    coefs = np.array(list(product(range(1, F.q), repeat=i - 1)),
                     np.intp).reshape((F.q - 1) ** (i - 1), i - 1)
    supports = combinations(range(len(scaled)), i)
    per = max(1, (1 << 15) // len(coefs))
    while True:
        pos = np.array(list(islice(supports, per)), np.intp).reshape(-1, i)
        if not len(pos):
            return
        acc = scaled[pos[:, 0], 1][:, None, :]
        for s in range(1, i):
            acc = F.add_arrays(acc, scaled[pos[:, s, None], coefs[None, :, s - 1]])
        yield acc.reshape(-1, scaled.shape[2])


def _infoset_words(C: LinearCode, sets, stop: Callable[[int], bool], budget: int):
    """Yield arrays of codewords, one message weight on one set at a time.

    Level w = 1, 2, ... enumerates the messages of weight w on every set of
    ``sets`` (a partial set joins, with its lower weights, once it can raise
    the bound).  When the messages of weight <= done[j] on set j are done, a
    word not yet found has at least done[j] + 1 - (k - r_j) nonzero
    coordinates on P_j (Grassl's partial-rank bound).  Before each weight
    the walk ends if ``stop`` holds for the sum of these bounds.  One budget
    unit per message, charged per weight.
    """
    import numpy as np

    F, k, q = C.field, C.k, C.field.q
    scale = row_ops(F).scale
    ranks = [len(P) for _, P in sets]
    done = [0] * len(sets)
    scaled = [None] * len(sets)     # the multiples c < 2 of set j's rows, then every c
    spent = 0
    for w in range(1, k + 1):
        for j, (G, _) in enumerate(sets):
            if w + 1 - (k - ranks[j]) <= 0:
                continue
            for i in range(done[j] + 1, w + 1):
                if stop(sum(max(0, d + 1 - (k - r)) for d, r in zip(done, ranks))):
                    return
                spent += _messages(k, q, i)
                if spent > budget:
                    raise BudgetExceeded(
                        f"information-set enumeration of {spent} messages exceeds budget {budget}")
                count = 2 if i == 1 else q
                if scaled[j] is None or scaled[j].shape[1] < count:
                    scaled[j] = np.array([[scale(row, c) for c in range(count)]
                                          for row in G.data], F.array_dtype())
                yield from _message_words(F, scaled[j], i)
                done[j] = i


def min_weight_infoset(C: LinearCode, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum weight by Brouwer-Zimmermann enumeration on the sets of
    :func:`information_sets`, until the lower bound reaches the lightest
    word found; it does by level max(1, k - 1), from where on it is at least
    the number of nonzero columns.  One budget unit per message (scalar
    multiples are skipped: they have the same weight)."""
    if C.k == 0:
        raise ZeroCode("zero code has no minimum weight")
    best = C.n + 1
    for words in _infoset_words(C, information_sets(C), lambda bound: bound >= best, budget):
        best = min(best, int((words != 0).sum(axis=1).min()))
    return best


def light_word_blocks(C: LinearCode, t: int, budget: int = DEFAULT_BUDGET):
    """Yield arrays of nonzero codewords of weight <= t: every such word
    appears at least once up to a scalar, and may repeat.

    Exact by the bound of :func:`_infoset_words`: the enumeration stops
    once every word not yet found is heavier than t.  Below level k that
    bound is at most the number of nonzero columns, which the sets cover;
    for t that large, every codeword is light and one full set lists them
    all.  One budget unit per message, charged per level.
    """
    sets = information_sets(C)
    if t >= sum(len(P) for _, P in sets):
        sets = sets[:1]
    for words in _infoset_words(C, sets, lambda bound: bound > t, budget):
        yield words[(words != 0).sum(axis=1) <= t]


def low_weight_words(C: LinearCode, t: int,
                     budget: int = DEFAULT_BUDGET) -> Tuple[Tuple[int, ...], ...]:
    """Every nonzero codeword of weight <= t, sorted (all scalar multiples),
    from :func:`light_word_blocks`."""
    inv, _, scale, _ = row_ops(C.field)
    found = set()
    for light in light_word_blocks(C, t, budget):
        for word in light.tolist():
            # scaled to lead with 1, so repeats across sets coincide
            found.add(tuple(scale(word, inv(next(x for x in word if x)))))
    return tuple(sorted(tuple(scale(v, c)) for c in range(1, C.field.q) for v in found))


# Seconds per unit of work, measured with numpy on one core of a 2-core x86
# machine (Python 3.11): per word and coordinate of the codeword kernel; per
# message, coordinate and weight level of the information-set kernel, per
# call of that kernel (one set and level) and per k x k x n cell of each
# elimination that finds a set; per column subset of the dependency scan.
_ENUM_COST = 2e-9
_INFOSET_COST = 8e-9
_KERNEL_CALL_COST = 4e-5
_ELIMINATION_COST = 1.2e-7
_DEPENDENCY_COST = 2.5e-6


def _auto_strategy(C: LinearCode, budget: int) -> str:
    """The distance strategy with the least estimated time, from the shape
    of C alone.  Enumeration costs q^k words.  The other two are charged
    for proving d >= ub, where ub is the weight of the lightest generator
    row: the dependency scan for every subset of size below ub, the
    information-set search for the levels that lift m(w + 1) to ub, with
    m = n' // k sets over the n' nonzero columns and m + 1 eliminations."""
    n, k, q = C.n, C.k, C.field.q
    ub = min(weight(row) for row in C.gen.data)
    costs = {"dependency": _DEPENDENCY_COST * sum(comb(n, w) for w in range(1, ub))}
    if q ** k <= budget:
        costs["enumerate"] = _ENUM_COST * q ** k * n
    m = max(1, sum(1 for j in range(n) if any(C.gen.column(j))) // k)
    w = next((w for w in range(1, k) if m * (w + 1) >= ub), k)
    messages = (q ** k - 1) // (q - 1) if w == k else m * sum(
        _messages(k, q, i) for i in range(1, w + 1))
    if messages <= budget:
        costs["infoset"] = (_INFOSET_COST * messages * n * w + _KERNEL_CALL_COST * m * w
                            + _ELIMINATION_COST * (m + 1) * k * k * n)
    return min(costs, key=costs.__getitem__)


@lru_cache(maxsize=1 << 10)
def min_distance(C: LinearCode, strategy: str = "auto", budget: int = DEFAULT_BUDGET) -> int:
    """Exact minimum Hamming distance.

    ``enumerate`` iterates all q^k codewords, ``dependency`` scans parity
    column supports by increasing size, ``infoset`` enumerates low-weight
    messages on disjoint information sets (:func:`min_weight_infoset`), and
    ``auto`` picks the one with the least estimated time
    (:func:`_auto_strategy`).  Results are memoised per (C, strategy,
    budget); a call that raises is not.
    """
    if C.k == 0:
        raise ZeroCode("minimum distance of the zero code is undefined")
    if strategy == "auto":
        strategy = _auto_strategy(C, budget)
    if strategy == "enumerate":
        return min_weight_enumerate(C, budget)
    if strategy == "dependency":
        return min_weight_dependency(C, budget)[0]
    if strategy == "infoset":
        return min_weight_infoset(C, budget)
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
    # dim sigma_J(C) = k - rank C[:, complement of J]
    return weight_hierarchy(
        C.n, lambda J: C.k - rank_of_columns(C.gen, J.complement().positions()), t_max, budget)
