"""Symplectic structure on GF(q)^(2n).

Vectors use the block layout (a_1 ... a_n | b_1 ... b_n): columns 1..n are
the a-block and columns n+1..2n the b-block, and the form is

    (a|b) *s (c|d)  =  a . d  -  b . c.

Puncturing and shortening act on qudit positions, i.e. on (a_j, b_j) pairs:
both blocks keep the same position set simultaneously (for 0-based
positions P, the columns P and P + n).  The symplectic weight counts
positions where the pair is nonzero.  The generalized symplectic weights
follow the shortening definition (gsw_t = min |J| with dim sigma_J >= t),
not the puncturing one, without building a shortened code: the words of C
supported inside J are the kernel of the projection onto the paired
complement, so dim sigma_J(C) = dim C - rank C[:, paired complement of J].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    EmptyIndexSet,
    FormMismatch,
    TOutOfRange,
    ZeroCode,
)
from .code import (
    DEFAULT_BUDGET,
    FORMS,
    IndexSet,
    LinearCode,
    form_kernel,
    form_rows,
    iter_codeword_blocks,
    shortened_matrix,
    weight_hierarchy,
)
from .gf import Field
from .matrix import Matrix, dot, rank_of_columns, row_space_canonical


@dataclass(frozen=True)
class SymplecticCode:
    """A subspace of GF(q)^(2n) in (a|b) block layout, canonical generator."""

    field: Field
    n: int
    gen: Matrix

    @staticmethod
    def from_rows(field: Field, rows: Iterable[Iterable[int]], n: Optional[int] = None) -> "SymplecticCode":
        rows = [tuple(r) for r in rows]
        if rows:
            if len(rows[0]) % 2:
                raise DimensionMismatch("symplectic vectors have even length")
            n = len(rows[0]) // 2
        elif n is None:
            raise DimensionMismatch("zero code needs an explicit position count")
        gen = row_space_canonical(Matrix(field, rows, cols=2 * n))
        return SymplecticCode(field, n, gen)

    @staticmethod
    def from_matrix(M: Matrix) -> "SymplecticCode":
        if M.cols % 2:
            raise DimensionMismatch("symplectic vectors have even length")
        return SymplecticCode(M.field, M.cols // 2, row_space_canonical(M))

    @staticmethod
    def zero(field: Field, n: int) -> "SymplecticCode":
        return SymplecticCode(field, n, Matrix.empty(field, 2 * n))

    @property
    def dim(self) -> int:
        return self.gen.rows

    def as_linear(self) -> LinearCode:
        return LinearCode(self.field, 2 * self.n, self.dim, self.gen)

    def codewords(self) -> Iterator[Tuple[int, ...]]:
        return self.as_linear().codewords()

    def contains_word(self, v: Sequence[int]) -> bool:
        return self.as_linear().contains_word(v)

    def contains_code(self, other: "SymplecticCode") -> bool:
        return self.as_linear().contains_code(other)


# ---------------------------------------------------------------------------
# the form
# ---------------------------------------------------------------------------

def symplectic_form(field: Field, x: Sequence[int], y: Sequence[int]) -> int:
    """(a|b) *s (c|d) = a.d - b.c for x=(a|b), y=(c|d)."""
    if len(x) != len(y) or len(x) % 2:
        raise DimensionMismatch("vectors must share an even length")
    return dot(field, form_rows(field, (x,), "symplectic")[0], y)


@lru_cache(maxsize=1 << 17)
def dual_symplectic(C: SymplecticCode) -> SymplecticCode:
    """{y : x *s y = 0 for all x in C}; dim C + dim dual = 2n."""
    return SymplecticCode(C.field, C.n, form_kernel(C.gen, "symplectic"))


def is_self_orthogonal(code, form: str) -> bool:
    """All pairwise form values among generator rows vanish.

    ``form`` is one of ``symplectic`` (SymplecticCode), ``euclidean`` or
    ``hermitian`` (LinearCode; hermitian needs GF(q^2)).
    """
    if form not in FORMS:
        raise FormMismatch(f"unknown form {form!r}")
    kind = SymplecticCode if form == "symplectic" else LinearCode
    if not isinstance(code, kind):
        raise FormMismatch(f"{form} form needs a {kind.__name__}")
    F = code.field
    rows = code.gen.data
    image = form_rows(F, rows, form)
    return all(dot(F, x, s) == 0 for i, x in enumerate(image) for s in rows[i:])


# ---------------------------------------------------------------------------
# paired puncture / shorten
# ---------------------------------------------------------------------------

def paired_columns(n: int, positions: Sequence[int]) -> Tuple[int, ...]:
    """The a-block and b-block columns of 0-based qudit ``positions``."""
    return tuple(positions) + tuple(j + n for j in positions)


def _paired_positions(C: SymplecticCode, J: IndexSet) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    if not J.members:
        raise EmptyIndexSet("paired operation needs a nonempty position set")
    if J.n != C.n:
        raise DimensionMismatch(f"index set over 1..{J.n}, code has n={C.n}")
    return (paired_columns(C.n, J.positions()),
            paired_columns(C.n, J.complement().positions()))


@lru_cache(maxsize=1 << 17)
def puncture_paired(C: SymplecticCode, J: IndexSet) -> SymplecticCode:
    """Keep the (a_j, b_j) pairs at J; output lives in GF(q)^(2|J|)."""
    cols, _ = _paired_positions(C, J)
    return SymplecticCode.from_matrix(C.gen.submatrix_cols(cols))


@lru_cache(maxsize=1 << 17)
def shorten_paired(C: SymplecticCode, J: IndexSet) -> SymplecticCode:
    """Codewords with both blocks supported inside J, projected to 2|J| columns."""
    cols, out_cols = _paired_positions(C, J)
    if C.dim == 0:
        return SymplecticCode.zero(C.field, len(J))
    if not out_cols:
        return puncture_paired(C, J)
    return SymplecticCode.from_matrix(shortened_matrix(C.gen, cols, out_cols))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def symplectic_weight(x: Sequence[int]) -> int:
    """Number of positions j with (a_j, b_j) != (0, 0)."""
    if len(x) % 2:
        raise DimensionMismatch("symplectic vectors have even length")
    n = len(x) // 2
    return sum(1 for j in range(n) if x[j] or x[n + j])


@lru_cache(maxsize=1 << 17)
def min_symplectic_weight(C: SymplecticCode, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum symplectic weight over nonzero codewords.

    Enumerates the q^dim words when that fits the budget (a word's pair
    support is its a-half mask or'ed with its b-half mask), else scans
    position sets.  Memoised per (C, budget); a call that raises is not.
    """
    if C.dim == 0:
        raise ZeroCode("zero code has no minimum symplectic weight")
    if C.field.q ** C.dim > min(budget, 1 << 20):
        # smallest |S| with sigma_S(C) nonzero, i.e. the first generalized weight
        return gsw_hierarchy(C, 1, budget)[0]
    n = C.n
    best = n
    for start, nonzero in iter_codeword_blocks(C.as_linear()):
        weights = (nonzero[:, :n] | nonzero[:, n:]).sum(axis=1)
        if start == 0:
            weights[0] = n  # mask the zero word
        best = min(best, int(weights.min()))
    return best


@lru_cache(maxsize=1 << 17)
def gsw(C: SymplecticCode, t: int, budget: int = DEFAULT_BUDGET) -> int:
    """t-th generalized symplectic weight: min |J| with dim sigma_J(C) >= t.

    Memoised per (C, t, budget); a call that raises is not.
    """
    if not 1 <= t <= C.dim:
        raise TOutOfRange(f"t={t} outside 1..{C.dim}")
    return gsw_hierarchy(C, t, budget)[t - 1]


def gsw_hierarchy(C: SymplecticCode, t_max: int, budget: int = DEFAULT_BUDGET) -> Tuple[int, ...]:
    """(gsw_1, ..., gsw_t_max), scanning position sets by increasing size."""
    if not 1 <= t_max <= C.dim:
        raise TOutOfRange(f"t_max={t_max} outside 1..{C.dim}")
    return weight_hierarchy(
        C.n, lambda J: C.dim - rank_of_columns(
            C.gen, paired_columns(C.n, J.complement().positions())), t_max, budget)


# ---------------------------------------------------------------------------
# constructions on symplectic codes
# ---------------------------------------------------------------------------

def css_product(C1: LinearCode, C2: LinearCode) -> SymplecticCode:
    """{(a|b) : a in C1, b in C2} as a symplectic code."""
    if C1.field != C2.field or C1.n != C2.n:
        raise DimensionMismatch("product needs codes of the same field and length")
    n = C1.n
    zeros = (0,) * n
    rows = [r + zeros for r in C1.gen.data] + [zeros + r for r in C2.gen.data]
    return SymplecticCode.from_rows(C1.field, rows, n=n)


def max_isotropic_extension(C: SymplecticCode, budget: int = DEFAULT_BUDGET) -> SymplecticCode:
    """A self-dual code C_max with C <= C_max = C_max^perp_s <= C^perp_s.

    Greedy: repeatedly adjoin the first (ascending codeword order) vector of
    the current dual that also lies in C^perp_s, until the dimension is n.
    Deterministic because the candidate order is fixed.
    """
    if not is_self_orthogonal(C, "symplectic"):
        raise FormMismatch("extension needs a symplectic self-orthogonal code")
    current = C
    dual_C = dual_symplectic(C)
    while current.dim < C.n:
        cur_dual = dual_symplectic(current)
        # candidates live in cur_dual intersect C^perp_s
        from .matrix import intersect_row_spaces
        cand = SymplecticCode.from_matrix(
            intersect_row_spaces(cur_dual.gen, dual_C.gen))
        if cand.field.q ** cand.dim > budget:
            raise BudgetExceeded("candidate space too large to enumerate")
        picked = None
        for w in cand.codewords():
            if any(w) and not current.contains_word(w):
                picked = w
                break
        if picked is None:  # pragma: no cover - extension always exists
            raise ZeroCode("no extension vector found")
        current = SymplecticCode.from_rows(
            C.field, current.gen.data + (picked,), n=C.n)
    return current
