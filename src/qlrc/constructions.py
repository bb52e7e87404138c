"""Explicit code families.

* Evaluation codes on a two-dimensional grid: the point set is the common
  zero set of X^n1 - X and Y^n2 - Y (which needs (n_i - 1) | (q - 1)), and
  the code is spanned by the evaluations of the monomials X^e1 Y^e2 with
  (e1, e2) ranging over an exponent set Delta.  Rectangles and two stepped
  variants of Delta come with claimed locality and quantum parameters;
  claimed values are stored next to the construction and always re-measured
  by the callers that report them.

* Generalized Reed-Solomon codes (with an optional point at infinity), plus
  an exhaustive multiplier search for Hermitian dual-containing instances.

* q-ary Hamming codes, the Steane symplectic code, and the CSS pairing of a
  nested pair of classical codes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional, Sequence, Tuple

from .errors import (
    BadGrid,
    BadParameters,
    BudgetExceeded,
    ConstraintViolated,
    DependentMonomialsWarning,
    EmptyDelta,
    RepeatedPoints,
    ZeroMultiplier,
)
from .code import DEFAULT_BUDGET, LinearCode, dual_euclidean, form_kernel, min_distance
from .gf import GF, Field
from .matrix import Matrix, kernel
from .qlocality import (
    QuantumCodeParams,
    _require_css_pair,
    css_distance,
    stabilizer_distance_symplectic,
)
from .symp import SymplecticCode, css_product, is_self_orthogonal

INFINITY = "inf"   # evaluation-point sentinel for extended GRS columns


# ---------------------------------------------------------------------------
# grids and exponent sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """The n1 x n2 point grid: zeros of (X^n1 - X, Y^n2 - Y), ordered
    lexicographically by (encoding of x, encoding of y)."""

    field: Field
    n1: int
    n2: int
    points: Tuple[Tuple[int, int], ...]

    @staticmethod
    def build(field: Field, n1: int, n2: int) -> "GridSpec":
        q = field.q
        for side in (n1, n2):
            if side < 2 or (side - 1 > 1 and (q - 1) % (side - 1) != 0):
                raise BadGrid(f"side {side}: need (side-1) | (q-1) = {q - 1}")
        s1 = [x for x in field.elements() if field.pow(x, n1) == x]
        s2 = [y for y in field.elements() if field.pow(y, n2) == y]
        if len(s1) != n1 or len(s2) != n2:
            raise BadGrid(f"zero sets have sizes {len(s1)}x{len(s2)}, wanted {n1}x{n2}")
        points = tuple((x, y) for x in s1 for y in s2)
        return GridSpec(field, n1, n2, points)

    @property
    def n(self) -> int:
        return self.n1 * self.n2


@dataclass(frozen=True)
class DeltaSet:
    """A set of monomial exponent pairs inside {0..n1-1} x {0..n2-1}.

    ``claims`` carries the locality and quantum parameters promised by the
    family the set came from (empty for bare/custom sets); callers verify
    claims rather than trusting them.
    """

    n1: int
    n2: int
    pairs: Tuple[Tuple[int, int], ...]
    claims: Tuple[Tuple[str, int], ...] = ()

    @staticmethod
    def custom(n1: int, n2: int, pairs: Iterable[Tuple[int, int]]) -> "DeltaSet":
        ps = tuple(sorted(set((int(a), int(b)) for a, b in pairs)))
        if not ps:
            raise EmptyDelta("exponent set is empty")
        if any(not (0 <= a < n1 and 0 <= b < n2) for a, b in ps):
            raise BadParameters("exponents outside the grid box")
        return DeltaSet(n1, n2, ps)

    @staticmethod
    def rect(n1: int, n2: int, i: int, j: int) -> "DeltaSet":
        return DeltaSet.custom(n1, n2, ((a, b) for a in range(i + 1) for b in range(j + 1)))

    @staticmethod
    def step2(n1: int, n2: int, i: int, s: int) -> "DeltaSet":
        pairs = [(a, b) for a in range(i + 1) for b in range(n2 - 1)]
        pairs += [(a, n2 - 1) for a in range(s + 1)]
        return DeltaSet.custom(n1, n2, pairs)

    @staticmethod
    def step2_sigma(n1: int, n2: int, j: int, s: int) -> "DeltaSet":
        pairs = [(a, b) for a in range(n1 - 1) for b in range(j + 1)]
        pairs += [(n1 - 1, b) for b in range(s + 1)]
        return DeltaSet.custom(n1, n2, pairs)

    def is_decreasing(self) -> bool:
        inside = set(self.pairs)
        return all((a2, b2) in inside
                   for a, b in self.pairs
                   for a2 in range(a + 1) for b2 in range(b + 1))

    def __len__(self) -> int:
        return len(self.pairs)


def delta_family(kind: str, n1: int, n2: int, p: int, **params: int) -> DeltaSet:
    """Build a Delta set from one of the named families, enforcing the
    family's parameter constraints and attaching its claimed parameters.

    Claims attached: claimed locality (r, delta) and claimed quantum
    [[qn, qk, qd]] for the derived stabilizer code.
    """
    n = n1 * n2
    if n1 % p or n2 % p:
        raise ConstraintViolated(f"p={p} must divide n1={n1} and n2={n2}")
    if kind == "rect":
        i, j = params["i"], params["j"]
        if n1 / 2 < i <= n1 - 2 and j == n2 - 1:
            r, delta = i + 1, n1 - i
        elif i == n1 - 1 and n2 / 2 < j <= n2 - 2:
            r, delta = j + 1, n2 - j
        else:
            raise ConstraintViolated(
                "rect needs n1/2 < i <= n1-2 with j = n2-1, or i = n1-1 with n2/2 < j <= n2-2")
        claims = (("r", r), ("delta", delta), ("qn", n),
                  ("qk", 2 * (i + 1) * (j + 1) - n),
                  ("qd", (n1 - i) * (n2 - j)))
        base = DeltaSet.rect(n1, n2, i, j)
    elif kind == "step2":
        i, s = params["i"], params["s"]
        if not (n1 - 1 < 2 * i and i <= n1 - 2):
            raise ConstraintViolated("step2 needs (n1-1)/2 < i <= n1-2")
        if not (i > s >= max(n1 - i - 1, 2 * i - n1)):
            raise ConstraintViolated("step2 needs i > s >= max(n1-i-1, 2i-n1)")
        claims = (("r", i + 1), ("delta", n1 - i), ("qn", n),
                  ("qk", 2 * ((i + 1) * (n2 - 1) + s + 1) - n),
                  ("qd", n1 - s))
        base = DeltaSet.step2(n1, n2, i, s)
    elif kind == "step2s":
        j, s = params["j"], params["s"]
        if not (n2 - 1 < 2 * j and j <= n2 - 2):
            raise ConstraintViolated("step2s needs (n2-1)/2 < j <= n2-2")
        if not (j > s >= max(n2 - j - 1, 2 * j - n2)):
            raise ConstraintViolated("step2s needs j > s >= max(n2-j-1, 2j-n2)")
        claims = (("r", j + 1), ("delta", n2 - j), ("qn", n),
                  ("qk", 2 * ((j + 1) * (n1 - 1) + s + 1) - n),
                  ("qd", n2 - s))
        base = DeltaSet.step2_sigma(n1, n2, j, s)
    else:
        raise BadParameters(f"unknown family {kind!r}")
    return DeltaSet(base.n1, base.n2, base.pairs, claims)


def affine_variety_code(grid: GridSpec, delta: DeltaSet) -> LinearCode:
    """Span of the evaluations of X^e1 Y^e2 over the grid points."""
    if (delta.n1, delta.n2) != (grid.n1, grid.n2):
        raise BadParameters("exponent box does not match the grid")
    F = grid.field
    rows = []
    for e1, e2 in delta.pairs:
        rows.append(tuple(F.mul(F.pow(x, e1), F.pow(y, e2)) for x, y in grid.points))
    code = LinearCode.from_rows(F, rows)
    if code.k < len(delta):
        warnings.warn(
            f"evaluations of {len(delta)} monomials span only {code.k} dimensions",
            DependentMonomialsWarning)
    return code


def rect_dual_delta_verbatim(n1: int, n2: int, i: int, j: int) -> DeltaSet:
    """The dual exponent set exactly as the source identity names it
    (first index n1 - i); kept separate so the identity can be tested
    rather than assumed."""
    return DeltaSet.rect(n1, n2, n1 - i, j)


def rect_dual_delta_dimension_consistent(n1: int, n2: int, i: int, j: int) -> DeltaSet:
    """Rectangle whose size matches dim of the dual when j = n2 - 1."""
    return DeltaSet.rect(n1, n2, n1 - 2 - i, j)


# ---------------------------------------------------------------------------
# generalized Reed-Solomon
# ---------------------------------------------------------------------------

def grs_code(field: Field, n: int, k: int,
             points: Optional[Sequence[object]] = None,
             multipliers: Optional[Sequence[int]] = None) -> LinearCode:
    """[n, k, n-k+1] generalized Reed-Solomon code.

    ``points`` are distinct field elements (integer encodings), optionally
    ending with the INFINITY sentinel whose column is (0, ..., 0, v); when
    omitted, the first n of (0, 1, ..., q-1, infinity) are used.
    ``multipliers`` default to all ones.
    """
    q = field.q
    if not 1 <= k <= n:
        raise BadParameters(f"need 1 <= k <= n, got k={k}, n={n}")
    if n > q + 1:
        raise BadParameters(f"n={n} exceeds q+1={q + 1} distinct points")
    if points is None:
        points = list(range(min(n, q))) + ([INFINITY] if n == q + 1 else [])
    points = list(points)
    if len(points) != n or len(set(map(str, points))) != n:
        raise RepeatedPoints(f"need {n} distinct evaluation points")
    if multipliers is None:
        multipliers = [1] * n
    multipliers = [int(v) for v in multipliers]
    if len(multipliers) != n:
        raise BadParameters("need one multiplier per point")
    if any(v == 0 for v in multipliers):
        raise ZeroMultiplier("multipliers must be nonzero")
    rows = []
    for e in range(k):
        row = []
        for pt, v in zip(points, multipliers):
            if pt == INFINITY:
                row.append(v if e == k - 1 else 0)
            else:
                row.append(field.mul(v, field.pow(int(pt), e)))
        rows.append(row)
    return LinearCode.from_rows(field, rows)


def hermitian_dc_grs_search(field: Field, n: int, k: int, budget: int = DEFAULT_BUDGET
                            ) -> Tuple[LinearCode, Tuple[int, ...]]:
    """First (lexicographic in the multiplier tuple) GRS code over GF(q^2)
    that contains its Hermitian dual.  Exhaustive over nonzero multipliers
    with early exit, one budget unit per tuple tried; each tried dual is
    built outside the ``dual_hermitian`` cache.  Refused up front: any n, k
    that ``grs_code`` refuses, and 2k < n (a dual-containing code has
    n - k <= k).
    """
    grs_code(field, n, k)
    if 2 * k < n:
        raise BadParameters(
            f"no [{n},{k}] code contains its Hermitian dual: that needs 2k >= n")
    for tried, mult in enumerate(product(range(1, field.q), repeat=n), 1):
        if tried > budget:
            raise BudgetExceeded(
                f"trying {tried} multiplier tuples exceeds budget {budget}")
        C = grs_code(field, n, k, multipliers=mult)
        K = form_kernel(C.gen, "hermitian")
        if C.contains_code(LinearCode(field, n, K.rows, K)):
            return C, mult
    raise BadParameters(
        f"no Hermitian dual-containing [{n},{k}] GRS code over {field!r} "
        "with these points")


# ---------------------------------------------------------------------------
# Hamming / Steane / CSS
# ---------------------------------------------------------------------------

def hamming_code(m: int, q_or_field, budget: int = DEFAULT_BUDGET) -> LinearCode:
    """The [(q^m - 1)/(q - 1), n - m, 3] Hamming code over GF(q).

    Parity-check columns are the projective representatives (first nonzero
    entry 1), sorted ascending as tuples, so the generator is reproducible.
    The k * n generator entries are charged to ``budget`` before any work;
    as n >= 2^(m - 1), an m past the budget's bit length never forms q^m.
    """
    field = q_or_field if isinstance(q_or_field, Field) else GF(q_or_field)
    if m < 2:
        raise BadParameters("need redundancy m >= 2")
    q = field.q
    n = (q ** m - 1) // (q - 1) if m <= budget.bit_length() else None
    if n is None or (n - m) * n > budget:
        raise BudgetExceeded(f"the m={m} Hamming code over GF({q}) has more generator "
                             f"entries than budget {budget}")
    cols = [v for v in product(range(q), repeat=m) if next((x for x in v if x), 0) == 1]
    K = kernel(Matrix(field, [[c[row] for c in cols] for row in range(m)], cols=n))
    return LinearCode(field, n, K.rows, K)


def steane_symplectic() -> SymplecticCode:
    """The product C_H x C_H, C_H the dual of the [7,4,3] Hamming code."""
    ch = dual_euclidean(hamming_code(3, GF(2)))
    C = css_product(ch, ch)
    assert is_self_orthogonal(C, "symplectic")
    return C


def css_pair(C1: LinearCode, C2: LinearCode,
             budget: int = DEFAULT_BUDGET) -> Tuple[SymplecticCode, QuantumCodeParams]:
    """Stabilizer code of the CSS construction for C2^perp_e inside C1; a
    pair over different fields or lengths, or not nested, raises NotNested.

    Returns the symplectic self-orthogonal code (a-block C2^perp_e, b-block
    C1^perp_e) together with [[n, k1 + k2 - n, d]] parameters; d is the
    exact minimum weight over the two difference sets when the scan fits
    the budget, else the lower bound min(d(C1), d(C2)) flagged as inexact.
    """
    _require_css_pair(C1, C2)
    S = css_product(dual_euclidean(C2), dual_euclidean(C1))
    n = C1.n
    k = C1.k + C2.k - n
    try:
        d = css_distance(C1, C2, budget)
        exact = True
    except BudgetExceeded:
        d = min(min_distance(C1, "auto", budget), min_distance(C2, "auto", budget))
        exact = False
    return S, QuantumCodeParams(n, k, d, d_is_exact=exact)


def symplectic_quantum_params(C: SymplecticCode,
                              budget: int = DEFAULT_BUDGET) -> QuantumCodeParams:
    """[[n, n - dim C, d]] for a symplectic self-orthogonal carrier, with d
    computed exactly when the subset scan fits the budget."""
    k = C.n - C.dim
    try:
        d = stabilizer_distance_symplectic(C, budget)
        exact = True
    except BudgetExceeded:
        d, exact = 1, False
    return QuantumCodeParams(C.n, k, d, d_is_exact=exact)
