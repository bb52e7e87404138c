"""Quantum-side recoverability criteria for stabilizer codes.

The stabilizer code attached to a symplectic self-orthogonal C inside
GF(q)^(2n) is (I, J)-locally recoverable exactly when

    sigma_I[ pi_J( C^perp_s ) ]  =  sigma_I( C ),

with I addressed inside J on the left-hand side; J = [n] is erasure
correction at I.  The same condition with the Hermitian or Euclidean dual
covers stabilizer codes built from self-orthogonal codes under those
products, and a two-code version covers the CSS construction.

No punctured or shortened code is built: each check compares column ranks.
For the pair small <= big (C and its dual, or a CSS block), a word of
small supported inside I lies in big and survives puncturing at J, so
sigma_I(small) <= sigma_I[pi_J(big)] and equal dimensions mean equal
spaces.  The words supported inside a set are the kernel of the projection
onto the other coordinates, so the check is

    rank big[:, J] - rank big[:, J \\ I]  =  dim small - rank small[:, [n] \\ I],

with the paired columns j and j + n on symplectic carriers.  The classical
criterion sigma_I[pi_J(C)] = 0 is the case small = {0}.

The (r, delta) verifier searches, per coordinate, for a set J of size at
most r + delta - 1 such that the condition holds for every I inside J of
size delta - 1.  On symplectic carriers a size-only impossibility filter
(driven by generalized symplectic weights of the dual) may justify
skipping a whole size class during refutation; certificates are always
backed by concrete subspace checks.  :func:`sufficient_filter` (large J
relative to the dual's minimum symplectic weight) is a standalone public
predicate; the verifier does not call it.

The exact distances are the size of the smallest uncorrectable erasure set
S, where sigma_S(A) != sigma_S(B) for some pair A <= B (C <= C^perp_s on
paired columns, or the CSS blocks C2^perp_e <= C1 and C1^perp_e <= C2).
As sigma_S(X)^perp = pi_S(X^perp), that is rank A^perp[:, S] > rank
B^perp[:, S]; the scan skips A^perp when B^perp[:, S] has full rank |S|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from math import ceil
from typing import Dict, Optional, Tuple, Union

from .errors import (
    BadNesting,
    BadParameters,
    BudgetExceeded,
    EmptyIndexSet,
    HypothesisNotMet,
    NotNested,
    NotSelfOrthogonal,
    ParityViolation,
)
from .code import (
    DEFAULT_BUDGET,
    FORMS,
    IndexSet,
    LinearCode,
    dual_euclidean,
    dual_hermitian,
    min_distance,
    weight_hierarchy,
)
from .locality import (
    BoundReport,
    LocalityCertificate,
    Verdict,
    check_rdelta,
    recovery_set_verdict,
    verify_rdelta_lrc,
)
from .matrix import Matrix, rank, rank_of_columns
from .symp import (
    SymplecticCode,
    dual_symplectic,
    gsw,
    is_self_orthogonal,
    min_symplectic_weight,
    paired_columns,
)

CssPair = Tuple[LinearCode, LinearCode]


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantumCodeParams:
    """[[n, k, >= d_lower]]_q parameters derived from a classical carrier."""

    n: int
    k: int
    d_lower: int
    d_is_exact: bool = False

    def label(self) -> str:
        rel = "" if self.d_is_exact else ">="
        return f"[[{self.n},{self.k},{rel}{self.d_lower}]]"


@lru_cache(maxsize=1 << 10)
def _self_orthogonal(C: Union[SymplecticCode, LinearCode], form: str) -> bool:
    return is_self_orthogonal(C, form)


def _require_self_orthogonal(C: Union[SymplecticCode, LinearCode], form: str) -> None:
    if not _self_orthogonal(C, form):
        raise NotSelfOrthogonal(f"carrier is not {form} self-orthogonal")


@lru_cache(maxsize=1 << 10)
def _require_css_pair(C1: LinearCode, C2: LinearCode) -> None:
    """Raise NotNested unless C1 and C2 share field and length and
    C2^perp_e lies inside C1.  Memoised; a call that raises is not."""
    if C1.field != C2.field or C1.n != C2.n:
        raise NotNested("pair must share field and length")
    if not C1.contains_code(dual_euclidean(C2)):
        raise NotNested("need C2^perp_e inside C1")


def _check_nesting(n: int, I: IndexSet, J: IndexSet) -> None:
    if not I.members:
        raise EmptyIndexSet("I must be nonempty")
    if I.n != n or J.n != n:
        raise BadNesting("index sets must live on the code's coordinates")
    if not (I.is_subset(J) and len(I) < len(J)):
        raise BadNesting("need I strictly inside J")


# ---------------------------------------------------------------------------
# erasure correction and (I, J) criteria
# ---------------------------------------------------------------------------

def _ij_condition(big: Matrix, small: Matrix, I: IndexSet, J: IndexSet, paired: bool) -> bool:
    """sigma_I[pi_J(big)] = sigma_I(small) for generators of codes small <= big,
    by the module docstring's rank identity; ``paired`` for qudit positions."""
    n, inside = I.n, set(I.members)

    def columns(members) -> Tuple[int, ...]:
        cols = tuple(j - 1 for j in members)
        return paired_columns(n, cols) if paired else cols

    left = (rank_of_columns(big, columns(J.members))
            - rank_of_columns(big, columns(j for j in J.members if j not in inside)))
    return left == small.rows - rank_of_columns(small, columns(I.complement().members))


def corrects_erasures_at(C: SymplecticCode, I: IndexSet) -> bool:
    """Erasures at I are correctable iff sigma_I(C) = sigma_I(C^perp_s): the
    (I, J) criterion with J = [n]."""
    return ij_recoverable(C, I, IndexSet.full(C.n))


def ij_recoverable(C: SymplecticCode, I: IndexSet, J: IndexSet) -> bool:
    """sigma_I[pi_J(C^perp_s)] = sigma_I(C), with I addressed inside J."""
    _require_self_orthogonal(C, "symplectic")
    _check_nesting(C.n, I, J)
    return _ij_condition(dual_symplectic(C).gen, C.gen, I, J, True)


def _ij_recoverable_linear(C: LinearCode, I: IndexSet, J: IndexSet, form: str) -> bool:
    _require_self_orthogonal(C, form)
    _check_nesting(C.n, I, J)
    return _ij_condition(_dual_for_form(C, form).gen, C.gen, I, J, False)


def ij_recoverable_hermitian(C: LinearCode, I: IndexSet, J: IndexSet) -> bool:
    """sigma_I[pi_J(C^perp_h)] = sigma_I(C) for Hermitian self-orthogonal C."""
    return _ij_recoverable_linear(C, I, J, "hermitian")


def ij_recoverable_euclidean(C: LinearCode, I: IndexSet, J: IndexSet) -> bool:
    """sigma_I[pi_J(C^perp_e)] = sigma_I(C) for Euclidean self-orthogonal C."""
    return _ij_recoverable_linear(C, I, J, "euclidean")


def ij_recoverable_css(C1: LinearCode, C2: LinearCode, I: IndexSet, J: IndexSet) -> bool:
    """(I, J)-recoverability of the CSS code built from a dual-containing pair.

    Takes the pair in the nested orientation (C2^perp_e inside C1); the
    stabilizer is the product of the two dual codes, so the criterion is the
    two-sided condition

        sigma_I[pi_J(C1)] = sigma_I(C2^perp_e)   and
        sigma_I[pi_J(C2)] = sigma_I(C1^perp_e),

    which is the symplectic criterion evaluated blockwise.
    """
    _require_css_pair(C1, C2)
    _check_nesting(C1.n, I, J)
    return (_ij_condition(C1.gen, dual_euclidean(C2).gen, I, J, False)
            and _ij_condition(C2.gen, dual_euclidean(C1).gen, I, J, False))


# ---------------------------------------------------------------------------
# size-only filters
# ---------------------------------------------------------------------------

def sufficient_filter(C: SymplecticCode, i_size: int, j_size: int) -> bool:
    """True guarantees (I, J)-recoverability for ALL pairs of these sizes:
    |J| >= n - swt(C^perp_s) + |I| + 1."""
    if not (1 <= i_size <= C.n and 1 <= j_size <= C.n):
        raise BadParameters("sizes must lie in 1..n")
    return j_size >= C.n - min_symplectic_weight(dual_symplectic(C)) + i_size + 1


def impossibility_filter(C: SymplecticCode, params: Tuple[int, int],
                         i_size: int, j_size: int,
                         budget: int = DEFAULT_BUDGET) -> bool:
    """True certifies that NO (I, J) of these sizes is recoverable.

    Requires swt(C) >= |I| + 1 (else the criterion does not apply).  Fires
    when t = n + k - 2|J| + 2|I| > 0 and gsw_t(C^perp_s) >= n - |J| + 1.
    """
    n, k = params
    swt = min_symplectic_weight(C)
    if swt <= i_size:
        raise HypothesisNotMet(f"needs swt(C) >= {i_size + 1}, have {swt}")
    t = n + k - 2 * j_size + 2 * i_size
    if t <= 0:
        return False
    return gsw(dual_symplectic(C), t, budget) >= n - j_size + 1


# ---------------------------------------------------------------------------
# the quantum (r, delta) verifier
# ---------------------------------------------------------------------------

def _ij_all_subsets_ok(check, n: int, J: IndexSet, delta: int) -> bool:
    """check(I, J) for every I inside J with |I| = delta - 1."""
    for members in combinations(J.members, delta - 1):
        if not check(IndexSet(n, members), J):
            return False
    return True


def verify_quantum_rdelta_lrc(carrier: Union[SymplecticCode, LinearCode, CssPair],
                              form: str, r: int, delta: int,
                              certificate: Optional[LocalityCertificate] = None,
                              budget: int = DEFAULT_BUDGET) -> Verdict:
    """Certify/refute the quantum (r, delta)-LRC property of the stabilizer
    code attached to ``carrier`` under ``form``.

    The carrier is the self-orthogonal code itself (symplectic, hermitian,
    euclidean) or the dual-containing pair (C1, C2) for ``css``.  For each
    coordinate the search scans candidate sets by increasing size, then
    lexicographically; a set qualifies when the (I, J) criterion holds for
    every I of size delta - 1 inside it.
    """
    check_rdelta(r, delta)
    if form == "css":
        C1, C2 = carrier
        _require_css_pair(C1, C2)
        n = C1.n
        check = partial(ij_recoverable_css, C1, C2)
    elif form in FORMS:
        _require_self_orthogonal(carrier, form)
        n = carrier.n
        if form == "symplectic":
            check = partial(ij_recoverable, carrier)
        else:
            check = partial(_ij_recoverable_linear, carrier, form=form)
    else:
        raise BadParameters(f"unknown form {form!r}")

    # impossibility filter can rule out whole size classes (symplectic only)
    blocked_sizes = set()
    if form == "symplectic" and certificate is None:
        params = (n, n - carrier.dim)
        for size in range(delta, min(r + delta - 1, n) + 1):
            try:
                if impossibility_filter(carrier, params, delta - 1, size, budget):
                    blocked_sizes.add(size)
            except (HypothesisNotMet, BudgetExceeded):
                break

    note = (f" (sizes {sorted(blocked_sizes)} excluded by the generalized-symplectic-weight "
            "impossibility filter)" if blocked_sizes else "")
    seen: Dict[Tuple[int, ...], bool] = {}

    def qualifies(J: IndexSet) -> bool:
        # a set through several coordinates is tested once
        ok = seen.get(J.members)
        if ok is None:
            ok = seen[J.members] = _ij_all_subsets_ok(check, n, J, delta)
        return ok

    return recovery_set_verdict(n, r, delta, qualifies, certificate, budget, "set search",
                                blocked_sizes, note)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def quantum_singleton(params: Tuple[int, int, int], r: int, delta: int) -> BoundReport:
    """k + 2 d(C) + 2 (ceil((n+k)/2r) - 1)(delta - 1) <= n + 2.

    ``params`` is (n, k, d(C)) where C is the dual-containing classical code
    with dim C = (n + k)/2; hence n + k must be even.
    """
    n, k, d_c = params
    if (n + k) % 2:
        raise ParityViolation(f"n + k = {n + k} must be even")
    lhs = k + 2 * d_c + 2 * (ceil((n + k) / (2 * r)) - 1) * (delta - 1)
    rhs = n + 2
    return BoundReport("quantum-singleton", lhs, rhs, lhs == rhs,
                       (("n", n), ("k", k), ("d_C", d_c), ("r", r), ("delta", delta)))


def quantum_r_lrc_bound(params: Tuple[int, int, int], r: int) -> BoundReport:
    """k <= (1 - 2/(r+1)) n - 2 (d - 1 - ceil((d-1)/r)).

    Evaluated in exact rational arithmetic; the reported rhs is the floor,
    and the attained flag demands exact rational equality k == rhs.
    """
    n, k, d = params
    if r < 1:
        raise BadParameters("r must be >= 1")
    rhs_exact = (Fraction(r - 1, r + 1) * n
                 - 2 * (d - 1 - ceil((d - 1) / r) if d >= 1 else 0))
    attained = Fraction(k) == rhs_exact
    rhs_floor = rhs_exact.numerator // rhs_exact.denominator
    return BoundReport("quantum-r-lrc", k, rhs_floor, attained,
                       (("n", n), ("k", k), ("d", d), ("r", r),
                        ("rhs_exact", str(rhs_exact))))


# ---------------------------------------------------------------------------
# classical <-> quantum bridge
# ---------------------------------------------------------------------------

def _dual_for_form(C: LinearCode, form: str) -> LinearCode:
    if form == "hermitian":
        return dual_hermitian(C)
    if form == "euclidean":
        return dual_euclidean(C)
    raise BadParameters(f"bridge forms are hermitian/euclidean, not {form!r}")


@lru_cache(maxsize=1 << 10)
def _is_dual_containing(C: LinearCode, form: str) -> bool:
    """C contains its ``form`` dual (hermitian or euclidean)."""
    return C.contains_code(_dual_for_form(C, form))


def _dual_of_dual_containing(C: LinearCode, form: str) -> LinearCode:
    if not _is_dual_containing(C, form):
        raise NotNested(f"C must be {form} dual-containing")
    return _dual_for_form(C, form)


@dataclass(frozen=True)
class BridgeResult:
    """Outcome of relating classical and quantum (r, delta)-recoverability."""

    hypothesis_met: bool        # delta <= d(C^perp)
    d_dual: int
    via: str                    # "bridge" | "direct"
    verdict: Verdict


def bridge_classical_quantum(C: LinearCode, form: str, r: int, delta: int,
                             budget: int = DEFAULT_BUDGET,
                             certificate: Optional[LocalityCertificate] = None) -> BridgeResult:
    """Transfer the classical (r, delta) verdict for dual-containing C to the
    derived stabilizer code when delta <= d(C^perp); otherwise verify the
    quantum side directly on the dual (the stabilizer carrier).  A supplied
    certificate is checked by whichever verifier runs instead of a search.
    """
    check_rdelta(r, delta)
    dual = _dual_of_dual_containing(C, form)
    d_dual = min_distance(dual, "auto", budget)
    if delta <= d_dual:
        classical = verify_rdelta_lrc(C, r, delta, certificate, budget)
        return BridgeResult(True, d_dual, "bridge", classical)
    direct = verify_quantum_rdelta_lrc(dual, form, r, delta, certificate, budget)
    return BridgeResult(False, d_dual, "direct", direct)


def ij_recoverable_via_bridge(C: LinearCode, form: str, I: IndexSet, J: IndexSet) -> bool:
    """(I, J)-level bridge: for dual-containing C with |I| <= d(C^perp) - 1,
    the derived code is (I, J)-recoverable iff erasures at I are classically
    correctable from J minus I, i.e. sigma_I[pi_J(C)] = 0."""
    dual = _dual_of_dual_containing(C, form)
    if len(I) > min_distance(dual) - 1:
        raise HypothesisNotMet("needs |I| <= d(C^perp) - 1")
    return classical_erasure_criterion(C, I, J)


def classical_erasure_criterion(C: LinearCode, I: IndexSet, J: IndexSet) -> bool:
    """Erasures at I correctable from J \\ I iff sigma_I[pi_J(C)] = {0}."""
    _check_nesting(C.n, I, J)
    return _ij_condition(C.gen, Matrix.empty(C.field, C.n), I, J, False)


# ---------------------------------------------------------------------------
# purity and exact stabilizer distances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PurityReport:
    pure: bool
    d_code: int
    d_dual: int
    d_quantum: int          # min wt(C minus C^perp); d_code for a self-dual C


def purity_check(C: LinearCode, form: str, budget: int = DEFAULT_BUDGET) -> PurityReport:
    """Q(C) is pure iff its distance d_Q = min wt(C minus C^perp) equals d(C).

    C^perp <= C gives d(C) <= d(C^perp), and when d(C) < d(C^perp) a lightest
    word of C lies outside C^perp, so d_Q = d(C).  Otherwise d_Q is the size
    of the first erasure set S with rank C^perp[:, S] < rank C[:, S]; the
    Hermitian dual is the q-th power of the Euclidean one, which keeps ranks.
    """
    dual = _dual_of_dual_containing(C, form)
    d_code = min_distance(C, "auto", budget)
    d_dual = min_distance(dual, "auto", budget)
    d_q = d_code
    if d_code == d_dual and dual.k < C.k:
        d_q = _first_uncorrectable_size(C.n, ((C.gen, dual.gen),), False, budget)
    return PurityReport(d_q == d_code, d_code, d_dual, d_q)


def _first_uncorrectable_size(n: int, pairs, paired: bool, budget: int) -> int:
    """|S| for the first S (by size, then lexicographically) on which
    rank small[:, S] < rank big[:, S] for some (big, small) generator pair;
    ``paired`` takes the columns S and S + n.  Charges C(n, w) per size w.
    """
    def uncorrectable(S: IndexSet) -> int:
        cols = paired_columns(n, S.positions()) if paired else S.positions()
        for big, small in pairs:
            r = rank(small.submatrix_cols(cols))
            # rank big[:, cols] <= len(cols), so a full-rank small side ties
            if r < len(cols) and r < rank(big.submatrix_cols(cols)):
                return 1
        return 0

    return weight_hierarchy(n, uncorrectable, 1, budget)[0]


def stabilizer_distance_symplectic(C: SymplecticCode, budget: int = DEFAULT_BUDGET) -> int:
    """Exact distance of the stabilizer code: min swt over C^perp_s minus C,
    the size of the smallest uncorrectable erasure set."""
    _require_self_orthogonal(C, "symplectic")
    dual = dual_symplectic(C)
    if dual.dim == C.dim:
        raise BadParameters("dual equals the code (k = 0): no undetectable error")
    return _first_uncorrectable_size(C.n, ((dual.gen, C.gen),), True, budget)


def css_distance(C1: LinearCode, C2: LinearCode, budget: int = DEFAULT_BUDGET) -> int:
    """Exact CSS distance: min weight over (C1 - C2^perp_e) union (C2 - C1^perp_e).

    Scans supports by increasing size with one rank comparison per side, so
    it stays feasible when q^k is far out of reach.
    """
    _require_css_pair(C1, C2)
    if C1.k + C2.k == C1.n:
        raise BadParameters("difference sets empty (k = 0)")
    pairs = [(C1.gen, dual_euclidean(C2).gen)]
    if C2 != C1:
        pairs.append((C2.gen, dual_euclidean(C1).gen))
    return _first_uncorrectable_size(C1.n, pairs, False, budget)
