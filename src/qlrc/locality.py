"""Classical (r, delta)-local recoverability.

A coordinate i is (r, delta)-recoverable through a set J containing i when
|J| <= r + delta - 1 and the punctured code at J has minimum distance at
least delta; then any delta - 1 erasures inside J can be repaired from the
rest of J.  No punctured code is built: pi_J(C) has a nonzero word
supported inside E iff dim sigma_E[pi_J(C)] = rank C[:, J] - rank C[:, J \\ E]
is positive, so d(pi_J(C)) >= delta iff rank C[:, J] > 0 and no delta - 1
deletions from J lower it.  The verifier either checks a supplied
certificate or searches for one, and distinguishes three outcomes:

* Certified     - a certificate was found/validated (it is returned),
* Refuted       - the search space was provably exhausted for some i,
* Inconclusive  - the work budget ran out before either of the above.

For delta = 2 the search is driven by low-weight dual codewords: a minimal
recovery set containing i is exactly the support of a minimum-weight dual
word that is nonzero at i (when the code has no identically-zero column),
which keeps the certified sets identical to a plain increasing-size
lexicographic subset scan.  The dual words of weight <= r + 1 are listed by
information sets (:func:`~qlrc.code.light_word_blocks`), not by enumerating
all of the dual, so the table costs a few hundred messages at lengths 49 to 81.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil, comb
from typing import Callable, Collection, Dict, Optional, Tuple

from .errors import (
    BadParameters,
    BudgetExceeded,
    IndexInR,
    IndexNotInJ,
    ParseError,
)
from .code import (
    DEFAULT_BUDGET,
    IndexSet,
    LinearCode,
    dual_euclidean,
    light_word_blocks,
)
from .matrix import rank_of_columns


# ---------------------------------------------------------------------------
# certificates / reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalityCertificate:
    """Per-coordinate recovery sets J_i with i in J_i and |J_i| <= r+delta-1."""

    n: int
    r: int
    delta: int
    sets: Tuple[Tuple[int, IndexSet], ...]   # ((i, J_i), ...) sorted by i

    @staticmethod
    def of(n: int, r: int, delta: int, sets: Dict[int, IndexSet]) -> "LocalityCertificate":
        if sorted(sets) != list(range(1, n + 1)):
            raise BadParameters("certificate must cover every coordinate 1..n")
        for i, J in sets.items():
            if i not in J:
                raise IndexNotInJ(f"coordinate {i} not inside its set {J}")
            if len(J) > r + delta - 1:
                raise BadParameters(f"|J_{i}| = {len(J)} exceeds r+delta-1 = {r + delta - 1}")
        return LocalityCertificate(n, r, delta, tuple(sorted(sets.items())))

    def mismatch(self, n: int, r: int, delta: int) -> Optional[str]:
        """Why this certificate cannot certify a length-n code as an
        (r, delta)-LRC without checking its sets, or None."""
        if self.n != n:
            return "certificate length does not match the code"
        if (self.r, self.delta) != (r, delta):
            return (f"certificate is for (r, delta) = ({self.r}, {self.delta}), "
                    f"not ({r}, {delta})")
        return None

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "delta": self.delta,
            "sets": {str(i): list(J.members) for i, J in self.sets},
        }

    @staticmethod
    def from_json(data: dict, n: Optional[int] = None) -> "LocalityCertificate":
        """Read :meth:`to_json` output: r, delta and set members must be
        JSON integers (not bools), each set a duplicate-free list and each
        key a decimal integer as :meth:`to_json` writes it, or ParseError."""
        def integer(x, what: str) -> int:
            if type(x) is not int:
                raise ParseError(f"certificate {what} {x!r} is not an integer")
            return x

        try:
            sets_raw = {int(i): members for i, members in data["sets"].items()}
            r, delta = integer(data["r"], "r"), integer(data["delta"], "delta")
            for key, members in data["sets"].items():
                if str(int(key)) != key:
                    raise ParseError(f"certificate set key {key!r} is not a decimal integer")
                if not isinstance(members, list):
                    raise ParseError(f"certificate set {members!r} is not a list")
                for x in members:
                    integer(x, "set member")
                if len(set(members)) != len(members):
                    raise ParseError(f"certificate set {members!r} repeats a member")
            if n is None:
                n = max(sets_raw) if sets_raw else 0
            sets = {i: IndexSet.of(n, members) for i, members in sets_raw.items()}
        except KeyError as exc:
            raise ParseError(f"certificate has no {exc.args[0]!r} entry") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed certificate: {exc}") from exc
        return LocalityCertificate.of(n, r, delta, sets)


@dataclass(frozen=True)
class BoundReport:
    """A Singleton-like bound evaluation: attained iff lhs meets rhs."""

    name: str                 # classical-singleton | quantum-singleton | quantum-r-lrc
    lhs: int
    rhs: int
    attained: bool
    inputs: Tuple[Tuple[str, object], ...] = ()

    def to_json(self) -> dict:
        return {
            "bound": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "attained": self.attained,
            "inputs": dict(self.inputs),
        }


@dataclass(frozen=True)
class Verdict:
    """Outcome of an (r, delta) verification."""

    status: str                                  # certified | refuted | inconclusive
    certificate: Optional[LocalityCertificate] = None
    reason: str = ""

    @property
    def certified(self) -> bool:
        return self.status == "certified"


# ---------------------------------------------------------------------------
# recovery-set predicates
# ---------------------------------------------------------------------------

def punctured_distance_at_least(C: LinearCode, J: IndexSet, delta: int) -> bool:
    """True iff the punctured code at J is nonzero with distance >= delta:
    rank C[:, J] > 0 and no delta - 1 deletions from J lower it."""
    cols = J.positions()
    full = rank_of_columns(C.gen, cols)
    return full > 0 and len(cols) >= delta and all(
        rank_of_columns(C.gen, kept) == full for kept in combinations(cols, len(cols) - delta + 1))


def is_recovery_set(C: LinearCode, i: int, R: IndexSet) -> bool:
    """R repairs an erasure at i iff d of the code punctured at R+{i} is >= 2."""
    if i in R:
        raise IndexInR(f"index {i} must lie outside R")
    return punctured_distance_at_least(C, R.union(IndexSet.of(C.n, [i])), 2)


def is_rdelta_recovery_set(C: LinearCode, i: int, J: IndexSet, delta: int) -> bool:
    """J is an (r, delta)-recovery set for i iff i in J and d(pi_J(C)) >= delta."""
    if i not in J:
        raise IndexNotInJ(f"index {i} must belong to J")
    if delta < 2:
        raise BadParameters("delta must be >= 2")
    return punctured_distance_at_least(C, J, delta)


# ---------------------------------------------------------------------------
# dual-word search (delta = 2)
# ---------------------------------------------------------------------------

def _has_zero_column(C: LinearCode) -> bool:
    return any(not any(C.gen.column(j)) for j in range(C.n))


def _dual_support_table(C: LinearCode, max_weight: int,
                        budget: int) -> Optional[Dict[int, Tuple[int, Tuple[int, ...]]]]:
    """For each coordinate i, the (weight, support) of the best dual word
    through i with weight <= max_weight; None when finding the dual words of
    weight <= max_weight (:func:`~qlrc.code.light_word_blocks`) is over budget.

    Best = smallest weight, ties broken by lexicographically smallest
    support, matching an increasing-size lexicographic subset scan.
    """
    best: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
    try:
        for light in light_word_blocks(dual_euclidean(C), max_weight, budget):
            for row in light != 0:
                supp = tuple(int(j) + 1 for j in row.nonzero()[0])
                for i in supp:
                    cur = best.get(i)
                    if cur is None or (len(supp), supp) < cur:
                        best[i] = (len(supp), supp)
    except BudgetExceeded:
        return None
    return best


# ---------------------------------------------------------------------------
# the verifier
# ---------------------------------------------------------------------------

def verify_rdelta_lrc(C: LinearCode, r: int, delta: int,
                      certificate: Optional[LocalityCertificate] = None,
                      budget: int = DEFAULT_BUDGET) -> Verdict:
    """Certify, refute, or give up on C being an (r, delta)-LRC."""
    if r < 1 or delta < 2:
        raise BadParameters(f"need r >= 1 and delta >= 2, got ({r}, {delta})")
    if certificate is not None:
        reason = certificate.mismatch(C.n, r, delta)
        if reason:
            return Verdict("refuted", reason=reason)
        for i, J in certificate.sets:
            if len(J) > r + delta - 1:
                return Verdict("refuted",
                               reason=f"certified set for coordinate {i} exceeds r+delta-1")
            if not is_rdelta_recovery_set(C, i, J, delta):
                return Verdict("refuted",
                               reason=f"certified set for coordinate {i} fails the distance check")
        return Verdict("certified", certificate)

    max_size = min(r + delta - 1, C.n)
    if max_size < delta:
        return Verdict("refuted", reason="r+delta-1 below the minimum set size delta")

    if delta == 2 and not _has_zero_column(C):
        table = _dual_support_table(C, max_size, budget)
        if table is not None:
            sets: Dict[int, IndexSet] = {}
            for i in range(1, C.n + 1):
                hit = table.get(i)
                if hit is None:
                    return Verdict(
                        "refuted",
                        reason=f"no recovery set of size <= {max_size} exists for coordinate {i}")
                sets[i] = IndexSet.of(C.n, hit[1])
            cert = LocalityCertificate.of(C.n, r, delta, sets)
            return Verdict("certified", cert)
        # too many dual messages; fall through to the subset scan

    return scan_recovery_sets(C.n, r, delta, max_size,
                              lambda J: punctured_distance_at_least(C, J, delta),
                              budget, "subset search")


def scan_recovery_sets(n: int, r: int, delta: int, max_size: int,
                       qualifies: Callable[[IndexSet], bool], budget: int, search: str,
                       skip: Collection[int] = (), note: str = "") -> Verdict:
    """Per coordinate i, the first J through i that ``qualifies``, scanning
    sizes delta..max_size (minus ``skip``) and then lexicographically.

    A size class is charged before its scan, one unit per erasure pattern:
    C(n-1, size-1) sets through i times C(size, delta-1) patterns each.
    ``search`` names the scan in the inconclusive reason, and ``note`` is
    appended to the refuted one.
    """
    work = 0
    sets: Dict[int, IndexSet] = {}
    for i in range(1, n + 1):
        others = [j for j in range(1, n + 1) if j != i]
        found = None
        for size in range(delta, max_size + 1):
            if size in skip:
                continue
            work += comb(n - 1, size - 1) * comb(size, delta - 1)
            if work > budget:
                return Verdict("inconclusive",
                               reason=f"budget {budget} exhausted during {search}")
            for rest in combinations(others, size - 1):
                J = IndexSet.of(n, (i,) + rest)
                if qualifies(J):
                    found = J
                    break
            if found is not None:
                break
        if found is None:
            return Verdict("refuted", reason=f"all sets of size <= {max_size} "
                                             f"through coordinate {i} fail{note}")
        sets[i] = found
    return Verdict("certified", LocalityCertificate.of(n, r, delta, sets))


# ---------------------------------------------------------------------------
# bounds and filters
# ---------------------------------------------------------------------------

def classical_singleton(params: Tuple[int, int, int], r: int, delta: int) -> BoundReport:
    """k + d + (ceil(k/r) - 1)(delta - 1) <= n + 1."""
    n, k, d = params
    lhs = k + d + (ceil(k / r) - 1) * (delta - 1)
    rhs = n + 1
    return BoundReport("classical-singleton", lhs, rhs, lhs == rhs,
                       (("n", n), ("k", k), ("d", d), ("r", r), ("delta", delta)))


def ghw_locality_filter(C: LinearCode, r: int, delta: int,
                        budget: int = DEFAULT_BUDGET) -> bool:
    """Necessary condition r + delta >= w_{delta-1}(dual) + 1.

    False certifies that C cannot be an (r, delta)-LRC; True decides nothing.
    """
    dual = dual_euclidean(C)
    if not 2 <= delta <= dual.k + 1:
        raise BadParameters(f"delta={delta} outside 2..{dual.k + 1}")
    from .code import generalized_hamming_weights

    omega = generalized_hamming_weights(dual, delta - 1, budget)[delta - 2]
    return r + delta >= omega + 1
