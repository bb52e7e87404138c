"""Exact arithmetic in GF(p) and GF(p^m).

Elements are encoded as integers in ``[0, q)``: the integer is the base-p
little-endian value of the coefficient vector of the polynomial residue.
The all-zero vector encodes 0 and (1,0,...,0) encodes 1, so the additive
and multiplicative identities are the integers 0 and 1.  All exhaustive
loops over a field enumerate elements in ascending integer encoding.

A :class:`Field` does arithmetic directly on the integer encodings, which
is what every other layer uses.  This is the only module that tabulates
field arithmetic: extension fields up to q = 2^12 keep log/exp tables,
and fields with q <= 2^8 also expose add/mul/neg/inv lookup tables indexed
by encoding (:meth:`Field.tables`), built on first use, for the row
operations of the matrix layer.  Numpy arrays of encodings are summed
without a table (:meth:`Field.add_arrays`): xor for p = 2, base-p digits
otherwise.

The modulus used for GF(p^m) is the lexicographically smallest monic
irreducible polynomial of degree m over GF(p) (smallest integer encoding),
unless an explicit one is supplied.  The choice is deterministic so element
encodings are stable across runs and file formats.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    DivisionByZero,
    NonPrimeP,
    NotAQuadraticExtension,
    ReduciblePolynomial,
    UnsupportedSize,
)

MAX_FIELD_SIZE = 1 << 20      # largest q for which a modulus is auto-supplied
_TABLE_LIMIT = 1 << 12        # build log/exp tables for extension fields up to this q
LOOKUP_LIMIT = 1 << 8         # largest q with add/mul/neg/inv lookup tables


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p); a polynomial is a list of ints (little-endian)
# ---------------------------------------------------------------------------

def _poly_trim(a: Sequence[int]) -> list[int]:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    a = [x % p for x in a]
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c == 0:
            continue
        factor = (c * inv_lead) % p
        for j, mj in enumerate(mod):
            a[i - dm + j] = (a[i - dm + j] - factor * mj) % p
    return _poly_trim(a[:dm]) if dm > 0 else []


def _poly_mul_mod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, mod, p)


def _poly_pow_mod(a: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(a, mod, p)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, mod, p)
        base = _poly_mul_mod(base, base, mod, p)
        e >>= 1
    return result


def _poly_sub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return _poly_trim([(x - y) % p for x, y in zip(a, b)])


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Rabin irreducibility test for a monic polynomial over GF(p).

    Checks x^(p^m) == x (mod poly) and gcd(x^(p^(m/l)) - x, poly) == 1 for
    every prime l dividing m.  Subsumes the root checks over every proper
    subfield.
    """
    poly = list(poly)
    m = len(poly) - 1
    if m < 1 or poly[-1] % p != 1:
        return False
    if m == 1:
        return True
    x = [0, 1]
    if _poly_sub(_poly_pow_mod(x, p ** m, poly, p), x, p):
        return False
    for ell in _prime_factors(m):
        h = _poly_pow_mod(x, p ** (m // ell), poly, p)
        g = _poly_gcd(poly, _poly_sub(h, x, p), p)
        if len(g) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def smallest_irreducible(p: int, m: int) -> Tuple[int, ...]:
    """Monic irreducible of degree m over GF(p) with smallest integer encoding."""
    if m == 1:
        return (0, 1)
    for enc in range(p ** m):
        coeffs = []
        v = enc
        for _ in range(m):
            coeffs.append(v % p)
            v //= p
        poly = coeffs + [1]
        if is_irreducible(poly, p):
            return tuple(poly)
    raise UnsupportedSize(f"no irreducible polynomial found for GF({p}^{m})")


# ---------------------------------------------------------------------------
# Field
# ---------------------------------------------------------------------------

class FieldTables(NamedTuple):
    """Lookup tables indexed by integer encoding: ``add[a][b]``,
    ``mul[a][b]``, ``neg[a]`` and ``inv[a]`` (``inv[0]`` is 0, a
    placeholder: zero has no inverse)."""

    add: Tuple[Tuple[int, ...], ...]
    mul: Tuple[Tuple[int, ...], ...]
    neg: Tuple[int, ...]
    inv: Tuple[int, ...]


class Field:
    """GF(p^m) with arithmetic on integer-encoded elements.

    Use :func:`GF` to obtain instances; it caches one object per
    (p, m, modulus) so fields compare by identity.
    """

    __slots__ = ("p", "m", "q", "irreducible", "_exp", "_log", "_hash", "_tables")

    def __init__(self, p: int, m: int = 1, irreducible: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise NonPrimeP(f"p={p} is not prime")
        if m < 1:
            raise ReduciblePolynomial(f"extension degree m={m} must be >= 1")
        q = p ** m
        if irreducible is None:
            if q > MAX_FIELD_SIZE:
                raise UnsupportedSize(
                    f"GF({p}^{m}) exceeds the built-in table limit {MAX_FIELD_SIZE}; "
                    "supply an irreducible polynomial")
            irreducible = smallest_irreducible(p, m)
        irreducible = tuple(int(c) % p for c in irreducible[:-1]) + (int(irreducible[-1]),)
        if len(irreducible) != m + 1 or irreducible[-1] != 1:
            raise ReduciblePolynomial(
                f"modulus must be monic of degree {m}, got {irreducible}")
        if m > 1 and not is_irreducible(irreducible, p):
            raise ReduciblePolynomial(f"{irreducible} is reducible over GF({p})")
        self.p = p
        self.m = m
        self.q = q
        # every monic x + c gives GF(p) the same encodings and arithmetic
        self.irreducible = irreducible if m > 1 else (0, 1)
        self._exp: Optional[list[int]] = None
        self._log: Optional[list[int]] = None
        self._hash = hash((p, m, self.irreducible))
        self._tables: Optional[FieldTables] = None
        if m > 1 and q <= _TABLE_LIMIT:
            self._build_tables()

    # -- identity / display --

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Field) and self.p == other.p
                and self.m == other.m and self.irreducible == other.irreducible)

    def __hash__(self) -> int:
        return self._hash

    @property
    def poly_encoding(self) -> int:
        """Integer encoding of the modulus (base-p, including the leading 1)."""
        return sum(c * self.p ** i for i, c in enumerate(self.irreducible))

    # -- encoding helpers --

    def coeffs(self, a: int) -> Tuple[int, ...]:
        """Little-endian coefficient vector of the encoded element a."""
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def encode(self, coeffs: Sequence[int]) -> int:
        return sum((c % self.p) * self.p ** i for i, c in enumerate(coeffs))

    def elements(self) -> Iterator[int]:
        return iter(range(self.q))

    # -- arithmetic on integer encodings --

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        while a or b:
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        mult = 1
        while a:
            out += ((-a) % p) * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._slow_mul(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        if self._exp is not None:
            return self._exp[(self.q - 1) - self._log[a]] if self._log[a] else 1
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.m == 1:
            return pow(a, e, self.p)
        if a == 0:
            return 0 if e else 1
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % (self.q - 1)]
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a: int, t: int = 1) -> int:
        """a raised to p^t (the t-fold Frobenius)."""
        if t < 0:
            raise ValueError("t must be >= 0")
        return self.pow(a, self.p ** (t % self.m if self.m > 1 else 1)) if t else a

    def conj(self, a: int) -> int:
        """Conjugation a -> a^(p^(m/2)) used by the Hermitian product."""
        if self.m % 2:
            raise NotAQuadraticExtension(f"{self!r} has odd extension degree")
        return self.frobenius(a, self.m // 2)

    @property
    def subfield_order(self) -> int:
        """Order of the index-2 subfield (valid when m is even)."""
        if self.m % 2:
            raise NotAQuadraticExtension(f"{self!r} has odd extension degree")
        return self.p ** (self.m // 2)

    # -- numpy arrays of encodings --

    def array_dtype(self):
        """The least unsigned numpy dtype holding q - 1, or 2(q - 1) for odd p."""
        import numpy as np

        return np.min_scalar_type(self.q - 1 if self.p == 2 else 2 * (self.q - 1))

    def add_arrays(self, a, b):
        """Entrywise sum of two broadcastable arrays of dtype :meth:`array_dtype`:
        xor for p = 2, else a + b less p^(i+1) for each digit i where the
        base-p digits of a and b sum to p or more."""
        if self.p == 2:
            return a ^ b
        p, s, unit = self.p, a + b, 1
        for _ in range(self.m):
            s -= (a // unit % p + b // unit % p >= p) * s.dtype.type(p * unit)
            unit *= p
        return s

    # -- lookup tables --

    def tables(self) -> Optional[FieldTables]:
        """The lookup tables of this field, built on first use; None when
        q exceeds :data:`LOOKUP_LIMIT`."""
        if self._tables is None and self.q <= LOOKUP_LIMIT:
            self._tables = self._build_lookup()
        return self._tables

    def _build_lookup(self) -> FieldTables:
        p, q = self.p, self.q
        # a + b digit by digit: the low base-p digit, plus p times the sum of
        # the higher digits, which is an earlier row (a // p < a)
        add = [tuple(range(q))]
        for a in range(1, q):
            high = add[a // p]
            add.append(tuple((a + b) % p + p * high[b // p] for b in range(q)))
        if self.m == 1:
            mul = [tuple(a * b % p for b in range(q)) for a in range(q)]
        else:
            exp, log = self._exp, self._log
            mul = [(0,) * q] + [(0,) + tuple(exp[log[a] + log[b]] for b in range(1, q))
                                for a in range(1, q)]
        neg = tuple(row.index(0) for row in add)
        inv = (0,) + tuple(mul[a].index(1) for a in range(1, q))
        return FieldTables(tuple(add), tuple(mul), neg, inv)

    def _build_tables(self) -> None:
        # log/exp over a multiplicative generator; generator = element with
        # order q-1 and smallest encoding (deterministic).
        q = self.q
        for g in range(2, q):
            val = g
            order = 1
            while val != 1:
                val = self._slow_mul(val, g)
                order += 1
                if order > q:  # safety
                    break
            if order == q - 1:
                break
        else:  # pragma: no cover - every field has a generator
            raise ReduciblePolynomial("no multiplicative generator found")
        exp = [0] * (2 * (q - 1))
        log = [0] * q
        val = 1
        for i in range(q - 1):
            exp[i] = val
            exp[i + q - 1] = val
            log[val] = i
            val = self._slow_mul(val, g)
        self._exp, self._log = exp, log

    def _slow_mul(self, a: int, b: int) -> int:
        prod = _poly_mul_mod(self.coeffs(a), self.coeffs(b), self.irreducible, self.p)
        return self.encode(prod + [0] * (self.m - len(prod)))


@lru_cache(maxsize=None)
def _field_cache(p: int, m: int, irreducible: Optional[Tuple[int, ...]]) -> Field:
    return Field(p, m, irreducible)


def GF(p: int, m: int = 1, irreducible: Optional[Sequence[int]] = None) -> Field:
    """Return the (cached) field GF(p^m).

    When ``irreducible`` is omitted the lexicographically smallest monic
    irreducible of degree m is used, so repeated calls return the same
    object and element encodings are reproducible.  Any supplied degree-1
    modulus is checked and then gives the one GF(p).
    """
    field = _field_cache(p, m, tuple(irreducible) if irreducible is not None else None)
    return _field_cache(p, 1, None) if m == 1 else field
