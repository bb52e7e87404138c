"""Text file formats for codes and certificates.

Code files are UTF-8 with ``#`` comments::

    q=4 p=2 m=2 poly=7
    n=7 k=4
    <k independent rows of n space-separated integer-encoded field elements>

``poly`` is the integer encoding of the field modulus (base-p digits,
including the leading 1).  Symplectic code files carry one extra header
line ``layout=symplectic n=<positions>`` right after the field line, and
their rows have 2n columns.

Writers emit the canonical generator matrix, so write -> read -> write is
byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .errors import IoError, ParseError, QlrcError
from .code import LinearCode
from .gf import GF, MAX_FIELD_SIZE, Field
from .locality import LocalityCertificate
from .symp import SymplecticCode

AnyCode = Union[LinearCode, SymplecticCode]


def _field_header(field: Field) -> str:
    return f"q={field.q} p={field.p} m={field.m} poly={field.poly_encoding}"


def _field_from_header(line: str) -> Field:
    parts = _parse_kv_line(line)
    where = f"header {line!r}"
    p, m, poly, q = (int_field(parts, key, where) for key in ("p", "m", "poly", "q"))
    # checked before GF() runs its primality and irreducibility tests
    if q > MAX_FIELD_SIZE:
        raise ParseError(f"field size q={q} exceeds the supported limit {MAX_FIELD_SIZE}")
    if not 2 <= p <= q or m > q.bit_length():        # p^m = q needs m <= log2(q)
        raise ParseError(f"inconsistent field header: q={q} p={p} m={m}")
    if not p ** m <= poly < 2 * p ** m:             # base-p digits of a monic degree-m modulus
        raise ParseError(f"poly={poly} does not encode a monic degree-{m} polynomial over GF({p})")
    digits = []
    v = poly
    for _ in range(m + 1):
        digits.append(v % p)
        v //= p
    try:
        field = GF(p, m, digits)
    except QlrcError as exc:
        raise ParseError(f"bad field header: {exc}") from exc
    if field.q != q:
        raise ParseError(f"inconsistent field header: q={q} vs p^m={field.q}")
    return field


def int_field(parts: dict, key: str, where: str) -> int:
    """``parts[key]`` as an integer, or a ParseError naming ``where``."""
    if key not in parts:
        raise ParseError(f"{where} has no {key}=")
    try:
        return int(parts[key])
    except ValueError as exc:
        raise ParseError(f"{where}: {key}={parts[key]!r} is not an integer") from exc


def _parse_kv_line(line: str) -> dict:
    out = {}
    for tok in line.split():
        if "=" not in tok:
            raise ParseError(f"malformed header token {tok!r}")
        key, val = tok.split("=", 1)
        out[key] = val
    return out


def dumps_code(code: AnyCode) -> str:
    lines = [_field_header(code.field)]
    if isinstance(code, SymplecticCode):
        lines.append(f"layout=symplectic n={code.n}")
        lines.append(f"n={2 * code.n} k={code.dim}")
    else:
        lines.append(f"n={code.n} k={code.k}")
    for row in code.gen.data:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def loads_code(text: str) -> AnyCode:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) < 2:
        raise ParseError("truncated code file")
    field = _field_from_header(lines[0])
    idx = 1
    layout = None
    if lines[idx].startswith("layout="):
        layout_parts = _parse_kv_line(lines[idx])
        layout = layout_parts["layout"]
        positions = int_field(layout_parts, "n", f"header {lines[idx]!r}")
        idx += 1
    if idx >= len(lines):
        raise ParseError("truncated code file")
    dims = _parse_kv_line(lines[idx])
    n, k = (int_field(dims, key, f"header {lines[idx]!r}") for key in ("n", "k"))
    if n < 0 or k < 0:
        raise ParseError(f"negative dimensions n={n} k={k}")
    idx += 1
    rows = []
    for ln in lines[idx:]:
        try:
            row = [int(t) for t in ln.split()]
        except ValueError as exc:
            raise ParseError(f"row {ln!r} has a non-integer entry") from exc
        if len(row) != n:
            raise ParseError(f"row has {len(row)} entries, expected {n}")
        if any(not 0 <= x < field.q for x in row):
            raise ParseError("entry out of field range")
        rows.append(row)
    if len(rows) != k:
        raise ParseError(f"expected {k} generator rows, found {len(rows)}")
    if layout == "symplectic":
        if n != 2 * positions:
            raise ParseError("symplectic file must have 2n columns")
        code = SymplecticCode.from_rows(field, rows, n=positions)
    elif layout is not None:
        raise ParseError(f"unknown layout {layout!r}")
    else:
        code = LinearCode.from_rows(field, rows, n=n)
    if code.gen.rows != k:      # the canonical generator has one row per unit of rank
        raise ParseError(f"generator rows have rank {code.gen.rows}, not k={k}")
    return code


def save_code(code: AnyCode, path: Union[str, Path]) -> None:
    try:
        Path(path).write_text(dumps_code(code), encoding="utf-8")
    except OSError as exc:
        raise IoError(str(exc)) from exc


def load_code(path: Union[str, Path]) -> AnyCode:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(str(exc)) from exc
    return loads_code(text)


def save_certificate(cert: LocalityCertificate, path: Union[str, Path]) -> None:
    try:
        Path(path).write_text(json.dumps(cert.to_json(), indent=2) + "\n",
                              encoding="utf-8")
    except OSError as exc:
        raise IoError(str(exc)) from exc


def load_certificate(path: Union[str, Path], n: int) -> LocalityCertificate:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad certificate JSON: {exc}") from exc
    return LocalityCertificate.from_json(data, n)
