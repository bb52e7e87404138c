"""Command-line front end.

Three subcommands:

* ``construct`` builds a code from a descriptor and writes it to a file,
  printing measured parameters next to the family's claimed ones.
* ``verify`` runs the classical or quantum (r, delta) verifier on a code
  file and reports the verdict, certificate, bounds, and (for quantum
  dual-containing inputs) purity and optimality labels.
* ``weights`` prints a generalized weight hierarchy.

Exit codes are a stable scripting contract: 0 certified/attained,
1 refuted, 2 inconclusive (a verdict, or a work budget that ran out
outside one; ``inconclusive: <reason>`` goes to stderr), 3 usage or input
error, 4 internal error (a bug; the traceback goes to stderr).

Descriptors::

    affine:q=<q>,n1=<n1>,n2=<n2>,delta=(rect:<i>,<j>|step2:<i>,<s>|step2s:<j>,<s>|custom:@file)
    grs:q2=<q2>,n=<n>,k=<k>
    hamming:m=<m>,q=<q>
    steane
    css:@file1,@file2

All searches are deterministic; ``--seed`` is accepted for interface
stability and recorded in reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Tuple

from . import files
from .errors import BudgetExceeded, ParseError, QlrcError, ZeroCode
from .code import (
    DEFAULT_BUDGET,
    LinearCode,
    dual_euclidean,
    generalized_hamming_weights,
    min_distance,
)
from .constructions import (
    DeltaSet,
    GridSpec,
    affine_variety_code,
    css_pair,
    delta_family,
    grs_code,
    hamming_code,
    hermitian_dc_grs_search,
    steane_symplectic,
    symplectic_quantum_params,
)
from .gf import GF, MAX_FIELD_SIZE, _prime_factors
from .locality import check_rdelta, classical_singleton, verify_rdelta_lrc
from .qlocality import (
    _is_dual_containing,
    _self_orthogonal,
    bridge_classical_quantum,
    purity_check,
    quantum_r_lrc_bound,
    quantum_singleton,
    verify_quantum_rdelta_lrc,
)
from .symp import SymplecticCode, dual_symplectic, gsw_hierarchy

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


# ---------------------------------------------------------------------------
# descriptor parsing
# ---------------------------------------------------------------------------

def _split_fields(body: str) -> dict:
    """Split 'a=1,b=2,delta=rect:3,4' honoring values that contain commas."""
    out = {}
    key = None
    for tok in body.split(","):
        if "=" in tok:
            key, val = tok.split("=", 1)
            out[key.strip()] = val.strip()
        elif key is not None:
            out[key] += "," + tok.strip()
        else:
            raise ParseError(f"malformed descriptor field {tok!r}")
    return out


def _parse_delta(desc: str, n1: int, n2: int, p: int) -> DeltaSet:
    if ":" not in desc:
        raise ParseError(f"malformed delta {desc!r}")
    kind, args = desc.split(":", 1)
    if kind == "custom":
        if not args.startswith("@"):
            raise ParseError("custom delta takes @file of 'e1 e2' lines")
        pairs = []
        for ln in Path(args[1:]).read_text(encoding="utf-8").splitlines():
            ln = ln.split("#")[0].strip()
            if ln:
                try:
                    a, b = ln.split()
                    pairs.append((int(a), int(b)))
                except ValueError as exc:
                    raise ParseError(f"custom delta line {ln!r} is not 'e1 e2'") from exc
        return DeltaSet.custom(n1, n2, pairs)
    try:
        x, y = (int(t) for t in args.split(","))
    except ValueError as exc:
        raise ParseError(f"delta {kind} needs two integers") from exc
    if kind == "rect":
        try:
            return delta_family("rect", n1, n2, p, i=x, j=y)
        except QlrcError:
            return DeltaSet.rect(n1, n2, x, y)   # bare construction, no claims
    if kind == "step2":
        return delta_family("step2", n1, n2, p, i=x, s=y)
    if kind == "step2s":
        return delta_family("step2s", n1, n2, p, j=x, s=y)
    raise ParseError(f"unknown delta family {kind!r}")


def build_from_descriptor(desc: str, hermitian_dc: bool = False,
                          budget: int = DEFAULT_BUDGET):
    """Return (code, claims dict) for a construction descriptor."""
    name, _, body = desc.partition(":")
    if hermitian_dc and name != "grs":
        raise ParseError("--hermitian-dc applies to grs: descriptors")
    where = f"{name} descriptor"
    if name == "steane":
        return steane_symplectic(), {"quantum": "[[7,1,3]]_2"}
    if name == "affine":
        kv = _split_fields(body)
        q, n1, n2 = (files.int_field(kv, key, where) for key in ("q", "n1", "n2"))
        field = GF(*_prime_power(q))
        delta = _parse_delta(kv.get("delta", ""), n1, n2, field.p)
        grid = GridSpec.build(field, n1, n2)
        code = affine_variety_code(grid, delta)
        claims = dict(delta.claims)
        out = {}
        if claims:
            out["locality"] = f"({claims['r']},{claims['delta']})"
            out["quantum"] = f"[[{claims['qn']},{claims['qk']},{claims['qd']}]]_{q}"
        return code, out
    if name == "grs":
        kv = _split_fields(body)
        q2, n, k = (files.int_field(kv, key, where) for key in ("q2", "n", "k"))
        field = GF(*_prime_power(q2))
        claims = {"mds": f"[{n},{k},{n - k + 1}]_{q2}"}
        if hermitian_dc:
            code, mult = hermitian_dc_grs_search(field, n, k, budget)
            claims["multipliers"] = str(mult)
            claims["quantum"] = f"[[{n},{2 * k - n},{n - k + 1}]]_{field.subfield_order}"
            return code, claims
        return grs_code(field, n, k), claims
    if name == "hamming":
        kv = _split_fields(body)
        m, q = (files.int_field(kv, key, where) for key in ("m", "q"))
        code = hamming_code(m, GF(*_prime_power(q)), budget)
        return code, {"classical": f"[{code.n},{code.k},3]_{q}"}
    if name == "css":
        if not body.startswith("@") or body.count(",") != 1:
            raise ParseError("css descriptor takes @file1,@file2")
        p1, p2 = body.split(",")
        C1 = files.load_code(p1.lstrip("@"))
        C2 = files.load_code(p2.lstrip("@"))
        if not isinstance(C1, LinearCode) or not isinstance(C2, LinearCode):
            raise ParseError("css inputs must be classical code files")
        S, params = css_pair(C1, C2, budget)
        return S, {"quantum": params.label() + f"_{C1.field.q}"}
    raise ParseError(f"unknown construction {name!r}")


def _prime_power(q: int) -> Tuple[int, int]:
    if q > MAX_FIELD_SIZE:
        raise ParseError(f"field size q={q} exceeds the supported limit {MAX_FIELD_SIZE}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ParseError(f"q={q} is not a prime power")
    p = factors[0]
    return p, next(m for m in range(1, q.bit_length() + 1) if p ** m == q)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _emit(args: argparse.Namespace, report: dict) -> None:
    """Write the report, stamped with the schema version, to ``--json``."""
    if args.json:
        Path(args.json).write_text(
            json.dumps({"schema": SCHEMA_VERSION, **report}, indent=2) + "\n", encoding="utf-8")


def cmd_construct(args: argparse.Namespace) -> int:
    code, claims = build_from_descriptor(args.descriptor, args.hermitian_dc, args.budget)
    files.save_code(code, args.out)
    if isinstance(code, SymplecticCode):
        print(f"wrote symplectic code: n={code.n} dim={code.dim} -> {args.out}")
        params = symplectic_quantum_params(code, args.budget)
        print(f"measured quantum parameters: {params.label()}" if params.d_is_exact
              else "stabilizer distance skipped (budget)")
    else:
        try:
            dtxt = str(min_distance(code, "auto", args.budget))
        except BudgetExceeded:
            dtxt = "?"
        print(f"wrote classical code: [{code.n},{code.k},{dtxt}]_{code.field.q} -> {args.out}")
    for key, val in claims.items():
        print(f"claimed {key}: {val}")
    _emit(args, {"descriptor": args.descriptor, "out": str(args.out), "claims": claims})
    return EXIT_OK


# Each verify step returns (verdict, bounds, report fields, header lines);
# bounds is None when the step writes no "bounds" key (CSS).

def _verify_classical(code, form, args, cert):
    if not isinstance(code, LinearCode):
        raise ParseError("classical verification needs a classical code file")
    verdict = verify_rdelta_lrc(code, args.r, args.delta, cert, args.budget)
    d = min_distance(code, "auto", args.budget)
    bounds = [classical_singleton((code.n, code.k, d), args.r, args.delta)]
    return verdict, bounds, {}, [f"classical [{code.n},{code.k},{d}]_{code.field.q}"]


def _verify_symplectic(code, form, args, cert):
    if not isinstance(code, SymplecticCode):
        raise ParseError("symplectic form needs a symplectic code file")
    verdict = verify_quantum_rdelta_lrc(code, form, args.r, args.delta, cert, args.budget)
    params = symplectic_quantum_params(code, args.budget)
    if not params.d_is_exact:
        return verdict, [], {}, [f"stabilizer code [[{code.n},{params.k},?]]_{code.field.q} "
                                 "(distance skipped: budget)"]
    bounds = [quantum_r_lrc_bound((code.n, params.k, params.d_lower), args.r + args.delta - 2)]
    return verdict, bounds, {}, [f"stabilizer code {params.label()}_{code.field.q}"]


def _verify_css(code, form, args, cert):
    if not isinstance(code, LinearCode):
        raise ParseError("css form needs classical code files")
    other = files.load_code(args.pair) if args.pair else code
    if not isinstance(other, LinearCode):
        raise ParseError("css form needs classical code files")
    verdict = verify_quantum_rdelta_lrc((code, other), form, args.r, args.delta, cert, args.budget)
    return verdict, None, {}, []


def _verify_linear(C, form, args, cert):
    """Hermitian or Euclidean: the bridge for a dual-containing code, the
    direct search for a self-orthogonal one."""
    if not isinstance(C, LinearCode):
        raise ParseError(f"{form} form needs a classical code file")
    check_rdelta(args.r, args.delta)
    if not _is_dual_containing(C, form):
        if not _self_orthogonal(C, form):
            raise QlrcError(f"code is neither {form} dual-containing nor self-orthogonal")
        verdict = verify_quantum_rdelta_lrc(C, form, args.r, args.delta, cert, args.budget)
        k_q = C.n - 2 * C.k
        return verdict, [], {"carrier": "self-orthogonal", "quantum_k": k_q}, [
            f"carrier: {form} self-orthogonal stabilizer side, quantum k = {k_q}"]
    # dual-containing input: the derived code has k = 2 dim C - n
    res = bridge_classical_quantum(C, form, args.r, args.delta, args.budget, cert)
    k_q = 2 * C.k - C.n
    pur = purity_check(C, form, args.budget)
    bounds = [quantum_singleton((C.n, k_q, pur.d_code), args.r, args.delta),
              # an (r, delta) code repairs one erasure from r + delta - 2 symbols
              quantum_r_lrc_bound((C.n, k_q, pur.d_quantum), args.r + args.delta - 2)]
    if not pur.pure:
        label = "undefined (non-pure)"
    elif res.verdict.certified and bounds[0].attained:
        label = "optimal pure"
    else:
        label = "pure, bound not attained"
    q = C.field.subfield_order if form == "hermitian" else C.field.q
    header = [f"carrier: {form} dual-containing, quantum [[{C.n},{k_q},{pur.d_quantum}]]_{q}",
              f"purity: d(C)={pur.d_code} <= d(dual)={pur.d_dual}: True" if pur.pure else
              f"purity: d(C minus dual)={pur.d_quantum} = d(C)={pur.d_code}: False",
              f"verified via: {res.via} (dual distance {res.d_dual})",
              f"optimality: {label}"]
    return res.verdict, bounds, {
        "carrier": "dual-containing", "via": res.via, "quantum_k": k_q,
        "purity": {"pure": pur.pure, "d_code": pur.d_code, "d_dual": pur.d_dual,
                   **({} if pur.pure else {"d_quantum": pur.d_quantum})},
        "optimality": label}, header


def cmd_verify(args: argparse.Namespace) -> int:
    if args.mode == "classical" and args.form:
        raise ParseError("--form applies to --mode quantum")
    if args.pair and args.form != "css":
        raise ParseError("--pair applies to --form css")
    code = files.load_code(args.code)
    cert = files.load_certificate(args.certificate, code.n) if args.certificate else None
    form = args.form
    if args.mode == "classical":
        step = _verify_classical
    else:
        form = form or ("symplectic" if isinstance(code, SymplecticCode) else "euclidean")
        step = {"symplectic": _verify_symplectic, "css": _verify_css}.get(form, _verify_linear)
    verdict, bounds, fields, header = step(code, form, args, cert)
    report = {"mode": args.mode, "form": form, "r": args.r, "delta": args.delta,
              "seed": args.seed, **fields}
    for line in header:
        print(line)
    if bounds is not None:
        report["bounds"] = [b.to_json() for b in bounds]
        for b in bounds:
            print(f"  bound {b.name}: lhs={b.lhs} rhs={b.rhs} "
                  f"({'attained' if b.attained else 'not attained'})")
    report["verdict"] = verdict.status
    if verdict.certificate is not None:
        report["certificate"] = verdict.certificate.to_json()
    if verdict.reason:
        report["reason"] = verdict.reason
    print(f"verdict: {verdict.status}" + (f" ({verdict.reason})" if verdict.reason else ""))
    _emit(args, report)
    return {"certified": EXIT_OK, "refuted": EXIT_REFUTED,
            "inconclusive": EXIT_INCONCLUSIVE}[verdict.status]


def cmd_weights(args: argparse.Namespace) -> int:
    code = files.load_code(args.code)
    if args.kind == "gsw":
        if not isinstance(code, SymplecticCode):
            raise ParseError("gsw needs a symplectic code file")
        C = dual_symplectic(code) if args.dual else code
        dim, hierarchy = C.dim, gsw_hierarchy
    else:
        if not isinstance(code, LinearCode):
            raise ParseError("ghw needs a classical code file")
        C = dual_euclidean(code) if args.dual else code
        dim, hierarchy = C.k, generalized_hamming_weights
    if dim == 0:
        raise ZeroCode("the zero code has no weight hierarchy")
    hier = hierarchy(C, dim if args.t_max is None else args.t_max, args.budget)
    label = f"{args.kind}{'(dual)' if args.dual else ''}"
    print(f"{label} hierarchy: {hier}")
    _emit(args, {"kind": args.kind, "dual": args.dual, "hierarchy": list(hier)})
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET,
                    help="work-unit cap (at least 1): one unit per codeword or "
                         "information-set message enumerated, subset scanned, "
                         "erasure-pattern check ((I, J) pair) of a set search, union "
                         "of light dual supports formed, or generator entry (k * n) "
                         "of a Hamming construction")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed echoed into reports (searches are deterministic)")
    sp.add_argument("--json", metavar="PATH", default=None,
                    help="also write the report as JSON")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qlrc",
        description="construct, verify, and bound classical/quantum "
                    "locally recoverable stabilizer codes")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("construct", help="build a code and write it to a file")
    sp.add_argument("descriptor")
    sp.add_argument("--out", "-o", required=True)
    sp.add_argument("--hermitian-dc", action="store_true",
                    help="search GRS multipliers for a Hermitian dual-containing code "
                         "(grs: descriptors only)")
    _add_common(sp)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("verify", help="run the (r, delta) verifier on a code file")
    sp.add_argument("code")
    sp.add_argument("--mode", choices=("classical", "quantum"), default="classical")
    sp.add_argument("--form", choices=("symplectic", "hermitian", "euclidean", "css"),
                    default=None, help="inner-product form for --mode quantum")
    sp.add_argument("-r", type=int, required=True)
    sp.add_argument("-d", "--delta", type=int, required=True, dest="delta")
    sp.add_argument("--certificate", default=None,
                    help="check this certificate instead of searching")
    sp.add_argument("--pair", default=None, help="second code file for --form css")
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("weights", help="print a generalized weight hierarchy")
    sp.add_argument("code")
    sp.add_argument("--kind", choices=("ghw", "gsw"), required=True)
    sp.add_argument("--t-max", type=int, default=None)
    sp.add_argument("--dual", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=cmd_weights)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except QlrcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        import traceback        # only on this path; keeps start-up lean

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
