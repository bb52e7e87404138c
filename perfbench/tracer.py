"""Span tracing and field-op counting, installed into ``qlrc`` from outside.

Runs inside a worker process.  :class:`SpanTracer` replaces the public
functions of each layer, in every ``qlrc`` module that holds a reference to
them, with wrappers that record a span (name, start, end, parent).  The
codeword generators get one span per ``next()``, so enumeration time is
measured apart from the consumer's work between words.  :class:`GfCounter`
counts ``Field`` arithmetic calls in a separate pass, because wrapping
millions of tiny calls would distort every other layer's self time.

Only the benchmark's own files are touched; nothing here changes results.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional

# Functions wrapped per layer.  ``_ij_recoverable_linear`` is the body of the
# Euclidean and Hermitian (I, J) criteria; the quantum verifier calls it
# directly, so it is the only way to see those checks from outside.
WRAPPED = {
    "matrix": ("rref", "rank", "row_space_canonical", "kernel", "solve", "subspace_equal",
               "in_row_space", "intersect_row_spaces"),
    "code": ("dual_euclidean", "dual_hermitian", "puncture", "shorten", "min_weight_enumerate",
             "min_weight_dependency", "min_distance", "distance_witness",
             "generalized_hamming_weights"),
    "symp": ("dual_symplectic", "is_self_orthogonal", "puncture_paired", "shorten_paired",
             "min_symplectic_weight", "gsw", "gsw_hierarchy", "css_product",
             "max_isotropic_extension"),
    "locality": ("punctured_distance_at_least", "is_recovery_set", "is_rdelta_recovery_set",
                 "verify_rdelta_lrc", "classical_singleton", "ghw_locality_filter"),
    "qlocality": ("corrects_erasures_at", "ij_recoverable", "_ij_recoverable_linear",
                  "ij_recoverable_hermitian", "ij_recoverable_euclidean", "ij_recoverable_css",
                  "sufficient_filter", "impossibility_filter", "verify_quantum_rdelta_lrc",
                  "quantum_singleton", "quantum_r_lrc_bound", "bridge_classical_quantum",
                  "ij_recoverable_via_bridge", "classical_erasure_criterion", "purity_check",
                  "stabilizer_distance_symplectic", "css_distance"),
    "constructions": ("delta_family", "affine_variety_code", "grs_code",
                      "hermitian_dc_grs_search", "hamming_code", "steane_symplectic",
                      "css_pair", "symplectic_quantum_params"),
    "oracle": ("erasure_decode", "symplectic_erasure_decode", "exhaustive_ij_check"),
    "files": ("dumps_code", "loads_code", "save_code", "load_code", "save_certificate",
              "load_certificate"),
    "cli": ("main",),
}

# lru_cache'd functions whose cache_info deltas give the hit ratios.
CACHES = {
    "code": ("dual_euclidean", "dual_hermitian", "puncture", "shorten"),
    "symp": ("dual_symplectic", "puncture_paired", "shorten_paired"),
}

GF_METHODS = ("add", "sub", "neg", "mul", "inv", "pow")

# Position of the path argument of the file functions, for the bytes count.
FILE_PATH_ARG = {"files.load_code": 0, "files.load_certificate": 0, "files.save_code": 1,
                 "files.save_certificate": 1}

SMALL_RREF_CELLS = 84          # 6 x 14, the measured numpy break-even shape

# Span groups whose outermost spans give a layer's busy time.
GROUPS = {
    "min_distance": ("code.min_distance",),
    "puncture_shorten": ("code.puncture", "code.shorten"),
    "locality_verify": ("locality.verify_rdelta_lrc",),
    "ij": ("qlocality.ij_recoverable", "qlocality._ij_recoverable_linear",
           "qlocality.ij_recoverable_hermitian", "qlocality.ij_recoverable_euclidean",
           "qlocality.ij_recoverable_css", "qlocality.ij_recoverable_via_bridge",
           "qlocality.classical_erasure_criterion"),
    "filter": ("qlocality.impossibility_filter", "qlocality.sufficient_filter"),
    "bridge": ("qlocality.bridge_classical_quantum",),
    "purity": ("qlocality.purity_check",),
    "gsw": ("symp.gsw", "symp.gsw_hierarchy"),
    "oracle": tuple(f"oracle.{f}" for f in WRAPPED["oracle"]),
    "constructions": tuple(f"constructions.{f}" for f in WRAPPED["constructions"]),
    "files_load": ("files.load_code", "files.loads_code", "files.load_certificate"),
    "files_save": ("files.save_code", "files.dumps_code", "files.save_certificate"),
    "sets": ("locality.punctured_distance_at_least",),
}
# Groups whose outermost spans' boolean results are tallied (yield ratios).
YIELD_GROUPS = ("ij", "sets")


def _qlrc_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qlrc" or name.startswith("qlrc."))]


def _replace_everywhere(original, replacement) -> None:
    for mod in _qlrc_modules():
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class SpanTracer:
    """Records spans around the layer boundaries of ``qlrc``."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_id: Dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.result = array("b")          # 1 true, 0 false, -1 not a bool
        self.stack: List[int] = []
        self.counters: Dict[str, float] = {}
        self.cache_fns: Dict[str, list] = {layer: [] for layer in CACHES}

    # -- installation --

    def install(self) -> None:
        hooks = {"matrix.rref": self._count_rref, "oracle.exhaustive_ij_check": self._count_span}
        for layer, funcs in WRAPPED.items():
            mod = importlib.import_module(f"qlrc.{layer}")
            for fname in funcs:
                original = getattr(mod, fname)
                if fname in CACHES.get(layer, ()):
                    self.cache_fns[layer].append(original)
                name = f"{layer}.{fname}"
                _replace_everywhere(original, self._span_wrapper(name, original, hooks.get(name)))
        code = importlib.import_module("qlrc.code")
        original = code.iter_codeword_blocks
        _replace_everywhere(original, self._generator_wrapper(original, lambda item: len(item[1])))
        code.LinearCode.codewords = self._generator_wrapper(code.LinearCode.codewords,
                                                            lambda item: 1)

    def _count_rref(self, M) -> None:
        cells = M.rows * M.cols
        self._add("rref_cells", cells)
        if cells <= SMALL_RREF_CELLS:
            self._add("rref_small", 1)

    def _count_span(self, C, *_rest) -> None:
        self._add("span_words", C.field.q ** C.dim)

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.result.append(-1)
        self.stack.append(idx)
        return idx

    def _span_wrapper(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        nid = self._nid(name)
        path_arg = FILE_PATH_ARG.get(name)

        def traced(*args, **kwargs):
            if hook is not None:
                hook(*args)
            idx = self._open(nid)
            t = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.start[idx] = t
                self.stack.pop()
            if out is True or out is False:
                self.result[idx] = int(out)
            if path_arg is not None and len(args) > path_arg:
                self._add("file_bytes", _path_size(args[path_arg]))
            return out

        traced.__wrapped__ = fn
        return traced

    def _generator_wrapper(self, genfn: Callable, count: Callable) -> Callable:
        nid = self._nid("code.enum")

        def traced(*args, **kwargs):
            it = genfn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                t = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end[idx] = perf_counter()
                    self.start[idx] = t
                    self.stack.pop()
                self._add("enum_words", count(item))
                yield item

        return traced

    # -- reading out --

    def cache_snapshot(self) -> Dict[str, List[int]]:
        out = {}
        for layer, fns in self.cache_fns.items():
            hits = misses = 0
            for fn in fns:
                info = fn.cache_info()
                hits += info.hits
                misses += info.misses
            out[layer] = [hits, misses]
        return out

    def mark(self) -> int:
        return len(self.name_of)

    def summarize(self, lo: int, hi: int) -> Dict[str, float]:
        """Additive counters for the spans recorded in [lo, hi)."""
        names = self.names
        child = [0.0] * (hi - lo)
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += dur[i - lo]
        out: Dict[str, float] = {}

        def add(key: str, value: float) -> None:
            out[key] = out.get(key, 0) + value

        group_of = {}
        for g, members in GROUPS.items():
            for m in members:
                group_of.setdefault(m, []).append(g)
        for i in range(lo, hi):
            name = names[self.name_of[i]]
            d = dur[i - lo]
            add(f"calls:{name}", 1)
            add(f"self:{name.split('.')[0]}", d - child[i - lo])
            if name == "matrix.kernel" and self.parent[i] >= lo and \
                    names[self.name_of[self.parent[i]]] == "code.min_weight_dependency":
                add("dependency_kernels", 1)
            if name == "code.enum":
                add("enum_s", d)
            for g in group_of.get(name, ()):
                if self._outermost(i, lo, GROUPS[g]):
                    add(f"outer:{g}", d)
                    add(f"outer_calls:{g}", 1)
                    if g in YIELD_GROUPS and self.result[i] == 1:
                        add(f"true:{g}", 1)
        return out

    def _outermost(self, i: int, lo: int, members) -> bool:
        p = self.parent[i]
        while p >= lo:
            if self.names[self.name_of[p]] in members:
                return False
            p = self.parent[p]
        return True

    def dump(self, path: str, ops: List[dict]) -> None:
        """Write every span, grouped by op, as gzip'd JSON."""
        data = {
            "names": self.names,
            "ops": ops,
            "columns": ["name", "start", "end", "parent"],
            "spans": [[self.name_of[i], round(self.start[i], 7), round(self.end[i], 7),
                       self.parent[i]] for i in range(len(self.name_of))],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


class GfCounter:
    """Counts calls of the ``Field`` arithmetic methods."""

    def __init__(self) -> None:
        self.counts = {m: 0 for m in GF_METHODS}

    def install(self) -> None:
        from qlrc.gf import Field

        for meth in GF_METHODS:
            setattr(Field, meth, self._counting(meth, getattr(Field, meth)))

    def _counting(self, meth: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args):
            counts[meth] += 1
            return fn(*args)

        return counted

    def snapshot(self) -> Dict[str, int]:
        return dict(self.counts)
