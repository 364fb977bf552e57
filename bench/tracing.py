"""In-memory spans around the calls into hcl's public functions.

A Tracer replaces module attributes with wrappers for the duration of a
`with tracer.patched():` block, so both the benchmark's own calls and the
calls one hcl module makes into another (cli -> hurwitz, dichotomy ->
congruence, holproj -> qseries) are recorded.  Nothing inside hcl changes.
Counters are derived from each call's arguments and return value.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
from contextlib import contextmanager
from time import perf_counter


def _verify_count(args, kwargs, result):
    ell, a, b, n_max = args[:4]
    return {"congruence.values_checked": (n_max - b) // a + 1 if n_max >= b else 0}


def _search_count(args, kwargs, result):
    a_max = args[1]
    return {
        "congruence.residues_scanned": a_max * (a_max + 1) // 2,
        "congruence.certificates": len(result),
    }


def _table_count(args, kwargs, result):
    return {"hurwitz.table_mb": result.values.nbytes / 2**20}


def _build_count(args, kwargs, result):
    return {**_table_count(args, kwargs, result), "hurwitz.built_D": result.n_max + 1}


def _cache_count(args, kwargs, result):
    path = args[1] if len(args) > 1 else args[0]
    return {"hurwitz.cache_mb": os.path.getsize(path) / 2**20}


def _read_count(args, kwargs, result):
    return {**_cache_count(args, kwargs, result), **_table_count(args, kwargs, result)}


def _rows_count(args, kwargs, result):
    return {"dichotomy.rows": len(result.evidence)}


def _terms_count(args, kwargs, result):
    return {"qseries.terms": len(result.coeffs)}


# (module, attribute, span name, counter); a counter maps (args, kwargs, result)
# to increments.  Several attributes may share a span name.
TRACED = [
    ("hcl.cli", "main", "cli.main", None),
    ("hcl.hurwitz", "build_table", "hurwitz.build_table", _build_count),
    ("hcl.hurwitz", "write_table_csv", "hurwitz.write_table_csv", _cache_count),
    ("hcl.hurwitz", "read_table_csv", "hurwitz.read_table_csv", _read_count),
    ("hcl.congruence", "verify_congruence", "congruence.verify_congruence", _verify_count),
    ("hcl.congruence", "search", "congruence.search", _search_count),
    ("hcl.congruence", "square_class_check", "congruence.square_class_check", None),
    ("hcl.dichotomy", "classify", "dichotomy.classify", _rows_count),
    ("hcl.dichotomy", "enumerate_representations", "dichotomy.enumerate_representations", None),
    ("hcl.qseries", "eisenstein_hol", "qseries.eisenstein_hol", _terms_count),
    ("hcl.qseries", "u_operator", "qseries.u_operator", _terms_count),
    ("hcl.qseries", "theta_series", "qseries.theta_series", _terms_count),
    ("hcl.holproj", "exact_projection_coefficient", "holproj.exact_projection_coefficient", None),
    ("hcl.holproj", "nonhol_coefficient", "holproj.nonhol_coefficient", None),
    ("hcl.holproj", "proj_theta_product", "holproj.proj_theta_product", None),
    ("hcl.holproj", "q_subset_decomposition", "holproj.q_subset_decomposition", None),
    ("hcl.holproj", "subprogression_construct", "holproj.subprogression", None),
    ("hcl.holproj", "find_distinguished_primes", "holproj.subprogression", None),
]
# sizes keep their largest value; every other count is summed
SIZES = ("hurwitz.table_mb", "hurwitz.cache_mb")
# modules that import traced names from another module
IMPORTERS = ["hcl.cli", "hcl.dichotomy", "hcl.holproj"]


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []  # (name, start, end, parent, op)
        self.counts: dict[str, float] = {}
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
            if counter is not None:
                for key, inc in counter(args, kwargs, result).items():
                    if key in SIZES:
                        counts[key] = max(counts.get(key, 0.0), inc)
                    else:
                        counts[key] = counts.get(key, 0) + inc
            return result

        return traced

    @contextmanager
    def patched(self):
        """Swap in the wrappers; restore the originals on exit."""
        saved = []
        for modname, attr, name, counter in TRACED:
            mod = importlib.import_module(modname)
            original = getattr(mod, attr)
            wrapper = self.wrap(name, original, counter)
            for imp in [modname] + IMPORTERS:
                holder = importlib.import_module(imp)
                if holder.__dict__.get(attr) is original:
                    saved.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
        qs = importlib.import_module("hcl.qseries").QSeries
        saved.append((qs, "__mul__", qs.__mul__))
        qs.__mul__ = self.wrap("qseries.product", qs.__mul__, _terms_count)
        try:
            yield self
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)

    def durations(self) -> dict[str, float]:
        """Total inclusive time per span name."""
        out: dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Per layer (the span name's prefix): duration minus the child spans'."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - inner
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON columns; times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "name": [index[s[0]] for s in self.spans],
            "start": [round(s[1] - t0, 7) for s in self.spans],
            "end": [round(s[2] - t0, 7) for s in self.spans],
            "parent": [s[3] for s in self.spans],
            "op": [s[4] for s in self.spans],
            "counts": self.counts,
        }
        with gzip.open(path, "wt", compresslevel=3) as fh:
            json.dump(payload, fh, separators=(",", ":"))
