"""In-memory span tracer that wraps radfact's public functions from outside.

`install()` replaces each traced function or method with a wrapper that
records a span (name, start, end, parent).  A module-level function is
rebound in every `radfact` module namespace that holds it, because modules
import these functions by name (`sspengine` binds `radical`,
`ideal_product` and `all_ideals`; `finideal` binds `mask_of`).  The program
itself is not edited.  Self time is a span's duration minus the durations
of its direct children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute path, span name); the span name is the metric prefix
TARGETS = [
    ("radfact.cli", "main", "cli.main"),
    ("radfact.finring", "ring_from_dict", "finring.ring_from_dict"),
    ("radfact.finring", "FinRing.__init__", "finring.FinRing"),
    ("radfact.finring", "mask_of", "finring.mask_of"),
    ("radfact.finring", "decompose_local", "finring.decompose_local"),
    ("radfact.finring", "is_special_primary", "finring.is_special_primary"),
    ("radfact.finideal", "all_ideals", "finideal.all_ideals"),
    ("radfact.finideal", "radical", "finideal.radical"),
    ("radfact.finideal", "ideal_product", "finideal.ideal_product"),
    ("radfact.finideal", "is_prime", "finideal.is_prime"),
    ("radfact.sspengine", "radical_closure", "sspengine.radical_closure"),
    ("radfact.sspengine", "decide_ssp", "sspengine.decide_ssp"),
    ("radfact.sspengine", "structural_ssp", "sspengine.structural_ssp"),
    ("radfact.quadring", "factor_int", "quadring.factor_int"),
    ("radfact.quadring", "primes_above", "quadring.primes_above"),
    ("radfact.quadring", "QuadIdeal.__init__", "quadring.QuadIdeal"),
    ("radfact.quadring", "QuadIdeal.__mul__", "quadring.QuadIdeal.mul"),
    ("radfact.quadring", "QuadIdeal.factorization", "quadring.factorization"),
    ("radfact.quadring", "IntIdeal.factorization", "quadring.factorization"),
    ("radfact.quadring", "sp_factor", "quadring.sp_factor"),
    ("radfact.quadring", "verify_chain", "quadring.verify_chain"),
    ("radfact.polychain", "parse_poly", "polychain.parse_poly"),
    ("radfact.polychain", "sf_chain", "polychain.sf_chain"),
    ("radfact.polychain", "poly_gcd", "polychain.poly_gcd"),
    ("radfact.polychain", "RatPoly.__divmod__", "polychain.RatPoly.divmod"),
    ("radfact.polychain", "RatPoly.__mul__", "polychain.RatPoly.mul"),
    ("radfact.polychain", "format_poly", "polychain.format_poly"),
]

SPAN_NAMES = list(dict.fromkeys(name for _, _, name in TARGETS))


class Tracer:
    """Spans kept in flat arrays; index i is span i, parent -1 is a root."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ideals_enumerated = 0   # lattice sizes of fresh all_ideals calls
        self.closure_new = 0         # closure members that were not seed radicals
        self._stack = [-1]
        self._undo = []

    def wrap(self, fn, span):
        nid = SPAN_NAMES.index(span)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
        return traced

    def _observed(self, fn, span):
        """Counters recorded at the layer boundary, next to the span."""
        if span == "finideal.all_ideals":
            def counted(ring, *args, **kwargs):
                fresh = "ideals" not in ring._cache
                out = fn(ring, *args, **kwargs)
                if fresh:
                    self.ideals_enumerated += len(out)
                return out
            return counted
        if span == "sspengine.radical_closure":
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.closure_new += sum(p is not None for p in out.parent.values())
                return out
            return counted
        return fn

    def install(self):
        for modname, path, span in TARGETS:
            mod = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                wrapped = self.wrap(orig, span)
                # rebinding every alias also covers RatPoly.__rmul__ = __mul__
                for key, value in list(vars(cls).items()):
                    if value is orig:
                        setattr(cls, key, wrapped)
                        self._undo.append((cls, key, orig))
                continue
            orig = getattr(mod, path)
            wrapped = self.wrap(self._observed(orig, span), span)
            for other in list(sys.modules.values()):
                if other is None or not other.__name__.startswith("radfact"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is orig:
                        setattr(other, key, wrapped)
                        self._undo.append((other, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def summary(self):
        """Per span name: call count, self seconds; plus closure products tried."""
        name, parent, start, end = self.arrays()
        dur = end - start
        own = dur.copy()
        child = parent >= 0
        np.subtract.at(own, parent[child], dur[child])
        k = len(SPAN_NAMES)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        closure = SPAN_NAMES.index("sspengine.radical_closure")
        product = SPAN_NAMES.index("finideal.ideal_product")
        in_closure = child.copy()
        in_closure[child] = name[parent[child]] == closure
        closure_products = int(np.count_nonzero(in_closure & (name == product)))
        table = {span: (int(calls[i]), float(self_s[i])) for i, span in enumerate(SPAN_NAMES)}
        return table, closure_products

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, span_names=np.array(SPAN_NAMES), name=name, parent=parent,
                 start=start, end=end)
