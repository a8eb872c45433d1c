"""Per-layer instrumentation for the traced run.

Spans are recorded by wrapping the library's public entry points from the
outside: each wrapper replaces the function on its defining module and on
every ``metabelian`` module that imported it by name.  A span holds its
name, start, end and parent index; spans stay in memory until the run
writes them out.  Per-module self time and ``fractions`` call counts come
from a separate cProfile pass, never from the timed run.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from pathlib import Path
from time import perf_counter

# The six lru_cache functions whose public cache_info() is reported.
CACHED = (
    ("polynomials", "elementary_symmetric"),
    ("polynomials", "expand_e_monomial"),
    ("invariants", "epsilon"),
    ("invariants", "generator_h"),
    ("invariants", "generator_h_lie"),
    ("invariants", "weighted_exponent_vectors"),
)
# Layers whose self time is summed from the profile, by source file.
PROFILED_LAYERS = ("fractions", "polynomials", "lie", "wreath", "linalg", "permutations", "invariants")


def _solve_cells(args, _out) -> int:
    columns, rhs = args[0], args[1]
    return len(set(rhs).union(*columns)) * len(columns)


# (module, attribute, span name, counter): an attribute with a dot is a method
# on a class of that module; a counter is (metric suffix, f(args, result))
# summed over the spans.
SPANNED = (
    ("polynomials", "Polynomial.__mul__", "polynomials.mul", ("terms_out", lambda a, out: len(out.terms))),
    ("polynomials", "expand_e_monomial", "polynomials.expand_e_monomial", None),
    ("lie", "apply_perm_lie", "lie.apply_perm_lie", None),
    ("wreath", "preimage", "wreath.preimage",
     ("terms_in", lambda a, out: sum(len(p.terms) for p in a[0].upart))),
    ("wreath", "embed", "wreath.embed", None),
    ("wreath", "WreathElement.module_mul", "wreath.module_mul", None),
    ("linalg", "solve_exact", "linalg.solve_exact", ("cells", _solve_cells)),
    ("linalg", "nullspace", "linalg.nullspace", ("cells", lambda a, out: len(a[0]) * a[1])),
    ("invariants", "reynolds_lie", "invariants.reynolds_lie", None),
    ("invariants", "decompose_invariant", "invariants.decompose_invariant", None),
    ("invariants", "generator_h_lie", "invariants.generator_h_lie", None),
    ("invariants", "invariant_space_basis", "invariants.invariant_space_basis", None),
)


def _module(name):
    return sys.modules[f"metabelian.{name}"]


def cache_snapshot():
    """{function name: (hits, misses, currsize)} read through cache_info()."""
    out = {}
    for mod, fn in CACHED:
        info = getattr(_module(mod), fn).cache_info()
        out[fn] = (info.hits, info.misses, info.currsize)
    return out


class CacheMeter:
    """Cache hits and misses summed over the metered ops only (checks and
    set-up excluded), and each cache's size after the last metered op."""

    def __init__(self):
        self.totals = {fn: [0, 0, 0] for _, fn in CACHED}
        self._before = None

    def start(self):
        self._before = cache_snapshot()

    def stop(self):
        for fn, (hits, misses, size) in cache_snapshot().items():
            total = self.totals[fn]
            total[0] += hits - self._before[fn][0]
            total[1] += misses - self._before[fn][1]
            total[2] = size

    def metrics(self):
        """hit_ratio (0 when the function was not called) and currsize."""
        out = {}
        for fn, (hits, misses, size) in self.totals.items():
            out[f"cache.{fn}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
            out[f"cache.{fn}.currsize"] = size
        return out


class SpanRecorder:
    """Collects spans while ``on``; the wrappers pass straight through when off."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, count]
        self.stack = []
        self.on = False
        self.perms = 0
        self._undo = []

    def _wrap(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, 0]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self.stack.pop()
            if counter is not None:
                rec[4] = counter[1](args, out)
            return out

        return wrapper

    def _counting_sn(self, fn):
        def enumerate_sn(n):
            for sigma in fn(n):
                if self.on:
                    self.perms += 1
                yield sigma

        return enumerate_sn

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, orig, new):
        """Swap ``orig`` on every metabelian module that holds it by name."""
        for modname, mod in list(sys.modules.items()):
            if modname == "metabelian" or modname.startswith("metabelian."):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._replace(mod, attr, new)

    def install(self):
        for mod, attr, name, counter in SPANNED:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(_module(mod), cls_name)
                self._replace(cls, meth, self._wrap(name, vars(cls)[meth], counter))
            else:
                orig = getattr(_module(mod), attr)
                self._replace_everywhere(orig, self._wrap(name, orig, counter))
        orig = _module("permutations").enumerate_sn
        self._replace_everywhere(orig, self._counting_sn(orig))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self):
        """calls, inclusive seconds (outermost span of each name only) and
        counter sums per span name, plus the permutation count."""
        out = {"permutations.enumerate_sn.perms": self.perms}
        counters = {}
        for _, _, name, counter in SPANNED:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            if counter is not None:
                counters[name] = f"{name}.{counter[0]}"
                out[counters[name]] = 0
        for name, start, end, parent, count in self.spans:
            out[f"{name}.calls"] += 1
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[f"{name}.s"] += end - start
            if name in counters:
                out[counters[name]] += count
        return out

    def write(self, path: Path):
        """One span per line: name, start, end, parent index, count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, count in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{count}\n")


def profile_metrics(profiler: cProfile.Profile):
    """<layer>.self_s (tottime summed by source file) and fractions.calls."""
    out = {f"{layer}.self_s": 0.0 for layer in PROFILED_LAYERS}
    out["fractions.calls"] = 0
    for (filename, _line, _func), (_cc, nc, tt, _ct, _callers) in pstats.Stats(profiler).stats.items():
        path = Path(filename)
        layer = path.stem
        if layer == "fractions" and path.parent.name != "metabelian":
            out["fractions.self_s"] += tt
            out["fractions.calls"] += nc
        elif path.parent.name == "metabelian" and layer in PROFILED_LAYERS:
            out[f"{layer}.self_s"] += tt
    return out
