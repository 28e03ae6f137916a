"""Per-layer tracing of the program from outside.

`Tracer` runs the program under cProfile and, at the same time, wraps the
public table operations so that the sizes of the tables they return can be
counted.  Wrappers are patched into every loaded module that imported the
name, because the program imports functions by name (`from .signatures
import holo`).  `summary()` reduces both to plain numbers that add up across
processes:

- `self_s[layer]`: self time of each layer, one layer per source file of the
  package (fractions.py counts as `scalars`).  Time in functions outside the
  package (builtins, stdlib, numpy) is charged to the package layer that
  called them, following the profiler's caller edges.
- `calls[name]`: exact call counts.
- `incl_s[name]`: inclusive time of public entry points.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
import time
from contextlib import contextmanager

LAYERS = ("scalars", "signatures", "grids", "formulas", "reductions",
          "evaluation", "classify", "synthesis", "cli")

# (layer, function name) -> counter name, read from the profile
PROFILE_CALLS = {
    ("scalars", "__mul__"): "cyc_mul",
    ("scalars", "__add__"): "cyc_add",
    ("evaluation", "merge"): "merge",
}

# inclusive-time groups: counter name -> (layer, function) entry points
INCLUSIVE = {
    "contract": (("evaluation", "holant_contract"),
                 ("evaluation", "contract_network")),
    "family": (("evaluation", "holant_T"), ("evaluation", "holant_E"),
               ("evaluation", "holant_KM")),
    "brute": (("evaluation", "holant_brute"), ("evaluation", "realize_gadget")),
    "classify_set": (("classify", "classify_set"),),
    "parse": (("grids", "grid_from_json"), ("grids", "require_valid")),
    "build": (("reductions", "independent_set_grid"),
              ("reductions", "monomer_dimer_grid")),
}

TABLE_METHODS = ("tensor", "contract", "permute")
TABLE_FUNCTIONS = ("holo", "decompose_atoms")


def _layer_of(filename: str):
    """Package layer of a source file, or None for code outside the package."""
    base = os.path.basename(filename)
    if base == "fractions.py":
        return "scalars"
    if os.path.basename(os.path.dirname(filename)) == "holant":
        stem = base[:-3] if base.endswith(".py") else base
        return stem if stem in LAYERS else None
    return None


class Tracer:
    def __init__(self):
        self.profile = cProfile.Profile()
        self.counts = {name: 0 for name in TABLE_METHODS + TABLE_FUNCTIONS}
        self.entries_built = 0
        self.peak_entries = 0
        self.classify_decompose_s = 0.0
        self.distinct_functions = 0
        self._undo = []

    # -- wrappers ---------------------------------------------------------------

    def _record(self, name, tables):
        self.counts[name] += 1
        for t in tables:
            size = 1 << t.arity
            self.entries_built += size
            if size > self.peak_entries:
                self.peak_entries = size

    def _wrap_table_fn(self, name, fn):
        tracer = self

        if name == "decompose_atoms":
            def wrapper(*args, **kwargs):
                caller = sys._getframe(1).f_code.co_filename
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                if _layer_of(caller) == "classify":
                    tracer.classify_decompose_s += time.perf_counter() - t0
                tracer._record(name, out.atoms)
                return out
        else:
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                tracer._record(name, (out,))
                return out
        return wrapper

    def _wrap_classify_set(self, fn):
        tracer = self

        def wrapper(family, *args, **kwargs):
            family = list(family)
            tracer.distinct_functions += len(set(family))
            return fn(family, *args, **kwargs)
        return wrapper

    def _patch_everywhere(self, original, replacement):
        for mod in list(sys.modules.values()):
            names = [k for k, v in getattr(mod, "__dict__", {}).items()
                     if v is original]
            for k in names:
                setattr(mod, k, replacement)
                self._undo.append((mod, k, original))

    def install(self):
        from holant import classify, signatures
        sig_cls = signatures.Signature
        for name in TABLE_METHODS:
            original = sig_cls.__dict__[name]
            setattr(sig_cls, name, self._wrap_table_fn(name, original))
            self._undo.append((sig_cls, name, original))
        for name in TABLE_FUNCTIONS:
            original = getattr(signatures, name)
            self._patch_everywhere(original, self._wrap_table_fn(name, original))
        original = classify.classify_set
        self._patch_everywhere(original, self._wrap_classify_set(original))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    @contextmanager
    def active(self):
        self.install()
        self.profile.enable()
        try:
            yield self
        finally:
            self.profile.disable()
            self.uninstall()

    # -- reduction ----------------------------------------------------------------

    def summary(self) -> dict:
        stats = pstats.Stats(self.profile).stats
        layer = {func: _layer_of(func[0]) for func in stats}
        self_s = {name: 0.0 for name in LAYERS}

        # share of a foreign function's time that belongs to each layer
        memo = {}

        def shares(func, depth=0):
            if func in memo:
                return memo[func]
            memo[func] = {}
            callers = stats[func][4] if func in stats else {}
            total = sum(c[3] for c in callers.values())
            out = {}
            if total > 0 and depth < 50:
                for caller, c in callers.items():
                    w = c[3] / total
                    own = layer.get(caller)
                    part = {own: 1.0} if own else shares(caller, depth + 1)
                    for lay, x in part.items():
                        out[lay] = out.get(lay, 0.0) + w * x
            memo[func] = out
            return out

        for func, (_, _, tt, _, _) in stats.items():
            own = layer[func]
            if own:
                self_s[own] += tt
            else:
                for lay, x in shares(func).items():
                    self_s[lay] += tt * x

        calls = {name: 0 for name in PROFILE_CALLS.values()}
        by_key = {}
        for func, (_, nc, _, ct, callers) in stats.items():
            key = (layer[func], func[2])
            by_key.setdefault(key, []).append((func, nc, ct, callers))
            if key in PROFILE_CALLS:
                calls[PROFILE_CALLS[key]] += nc
        calls.update(self.counts)

        incl = {}
        for name, members in INCLUSIVE.items():
            member_funcs = {f for key in members for f, _, _, _ in by_key.get(key, ())}
            t = 0.0
            for key in members:
                for _, _, ct, callers in by_key.get(key, ()):
                    # drop calls made from inside the group; they are already
                    # inside an outer member's inclusive time
                    inner = sum(c[3] for caller, c in callers.items()
                                if caller in member_funcs)
                    t += ct - inner
            incl[name] = t

        return {"self_s": self_s, "calls": calls, "incl_s": incl,
                "entries_built": self.entries_built,
                "peak_entries": self.peak_entries,
                "classify_decompose_s": self.classify_decompose_s,
                "distinct_functions": self.distinct_functions}


def merge_summaries(parts):
    """Add summaries from several processes; peaks take the maximum."""
    out = None
    for s in parts:
        if out is None:
            out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in s.items()}
            continue
        for k, v in s.items():
            if isinstance(v, dict):
                for kk, vv in v.items():
                    out[k][kk] = out[k].get(kk, 0) + vv
            elif k == "peak_entries":
                out[k] = max(out[k], v)
            else:
                out[k] += v
    return out


class Spans:
    """In-memory spans: (id, parent, name, start, end), written out at the end."""

    def __init__(self):
        self.rows = []
        self._stack = []

    @contextmanager
    def span(self, name):
        sid = len(self.rows)
        parent = self._stack[-1] if self._stack else None
        self.rows.append([sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.rows[sid][4] = time.perf_counter()

    def add(self, name, start, end, parent=None):
        self.rows.append([len(self.rows), parent, name, start, end])

    def current(self):
        return self._stack[-1] if self._stack else None

    def totals(self) -> dict:
        """name -> [count, total seconds, self seconds (minus child spans)]."""
        child = [0.0] * len(self.rows)
        for _, parent, _, start, end in self.rows:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, _, name, start, end in self.rows:
            key = name.split("/")[0]
            row = out.setdefault(key, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[sid]
        return out


class NoSpans:
    """Stand-in for `Spans` in timed runs: records nothing."""

    @contextmanager
    def span(self, name):
        yield None

    def add(self, name, start, end, parent=None):
        pass

    def current(self):
        return None
