"""Spans around the calls into ldbig's modules, recorded from outside.

The tracer replaces each listed function by a wrapper in every ldbig module
namespace that binds it (``composefile`` imports ``tensor`` by name, the
package re-exports most functions), and methods on their class.  A span is
(name, start, end, parent) and stays in memory until the run writes it out.
Functions called hundreds of thousands of times per verdict are counted, not
spanned, so the trace stays small.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# (module, qualified name) of each function given a span
SPANNED = [
    ("cli", "main"),
    ("composefile", "parse_compose"),
    ("composefile", "environment_bigraph"),
    ("composefile", "container_stub"),
    ("composefile", "assemble"),
    ("containers", "build_container"),
    ("algebra", "tensor"),
    ("algebra", "compose"),
    ("algebra", "is_isomorphic"),
    ("algebra", "place_order"),
    ("interfaces", "juxtapose_with_renames"),
    ("bigraph", "validate"),
    ("bigraph", "Bigraph.children"),
    ("analysis", "check_links"),
    ("analysis", "build_flow_graph"),
    ("analysis", "transitive_closure"),
    ("analysis", "find_leaks"),
    ("sorting", "find_matches"),
    ("serialize", "dumps"),
    ("serialize", "to_dot"),
    ("serialize", "patterns_from_json"),
]
# (module, qualified name) of each function only counted
COUNTED = [
    ("interfaces", "check_name"),
    ("analysis", "FlowGraph.successors"),
    ("sorting", "verify_occurrence"),
]
# result sizes added to counters: span name -> (counter, size of the result)
RESULT_SIZES = {
    "analysis.find_leaks": ("analysis.leaks", len),
    "analysis.transitive_closure": ("analysis.pairs", lambda r: len(r.pairs)),
    "sorting.find_matches": ("sorting.occurrences", len),
}


class Tracer:
    """Install with :meth:`install`, run the traced work, then
    :meth:`uninstall`; spans and counters hold what was recorded."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _spanned(self, name, fn):
        spans, open_, sizes = self.spans, self._open, RESULT_SIZES.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent)
                open_.pop()
            if sizes:
                self.counts[sizes[0]] += sizes[1](result)
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "ldbig" or n.startswith("ldbig.")]
        for targets, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module, qualname in targets:
                owner = sys.modules[f"ldbig.{module}"]
                name = f"{module}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, attr, make(name, getattr(cls, attr)))
                    continue
                original = getattr(owner, qualname)
                wrapped = make(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds and calls; self
        time is the span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["s"] += end - start
            row["self_s"] += end - start - inner
            row["calls"] += 1
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                f.write(f"{name},{start:.9f},{end:.9f},{parent}\n")
