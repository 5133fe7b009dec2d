"""Spans around poscat's public functions, recorded from outside the package.

`Tracer.install()` replaces every public function of the layer modules, in
every module namespace that binds it (so `kan.colimit_pos` and
`continuity.colimit_pos` are wrapped as well as `colimits.colimit_pos`), and
wraps `__init__` of every public class.  Each call records a span: name,
binding module, start, end, parent span and operation id.  Spans are kept in
memory and written out once, at the end.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import time
from array import array

LAYERS = (
    "corpus",
    "_kernels",
    "posets",
    "delta",
    "colimits",
    "simplicial",
    "continuity",
    "kan",
    "formats",
    "cli",
)

# (metric, unit, better): the per-layer metrics, in BENCHMARK.json order.
PER_LAYER = (
    ("corpus.poset_classes.s", "s", "lower"),
    ("corpus.find_isomorphism.calls", "count", "lower"),
    ("kernels.count_maps.calls", "count", "lower"),
    ("kernels.count_maps.distinct_ratio", "ratio", "higher"),
    ("kernels.count_maps.s", "s", "lower"),
    ("kernels.list_maps.calls", "count", "lower"),
    ("kernels.list_maps.s", "s", "lower"),
    ("kernels.transitive_closure.s", "s", "lower"),
    ("posets.MonotoneMap.calls", "count", "lower"),
    ("posets.MonotoneMap.s", "s", "lower"),
    ("posets.chains.s", "s", "lower"),
    ("posets.count_monotone_maps.s", "s", "lower"),
    ("delta.factorize.calls", "count", "lower"),
    ("delta.verify_simplicial_identities.s", "s", "lower"),
    ("colimits.colimit_pos.calls", "count", "lower"),
    ("colimits.colimit_pos.s", "s", "lower"),
    ("colimits.colimit_pos.self_s", "s", "lower"),
    ("colimits.verify_universal.s", "s", "lower"),
    ("colimits.verify_universal.self_s", "s", "lower"),
    ("simplicial.nerve.s", "s", "lower"),
    ("simplicial.simplicial_maps.s", "s", "lower"),
    ("simplicial.simplicial_maps.self_s", "s", "lower"),
    ("continuity.check_continuity.s", "s", "lower"),
    ("continuity.density_colimit.self_s", "s", "lower"),
    ("kan.comma_diagram.s", "s", "lower"),
    ("kan.comma_diagram.nodes", "count", "lower"),
    ("kan.comma_diagram.edges", "count", "lower"),
    ("kan.extend.self_s", "s", "lower"),
    ("kan.extend.colimits", "count", "lower"),
    ("formats.parse.s", "s", "lower"),
    ("formats.serialize.s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Metrics over a group of functions rather than one.
GROUPS = {
    "formats.parse": lambda name: name.startswith(("formats.parse_", "formats.load_")),
    "formats.serialize": lambda name: name.startswith("formats.serialize_"),
}
# Metrics that count calls made through one module's binding only.
SITES = {"corpus.find_isomorphism": ("posets.find_isomorphism", "corpus")}


def _short(module_name):
    """'poscat._kernels' -> 'kernels', 'poscat.kan' -> 'kan'."""
    return module_name.rpartition(".")[2].lstrip("_") if module_name != "poscat" else "poscat"


class Tracer:
    def __init__(self):
        self.keys = {}
        self.key_names = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.current_op = [-1]
        self.count_maps_keys = set()
        self.comma_nodes = 0
        self.comma_edges = 0

    def set_op(self, k):
        self.current_op[0] = k

    def _key(self, name, site):
        key = (name, site)
        if key not in self.keys:
            self.keys[key] = len(self.key_names)
            self.key_names.append(key)
        return self.keys[key]

    def _hook(self, name):
        if name == "kernels.count_maps":
            keys = self.count_maps_keys

            def hook(args, kwargs, result):
                n_slots, n_tgt, up_rows, pairs = args
                keys.add((n_slots, n_tgt, tuple(up_rows), tuple(tuple(p) for p in pairs)))

            return hook
        if name == "kan.comma_diagram":

            def hook(args, kwargs, result):
                self.comma_nodes += len(result.nodes)
                self.comma_edges += len(result.edges)

            return hook
        return None

    def _wrap(self, fn, name, site):
        key = self._key(name, site)
        hook = self._hook(name)
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        stack, current_op = self.stack, self.current_op
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(key)
            parents.append(stack[-1])
            ops.append(current_op[0])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def install(self):
        """Wrap every public function and class of the layer modules."""
        package = importlib.import_module("poscat")
        modules = [importlib.import_module(f"poscat.{layer}") for layer in LAYERS]
        layer_names = {m.__name__ for m in modules}
        wrapped_classes = set()
        for module in modules + [package]:
            site = _short(module.__name__)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not callable(value):
                    continue
                owner = getattr(getattr(value, "__wrapped__", value), "__module__", None)
                if owner not in layer_names:
                    continue
                if isinstance(value, type):
                    if issubclass(value, BaseException) or value in wrapped_classes:
                        continue
                    if "__init__" in vars(value):
                        name = f"{_short(owner)}.{value.__name__}"
                        value.__init__ = self._wrap(value.__init__, name, _short(owner))
                    wrapped_classes.add(value)
                    continue
                name = f"{_short(owner)}.{getattr(value, '__name__', attr)}"
                setattr(module, attr, self._wrap(value, name, site))

    # ------------------------------------------------------------ reading

    def _spans(self):
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return n, dur, child

    def _outermost_seconds(self, member, dur):
        """Inclusive seconds of spans in a group, not counting spans nested
        inside another span of the same group."""
        inside = [member(name) for name, _ in self.key_names]
        total = 0.0
        for i in range(len(self.name)):
            if not inside[self.name[i]]:
                continue
            p = self.parent[i]
            while p >= 0 and not inside[self.name[p]]:
                p = self.parent[p]
            if p < 0:
                total += dur[i]
        return total

    def metrics(self):
        """Every per-layer metric that spans give; cli.import_s and
        trace.overhead_s are measured by the caller."""
        n, dur, child = self._spans()
        names = [key[0] for key in self.key_names]
        calls = {}
        self_s = {}
        site_calls = {}
        for i in range(n):
            name, site = self.key_names[self.name[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            site_calls[(name, site)] = site_calls.get((name, site), 0) + 1
        extend_key = {k for k, name in enumerate(names) if name == "kan.extend"}
        colimits_in_extend = 0
        for i in range(n):
            if names[self.name[i]] != "colimits.colimit_pos":
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] not in extend_key:
                p = self.parent[p]
            colimits_in_extend += p >= 0
        out = {}
        for metric, _, _ in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if metric in ("cli.import_s", "trace.overhead_s"):
                continue
            if metric == "kernels.count_maps.distinct_ratio":
                total = calls.get("kernels.count_maps", 0)
                out[metric] = len(self.count_maps_keys) / total if total else 0.0
            elif metric == "kan.comma_diagram.nodes":
                out[metric] = self.comma_nodes
            elif metric == "kan.comma_diagram.edges":
                out[metric] = self.comma_edges
            elif metric == "kan.extend.colimits":
                out[metric] = colimits_in_extend
            elif kind == "calls":
                out[metric] = site_calls.get(SITES[base], 0) if base in SITES else calls.get(base, 0)
            elif kind == "self_s":
                out[metric] = self_s.get(base, 0.0)
            else:
                member = GROUPS.get(base, lambda name, base=base: name == base)
                out[metric] = self._outermost_seconds(member, dur)
        return out

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "site", "start_s", "end_s", "parent", "op"])
            for i in range(len(self.name)):
                name, site = self.key_names[self.name[i]]
                out.writerow(
                    [i, name, site, f"{self.start[i]:.9f}", f"{self.end[i]:.9f}", self.parent[i], self.op[i]]
                )
