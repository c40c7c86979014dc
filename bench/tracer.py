"""Traced mode: a span around every call into spangray's public functions.

The tracer rebinds each traced function in every spangray module that
holds it by name (``from .x import f`` copies the binding, so patching
the defining module alone would miss callers), wraps the tie-break rules
``tiebreak_prefer`` returns, and times generator functions per ``next``.
Spans (name, start, end, parent) stay in memory and are written out when
the tracer closes; every original binding is restored on exit.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute) -> layer.  Spans are named after the function;
# time is summed per layer, counting only the outermost span of a layer.
TRACED = {
    ("embedgraph", "parse_graph"): "embedgraph.parse_graph",
    ("embedgraph", "build_embedding"): "embedgraph.build_embedding",
    ("embedgraph", "blocks"): "embedgraph.blocks",
    ("dualtree", "split_dual"): "dualtree.labeling",
    ("dualtree", "orient_split_dual"): "dualtree.labeling",
    ("dualtree", "dual_tree_labeling"): "dualtree.labeling",
    ("treegen", "greedy_listing"): "treegen.greedy_listing",
    ("treegen", "classify_exchange"): "treegen.classify_exchange",
    ("treegen", "tiebreak_closest"): "treegen.tiebreak",
    ("treegen", "random_spanning_tree"): "treegen.initial_tree",
    ("treegen", "spanning_tree_from_labels"): "treegen.initial_tree",
    ("treegen", "kruskal_tree"): "treegen.initial_tree",
    ("treegen", "verify_genlex"): "treegen.verify_genlex",
    ("treegen", "verify_gray"): "treegen.verify_gray",
    ("counting", "count_matrix_tree"): "counting.count_matrix_tree",
    ("counting", "count_del_contract"): "counting.count_del_contract",
    ("counting", "check_fib_bound"): "counting.check_fib_bound",
    ("flipgraph", "build_flip_graph"): "flipgraph.build_flip_graph",
    ("flipgraph", "enumerate_spanning_trees"): "flipgraph.enumerate_spanning_trees",
    ("flipgraph", "find_outerplane_order"): "flipgraph.find_outerplane_order",
    ("flipgraph", "arborescence_flip_graph"): "flipgraph.arborescence_flip_graph",
    ("flipgraph", "hamilton_path"): "flipgraph.hamilton_path",
    ("flipgraph", "run_experiment"): "flipgraph.run_experiment",
    ("flipgraph", "to_dot"): "flipgraph.export",
    ("flipgraph", "to_text"): "flipgraph.export",
    ("cli", "entry"): "cli.entry",
    ("cli", "parse_listing"): "cli.parse_listing",
}
GENERATORS = {
    ("counting", "enumerate_outerplane"): "counting.enumerate_outerplane",
    ("flipgraph", "enumerate_small_graphs"): "flipgraph.enumerate_small_graphs",
    ("flipgraph", "enumerate_small_digraphs"): "flipgraph.enumerate_small_digraphs",
}


class Tracer:
    """Context manager that traces the spangray modules in ``sg``."""

    def __init__(self, sg):
        self.sg = sg
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []        # [span index, layer, child seconds]
        self._active: dict[str, int] = defaultdict(int)
        self.layer_s: dict[str, float] = defaultdict(float)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)     # per span name
        self.counts: dict[str, int] = defaultdict(int)    # layer counters
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _enter(self, name: str, layer: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append([len(self.span_start), layer, 0.0])
        self._active[layer] += 1
        self.calls[name] += 1
        self.span_start.append(time.perf_counter())

    def _exit(self) -> None:
        end = time.perf_counter()
        idx, layer, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self._active[layer] -= 1
        if not self._active[layer]:
            self.layer_s[layer] += dur
        self.layer_self_s[layer] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, fn, name: str, layer: str, on_call=None):
        tracer = self

        def iterate(gen):
            while True:
                tracer._enter(name, layer)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._exit()
                tracer.counts[layer + ".yields"] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            return iterate(fn(*args, **kwargs))

        return traced

    def _tie(self, args, kwargs, result) -> None:
        size = len(args[0].candidates)
        self.counts["treegen.tie_set.total"] += size
        if size > self.counts["treegen.tie_set.max"]:
            self.counts["treegen.tie_set.max"] = size

    def _result_hooks(self):
        counts = self.counts

        def trees(args, kwargs, listing):
            counts["treegen.trees"] += len(listing.trees)

        def flip(args, kwargs, fg):
            counts["flipgraph.build_flip_graph.edges"] += fg.edge_count
            counts["flipgraph.build_flip_graph.pairs"] += fg.node_count * (fg.node_count - 1) // 2

        def steps(args, kwargs, res):
            counts["flipgraph.hamilton_path.steps"] += res.steps

        return {"greedy_listing": trees, "build_flip_graph": flip,
                "hamilton_path": steps, "tiebreak_closest": self._tie}

    def _subsets(self, layer: str, exponent):
        def on_call(args, kwargs):
            n = args[0] if args else kwargs["n"]
            self.counts[layer + ".subsets"] += 2 ** exponent(n)
        return on_call

    def _wrap_prefer(self, factory):
        tracer = self

        @functools.wraps(factory)
        def traced(*args, **kwargs):
            rule = factory(*args, **kwargs)
            wrapped = tracer._wrap(rule, "tiebreak_prefer.rule", "treegen.tiebreak",
                                   tracer._tie)
            wrapped.kind = rule.kind
            return wrapped

        return traced

    # -- install / restore -------------------------------------------------

    def __enter__(self) -> "Tracer":
        sg = self.sg
        hooks = self._result_hooks()
        replace: dict[int, object] = {}
        for (mod, attr), layer in TRACED.items():
            fn = getattr(getattr(sg, mod), attr)
            replace[id(fn)] = self._wrap(fn, f"{mod}.{attr}", layer, hooks.get(attr))
        subsets = {"enumerate_small_graphs": lambda n: n * (n - 1) // 2,
                   "enumerate_small_digraphs": lambda n: n * (n - 1)}
        for (mod, attr), layer in GENERATORS.items():
            fn = getattr(getattr(sg, mod), attr)
            on_call = self._subsets(layer, subsets[attr]) if attr in subsets else None
            replace[id(fn)] = self._wrap_generator(fn, f"{mod}.{attr}", layer, on_call)
        prefer = sg.treegen.tiebreak_prefer
        replace[id(prefer)] = self._wrap_prefer(prefer)
        for name, module in list(sys.modules.items()):
            if name != "spangray" and not name.startswith("spangray."):
                continue
            for attr, value in list(vars(module).items()):
                new = replace.get(id(value))
                if new is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, new)
        listing = sg.treegen.Listing
        render = listing.render_lines
        self._undo.append((listing, "render_lines", render))
        listing.render_lines = self._wrap_generator(render, "Listing.render_lines",
                                                    "treegen.render")
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Spans as gzipped CSV: name, start, end, parent span index."""
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for nid, s, e, p in zip(self.span_name, self.span_start,
                                    self.span_end, self.span_parent):
                fh.write(f"{names[nid]},{s:.9f},{e:.9f},{p}\n")

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, per pass."""
        s, self_s, calls, counts = self.layer_s, self.layer_self_s, self.calls, self.counts

        def per(x):
            v = x / passes
            return int(v) if float(v).is_integer() else v

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "treegen.greedy_listing.self_s": per(self_s["treegen.greedy_listing"]),
            "treegen.greedy_listing.calls": per(calls["treegen.greedy_listing"]),
            "treegen.trees": per(counts["treegen.trees"]),
            "treegen.classify_exchange.s": per(s["treegen.classify_exchange"]),
            "treegen.classify_exchange.calls": per(calls["treegen.classify_exchange"]),
            "treegen.tiebreak.s": per(s["treegen.tiebreak"]),
            "treegen.tiebreak.calls": per(calls["treegen.tiebreak_closest"]
                                          + calls["tiebreak_prefer.rule"]),
            "treegen.tie_set.max": counts["treegen.tie_set.max"],
            "treegen.render.s": per(s["treegen.render"]),
            "cli.entry.self_s": per(self_s["cli.entry"]),
            "treegen.verify_genlex.s": per(s["treegen.verify_genlex"]),
            "treegen.verify_gray.self_s": per(self_s["treegen.verify_gray"]),
            "cli.parse_listing.s": per(s["cli.parse_listing"]),
            "treegen.initial_tree.s": per(s["treegen.initial_tree"]),
            "dualtree.labeling.s": per(s["dualtree.labeling"]),
            "dualtree.labeling.calls": per(calls["dualtree.dual_tree_labeling"]),
            "embedgraph.parse_graph.s": per(s["embedgraph.parse_graph"]),
            "embedgraph.build_embedding.s": per(s["embedgraph.build_embedding"]),
            "embedgraph.build_embedding.calls": per(calls["embedgraph.build_embedding"]),
            "counting.count_matrix_tree.s": per(s["counting.count_matrix_tree"]),
            "counting.count_matrix_tree.calls": per(calls["counting.count_matrix_tree"]),
            "counting.count_del_contract.s": per(s["counting.count_del_contract"]),
            "counting.count_del_contract.calls": per(calls["counting.count_del_contract"]),
            "counting.check_fib_bound.self_s": per(self_s["counting.check_fib_bound"]),
            "flipgraph.build_flip_graph.self_s": per(self_s["flipgraph.build_flip_graph"]),
            "flipgraph.build_flip_graph.edges": per(counts["flipgraph.build_flip_graph.edges"]),
            "flipgraph.build_flip_graph.pairs": per(counts["flipgraph.build_flip_graph.pairs"]),
            "flipgraph.enumerate_spanning_trees.s": per(s["flipgraph.enumerate_spanning_trees"]),
            "flipgraph.export.s": per(s["flipgraph.export"]),
            "flipgraph.enumerate_small_graphs.s": per(s["flipgraph.enumerate_small_graphs"]),
            "flipgraph.enumerate_small_graphs.yields": per(counts["flipgraph.enumerate_small_graphs.yields"]),
            "flipgraph.enumerate_small_graphs.subsets": per(counts["flipgraph.enumerate_small_graphs.subsets"]),
            "flipgraph.enumerate_small_digraphs.s": per(s["flipgraph.enumerate_small_digraphs"]),
            "flipgraph.enumerate_small_digraphs.yields": per(counts["flipgraph.enumerate_small_digraphs.yields"]),
            "flipgraph.enumerate_small_digraphs.subsets": per(counts["flipgraph.enumerate_small_digraphs.subsets"]),
            "flipgraph.find_outerplane_order.s": per(s["flipgraph.find_outerplane_order"]),
            "flipgraph.find_outerplane_order.calls": per(calls["flipgraph.find_outerplane_order"]),
            "flipgraph.arborescence_flip_graph.s": per(s["flipgraph.arborescence_flip_graph"]),
            "flipgraph.hamilton_path.s": per(s["flipgraph.hamilton_path"]),
            "flipgraph.hamilton_path.steps": per(counts["flipgraph.hamilton_path.steps"]),
            "flipgraph.run_experiment.self_s": per(self_s["flipgraph.run_experiment"]),
        }
        ties = calls["treegen.tiebreak_closest"] + calls["tiebreak_prefer.rule"]
        out["treegen.tie_set.mean"] = ratio(counts["treegen.tie_set.total"], ties)
        out["flipgraph.build_flip_graph.hit_ratio"] = ratio(
            counts["flipgraph.build_flip_graph.edges"], counts["flipgraph.build_flip_graph.pairs"])
        out["flipgraph.enumerate_small_graphs.yield_ratio"] = ratio(
            counts["flipgraph.enumerate_small_graphs.yields"],
            counts["flipgraph.enumerate_small_graphs.subsets"])
        out["flipgraph.enumerate_small_digraphs.yield_ratio"] = ratio(
            counts["flipgraph.enumerate_small_digraphs.yields"],
            counts["flipgraph.enumerate_small_digraphs.subsets"])
        return out
