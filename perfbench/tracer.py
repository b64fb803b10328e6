"""Outside-in span recorder for rigsim, wired from the benchmark's own files.

rigsim's modules import each other's functions by name, so wrapping a
function in its defining module alone misses most calls.  ``WIRING`` lists,
for every traced layer, each binding a caller goes through: the importing
module's global, the defining module's attribute for lazy and internal
imports, and class attributes for methods.  Nothing in ``src/`` changes.

Spans are kept in memory as flat columns (name id, parent index, start, end)
and written out once, by ``Tracer.dump``.  Work counts are summed in
``Tracer.counters`` by small hooks that look at a call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

# span name -> bindings that route calls into it, as (module, attribute) or
# (module, class, method)
WIRING: dict[str, list[tuple[str, ...]]] = {
    "cli": [("rigsim.cli", "main")],
    "experiment": [
        ("rigsim.cli", "run_experiment"),
        ("rigsim.experiment", "run_experiment"),
        ("rigsim.cli", "perturbation_report"),
        ("rigsim.experiment", "perturbation_report"),
    ],
    "generators.generate_bipartite": [
        ("rigsim.experiment", "generate_bipartite"),
        ("rigsim.cli", "generate_bipartite"),
    ],
    "generators.plant_clique": [
        ("rigsim.experiment", "plant_clique"),
        ("rigsim.cli", "plant_clique"),
    ],
    "graphs.intersection_graph": [
        ("rigsim.experiment", "intersection_graph"),
        ("rigsim.cliquetree", "intersection_graph"),
        ("rigsim.cli", "intersection_graph"),
    ],
    "graphs.ball": [
        ("rigsim.stats", "ball"),
        ("rigsim.cliquetree", "ball"),
        ("rigsim.counting", "ball"),
    ],
    # RootedGraph.code imports canonical_code lazily from the module
    "canon.canonical_code": [("rigsim.canon", "canonical_code")],
    "stats.empirical_ball_dist": [("rigsim.stats", "empirical_ball_dist")],
    "stats.scalars": [
        ("rigsim.stats", name)
        for name in (
            "clustering",
            "assortativity",
            "conditional_clustering",
            "conditional_assortativity",
            "degree_moment",
            "degree_fraction",
        )
    ],
    "counting.emb_count": [
        ("rigsim.experiment", "emb_count"),
        ("rigsim.stats", "emb_count"),
        ("rigsim.counting", "emb_count"),
    ],
    "counting.sidorenko_bound": [
        ("rigsim.experiment", "sidorenko_bound"),
        ("rigsim.counting", "sidorenko_bound"),
    ],
    "counting.rooted_emb_count": [
        ("rigsim.limits", "rooted_emb_count"),
        ("rigsim.counting", "rooted_emb_count"),
    ],
    "cliquetree.ball_distribution_mc": [
        ("rigsim.experiment", "ball_distribution_mc"),
        ("rigsim.cli", "ball_distribution_mc"),
        ("rigsim.cliquetree", "ball_distribution_mc"),
    ],
    "cliquetree.sample_clique_tree_ball": [
        ("rigsim.cliquetree", "sample_clique_tree_ball"),
        ("rigsim.limits", "sample_clique_tree_ball"),
    ],
    "cliquetree.sample_gw_tree": [("rigsim.cliquetree", "sample_gw_tree")],
    "laws.sample": [
        ("rigsim.laws", "DegreeLaw", "sample"),
        ("rigsim.laws", "WeightLaw", "sample"),
    ],
    "limits.rooted_emb_expectation_mc": [
        ("rigsim.experiment", "rooted_emb_expectation_mc"),
        ("rigsim.limits", "rooted_emb_expectation_mc"),
    ],
    "limits.closed_form": [
        ("rigsim.experiment", name)
        for name in (
            "limit_spec_for",
            "dstar_moment",
            "z_moment",
            "limit_clustering",
            "limit_assortativity",
            "limit_conditional_clustering",
            "limit_conditional_assortativity",
            "limit_degree_pmf",
        )
    ],
}


COUNTERS = (
    "generators.bipartite_edges",
    "graphs.projected_edges",
    "experiment.graphs_built",
    "graphs.ball_vertices",
    "canon.input_vertices",
    "stats.balls",
    "stats.distinct_codes",
    "cliquetree.mc_samples",
    "cliquetree.distinct_codes",
    "cliquetree.cap_hits",
    "limits.mc_samples",
)


def _arg(fn, name: str):
    """Return a function reading argument ``name`` from a call of ``fn``."""
    sig = inspect.signature(fn)
    return lambda a, kw: sig.bind(*a, **kw).arguments[name]


def _hooks(binding: tuple[str, ...], fn) -> list:
    """Work-count hooks for one binding: callables (counters, args, kwargs, result)."""
    module, attr = binding[0], binding[-1]
    hooks = []

    def add(counter, value):
        def hook(c, a, kw, out):
            c[counter] += value(a, kw, out)

        hooks.append(hook)

    if attr == "generate_bipartite":
        add("generators.bipartite_edges", lambda a, kw, out: out.edge_count)
    elif attr == "intersection_graph":
        add("graphs.projected_edges", lambda a, kw, out: out.edge_count)
        if module == "rigsim.experiment":
            add("experiment.graphs_built", lambda a, kw, out: 1)
    elif attr == "ball":
        add("graphs.ball_vertices", lambda a, kw, out: out.graph.vertex_count)
    elif attr == "canonical_code":
        add("canon.input_vertices", lambda a, kw, out: a[0].graph.vertex_count)
    elif attr == "empirical_ball_dist":
        add("stats.balls", lambda a, kw, out: out.total)
        add("stats.distinct_codes", lambda a, kw, out: len(out.counts))
    elif attr == "ball_distribution_mc":
        from rigsim.cliquetree import CAP_BUCKET

        samples = _arg(fn, "samples")
        add("cliquetree.mc_samples", lambda a, kw, out: samples(a, kw))
        add("cliquetree.distinct_codes", lambda a, kw, out: len(out.counts))
        add("cliquetree.cap_hits", lambda a, kw, out: out.counts.get(CAP_BUCKET, 0))
    elif attr == "rooted_emb_expectation_mc":
        samples = _arg(fn, "samples")
        add("limits.mc_samples", lambda a, kw, out: samples(a, kw))
    return hooks


class Tracer:
    """Records nested spans around the bindings in ``WIRING``.

    Single-threaded by design: the benchmark runs ``converge`` with
    ``--threads 1``, so every call nests on one stack.
    """

    def __init__(self) -> None:
        self.names: list[str] = list(WIRING)
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.unwired: list[str] = []
        self._stack: list[int] = [-1]

    def _wrap(self, fn, span: str, hooks: list):
        nid = self.names.index(span)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*a, **kw):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*a, **kw)
            finally:
                end[i] = clock()
                stack.pop()
            for hook in hooks:
                hook(self.counters, a, kw, out)
            return out

        return traced

    def install(self) -> None:
        """Patch every binding in ``WIRING`` for the rest of the process; a
        binding that no longer exists is listed in ``unwired`` rather than
        failing the run."""
        for span, bindings in WIRING.items():
            for binding in bindings:
                try:
                    owner = importlib.import_module(binding[0])
                except ModuleNotFoundError:
                    owner = None
                for part in binding[1:-1]:
                    owner = getattr(owner, part, None)
                attr = binding[-1]
                fn = getattr(owner, attr, None)
                if not callable(fn):
                    self.unwired.append(".".join(binding))
                    continue
                setattr(owner, attr, self._wrap(fn, span, _hooks(binding, fn)))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name_id": self.name_id.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "counters": self.counters,
                    "unwired": self.unwired,
                },
                fh,
            )


def summarize(spans: dict) -> dict[str, float]:
    """Per-span self time and call counts, the work counters, and the share
    of graph-side balls that reached ``canonical_code``.

    A span's self time is its duration minus the time its direct children
    cover; children of one span never overlap on a single-threaded stack.
    """
    names, nid, parent = spans["names"], spans["name_id"], spans["parent"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    self_t = list(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            self_t[p] -= dur[i]
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for i, k in enumerate(nid):
        out[f"{names[k]}.self_s"] += self_t[i]
        out[f"{names[k]}.calls"] += 1
    # canon calls made while an empirical_ball_dist span is open
    ebd, canon = names.index("stats.empirical_ball_dist"), names.index("canon.canonical_code")
    under = [False] * len(nid)
    canon_under = 0
    for i, p in enumerate(parent):  # parents precede their children
        under[i] = p >= 0 and (under[p] or nid[p] == ebd)
        canon_under += under[i] and nid[i] == canon
    out.update(spans["counters"])
    balls = out["stats.balls"]
    out["stats.ball_memo_hit_ratio"] = 1.0 - canon_under / balls if balls else 0.0
    return out
