"""Per-layer spans recorded from outside polmon.

``Tracer.install`` replaces the names that ``polmon.pipeline``,
``polmon.structure`` and ``polmon.report`` look up at call time (module
functions, ``Runner`` stage properties and writers) with wrappers that
record a span: name, start, end and the span that was open when the call
began.  Spans stay in memory; ``metrics`` turns them into per-layer self
times and counts once the workload has finished.  The program itself is
not modified on disk.

Span names are ``<layer>.<what>``; the layer is the polmon module the
work belongs to.  A layer's self time is the time its spans were open
minus the time their child spans were open.
"""

from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("corpus", "graphkit", "stance", "polarization", "structure",
          "pipeline", "report")

# Runner stage property -> the stage key it caches under
STAGES = {
    "rule_set": "rules", "filtered": "filter", "annotations": "annotations",
    "follows": "follows", "full_graph": "graph", "daily": "daily",
    "stances": "stance", "influencer_ranking": "influencers",
    "stopword_set": "stopwords", "series": "polarize",
    "ablation_rows": "ablate", "sweep": "sweep",
    "communities": "communities", "stats": "stats", "shares": "shares",
}

WRITERS = ("write_filtered", "write_stats", "write_stance", "write_pi_series",
           "write_influencers", "write_ablation", "write_sweep",
           "write_communities", "write_graphml", "write_summary",
           "write_manifest")


def _stats_name(tracer: "Tracer", parent: int) -> str:
    # render_summary recomputes whole-corpus stats; keep that apart from
    # the stats stage so the duplicate work stays visible
    while parent >= 0:
        if tracer.spans[parent][0] == "report.render_summary":
            return "report.summary_stats"
        parent = tracer.spans[parent][3]
    return "pipeline.stats"


def _count_filter(tracer, result, args):
    runner = args[0]
    kept, report = result
    tracer.counts["corpus.kept"] = report.kept
    tracer.counts["corpus.malformed"] = len(runner.load_errors)
    tracer.counts["corpus.lines"] = report.total + len(runner.load_errors)


def _count_graph(tracer, g, args):
    tracer.counts["graphkit.n"] = g.n
    tracer.counts["graphkit.m"] = g.m


def _count_daily(tracer, graphs, args):
    tracer.counts["graphkit.days"] = len(graphs)


def _count_solve(tracer, result, args):
    tracer.counts["polarization.solves"] += 1
    tracer.counts["polarization.unknowns"] += result.n
    tracer.counts["polarization.iterations"] += result.solver.iterations


def _count_louvain(tracer, partition, args):
    tracer.counts["structure.communities"] = partition.n_communities
    tracer.counts["structure.louvain_q"] = partition.modularity


def _counter(key):
    def count(tracer, result, args):
        tracer.counts[key] += 1
    return count


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, fn, name, on_result=None):
        """fn with a span around each call; name may be f(tracer, parent)."""
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            label = name if isinstance(name, str) else name(self, parent)
            index = len(self.spans)
            self.spans.append([label, time.perf_counter(), 0.0, parent])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
            if on_result is not None:
                on_result(self, result, args)
            return result
        return traced

    def install(self) -> list[str]:
        """Wrap every layer entry point; returns the names not found."""
        from polmon import pipeline, report, structure

        targets = [
            (pipeline, "filter_corpus", "corpus.filter", None),
            (pipeline, "load_annotations", "corpus.annotations", None),
            (pipeline, "load_follows", "corpus.follows", None),
            (pipeline, "default_rule_set", "corpus.rules", None),
            (pipeline, "load_rule_set", "corpus.rules", None),
            (pipeline, "build_graph", "graphkit.build", _count_graph),
            (pipeline, "daily_graphs", "graphkit.daily", _count_daily),
            (pipeline, "remove_nodes", "graphkit.remove_nodes",
             _counter("graphkit.remove_nodes_calls")),
            (pipeline, "export_graph", "graphkit.export", None),
            (pipeline, "stance_map", "stance.infer",
             _counter("stance.calls")),
            (pipeline, "compute_pi", "polarization.solve", _count_solve),
            (structure, "leading_eigenpair", "structure.eigen", None),
            (pipeline, "netshield", "structure.netshield", None),
            (pipeline, "louvain", "structure.louvain", _count_louvain),
            (pipeline, "decompose_communities", "structure.louvain", None),
            (pipeline, "compute_stats", _stats_name, None),
            (pipeline, "write_stance_csv", "report.write", None),
            (report, "render_summary", "report.render_summary", None),
            (pipeline, "run_all", "pipeline.run_all", None),
        ]
        missing = []
        for module, attr, name, on_result in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module.__name__}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name, on_result))

        runner = pipeline.Runner
        for prop, key in STAGES.items():
            old = runner.__dict__.get(prop)
            if not isinstance(old, property):
                missing.append(f"Runner.{prop}")
                continue
            on_result = _count_filter if prop == "filtered" else None
            setattr(runner, prop, property(
                self.wrap(old.fget, f"pipeline.stage.{key}", on_result)))
        for method in WRITERS:
            old = runner.__dict__.get(method)
            if old is None:
                missing.append(f"Runner.{method}")
                continue
            setattr(runner, method, self.wrap(old, "report.write"))
        return missing

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer self times and counts for a traced run of wall_s."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        incl: defaultdict[str, float] = defaultdict(float)
        self_t: defaultdict[str, float] = defaultdict(float)
        longest: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            incl[name] += end - start
            self_t[name] += end - start - child_time[i]
            longest[name] = max(longest[name], end - start)

        def self_of(prefix: str) -> float:
            return sum(v for k, v in self_t.items() if k.startswith(prefix))

        c = self.counts
        lines = c["corpus.lines"]
        out = {
            "corpus.load_filter_s": incl["corpus.filter"],
            "corpus.us_per_line": (1e6 * incl["corpus.filter"] / lines
                                   if lines else 0.0),
            "corpus.lines": lines,
            "corpus.kept": c["corpus.kept"],
            "corpus.malformed": c["corpus.malformed"],
            "pipeline.stats_s": incl["pipeline.stats"],
            "report.summary_stats_s": incl["report.summary_stats"],
            "graphkit.build_s": (incl["graphkit.build"]
                                 + incl["graphkit.daily"]),
            "graphkit.remove_nodes_s": incl["graphkit.remove_nodes"],
            "graphkit.remove_nodes_calls": c["graphkit.remove_nodes_calls"],
            "graphkit.export_s": incl["graphkit.export"],
            "graphkit.n": c["graphkit.n"],
            "graphkit.m": c["graphkit.m"],
            "graphkit.days": c["graphkit.days"],
            "stance.infer_s": incl["stance.infer"],
            "stance.calls": c["stance.calls"],
            "polarization.solve_s": incl["polarization.solve"],
            "polarization.max_solve_s": longest["polarization.solve"],
            "polarization.solves": c["polarization.solves"],
            "polarization.unknowns": c["polarization.unknowns"],
            "polarization.iterations": c["polarization.iterations"],
            "structure.eigen_s": self_t["structure.eigen"],
            "structure.netshield_s": self_t["structure.netshield"],
            "structure.louvain_s": incl["structure.louvain"],
            "structure.communities": c["structure.communities"],
            "structure.louvain_q": c["structure.louvain_q"],
            "report.write_s": self_t["report.write"],
            "pipeline.glue_s": (self_of("pipeline.stage.")
                                + self_t["pipeline.run_all"]),
        }
        for key in STAGES.values():
            out[f"pipeline.stage.{key}_s"] = incl[f"pipeline.stage.{key}"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_of(layer + ".")
        out["trace.unattributed_s"] = wall_s - sum(self_t.values())
        out["trace.spans"] = len(self.spans)
        return out
