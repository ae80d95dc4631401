"""Span tracing around riskcluster's public functions, installed from outside.

Each wrapper replaces a function where its caller looks it up: a module
attribute such as `riskcluster.cluster.ivf_search`, or an entry of the kNN
kernel table. No source file changes, and `Tracer.restore` puts every
original back. Spans stay in memory until the run writes them out.

Worker threads of `run_chunked` start with an empty span stack; their spans
take the span that called `run_chunked` as parent, so a layer's self time
excludes kernel time spent on either thread. The `parallel.run_chunked` span
itself is not a parent and not a child: it only carries the dispatch counts.
"""

import functools
import statistics
import threading
import time

import numpy as np

import riskcluster.cluster
import riskcluster.knn
import riskcluster.model
import riskcluster.mst
import riskcluster.parallel
import riskcluster.pipeline
import riskcluster.predict

ROOT = "op"
DISPATCH = "parallel.run_chunked"


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "attrs")

    def __init__(self, span_id, name, parent, op):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.attrs = {}

    @property
    def dur(self):
        return self.end - self.start

    def to_dict(self):
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "op": self.op, "start": self.start, "end": self.end,
                **self.attrs}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore = []
        self._deferred = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, push=True):
        stack = self._stack()
        with self._lock:
            span = Span(len(self.spans), name,
                        stack[-1] if stack else None, self.op)
            self.spans.append(span)
        if push:
            stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def close(self, span, push=True):
        span.end = time.perf_counter()
        if push:
            self._stack().pop()

    def start_op(self, op):
        """Open the root span of op; every span until end_op belongs to it."""
        self.op = op
        return self.open(ROOT)

    def end_op(self, root):
        self.close(root)
        for fn in self._deferred:
            fn()
        self._deferred.clear()

    def defer(self, fn):
        """Run fn after the op ends, so costly counts stay out of its spans."""
        self._deferred.append(fn)

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr (or owner[attr] for a dict) with a traced call."""
        is_map = isinstance(owner, dict)
        original = owner[attr] if is_map else getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                count(self, span, result, *args, **kwargs)
            return result

        self._set(owner, attr, traced, original)

    def wrap_dispatch(self, owner):
        """Trace owner.run_chunked: task count, workers and busy time."""
        original = owner.run_chunked

        @functools.wraps(original)
        def traced(fn, n, threads, chunk):
            span = self.open(DISPATCH, push=False)
            busy = []

            def task(start, stop):
                stack = self._stack()
                adopted = not stack  # a pool thread: hang spans on the caller
                if adopted:
                    stack.append(span.parent)
                t0 = time.perf_counter()
                try:
                    fn(start, stop)
                finally:
                    busy.append(time.perf_counter() - t0)
                    if adopted:
                        stack.pop()

            try:
                original(task, n, threads, chunk)
            finally:
                self.close(span, push=False)
            tasks = len(riskcluster.parallel.chunk_ranges(n, chunk))
            workers = 1 if threads <= 1 or tasks <= 1 else min(threads, tasks)
            span.attrs.update(tasks=tasks, workers=workers, busy=sum(busy))

        self._set(owner, "run_chunked", traced, original)

    def _set(self, owner, attr, value, original):
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)
        self._restore.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()


# ---- counts taken at the layer boundaries --------------------------------

def _cells(tracer, span, result, queries, base, *args, **kwargs):
    span.attrs["cells"] = int(np.shape(queries)[0]) * int(np.shape(base)[0])


def _records(tracer, span, result, *args, **kwargs):
    span.attrs["records"] = len(result)


def _iters(tracer, span, result, *args, **kwargs):
    span.attrs["iters"] = len(result.inertia_history)


def _imbalance(tracer, span, result, *args, **kwargs):
    sizes = np.array([p.size for p in result.postings], dtype=np.float64)
    span.attrs["imbalance"] = float(sizes.max() / sizes.mean())


def _queries_of_graph(tracer, span, result, *args, **kwargs):
    span.attrs["queries"] = result.n


def _edges(tracer, span, result, *args, **kwargs):
    span.attrs["edges"] = len(result)


def _forest(tracer, span, result, edges, *args, **kwargs):
    span.attrs.update(edges_in=len(edges), accepted=len(result),
                      components=result.component_count)
    tracer.defer(lambda: span.attrs.update(
        distinct_w=int(np.unique(edges.w).size)))


def _condensed(tracer, span, result, *args, **kwargs):
    span.attrs["clusters"] = result.num_clusters


def _predict_queries(tracer, span, result, model, queries, *args, **kwargs):
    span.attrs["queries"] = queries.n


def install(tracer):
    """Wrap every traced boundary; tracer.restore() undoes all of it."""
    cl, knn, pl = riskcluster.cluster, riskcluster.knn, riskcluster.pipeline
    w = tracer.wrap
    w(riskcluster.model, "load_transactions", "model.load_transactions",
      _records)
    w(pl, "run_experiment", "pipeline.run_experiment")
    w(pl, "build_feature_matrix", "pipeline.build_feature_matrix")
    w(pl, "select_risky_clusters", "pipeline.select_risky_clusters")
    w(pl, "cluster_points", "cluster.cluster_points")
    w(pl, "assign_new_points", "predict.assign_new_points", _predict_queries)
    w(pl, "fraud_metrics", "metrics.fraud_metrics")
    w(cl, "cluster_points", "cluster.cluster_points")
    w(cl, "ivf_build", "knn.ivf_build", _imbalance)
    w(cl, "ivf_search", "knn.ivf_search", _queries_of_graph)
    w(cl, "brute_force_knn", "knn.brute_force_knn", _queries_of_graph)
    w(cl, "core_distances", "reach.core_distances")
    w(cl, "mutual_reach_edges", "reach.mutual_reach_edges", _edges)
    w(cl, "kruskal_forest", "mst.kruskal_forest", _forest)
    w(cl, "attach_forest_root", "mst.attach_forest_root")
    w(cl, "single_linkage", "hierarchy.single_linkage")
    w(cl, "condense_tree", "hierarchy.condense_tree", _condensed)
    w(cl, "extract_clusters", "hierarchy.extract_clusters")
    w(knn, "kmeans_fit", "knn.kmeans_fit", _iters)
    w(knn, "sqdist_fast", "knn.sqdist_fast", _cells)
    # searches score candidates through the kernel table
    w(knn._KERNELS, "exact", "knn.sqdist_exact", _cells)
    w(knn._KERNELS, "fast", "knn.kernel_fast", _cells)
    w(riskcluster.mst, "sorted_edge_order", "mst.sorted_edge_order")
    w(riskcluster.predict, "sqdist_exact", "predict.sqdist_exact", _cells)
    tracer.wrap_dispatch(knn)
    tracer.wrap_dispatch(riskcluster.predict)


# ---- per-layer metrics ----------------------------------------------------

def _union(intervals, lo, hi):
    covered = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


class _OpSpans:
    def __init__(self, spans):
        self.by_name = {}
        self.children = {}
        for s in spans:
            self.by_name.setdefault(s.name, []).append(s)
            if s.name != DISPATCH:
                self.children.setdefault(s.parent, []).append(s)

    def spans(self, name):
        return self.by_name.get(name, [])

    def total(self, name):
        """Summed duration (busy time, over both threads)."""
        return sum(s.dur for s in self.spans(name))

    def self_time(self, name):
        return sum(
            s.dur - _union([(c.start, c.end)
                            for c in self.children.get(s.id, [])],
                           s.start, s.end)
            for s in self.spans(name))

    def attr(self, name, key):
        return sum(s.attrs.get(key, 0) for s in self.spans(name))


def _ratio(num, den):
    return num / den if den else 0.0


def op_layer_metrics(spans):
    """Every per-layer figure for the spans of one op.

    Times are seconds per op, counts are per op. A layer the op never calls
    reads 0.
    """
    o = _OpSpans(spans)
    wall = o.total(ROOT)
    m = {}
    m["model.load_transactions.s"] = o.total("model.load_transactions")
    m["model.load_transactions.records_per_s"] = _ratio(
        o.attr("model.load_transactions", "records"),
        m["model.load_transactions.s"])
    m["pipeline.build_feature_matrix.s"] = o.total(
        "pipeline.build_feature_matrix")
    m["pipeline.select_risky_clusters.s"] = o.total(
        "pipeline.select_risky_clusters")
    m["pipeline.run_experiment.self_s"] = o.self_time(
        "pipeline.run_experiment")
    m["metrics.fraud_metrics.s"] = o.total("metrics.fraud_metrics")
    m["cluster.cluster_points.self_s"] = o.self_time("cluster.cluster_points")

    m["knn.ivf_build.s"] = o.total("knn.ivf_build")
    m["knn.kmeans_fit.s"] = o.total("knn.kmeans_fit")
    m["knn.ivf_search.self_s"] = o.self_time("knn.ivf_search")
    m["knn.brute_force_knn.self_s"] = o.self_time("knn.brute_force_knn")
    m["knn.sqdist_exact.s"] = o.total("knn.sqdist_exact")
    m["knn.sqdist_fast.s"] = o.total("knn.sqdist_fast")
    m["knn.kmeans_fit.iters"] = o.attr("knn.kmeans_fit", "iters")
    m["knn.ivf.cell_imbalance"] = o.attr("knn.ivf_build", "imbalance")
    exact_cells = o.attr("knn.sqdist_exact", "cells")
    m["knn.sqdist_exact.gcells"] = exact_cells / 1e9
    m["knn.sqdist_exact.gcells_per_s"] = _ratio(
        exact_cells / 1e9, m["knn.sqdist_exact.s"])
    m["knn.sqdist_fast.gcells"] = o.attr("knn.sqdist_fast", "cells") / 1e9
    m["knn.candidates_per_query"] = _ratio(
        exact_cells + o.attr("knn.kernel_fast", "cells"),
        o.attr("knn.ivf_search", "queries")
        + o.attr("knn.brute_force_knn", "queries"))

    m["reach.core_distances.s"] = o.total("reach.core_distances")
    m["reach.mutual_reach_edges.s"] = o.total("reach.mutual_reach_edges")
    m["reach.edges"] = o.attr("reach.mutual_reach_edges", "edges")

    edges_in = o.attr("mst.kruskal_forest", "edges_in")
    m["mst.kruskal_forest.self_s"] = o.self_time("mst.kruskal_forest")
    m["mst.sorted_edge_order.s"] = o.total("mst.sorted_edge_order")
    m["mst.attach_forest_root.s"] = o.total("mst.attach_forest_root")
    m["mst.edges_in"] = edges_in
    m["mst.accept_ratio"] = _ratio(
        o.attr("mst.kruskal_forest", "accepted"), edges_in)
    m["mst.tie_frac"] = 1.0 - _ratio(
        o.attr("mst.kruskal_forest", "distinct_w"), edges_in)
    m["mst.components"] = o.attr("mst.kruskal_forest", "components")

    m["hierarchy.single_linkage.s"] = o.total("hierarchy.single_linkage")
    m["hierarchy.condense_tree.s"] = o.total("hierarchy.condense_tree")
    m["hierarchy.extract_clusters.s"] = o.total("hierarchy.extract_clusters")
    m["hierarchy.condensed_clusters"] = o.attr(
        "hierarchy.condense_tree", "clusters")

    m["predict.assign_new_points.self_s"] = o.self_time(
        "predict.assign_new_points")
    m["predict.queries_per_s"] = _ratio(
        o.attr("predict.assign_new_points", "queries"),
        o.total("predict.assign_new_points"))
    m["predict.sqdist_exact.s"] = o.total("predict.sqdist_exact")
    m["predict.sqdist_exact.gcells"] = o.attr(
        "predict.sqdist_exact", "cells") / 1e9

    dispatch = o.spans(DISPATCH)
    m["parallel.run_chunked.tasks"] = o.attr(DISPATCH, "tasks")
    m["parallel.run_chunked.efficiency"] = _ratio(
        o.attr(DISPATCH, "busy"),
        sum(s.attrs["workers"] * s.dur for s in dispatch))

    m["trace.uncovered_frac"] = _ratio(o.self_time(ROOT), wall)
    # a layer's share of the op (x.s -> x.share, x.self_s -> x.self_share)
    for key in [k for k in m if k.endswith((".s", ".self_s"))]:
        m[key[:-1] + "share"] = _ratio(m[key], wall)
    return m


def layer_metrics(spans):
    """Median over ops of every per-op layer figure."""
    per_op = {}
    for s in spans:
        per_op.setdefault(s.op, []).append(s)
    rows = [op_layer_metrics(v) for k, v in sorted(per_op.items())
            if k is not None]
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}
