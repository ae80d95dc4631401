"""The benchmark's wrappers still find every name they look up.

perfbench/tracing.py and perfbench/workloads.py replace package functions
where their callers look them up: module attributes such as
`cluster.attach_forest_root` and `predict.run_chunked`, and kNN kernel table
entries such as `knn._KERNELS["fast"]`. A refactor that renames or drops one
of those names breaks the benchmark; this test makes it break tier-1 first.
"""

import sys
from pathlib import Path
from unittest import mock

import pytest

from riskcluster import model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# tracing.install's span wrappers plus its two run_chunked dispatch wrappers
TRACED = 26


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


@pytest.fixture()
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
        yield tracing, workloads
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_wrapper_installs_and_restores(perfbench):
    tracing, workloads = perfbench
    tracer = tracing.Tracer()
    capture = workloads.GraphCapture()
    try:
        tracing.install(tracer)
        capture.install()
        installed = list(tracer._restore)
        assert len(installed) == TRACED
        assert sorted(capture._originals) == sorted(capture.NAMES)
        for owner, attr, original in installed:
            assert _get(owner, attr) is not original, attr
    finally:
        capture.restore()
        tracer.restore()
    for owner, attr, original in installed:
        assert _get(owner, attr) is original, attr


def test_traced_fraud_op_counts_loaded_records(perfbench, tmp_path):
    # a layer figure the tracer cannot see reads 0, not an error
    tracing, workloads = perfbench
    wl = workloads.FraudInductive()
    wl.setup(1, tmp_path)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        root = tracer.start_op(0)
        wl.op(0)
        tracer.end_op(root)
    finally:
        tracer.restore()
    layers = tracing.op_layer_metrics(tracer.spans)
    (span,) = [s for s in tracer.spans if s.name == "model.load_transactions"]
    assert span.attrs["records"] == 5100
    assert layers["model.load_transactions.records_per_s"] > 0
    assert layers["pipeline.build_feature_matrix.s"] > 0


@pytest.mark.parametrize("seed", [1, 1009])
def test_fraud_stream_loads_through_the_columns(perfbench, tmp_path, seed):
    # a chunk with a value of no plain kind is built row by row through the
    # record constructor; the benchmark's stream must take the column path
    _, workloads = perfbench
    wl = workloads.FraudInductive()
    wl.setup(seed, tmp_path)
    with mock.patch.object(model, "_coerce", wraps=model._coerce) as coerce:
        batch = model.load_transactions(wl.path)
    assert coerce.call_count == 0
    assert len(batch) == 5100


def test_exact_full_graph_op_hands_over_an_exact_graph(perfbench, tmp_path):
    # the run's knn_recall comes from the graph GraphCapture takes off
    # cluster.brute_force_knn; the full-graph op must still search through
    # it, and the graph it searches (min_samples wide) must be exact
    _, workloads = perfbench
    wl = workloads.ExactFullGraph()
    wl.setup(1, tmp_path)
    capture = workloads.GraphCapture()
    capture.install()
    try:
        capture.armed = True
        out = wl.op(0)
    finally:
        capture.restore()
    points, graph = capture.take()
    assert graph is not None
    assert points is wl.data[0][0]
    assert workloads.knn_recall(points, graph, 1) == 1.0
    assert wl.check(0, out) is None


# knn.sqdist_fast calls and cells of one traced ivf_blobs op on seed 1:
# only k-means++ seeding goes through the module's sqdist_fast, one call
# of the 6400 training points per centroid (256 x 6400 cells); Lloyd
# assignment, the postings pass and the search's probe order are exact
# and make no call
IVF_FAST_CALLS = 256
IVF_FAST_CELLS = 1_638_400


def _traced_op(tracing, wl):
    """Spans of one traced op of a set-up workload."""
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        root = tracer.start_op(0)
        wl.op(0)
        tracer.end_op(root)
    finally:
        tracer.restore()
    return tracer.spans


def test_traced_ivf_op_counts_every_fast_distance(perfbench, tmp_path):
    tracing, workloads = perfbench
    wl = workloads.IvfBlobs()
    wl.setup(1, tmp_path)
    spans = _traced_op(tracing, wl)
    layers = tracing.op_layer_metrics(spans)
    spans = [s for s in spans if s.name == "knn.sqdist_fast"]
    assert len(spans) == IVF_FAST_CALLS
    assert sum(s.attrs["cells"] for s in spans) == IVF_FAST_CELLS
    assert layers["knn.sqdist_fast.gcells"] == IVF_FAST_CELLS / 1e9


@pytest.mark.parametrize("workload, sorts", [
    ("IvfBlobs", 1),        # kruskal_forest's one sort
    ("ExactFullGraph", 2),  # the listed edges', then the tree's
])
def test_traced_op_times_each_step_from_edges_to_labels(
        perfbench, tmp_path, workload, sorts):
    # the edge sort, the dendrogram and the condensation each keep a span
    # of their own, so the trace can tell which of them a change moved
    tracing, workloads = perfbench
    wl = getattr(workloads, workload)()
    wl.setup(1, tmp_path)
    spans = _traced_op(tracing, wl)
    names = [s.name for s in spans]
    assert names.count("mst.sorted_edge_order") == sorts
    assert names.count("hierarchy.single_linkage") == 1
    assert names.count("hierarchy.condense_tree") == 1
    layers = tracing.op_layer_metrics(spans)
    for name in ("mst.sorted_edge_order", "hierarchy.single_linkage",
                 "hierarchy.condense_tree"):
        assert layers[name + ".s"] > 0
