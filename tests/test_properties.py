"""Property-based invariant tests.

Three invariant families run at high example counts: the single-linkage
dendrogram vs the oracle's merge list, condensation vs the oracle's rows,
row for row, and vs the reference checker, and deduplication's
pairwise-overlap bound. The config
readers take a value of any JSON kind in any field and either accept it or
raise ValueError, and an accepted snapshot number is the integer given. The
noise-monotonicity family is expected to fail: excess-of-mass selection can
fall back to a coarser ancestor at a larger min_cluster_size and reclaim
points that were noise at a smaller one. That test is marked strict-xfail
and the counterexample is pinned separately so the behavior stays
documented.
"""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskcluster.cluster import ClusterParams, cluster_points
from riskcluster.datagen import SyntheticSpec, generate
from riskcluster.explain import ExplainConfig, Rule, dedup_rules
from riskcluster.hierarchy import condense_tree, single_linkage
from riskcluster.knn import ivf_build, ivf_search
from riskcluster.mst import attach_forest_root, kruskal_forest
from riskcluster.pipeline import (
    ExperimentSpec, RiskyClusterConfig, SamplingSpec)
from riskcluster.reach import (
    EdgeList, core_distances, mutual_reach_edges)

from oracle import (
    condense_merges, condensed_invariants, single_linkage_from_edges)

BULK = settings(max_examples=1000, derandomize=True, deadline=None)


def _tree_triples(data, n):
    """Random spanning tree as ascending-weight (u, v, w) triples, u < v.

    Vertex labels are shuffled and weights tie, hit 0.0, and include +inf:
    the +inf edges sort last and join the finite forest's components, the
    way attach_forest_root's root edges do.
    """
    label = data.draw(st.permutations(range(n)))
    weight = st.one_of(
        st.floats(0.0, 10.0, allow_nan=False),
        st.sampled_from([0.0, 1.0, 1.0, 2.0, np.inf]))
    triples = []
    for child in range(1, n):
        a = label[data.draw(st.integers(0, child - 1))]
        b = label[child]
        triples.append((min(a, b), max(a, b), data.draw(weight)))
    triples.sort(key=lambda t: t[2])
    return triples


def _tree_slt(triples, n):
    cols = np.array(triples, dtype=np.float64).reshape(-1, 3)
    return single_linkage(EdgeList(
        u=cols[:, 0].astype(np.int64), v=cols[:, 1].astype(np.int64),
        w=cols[:, 2]), n)


@BULK
@given(data=st.data())
def test_single_linkage_matches_oracle_merge_for_merge(data):
    n = data.draw(st.integers(1, 40))
    triples = _tree_triples(data, n)
    slt = _tree_slt(triples, n)
    want = single_linkage_from_edges(triples, n)
    assert slt.left.tolist() == [m[0] for m in want]
    assert slt.right.tolist() == [m[1] for m in want]
    assert slt.size.tolist() == [m[3] for m in want]
    want_dist = np.array([m[2] for m in want], dtype=np.float64)
    assert np.array_equal(slt.dist.view(np.int64), want_dist.view(np.int64))


def _spanning_edges(data, n):
    """Random spanning tree as an ascending-weight EdgeList."""
    weight = st.one_of(
        st.floats(0.0, 10.0, allow_nan=False),
        st.sampled_from([0.0, 1.0, 1.0, 2.0]))
    triples = []
    for child in range(1, n):
        parent = data.draw(st.integers(0, child - 1))
        triples.append((parent, child, data.draw(weight)))
    triples.sort(key=lambda t: t[2])
    return EdgeList(
        u=np.array([t[0] for t in triples], dtype=np.int64),
        v=np.array([t[1] for t in triples], dtype=np.int64),
        w=np.array([t[2] for t in triples], dtype=np.float64))


def _oracle_rows(ct):
    rows = []
    for i, p, b, s in zip(
            ct.cluster_id.tolist(), ct.cluster_parent.tolist(),
            ct.cluster_birth.tolist(), ct.cluster_size.tolist()):
        if p != -1:
            rows.append((p, i, b, s))
    for c, p, lam in zip(
            ct.fall_cluster.tolist(), ct.fall_point.tolist(),
            ct.fall_lambda.tolist()):
        rows.append((c, p, lam, 1))
    return rows


@BULK
@given(data=st.data())
def test_condensation_bookkeeping(data):
    n = data.draw(st.integers(2, 32))
    mcs = data.draw(st.integers(2, 8))
    slt = single_linkage(_spanning_edges(data, n), n)
    ct = condense_tree(slt, mcs)
    assert condensed_invariants(_oracle_rows(ct), n, mcs) == []
    # ids dense from n, parents precede children
    assert ct.cluster_id.tolist() == list(
        range(n, n + ct.num_clusters))
    assert ct.cluster_parent[0] == -1
    assert np.all(ct.cluster_parent[1:] < ct.cluster_id[1:])


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _assert_condensed_like_oracle(slt, mcs):
    """condense_tree's records equal the oracle's rows, order and bits."""
    n = slt.n
    ct = condense_tree(slt, mcs)
    merges = list(zip(slt.left.tolist(), slt.right.tolist(),
                      slt.dist.tolist(), slt.size.tolist()))
    rows, _ = condense_merges(merges, n, mcs)
    if n == 1:
        # the oracle leaves a lone point out; it falls from the root at 0
        assert rows == []
        rows = [(1, 0, 0.0, 1)]
    want = [(p, c, bits, s) for (p, c, _, s), bits
            in zip(rows, _bits([r[2] for r in rows]))]
    assert [r for r in want if r[1] >= n] == list(zip(
        ct.cluster_parent[1:].tolist(), ct.cluster_id[1:].tolist(),
        _bits(ct.cluster_birth[1:]), ct.cluster_size[1:].tolist()))
    assert [r for r in want if r[1] < n] == list(zip(
        ct.fall_cluster.tolist(), ct.fall_point.tolist(),
        _bits(ct.fall_lambda), [1] * ct.fall_point.size))


@BULK
@given(data=st.data())
def test_condense_tree_matches_oracle_row_for_row(data):
    # stability_scores sums fall records in order, so their order is part
    # of the result, not only the invariants
    n = data.draw(st.integers(1, 40))
    mcs = data.draw(st.integers(2, 8))
    _assert_condensed_like_oracle(_tree_slt(_tree_triples(data, n), n), mcs)


def test_condense_tree_matches_oracle_on_an_ivf_blobs_tree():
    # 12.8k x 16 blobs through the IVF graph and the forest's +inf joins
    pts, _ = generate(SyntheticSpec(
        shape="blobs", n=12_800, dim=16, centers=64, seed=16))
    g = ivf_search(ivf_build(pts, 256, seed=0, train_sample=6_400,
                             max_iter=10), pts, 16, 3)
    edges = mutual_reach_edges(g, core_distances(g, 16))
    tree = attach_forest_root(kruskal_forest(edges, pts.n))
    slt = single_linkage(tree, pts.n)
    assert np.isinf(slt.dist).any()
    for mcs in (2, 50):
        _assert_condensed_like_oracle(slt, mcs)


def test_condense_survives_deep_chain():
    # path graph: the dendrogram is one n-deep merge chain, so anything
    # recursive would blow the interpreter stack about 3000 vertices in
    n = 1_000_000
    idx = np.arange(n - 1, dtype=np.int64)
    edges = EdgeList(
        u=idx, v=idx + 1,
        w=np.linspace(1.0, 2.0, n - 1))
    slt = single_linkage(edges, n)
    ct = condense_tree(slt, 2)
    assert ct.num_clusters == 1
    assert ct.fall_point.size == n
    assert sorted(ct.fall_point.tolist()) == list(range(n))


@BULK
@given(data=st.data())
def test_dedup_pairwise_overlap_bounded(data):
    m = data.draw(st.integers(1, 20))
    k = data.draw(st.integers(0, 7))
    rules = []
    for idx in range(k):
        cov = np.array(
            data.draw(st.lists(st.booleans(), min_size=m, max_size=m)),
            dtype=bool)
        rules.append(Rule(
            predicates=((f"f{idx}", ">", float(idx)),),
            precision=data.draw(st.floats(0.0, 1.0, allow_nan=False)),
            recall=data.draw(st.floats(0.0, 1.0, allow_nan=False)),
            support=int(cov.sum()),
            coverage=cov))
    threshold = data.draw(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0]))
    kept = dedup_rules(rules, threshold)
    assert all(any(r is orig for orig in rules) for r in kept)
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            inter = int(np.sum(kept[i].coverage & kept[j].coverage))
            union = int(np.sum(kept[i].coverage | kept[j].coverage))
            sim = 1.0 if union == 0 else inter / union
            assert sim <= threshold


@pytest.mark.xfail(
    strict=True,
    reason="noise counts are not monotone in min_cluster_size:"
           " excess-of-mass selection can fall back to a coarser ancestor"
           " at a larger size floor and absorb points that were noise")
@settings(max_examples=1000, derandomize=True, deadline=None)
@given(data=st.data())
def test_noise_count_monotone_in_min_cluster_size(data):
    shape = data.draw(st.sampled_from(["circles", "moons"]))
    seed = data.draw(st.integers(0, 3))
    n = data.draw(st.sampled_from([150, 177, 200]))
    ms = data.draw(st.sampled_from([3, 6]))
    lo = data.draw(st.sampled_from([2, 3, 5, 8, 12]))
    hi = lo + data.draw(st.sampled_from([1, 3, 8, 15]))
    pts, _ = generate(SyntheticSpec(shape=shape, n=n, seed=seed))
    noise_lo = cluster_points(
        pts, ClusterParams(min_cluster_size=lo, min_samples=ms)).noise_count
    noise_hi = cluster_points(
        pts, ClusterParams(min_cluster_size=hi, min_samples=ms)).noise_count
    assert noise_hi >= noise_lo


def test_pinned_noise_monotonicity_counterexample():
    # concrete instance of the xfail above: raising the size floor from 5
    # to 8 REDUCES noise from 30 to 22 on this dataset
    pts, _ = generate(SyntheticSpec(shape="circles", n=150, seed=0))
    lo = cluster_points(
        pts, ClusterParams(min_cluster_size=5, min_samples=6))
    hi = cluster_points(
        pts, ClusterParams(min_cluster_size=8, min_samples=6))
    assert lo.noise_count == 30
    assert hi.noise_count == 22
    assert hi.noise_count < lo.noise_count


# a value of each JSON kind: ints inside and past int64, floats, 1e400
# (which reads back as inf), strings a field accepts, and containers
_JSON_VALUE = st.one_of(
    st.integers(-3, 200), st.sampled_from([2**63, -2**63 - 1, 10**400]),
    st.floats(), st.just(1e400),
    st.sampled_from(["", "x", "5", "0.5", "inductive", "ivf", "fast",
                     "hybrid"]),
    st.booleans(), st.none(),
    st.lists(st.one_of(st.integers(-2, 3), st.floats(), st.text(max_size=1)),
             max_size=3),
    st.dictionaries(st.sampled_from(["a", "events"]), st.integers(),
                    max_size=1))
_SECTIONS = {None: ExperimentSpec, "clustering": ClusterParams,
             "sampling": SamplingSpec, "risky": RiskyClusterConfig}
_FIELDS = [(section, f.name) for section, cls in _SECTIONS.items()
           for f in fields(cls)]


def _edits(cls):
    """Up to three (field name, JSON value) pairs for the fields of cls."""
    return st.lists(st.tuples(
        st.sampled_from([f.name for f in fields(cls)]), _JSON_VALUE),
        max_size=3)


def _accepts_or_rejects(call):
    """call() either returns or raises ValueError; anything else fails."""
    try:
        call()
    except ValueError:
        pass


# each test edits a few fields of a valid config, so that a fault in one
# field's check is not hidden behind another field's rejection
@BULK
@given(edits=st.lists(st.tuples(st.sampled_from(_FIELDS), _JSON_VALUE),
                      max_size=3))
def test_experiment_config_reader_raises_only_value_errors(edits):
    obj = {"mode": "inductive", "train_snapshots": [0], "test_snapshot": 1,
           "clustering": {"min_cluster_size": 10}}
    for (section, name), value in edits:
        target = obj if section is None else obj.setdefault(section, {})
        if isinstance(target, dict):
            target[name] = value
    _accepts_or_rejects(lambda: ExperimentSpec.from_json(json.dumps(obj)))


# mostly small integers, so that a fair share of windows is valid
_SNAPSHOT = st.integers(0, 3).flatmap(
    lambda i: _JSON_VALUE if i == 0 else st.integers(0, 9))


@BULK
@given(train=st.lists(_SNAPSHOT, max_size=3), test=_SNAPSHOT,
       windows=st.none() | st.lists(st.tuples(
           st.lists(_SNAPSHOT, max_size=3), _SNAPSHOT), max_size=2),
       both=st.booleans())
def test_accepted_snapshot_numbers_are_the_integers_given(
        train, test, windows, both):
    obj = {"mode": "inductive", "clustering": {"min_cluster_size": 10}}
    if windows is None or both:
        obj.update(train_snapshots=train, test_snapshot=test)
    if windows is not None:
        obj["windows"] = windows
    try:
        spec = ExperimentSpec.from_json(json.dumps(obj))
    except ValueError:
        return
    given = [(train, test)] if windows is None else windows
    if windows is not None and both:
        # the pair may go with windows only at its defaults
        assert train == [] and type(test) is int and test == 0
    assert all(type(s) is int for tr, te in given for s in (*tr, te))
    assert spec.windows == tuple((tuple(tr), te) for tr, te in given)


@BULK
@given(edits=_edits(ClusterParams))
def test_cluster_params_raise_only_value_errors(edits):
    _accepts_or_rejects(lambda: ClusterParams(
        **{"min_cluster_size": 10, **dict(edits)}).resolve(100))


@BULK
@given(edits=_edits(ExplainConfig))
def test_explain_config_raises_only_value_errors(edits):
    _accepts_or_rejects(lambda: ExplainConfig(**dict(edits)))
