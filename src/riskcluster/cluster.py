"""End-to-end clustering orchestrator with per-stage timings."""

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .hierarchy import condense_tree, extract_clusters, single_linkage
from .knn import (
    _KERNELS, brute_force_knn, default_nlist, default_nprobe, ivf_build,
    ivf_search)
from .model import reject_non_numbers
from .mst import attach_forest_root, full_graph_forest, kruskal_forest
from .parallel import resolve_threads
from .reach import EdgeList, core_distances, mutual_reach_edges


@dataclass(frozen=True)
class ClusterParams:
    min_cluster_size: int
    min_samples: int | None = None
    k: int | None = None
    mode: str = "exact"
    nlist: int | None = None
    nprobe: int | None = None
    seed: int = 0
    allow_single_cluster: bool = False
    kernel: str = "exact"
    ivf_train_sample: int | None = None
    ivf_max_iter: int = 25

    def __post_init__(self):
        reject_non_numbers(self, integers=(
            "min_cluster_size", "min_samples", "k", "nlist", "nprobe", "seed",
            "ivf_train_sample", "ivf_max_iter"))
        if self.mode not in ("exact", "ivf"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not isinstance(self.kernel, str) or self.kernel not in _KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.min_cluster_size < 2:
            raise ValueError("min_cluster_size must be >= 2")
        for name in ("min_samples", "k", "nlist", "nprobe",
                     "ivf_train_sample", "ivf_max_iter"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not isinstance(self.allow_single_cluster, bool):
            raise ValueError("allow_single_cluster must be true or false")

    def resolve(self, n):
        """Fill defaults against a dataset of n points."""
        min_samples = self.min_samples
        if min_samples is None:
            min_samples = self.min_cluster_size
        min_samples = min(min_samples, n - 1) if n > 1 else 1
        k = self.k if self.k is not None else min_samples
        k = min(k, n - 1) if n > 1 else 1
        if k < min_samples:
            raise ValueError(
                f"k={k} must be at least min_samples={min_samples}")
        nlist = self.nlist if self.nlist is not None else default_nlist(n)
        nlist = min(nlist, n)
        nprobe = (self.nprobe if self.nprobe is not None
                  else default_nprobe(nlist))
        nprobe = min(nprobe, nlist)
        return asdict(replace(
            self, min_samples=min_samples, k=k, nlist=nlist, nprobe=nprobe))


@dataclass(frozen=True)
class ClusterResult:
    assignment: object
    params: dict
    timings: dict
    component_count: int
    condensed: object = field(repr=False, default=None)

    @property
    def labels(self):
        return self.assignment.labels

    @property
    def strengths(self):
        return self.assignment.strengths

    @property
    def num_clusters(self):
        return self.assignment.num_clusters

    @property
    def noise_count(self):
        return int((self.assignment.labels == -1).sum())


def cluster_points(points, params, threads=None):
    """Run kNN -> reachability -> MST -> hierarchy -> stable clusters.

    In exact mode with the exact kernel and k = n - 1 (exact HDBSCAN*) no
    n - 1 neighbor rows are sorted and no n(n - 1)/2-edge list is built:
    the `knn` stage searches k' = max(min_samples + 1, 2 min_samples)
    neighbors (at most n - 1), the `reach` stage takes their core
    distances and mutual reachability edges, and the `mst` stage runs
    mst.full_graph_forest: Borůvka over those edges, certified by each
    point's last listed distance, then Prim over the components left, in
    O(n k') memory and with the bits the full kNN graph would give. Other
    graphs, a fast-kernel full graph included, go through
    mutual_reach_edges and kruskal_forest.
    """
    threads = resolve_threads(threads)
    n = points.n
    resolved = params.resolve(n)
    timings = {}
    t_start = time.perf_counter()

    if n == 1:
        no_edges = EdgeList(
            u=np.empty(0, dtype=np.int64), v=np.empty(0, dtype=np.int64),
            w=np.empty(0, dtype=np.float64))
        condensed = condense_tree(
            single_linkage(no_edges, 1), resolved["min_cluster_size"])
        assignment = extract_clusters(
            condensed, resolved["allow_single_cluster"])
        timings["total"] = time.perf_counter() - t_start
        return ClusterResult(
            assignment=assignment, params=resolved, timings=timings,
            component_count=1, condensed=condensed)

    t0 = time.perf_counter()
    full = (resolved["mode"] == "exact" and resolved["kernel"] == "exact"
            and resolved["k"] == n - 1)
    if resolved["mode"] == "ivf":
        index = ivf_build(
            points, resolved["nlist"], seed=resolved["seed"],
            max_iter=resolved["ivf_max_iter"],
            train_sample=resolved["ivf_train_sample"], threads=threads)
        timings["quantizer"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        knn = ivf_search(
            index, points, resolved["k"], resolved["nprobe"],
            threads=threads, kernel=resolved["kernel"])
    else:
        timings["quantizer"] = 0.0
        k = resolved["k"]
        if full:
            # the full graph's tree needs only short lists to bound its
            # unlisted edges. On the six seed-1 shapes at n = 1500 and
            # min_samples 10 (2 threads of a 2-core VM, best of 5), knn,
            # reach and mst took 29.1 ms a shape with 11 neighbors, 19.7
            # with 15, 19.5 with 20, 21.0 with 30 and 23.1 with 40; 20
            # leave 4 to 9 components for Prim
            ms = resolved["min_samples"]
            k = min(n - 1, max(ms + 1, 2 * ms))
        knn = brute_force_knn(
            points, k, threads=threads, kernel=resolved["kernel"])
    timings["knn"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    core = core_distances(knn, resolved["min_samples"])
    edges = mutual_reach_edges(knn, core)
    timings["reach"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if full:
        forest = full_graph_forest(
            points, core, edges, knn.neighbor_dists[:, -1], threads)
    else:
        forest = kruskal_forest(edges, n)
    tree_edges = attach_forest_root(forest)
    timings["mst"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    slt = single_linkage(tree_edges, n)
    timings["hierarchy"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    condensed = condense_tree(slt, resolved["min_cluster_size"])
    timings["condense"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    assignment = extract_clusters(
        condensed, resolved["allow_single_cluster"])
    timings["extract"] = time.perf_counter() - t0
    timings["total"] = time.perf_counter() - t_start

    return ClusterResult(
        assignment=assignment,
        params=resolved,
        timings=timings,
        component_count=forest.component_count,
        condensed=condensed,
    )
