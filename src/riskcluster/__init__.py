"""Density-based clustering toolkit with a fraud-detection harness.

The clustering pipeline goes kNN graph -> mutual reachability -> minimum
spanning forest -> single-linkage hierarchy -> condensed tree -> stable
clusters. On top of it sit inductive prediction, synthetic data generators,
evaluation metrics, the fraud experiment harness, and rule-based cluster
explanation.
"""

__version__ = "0.1.0"

from .cluster import ClusterParams, ClusterResult, cluster_points
from .datagen import SyntheticSpec, benchmark_manifest, fraud_stream, generate
from .explain import ExplainConfig, Rule, dedup_rules, fit_rules, render_rule
from .hierarchy import (
    MAX_LAMBDA, CondensedTree, SingleLinkageTree, StabilityScores,
    condense_tree, extract_clusters, single_linkage, stability_scores)
from .knn import (
    IvfIndex, KMeansResult, KnnGraph, brute_force_knn, ivf_build, ivf_search,
    kmeans_fit, sqdist_exact, sqdist_fast)
from .metrics import FraudReport, adjusted_rand_index, fraud_metrics
from .model import (
    ClickSession, ClusterAssignment, PointSet, TransactionRecord,
    load_points, load_transactions, save_points, save_transactions)
from .mst import (
    SpanningForest, UnionFind, attach_forest_root, kruskal_forest)
from .pipeline import (
    ExperimentSpec, RiskyClusterConfig, SessionFeatures,
    build_feature_matrix, extract_session_features, run_experiment,
    select_risky_clusters)
from .predict import InductiveModel, assign_new_points
from .reach import CoreDistances, EdgeList, core_distances, mutual_reach_edges

__all__ = [
    "MAX_LAMBDA",
    "ClickSession",
    "ClusterAssignment",
    "ClusterParams",
    "ClusterResult",
    "CondensedTree",
    "CoreDistances",
    "EdgeList",
    "ExperimentSpec",
    "ExplainConfig",
    "FraudReport",
    "InductiveModel",
    "IvfIndex",
    "KMeansResult",
    "KnnGraph",
    "PointSet",
    "RiskyClusterConfig",
    "Rule",
    "SessionFeatures",
    "SingleLinkageTree",
    "SpanningForest",
    "StabilityScores",
    "SyntheticSpec",
    "TransactionRecord",
    "UnionFind",
    "__version__",
    "adjusted_rand_index",
    "assign_new_points",
    "attach_forest_root",
    "benchmark_manifest",
    "brute_force_knn",
    "build_feature_matrix",
    "cluster_points",
    "condense_tree",
    "core_distances",
    "dedup_rules",
    "extract_clusters",
    "extract_session_features",
    "fit_rules",
    "fraud_metrics",
    "fraud_stream",
    "generate",
    "ivf_build",
    "ivf_search",
    "kmeans_fit",
    "kruskal_forest",
    "load_points",
    "load_transactions",
    "mutual_reach_edges",
    "render_rule",
    "run_experiment",
    "save_points",
    "save_transactions",
    "select_risky_clusters",
    "single_linkage",
    "sqdist_exact",
    "sqdist_fast",
    "stability_scores",
]
