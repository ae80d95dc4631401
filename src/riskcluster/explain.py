"""Rule-based cluster explanation.

Bagged shallow decision trees turn a binary target (typically "member of
risky cluster X") into conjunctive threshold rules. Every root-to-leaf path
ending in a positive-majority leaf becomes a candidate rule; candidates are
scored out-of-bag, filtered by precision/recall thresholds, and semantically
deduplicated by coverage overlap.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .model import reject_non_numbers

_MIN_LEAF = 3
_EPS_GAIN = 1e-12


@dataclass(frozen=True)
class ExplainConfig:
    n_tree_estimators: int = 10
    max_depth: int = 4
    min_precision: float = 0.7
    min_recall: float = 0.1
    n_bootstrap_rounds: int = 8
    dedup_similarity: float = 0.9

    def __post_init__(self):
        reject_non_numbers(
            self,
            integers=("n_tree_estimators", "max_depth", "n_bootstrap_rounds"),
            reals=("min_precision", "min_recall", "dedup_similarity"))
        if self.n_tree_estimators < 1:
            raise ValueError("n_tree_estimators must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.n_bootstrap_rounds < 1:
            raise ValueError("n_bootstrap_rounds must be >= 1")
        for name in ("min_precision", "min_recall", "dedup_similarity"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class Rule:
    """Conjunction of threshold predicates with out-of-bag quality stats.

    predicates is a tuple of (feature_name, op, threshold) with op in
    {"<=", ">"}, normalized to at most one bound per (feature, op).
    precision and recall were measured on rows the growing tree never saw;
    support counts covered rows in the full training matrix. coverage is
    the boolean covered-row mask on that matrix, kept for deduplication.
    """

    predicates: tuple
    precision: float
    recall: float
    support: int
    coverage: np.ndarray = field(compare=False, repr=False)


def _normalize_path(path):
    """Collapse a root-to-leaf predicate path to canonical bounds.

    Multiple lower bounds on one feature keep the max, multiple upper
    bounds keep the min. Output sorted by (feature index, lower-first).
    """
    lower = {}
    upper = {}
    for fidx, name, op, thr in path:
        if op == ">":
            if fidx not in lower or thr > lower[fidx][1]:
                lower[fidx] = (name, thr)
        else:
            if fidx not in upper or thr < upper[fidx][1]:
                upper[fidx] = (name, thr)
    out = []
    for fidx in sorted(set(lower) | set(upper)):
        if fidx in lower:
            name, thr = lower[fidx]
            out.append((name, ">", float(thr)))
        if fidx in upper:
            name, thr = upper[fidx]
            out.append((name, "<=", float(thr)))
    return tuple(out)


def rule_mask(predicates, x, names):
    """Boolean covered-row mask of a predicate conjunction over x."""
    col_of = {name: i for i, name in enumerate(names)}
    mask = np.ones(x.shape[0], dtype=bool)
    for name, op, thr in predicates:
        col = x[:, col_of[name]]
        mask &= (col > thr) if op == ">" else (col <= thr)
    return mask


def render_rule(rule):
    """Human-readable conjunction text, e.g. "f1 > 10.03 and f2 <= 1.98"."""
    parts = [
        f"{name} {op} "
        f"{np.format_float_positional(thr, unique=True, trim='0')}"
        for name, op, thr in rule.predicates]
    return " and ".join(parts)


def rules_to_json(rules):
    """JSON-ready structured form of a rule list."""
    return [
        {
            "predicates": [
                {"feature": name, "op": op, "threshold": thr}
                for name, op, thr in r.predicates],
            "text": render_rule(r),
            "precision": r.precision,
            "recall": r.recall,
            "support": r.support,
        }
        for r in rules]


def _gini_of(pos, n):
    p = pos / n
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def _best_split(x, y, min_leaf):
    """Best (gain, feature, threshold) Gini split, or None.

    Ties break toward the lower feature index, then the lower threshold
    (first argmax over ascending candidate thresholds).
    """
    n = y.size
    total_pos = int(y.sum())
    if total_pos == 0 or total_pos == n or n < 2 * min_leaf:
        return None
    parent = _gini_of(total_pos, n)
    best = None
    for fidx in range(x.shape[1]):
        col = x[:, fidx]
        order = np.argsort(col, kind="stable")
        cs = col[order]
        ys = y[order]
        cum_pos = np.cumsum(ys)
        sizes = np.arange(1, n)
        valid = cs[1:] > cs[:-1]
        valid &= (sizes >= min_leaf) & ((n - sizes) >= min_leaf)
        if not valid.any():
            continue
        left_pos = cum_pos[:-1]
        right_pos = total_pos - left_pos
        right_n = n - sizes
        with np.errstate(invalid="ignore"):
            gl = 1.0 - (left_pos / sizes) ** 2 - (
                (sizes - left_pos) / sizes) ** 2
            gr = 1.0 - (right_pos / right_n) ** 2 - (
                (right_n - right_pos) / right_n) ** 2
        gain = parent - (sizes * gl + right_n * gr) / n
        gain[~valid] = -np.inf
        pick = int(np.argmax(gain))
        g = float(gain[pick])
        if g <= _EPS_GAIN:
            continue
        lo, hi = cs[pick], cs[pick + 1]
        thr = (lo + hi) / 2.0
        if not lo <= thr < hi:
            thr = lo
        if best is None or g > best[0]:
            best = (g, fidx, float(thr))
    return best


def _grow(x, y, names, depth, max_depth, min_leaf, path, out):
    pos = int(y.sum())
    n = y.size
    split = _best_split(x, y, min_leaf) if depth < max_depth else None
    if split is None:
        if n > 0 and pos * 2 > n and path:
            out.append(tuple(path))
        return
    _, fidx, thr = split
    left = x[:, fidx] <= thr
    path.append((fidx, names[fidx], "<=", thr))
    _grow(x[left], y[left], names, depth + 1, max_depth, min_leaf, path, out)
    path[-1] = (fidx, names[fidx], ">", thr)
    _grow(x[~left], y[~left], names, depth + 1, max_depth, min_leaf, path,
          out)
    path.pop()


def harvest_tree_rules(x, y, names, max_depth, min_leaf=_MIN_LEAF):
    """All normalized positive-majority leaf paths of one greedy tree."""
    out = []
    _grow(x, y, tuple(names), 0, max_depth, min_leaf, [], out)
    seen = set()
    rules = []
    for path in out:
        norm = _normalize_path(path)
        if norm and norm not in seen:
            seen.add(norm)
            rules.append(norm)
    return rules


def dedup_rules(rules, similarity_threshold):
    """Greedy semantic deduplication by coverage Jaccard.

    Rules are visited in quality order (precision desc, recall desc,
    support desc, text) and dropped when their covered-row Jaccard with any
    kept rule exceeds the threshold. Two empty coverages count as identical
    (similarity 1).
    """
    ordered = sorted(
        rules,
        key=lambda r: (-r.precision, -r.recall, -r.support, render_rule(r)))
    kept = []
    for rule in ordered:
        drop = False
        for other in kept:
            inter = int(np.sum(rule.coverage & other.coverage))
            union = int(np.sum(rule.coverage | other.coverage))
            sim = 1.0 if union == 0 else inter / union
            if sim > similarity_threshold:
                drop = True
                break
        if not drop:
            kept.append(rule)
    return kept


def fit_rules(x, names, y, config=None, seed=0):
    """Mine high-precision conjunctive rules for a binary target.

    Per bootstrap round, all positives are paired with a fresh 3:1 batch of
    sampled negatives; each estimator fits a depth-limited Gini tree on a
    bootstrap resample of that pool and is scored on its out-of-bag rows.
    Candidate rules that clear min_precision and min_recall out-of-bag are
    deduplicated and returned sorted by (precision desc, recall desc).
    x must be finite and y hold only 0 and 1 (or False and True).
    """
    if config is None:
        config = ExplainConfig()
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("feature matrix must be 2-d")
    if not np.isfinite(x).all():
        raise ValueError("feature matrix contains non-finite values")
    names = tuple(str(n) for n in names)
    if len(names) != x.shape[1]:
        raise ValueError("names length does not match feature count")
    if len(set(names)) != len(names):
        raise ValueError("feature names must be unique")
    y = np.asarray(y)
    if not np.isin(y, (0, 1)).all():
        raise ValueError("target must hold only 0 and 1")
    y = y.astype(bool)
    if y.shape != (x.shape[0],):
        raise ValueError("target not aligned with feature matrix")
    pos_idx = np.flatnonzero(y)
    neg_idx = np.flatnonzero(~y)
    if pos_idx.size == 0 or neg_idx.size == 0:
        raise ValueError("target has a single class")
    yi = y.astype(np.int64)
    root = np.random.SeedSequence(seed)
    round_seqs = root.spawn(config.n_bootstrap_rounds)
    # predicates -> (precision, recall) best stats seen out-of-bag
    candidates = {}
    for round_seq in round_seqs:
        streams = round_seq.spawn(config.n_tree_estimators + 1)
        neg_rng = np.random.Generator(np.random.PCG64(streams[0]))
        n_neg = min(neg_idx.size, 3 * pos_idx.size)
        batch_neg = neg_rng.choice(neg_idx, size=n_neg, replace=False)
        pool = np.sort(np.concatenate([pos_idx, batch_neg]))
        for est_seq in streams[1:]:
            rng = np.random.Generator(np.random.PCG64(est_seq))
            boot = rng.choice(pool, size=pool.size, replace=True)
            oob = np.setdiff1d(pool, boot)
            oob_pos = int(yi[oob].sum())
            if oob.size == 0 or oob_pos == 0:
                continue
            mined = harvest_tree_rules(
                x[boot], yi[boot], names, config.max_depth)
            if not mined:
                continue
            x_oob = x[oob]
            y_oob = y[oob]
            for predicates in mined:
                mask = rule_mask(predicates, x_oob, names)
                covered = int(mask.sum())
                if covered == 0:
                    continue
                hits = int(np.sum(mask & y_oob))
                precision = hits / covered
                recall = hits / oob_pos
                if (precision < config.min_precision
                        or recall < config.min_recall):
                    continue
                prev = candidates.get(predicates)
                if prev is None or (precision, recall) > prev:
                    candidates[predicates] = (precision, recall)
    rules = []
    for predicates, (precision, recall) in candidates.items():
        coverage = rule_mask(predicates, x, names)
        rules.append(Rule(
            predicates=predicates,
            precision=float(precision),
            recall=float(recall),
            support=int(coverage.sum()),
            coverage=coverage,
        ))
    return dedup_rules(rules, config.dedup_similarity)
