"""Clustering and fraud-business metrics."""

import math
from dataclasses import asdict, dataclass

import numpy as np


def adjusted_rand_index(a, b):
    """Chance-corrected agreement between two labelings.

    Pair counts come from an integer contingency table and are combined in
    arbitrary-precision integers: C(n,2) products overflow 64 bits long
    before n reaches the scales this pipeline runs at.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("label arrays must be aligned and 1-d")
    n = a.shape[0]
    if n == 0:
        raise ValueError("labelings are empty")
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    nb = int(ib.max()) + 1
    # sparse contingency: distinct (row, col) cells only
    _, cell_counts = np.unique(
        ia.astype(np.int64) * nb + ib, return_counts=True)

    def comb2_sum(counts):
        counts = counts.astype(np.int64)
        return int((counts * (counts - 1) // 2).sum())

    index = comb2_sum(cell_counts)
    ea = comb2_sum(np.bincount(ia))
    eb = comb2_sum(np.bincount(ib))
    total = n * (n - 1) // 2
    # ARI = (index - ea*eb/total) / ((ea+eb)/2 - ea*eb/total), cleared of
    # divisions by multiplying through with 2*total
    num = 2 * total * index - 2 * ea * eb
    den = total * (ea + eb) - 2 * ea * eb
    if den == 0:
        return 1.0
    return num / den


@dataclass(frozen=True)
class FraudReport:
    precision: float
    recall: float
    f_score: float
    loss_saved: float
    profit_hurt: float
    return_rate: float
    no_predictions: bool
    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int

    def to_dict(self):
        out = asdict(self)
        if math.isinf(self.return_rate):
            out["return_rate"] = "inf"
        return out

    def to_text(self):
        rows = [
            ("precision", f"{self.precision:.4f}"),
            ("recall", f"{self.recall:.4f}"),
            ("f_score", f"{self.f_score:.4f}"),
            ("loss_saved", f"{self.loss_saved:.2f}"),
            ("profit_hurt", f"{self.profit_hurt:.2f}"),
            ("return_rate", "inf" if math.isinf(self.return_rate)
             else f"{self.return_rate:.2f}"),
            ("flagged_no_predictions", str(self.no_predictions).lower()),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def fraud_metrics(predicted_fraud, actual_fraud, amounts):
    """Transaction-level precision/recall plus the money view.

    loss_saved sums true-positive amounts, profit_hurt sums false-positive
    amounts, return_rate is their ratio (infinite when nothing was hurt).
    Zero predicted positives reports precision 0 with the no_predictions
    flag raised.
    """
    pred = np.asarray(predicted_fraud, dtype=bool)
    act = np.asarray(actual_fraud, dtype=bool)
    amt = np.asarray(amounts, dtype=np.float64)
    if not (pred.shape == act.shape == amt.shape) or pred.ndim != 1:
        raise ValueError("inputs must be aligned 1-d sequences")
    if amt.size and amt.min() < 0:
        raise ValueError("amounts must be nonnegative")
    tp = int(np.sum(pred & act))
    fp = int(np.sum(pred & ~act))
    fn = int(np.sum(~pred & act))
    tn = int(np.sum(~pred & ~act))
    no_predictions = (tp + fp) == 0
    precision = 0.0 if no_predictions else tp / (tp + fp)
    recall = 0.0 if (tp + fn) == 0 else tp / (tp + fn)
    f_score = (0.0 if precision + recall == 0
               else 2 * precision * recall / (precision + recall))
    loss_saved = float(amt[pred & act].sum())
    profit_hurt = float(amt[pred & ~act].sum())
    return_rate = math.inf if profit_hurt == 0 else loss_saved / profit_hurt
    return FraudReport(
        precision=precision,
        recall=recall,
        f_score=f_score,
        loss_saved=loss_saved,
        profit_hurt=profit_hurt,
        return_rate=return_rate,
        no_predictions=no_predictions,
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        true_negatives=tn,
    )
