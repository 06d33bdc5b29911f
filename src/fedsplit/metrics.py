"""Evaluation metrics and model selection.

AUC is computed rank-based (Mann-Whitney U) with half credit for ties,
O(n log n). A validation AUC is a new best when it beats the running best
by more than IMPROVEMENT_EPS (1e-5 absolute AUC); the epoch loop in
`splitnn` keeps that best and stops early on it. Histories serialize to
line-delimited JSON, one record per epoch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import MetricUndefinedError, NumericError, ValidationError

IMPROVEMENT_EPS = 1e-5


@dataclass(frozen=True)
class AucResult:
    auc: float
    n_pos: int
    n_neg: int


def auc(scores, labels) -> AucResult:
    """Area under the ROC curve via average ranks; ties get half credit.

    Labels must be 0/1 with at least one of each class. A NaN score has no
    rank, so it is refused with a NumericError. Rank sums are exact
    half-integers, so the result matches brute-force pair counting bit for
    bit.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValidationError(f"scores {s.shape} and labels {y.shape} must be equal 1-D")
    n_nan = int(np.isnan(s).sum())
    if n_nan:
        raise NumericError(f"{n_nan} of {len(s)} scores are NaN")
    if not np.all(np.isin(y, (0, 1))):
        raise ValidationError("labels must be 0 or 1")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError(
            f"AUC undefined with {n_pos} positives and {n_neg} negatives"
        )
    order = np.argsort(s, kind="mergesort")
    sorted_scores = s[order]
    # a tie group starts wherever the sorted score changes
    starts = np.flatnonzero(np.concatenate(([True], sorted_scores[1:] != sorted_scores[:-1])))
    ends = np.append(starts[1:], len(s)) - 1
    ranks = np.empty(len(s), dtype=np.float64)
    # average of 1-based ranks start+1 .. end+1 is an exact half-integer
    ranks[order] = np.repeat((starts + ends + 2) / 2.0, ends - starts + 1)
    rank_sum_pos = ranks[np.asarray(y) == 1].sum()
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return AucResult(auc=u / (n_pos * n_neg), n_pos=n_pos, n_neg=n_neg)


@dataclass
class EpochRecord:
    """One training epoch's bookkeeping."""

    epoch: int  # 1-based
    train_loss: float
    val_auc: float | None
    wall_time: float
    messages_sent: int = 0
    bytes_sent: int = 0
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "epoch": self.epoch,
                "train_loss": self.train_loss,
                "val_auc": self.val_auc,
                "wall_time": self.wall_time,
                "messages_sent": self.messages_sent,
                "bytes_sent": self.bytes_sent,
                **self.extra,
            }
        )


@dataclass
class MetricHistory:
    """Per-epoch records plus the best validation AUC over them."""

    records: list[EpochRecord] = field(default_factory=list)

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    @property
    def val_aucs(self) -> list[float]:
        return [r.val_auc for r in self.records if r.val_auc is not None]

    @property
    def best_val_auc(self) -> float | None:
        aucs = self.val_aucs
        return max(aucs) if aucs else None

    def to_jsonl(self) -> str:
        return "\n".join(r.to_json() for r in self.records) + ("\n" if self.records else "")
