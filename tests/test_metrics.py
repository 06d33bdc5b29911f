"""AUC against a pair-counting oracle, early stopping, epoch accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsplit.errors import MetricUndefinedError, NumericError, ValidationError
from fedsplit.metrics import (
    EpochRecord,
    MetricHistory,
    auc,
)
from fedsplit.splitnn import TrainSettings, _epoch_loop
from oracles import best_epoch, epochs_to_auc, from_jsonl


def auc_pair_counting(scores, labels):
    """O(n_pos * n_neg) oracle: concordant pairs plus half credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_separation(self):
        result = auc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0])
        assert result.auc == 1.0
        assert result.n_pos == 2 and result.n_neg == 2

    def test_three_of_four_concordant(self):
        # pairs: (.9,.8)+, (.9,.2)+, (.3,.8)-, (.3,.2)+ -> 3/4
        assert auc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]).auc == 0.75

    def test_all_ties_give_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]).auc == 0.5

    def test_single_class_is_undefined(self):
        with pytest.raises(MetricUndefinedError):
            auc([0.1, 0.2], [1, 1])

    def test_bad_labels_rejected(self):
        with pytest.raises(ValidationError):
            auc([0.1, 0.2], [1, 2])

    @pytest.mark.parametrize("labels", [[1, 0, 0, 1], [0, 0, 1, 1]])
    def test_nan_scores_are_refused_whatever_the_row_order(self, labels):
        # a NaN has no rank; these two orders used to give 0.5 and 0.75
        with pytest.raises(NumericError, match="2 of 4 scores are NaN"):
            auc([np.nan, 0.2, np.nan, 0.9], labels)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=200)
        labels = (rng.random(200) > 0.6).astype(int)
        base = auc(scores, labels).auc
        assert auc(np.exp(scores), labels).auc == base
        assert auc(3 * scores + 7, labels).auc == base

    @given(
        st.integers(2, 60),
        st.integers(0, 2**31 - 1),
        st.sampled_from([2, 3, 1000]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_pair_counting_oracle_exactly(self, n, seed, levels):
        rng = np.random.default_rng(seed)
        # few score levels force heavy ties
        scores = rng.integers(0, levels, size=n).astype(np.float64)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert auc(scores, labels).auc == auc_pair_counting(scores, labels)


def early_stop(val_aucs, patience):
    """Run `_epoch_loop` with a stub step over one scripted validation AUC
    per epoch, and one epoch more whose AUC of 0 is never a new best.
    Returns (stopped before that extra epoch, 0-based index of the epoch
    whose snapshot was restored)."""
    scripted = iter([*val_aucs, 0.0])
    epochs, restored = [], []
    history = _epoch_loop(
        TrainSettings(epochs=len(val_aucs) + 1, patience=patience, batch_size=2),
        np.arange(2), lambda epoch, batch_no, rows, diverged: epochs.append(epoch) or 1.0,
        validate=lambda diverged: next(scripted),
        snapshot=lambda: epochs[-1] - 1, restore=restored.append,
    )
    return len(history.records) == len(val_aucs), restored[0]


class TestEarlyStop:
    def test_monotone_improvement_never_stops(self):
        stop, best = early_stop([0.5, 0.6, 0.7, 0.8], patience=2)
        assert not stop and best == 3

    def test_spec_trace(self):
        # best at evaluation 2; three stale evaluations later we stop
        stop, best = early_stop([0.70, 0.71, 0.705, 0.705, 0.705], patience=3)
        assert stop and best == 1

    def test_trace_not_yet_stale_enough(self):
        stop, _ = early_stop([0.70, 0.71, 0.705, 0.705], patience=3)
        assert not stop

    def test_patience_zero_stops_at_first_non_improvement(self):
        stop, best = early_stop([0.7, 0.69], patience=0)
        assert stop and best == 0

    def test_improvement_below_threshold_counts_as_stale(self):
        stop, best = early_stop([0.7, 0.7000001, 0.7000002], patience=2)
        assert stop and best == 0


def make_history(aucs):
    history = MetricHistory()
    for i, value in enumerate(aucs, start=1):
        history.append(EpochRecord(epoch=i, train_loss=1.0, val_auc=value, wall_time=0.0))
    return history


class TestHistory:
    def test_best_epoch_first_occurrence_on_ties(self):
        history = make_history([0.6, 0.7, 0.7, 0.65])
        assert best_epoch(history) == 2
        assert history.best_val_auc == 0.7

    def test_jsonl_round_trip(self):
        history = make_history([0.6, 0.7])
        history.records[0].extra["match_accuracy"] = 0.9
        text = history.to_jsonl()
        back = from_jsonl(text)
        assert back.records[0].val_auc == 0.6
        assert back.records[0].extra["match_accuracy"] == 0.9
        assert back.records[1].epoch == 2

    def test_epochs_to_auc(self):
        history = make_history([0.6, 0.7, 0.8])
        assert epochs_to_auc(history, 0.5) == 1
        assert epochs_to_auc(history, 0.75) == 3
        assert epochs_to_auc(history, 0.9) is None
