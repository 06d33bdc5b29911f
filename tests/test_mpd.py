"""Derangements, pair-batch construction, the match loss, and pretraining."""

import itertools
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsplit.data import Batch, FeatureBlock, SyntheticSpec, synth_federated
from fedsplit.errors import ValidationError
from fedsplit.metrics import auc
from fedsplit.mpd import (
    build_mpd_batch,
    mpd_loss,
    pretrain,
    sample_derangement,
)
from fedsplit.numeric import sigmoid
from fedsplit.splitnn import TrainSettings, rng_for
from fedsplit.transport import MsgType

from test_splitnn import build_session, num_block, serve_in_thread

F32 = np.float32


def all_derangements(n):
    return [p for p in itertools.permutations(range(n))
            if all(p[i] != i for i in range(n))]


class TestSampleDerangement:
    def test_n2_unique(self):
        perm = sample_derangement(2, np.random.default_rng(0))
        np.testing.assert_array_equal(perm, [1, 0])

    def test_n3_enumeration(self):
        # brute force: exactly two derangements of size 3
        expected = {(1, 2, 0), (2, 0, 1)}
        assert set(all_derangements(3)) == expected
        for seed in range(20):
            perm = tuple(sample_derangement(3, np.random.default_rng(seed)))
            assert perm in expected

    def test_n1_has_no_derangement(self):
        with pytest.raises(ValidationError):
            sample_derangement(1, np.random.default_rng(0))

    def test_uniform_over_the_nine_derangements_of_four(self):
        options = {p: 0 for p in all_derangements(4)}
        assert len(options) == 9
        rng = np.random.default_rng(123)
        n_samples = 100_000
        for _ in range(n_samples):
            options[tuple(sample_derangement(4, rng))] += 1
        for perm, count in options.items():
            assert abs(count / n_samples - 1 / 9) < 0.01, (perm, count)

    @given(st.integers(2, 64), st.integers(0, 2**31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_zero_fixed_points_and_valid_permutation(self, n, seed):
        perm = sample_derangement(n, np.random.default_rng(seed))
        assert np.all(perm != np.arange(n))
        np.testing.assert_array_equal(np.sort(perm), np.arange(n))


class TestBuildMpdBatch:
    def _batch(self, m, d=3, seed=0):
        rng = np.random.default_rng(seed)
        return Batch(a=num_block(rng.normal(size=(m, d))),
                     b=num_block(rng.normal(size=(m, d))))

    def test_k1_m2_gives_the_two_cross_pairs(self):
        batch = self._batch(2)
        out = build_mpd_batch(batch, k=1, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(out.negative.a.num, batch.a.num[[1, 0]])
        np.testing.assert_array_equal(out.negative.b.num, batch.b.num)

    def test_no_negative_row_is_a_true_pair_when_rows_distinct(self):
        batch = self._batch(16)
        out = build_mpd_batch(batch, k=2, rng=np.random.default_rng(1))
        m = batch.n_rows
        for j in range(out.negative.n_rows):
            original = batch.a.num[j % m]
            assert not np.array_equal(out.negative.a.num[j], original)

    def test_negative_reuses_exact_b_rows(self):
        batch = self._batch(8)
        out = build_mpd_batch(batch, k=3, rng=np.random.default_rng(2))
        np.testing.assert_array_equal(out.negative.b.num, np.tile(batch.b.num, (3, 1)))

    def test_labels_one_and_zero(self):
        out = build_mpd_batch(self._batch(4), k=2, rng=np.random.default_rng(3))
        np.testing.assert_array_equal(out.positive.y, np.ones(4, dtype=F32))
        np.testing.assert_array_equal(out.negative.y, np.zeros(8, dtype=F32))

    def test_single_row_batch_rejected(self):
        with pytest.raises(ValidationError):
            build_mpd_batch(self._batch(1), k=1, rng=np.random.default_rng(0))

    def test_duplicate_rows_collide_at_duplicate_rate(self):
        # counting oracle: with every row identical, all "negatives" coincide
        # with true pairs; with unique rows, none do
        m = 32
        same = Batch(a=num_block(np.ones((m, 2))), b=num_block(np.ones((m, 2))))
        out = build_mpd_batch(same, k=1, rng=np.random.default_rng(4))
        collisions = sum(
            np.array_equal(out.negative.a.num[i], same.a.num[i]) for i in range(m)
        )
        assert collisions == m

    def test_permute_party_b(self):
        batch = self._batch(6)
        out = build_mpd_batch(batch, k=1, rng=np.random.default_rng(5), permute_party="B")
        np.testing.assert_array_equal(out.negative.a.num, batch.a.num)
        assert not np.array_equal(out.negative.b.num, batch.b.num)


class TestMpdLoss:
    def test_all_zero_logits_give_two_log_two(self):
        loss, _, _ = mpd_loss(np.zeros(8), np.zeros(8))
        np.testing.assert_allclose(loss, 2 * math.log(2), rtol=1e-6)

    def test_perfect_discrimination_drives_loss_to_zero(self):
        loss, _, _ = mpd_loss(np.full(8, 50.0), np.full(8, -50.0))
        assert 0 <= loss < 1e-8

    def test_gradient_closed_form_and_finite_differences(self):
        rng = np.random.default_rng(0)
        z_pos = rng.normal(size=5)
        z_neg = rng.normal(size=10)
        _, g_pos, g_neg = mpd_loss(z_pos, z_neg)
        np.testing.assert_allclose(g_pos, (sigmoid(z_pos) - 1) / 5, rtol=1e-5)
        np.testing.assert_allclose(g_neg, sigmoid(z_neg) / 5, rtol=1e-5)
        step = 1e-6
        for i in range(5):
            zp = z_pos.copy(); zp[i] += step
            zm = z_pos.copy(); zm[i] -= step
            fd = (mpd_loss(zp, z_neg)[0] - mpd_loss(zm, z_neg)[0]) / (2 * step)
            np.testing.assert_allclose(g_pos[i], fd, rtol=1e-4)

    def test_gradient_pushes_positives_up_and_negatives_down(self):
        _, g_pos, g_neg = mpd_loss(np.zeros(4), np.zeros(4))
        assert np.all(g_pos < 0)  # minimizing moves positive logits up
        assert np.all(g_neg > 0)


def _pretrain_dataset(coupled, seed, n=12_000):
    # coupled: shared latents dominate both views; independent: none at all
    spec = SyntheticSpec(
        n_labeled=100, n_unlabeled=n, n_test=100, d_a=6, d_b=6, rule="xor",
        lift=1.0, leak=0.0,
        shared_dim=4 if coupled else 0,
        private_dim=0 if coupled else 4,
        noise=0.05 if coupled else 1.0,
    )
    dataset = synth_federated(spec, seed=seed)
    if not coupled:
        # sever the residual correlation through the label factors by
        # regenerating the B view from an independent seed
        other = synth_federated(spec, seed=seed + 1)
        dataset.unlabeled.b.num[:] = other.unlabeled.b.num
    return dataset


def _run_pretrain(dataset, seed, epochs=6, k=1):
    active, passive = build_session(dataset, seed=seed, widths=(16, 8), top_widths=(8,))
    thread = serve_in_thread(passive)
    settings = TrainSettings(lr=1e-2, l2=0.0, batch_size=512, epochs=epochs,
                             patience=None, seed=seed, stage="mpd")
    result = pretrain(active, settings, k=k)
    active.channel.send_new(MsgType.BYE)
    thread.join()
    return result


class TestPretrain:
    def test_loss_at_initialization_is_near_two_log_two(self):
        dataset = _pretrain_dataset(coupled=True, seed=0, n=4000)
        result = _run_pretrain(dataset, seed=0, epochs=1)
        first = result.history.records[0]
        assert 1.2 <= first.train_loss <= 1.5, first.train_loss

    def test_independent_views_stay_near_chance(self):
        dataset = _pretrain_dataset(coupled=False, seed=1, n=8000)
        result = _run_pretrain(dataset, seed=1, epochs=5)
        acc = result.history.records[-1].extra["match_accuracy"]
        assert abs(acc - 0.5) < 0.06, acc

    def test_shared_latents_are_detected(self):
        dataset = _pretrain_dataset(coupled=True, seed=2, n=12_000)
        result = _run_pretrain(dataset, seed=2, epochs=8)
        acc = result.history.records[-1].extra["match_accuracy"]
        assert acc > 0.9, acc

    def test_pretrain_never_touches_labels(self):
        import inspect

        signature = inspect.signature(pretrain)
        assert all(p not in signature.parameters for p in ("y", "labels"))
        # the unlabeled segment carries no label array at all
        dataset = _pretrain_dataset(coupled=True, seed=3, n=3000)
        assert dataset.unlabeled.y is None
        result = _run_pretrain(dataset, seed=3, epochs=1)
        assert result.history.records

    def test_two_messages_per_batch(self):
        dataset = _pretrain_dataset(coupled=True, seed=4, n=2048)
        active, passive = build_session(dataset, seed=4, widths=(8,), top_widths=(4,))
        thread = serve_in_thread(passive)
        settings = TrainSettings(lr=1e-2, batch_size=512, epochs=2, patience=None,
                                 seed=4, stage="mpd")
        pretrain(active, settings, k=2)
        active.channel.send_new(MsgType.BYE)
        thread.join()
        n_batches = 2 * (2048 // 512)
        assert passive.channel.counters.sent == {"ACTIVATION": n_batches}
        assert active.channel.counters.sent.get("GRADIENT", 0) == n_batches
