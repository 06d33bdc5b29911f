"""Derangements, the oracle's pair batches, the match loss, one pretraining
step against a monolith, and pretraining."""

import itertools
import math
import threading
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsplit.data import FeatureBlock, Segment, SyntheticSpec, synth_federated
from fedsplit.errors import ProtocolError, ValidationError
from fedsplit.metrics import auc
from fedsplit.mpd import _mpd_protocol_step, mpd_loss, pretrain, sample_derangement
from fedsplit.numeric import sigmoid
from fedsplit.splitnn import BottomModel, TrainSettings, rng_for
from fedsplit.transport import MsgType

from test_splitnn import (
    assert_params_match,
    build_session,
    make_pair,
    monolith_clone,
    monolith_update,
    num_block,
    random_party_models,
    serve_in_thread,
)

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


def _stack(blocks):
    return FeatureBlock(cat=np.concatenate([b.cat for b in blocks]),
                        num=np.concatenate([b.num for b in blocks]))


class PairBatch(NamedTuple):
    positive: Segment  # the aligned pairs, target 1
    negative: Segment  # k * m deranged pairs, target 0
    perms: list


def build_mpd_batch(batch, k, rng):
    """The oracle's raw rows for one pretraining batch: party A's rows go
    through k derangements, party B's rows repeat as they are. Pretraining
    itself permutes hidden blocks instead."""
    m = batch.n_rows
    perms = [sample_derangement(m, rng) for _ in range(k)]
    return PairBatch(
        positive=Segment(a=batch.a, b=batch.b, y=np.ones(m, dtype=F32)),
        negative=Segment(a=_stack([batch.a.take(p) for p in perms]), b=_stack([batch.b] * k),
                         y=np.zeros(k * m, dtype=F32)),
        perms=perms,
    )


class TestBuildMpdBatch:
    """The oracle's own pair rows."""

    def _batch(self, m, d=3, seed=0):
        rng = np.random.default_rng(seed)
        return Segment(a=num_block(rng.normal(size=(m, d))),
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
        same = Segment(a=num_block(np.ones((m, 2))), b=num_block(np.ones((m, 2))))
        out = build_mpd_batch(same, k=1, rng=np.random.default_rng(4))
        collisions = sum(
            np.array_equal(out.negative.a.num[i], same.a.num[i]) for i in range(m)
        )
        assert collisions == m


class TestMpdStepOracle:
    """One pretraining batch over the wire against a monolithic evaluation
    of the same triple on explicitly deranged raw rows. Each case id is k
    and the permuted party, which is always A."""

    @pytest.mark.parametrize("k", [1, 2], ids=["1-A", "2-A"])
    def test_loss_gradient_frame_and_update_match_monolith(self, k, monkeypatch):
        widths, top_widths = (8, 6), (7,)
        for trial in range(5):
            seed = 100 * k + trial
            rng = np.random.default_rng(seed)
            schema_a, schema_b, bottom_a, bottom_b, top = random_party_models(
                seed, widths=widths, top_widths=top_widths)
            settings = TrainSettings(lr=1e-2, l2=1e-4)
            active, passive = make_pair(bottom_a, bottom_b, top, settings=settings)
            split = monolith_clone(schema_a, schema_b, active, passive,
                                   widths, top_widths, seed)
            m = int(rng.integers(2, 12))
            batch = Segment(a=num_block(rng.normal(size=(m, 5))),
                            b=num_block(rng.normal(size=(m, 4))))
            pairs = build_mpd_batch(batch, k, rng)

            frames = []
            expect = passive.channel.expect

            def recording_expect(msg_type):
                frames.append(expect(msg_type))
                return frames[-1]

            monkeypatch.setattr(passive.channel, "expect", recording_expect)
            passive.send_activation(batch.b)
            loss, _, _ = _mpd_protocol_step(active, batch.a, pairs.perms)
            passive.apply_update(passive.recv_gradient())
            (frame,) = frames

            # monolith: binary cross-entropy summed over the positive and
            # negative raw rows, divided by the batch size m
            h_a, ca = split.bottom_a.forward(_stack([pairs.positive.a, pairs.negative.a]))
            h_b, cb = split.bottom_b.forward(_stack([pairs.positive.b, pairs.negative.b]))
            logits, ct = split.top.forward(np.hstack([h_a, h_b]))
            z = logits.astype(np.float64)
            y = np.concatenate([pairs.positive.y, pairs.negative.y])
            mono_loss = float(np.sum(y * np.logaddexp(0, -z) + (1 - y) * np.logaddexp(0, z)) / m)
            grad_fused, g_top = split.top.backward(ct, ((sigmoid(z) - y) / m).astype(F32))
            d_a = h_a.shape[1]
            g_ba = split.bottom_a.backward(ca, grad_fused[:, :d_a])
            g_bb = split.bottom_b.backward(cb, grad_fused[:, d_a:])

            np.testing.assert_allclose(loss, mono_loss, atol=1e-6)
            # dLoss/dh_B per original row: the positive block plus each
            # negative block, whose B rows are unpermuted
            grad_b = grad_fused[:, d_a:].astype(np.float64)
            expected = grad_b[:m].copy()
            for j in range(k):
                expected += grad_b[(j + 1) * m:(j + 2) * m]
            assert frame.msg_type == MsgType.GRADIENT
            np.testing.assert_allclose(frame.payload, expected, atol=1e-6)

            monolith_update(split, settings, g_top, g_ba, g_bb)
            assert_params_match(active, passive, split)


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
    history = pretrain(active, settings, k=k)
    active.channel.send_new(MsgType.BYE)
    thread.join()
    return history


class TestPretrain:
    def test_loss_at_initialization_is_near_two_log_two(self):
        dataset = _pretrain_dataset(coupled=True, seed=0, n=4000)
        history = _run_pretrain(dataset, seed=0, epochs=1)
        first = history.records[0]
        assert 1.2 <= first.train_loss <= 1.5, first.train_loss

    def test_independent_views_stay_near_chance(self):
        dataset = _pretrain_dataset(coupled=False, seed=1, n=8000)
        history = _run_pretrain(dataset, seed=1, epochs=5)
        acc = history.records[-1].extra["match_accuracy"]
        assert abs(acc - 0.5) < 0.06, acc

    def test_shared_latents_are_detected(self):
        dataset = _pretrain_dataset(coupled=True, seed=2, n=12_000)
        history = _run_pretrain(dataset, seed=2, epochs=8)
        acc = history.records[-1].extra["match_accuracy"]
        assert acc > 0.9, acc

    def test_pretrain_never_touches_labels(self):
        import inspect

        signature = inspect.signature(pretrain)
        assert all(p not in signature.parameters for p in ("y", "labels"))
        # the unlabeled segment carries no label array at all
        dataset = _pretrain_dataset(coupled=True, seed=3, n=3000)
        assert dataset.unlabeled.y is None
        history = _run_pretrain(dataset, seed=3, epochs=1)
        assert history.records

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

    def test_passive_bottom_of_the_wrong_width_is_a_protocol_error(self):
        dataset = _pretrain_dataset(coupled=True, seed=5, n=1024)
        active, passive = build_session(dataset, seed=5, widths=(8,), top_widths=(4,))
        passive.bottom = BottomModel.create(dataset.schema_b, (5,), rng_for(5, 22))
        errors = []

        def serve():
            try:
                passive.serve()
            except ProtocolError as exc:  # the BYE below ends its wait for a gradient
                errors.append(exc)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        settings = TrainSettings(lr=1e-2, batch_size=512, epochs=1, patience=None,
                                 seed=5, stage="mpd")
        with pytest.raises(ProtocolError, match="width"):
            pretrain(active, settings)
        active.channel.send_new(MsgType.BYE)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert passive.channel.counters.sent == {"ACTIVATION": 1}
