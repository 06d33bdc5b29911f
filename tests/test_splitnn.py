"""Split protocol: single-step ops, monolith equivalence, trainers, privacy."""

import re
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsplit.data import (
    FeatureBlock,
    FieldSpec,
    PartySchema,
    Segment,
    SyntheticSpec,
    synth_federated,
)
from fedsplit.checkpoint import load_checkpoint, save_checkpoint
from fedsplit.errors import FedSplitError, ProtocolError, ShapeError, StateError, ValidationError
from fedsplit.metrics import auc
from fedsplit.numeric import (
    DENSE_TABLE_ROWS,
    AdamState,
    DenseLayer,
    Mlp,
    RowSparseGrad,
    adam_step,
    bce_loss,
    sigmoid,
)
from fedsplit.splitnn import (
    ActiveParty,
    BottomModel,
    LocalModel,
    PassiveParty,
    SplitModel,
    TopModel,
    TrainSettings,
    copy_params,
    federated_eval_probs,
    local_train,
    rng_for,
    subset_rows,
    train_supervised,
)
from fedsplit.transport import MsgType, inproc_pair
from oracles import dense_grad, grad_check, per_table_bottom, reference_adam_step

F32 = np.float32


def numeric_schema(party, d):
    return PartySchema(
        party=party,
        fields=tuple(FieldSpec(f"{party.lower()}{j}", "numerical") for j in range(d)),
    )


def num_block(values):
    arr = np.asarray(values, dtype=F32)
    return FeatureBlock(cat=np.zeros((arr.shape[0], 0), np.int64), num=arr)


def identity_bottom(schema):
    d = schema.post_embed_dim
    mlp = Mlp([DenseLayer(weight=np.eye(d, dtype=F32), bias=np.zeros(d, F32),
                          activation="identity")])
    return BottomModel(schema, {}, mlp)


def make_pair(bottom_a, bottom_b, top, *, settings=None, dataset=None, blocks=None):
    chan_a, chan_b = inproc_pair()
    active = ActiveParty(chan_a, bottom_a, top, dataset)
    passive = PassiveParty(chan_b, bottom_b, blocks or {})
    settings = settings or TrainSettings(lr=1e-2, l2=0.0)
    active.optimizer = settings.adam()
    passive.optimizer = settings.adam()
    return active, passive


def random_party_models(seed, d_a=5, d_b=4, widths=(8, 6), top_widths=(7,)):
    schema_a = numeric_schema("A", d_a)
    schema_b = numeric_schema("B", d_b)
    bottom_a = BottomModel.create(schema_a, widths, rng_for(seed, 1))
    bottom_b = BottomModel.create(schema_b, widths, rng_for(seed, 2))
    top = TopModel.create(2 * widths[-1], top_widths, rng_for(seed, 3))
    return schema_a, schema_b, bottom_a, bottom_b, top


def monolith_clone(schema_a, schema_b, active, passive, widths, top_widths, seed):
    """Independent single-process model carrying the same weights."""
    split = SplitModel(
        BottomModel.create(schema_a, widths, rng_for(seed, 91)),
        BottomModel.create(schema_b, widths, rng_for(seed, 92)),
        TopModel.create(2 * widths[-1], top_widths, rng_for(seed, 93)),
    )
    split.bottom_a.set_params(copy_params(active.bottom.params()))
    split.bottom_b.set_params(copy_params(passive.bottom.params()))
    split.top.set_params(copy_params(active.top.params()))
    return split


def monolith_update(split, settings, g_top, g_ba, g_bb):
    """One Adam step on the monolith, one optimizer per party as in the split."""
    params_a = {**{f"top.{k}": v for k, v in split.top.params().items()},
                **{f"bottom.{k}": v for k, v in split.bottom_a.params().items()}}
    grads_a = {**{f"top.{k}": v for k, v in g_top.items()},
               **{f"bottom.{k}": v for k, v in g_ba.items()}}
    adam_step(settings.adam(), params_a, grads_a)
    adam_step(settings.adam(), split.bottom_b.params(), g_bb)


def assert_params_match(active, passive, split, atol=1e-6):
    for name, value in active.bottom.params().items():
        np.testing.assert_allclose(value, split.bottom_a.params()[name],
                                   atol=atol, err_msg=f"a.{name}")
    for name, value in active.top.params().items():
        np.testing.assert_allclose(value, split.top.params()[name],
                                   atol=atol, err_msg=f"top.{name}")
    for name, value in passive.bottom.params().items():
        np.testing.assert_allclose(value, split.bottom_b.params()[name],
                                   atol=atol, err_msg=f"b.{name}")


class TestSingleStep:
    def test_identity_bottoms_sum_top_composes(self):
        schema_a = numeric_schema("A", 1)
        schema_b = numeric_schema("B", 1)
        top = TopModel(Mlp([DenseLayer(weight=np.ones((2, 1), dtype=F32),
                                       bias=np.zeros(1, F32), activation="identity")]))
        active, passive = make_pair(identity_bottom(schema_a), identity_bottom(schema_b), top)
        batch = Segment(a=num_block([[1.0]]), b=num_block([[2.0]]))
        passive.send_activation(batch.b)
        logits = active.forward_step(batch.a)
        np.testing.assert_allclose(logits, [3.0])

    def test_activation_message_carries_m_by_db_matrix(self):
        _, _, bottom_a, bottom_b, top = random_party_models(0)
        active, passive = make_pair(bottom_a, bottom_b, top)
        rng = np.random.default_rng(0)
        batch = Segment(a=num_block(rng.normal(size=(7, 5))), b=num_block(rng.normal(size=(7, 4))))
        passive.send_activation(batch.b)
        active.forward_step(batch.a)
        entry = passive.channel.transcript[-1]
        assert entry.msg_type == int(MsgType.ACTIVATION)
        assert (entry.rows, entry.cols) == (7, bottom_b.out_dim)

    def test_width_mismatch_is_protocol_error(self):
        schema_a, schema_b, bottom_a, bottom_b, top = random_party_models(1)
        bad_top = TopModel.create(bottom_a.out_dim + bottom_b.out_dim + 3, (4,), rng_for(1, 9))
        active, passive = make_pair(bottom_a, bottom_b, bad_top)
        rng = np.random.default_rng(0)
        batch = Segment(a=num_block(rng.normal(size=(3, 5))), b=num_block(rng.normal(size=(3, 4))))
        passive.send_activation(batch.b)
        with pytest.raises(ProtocolError, match="width"):
            active.forward_step(batch.a)

    def test_backward_without_forward_is_state_error(self):
        _, _, bottom_a, bottom_b, top = random_party_models(2)
        active, _ = make_pair(bottom_a, bottom_b, top)
        with pytest.raises(StateError):
            active.backward_step(np.zeros(3, dtype=F32))

    def test_zero_upstream_gradient_still_sends_message(self):
        _, _, bottom_a, bottom_b, top = random_party_models(3)
        active, passive = make_pair(bottom_a, bottom_b, top)
        rng = np.random.default_rng(0)
        batch = Segment(a=num_block(rng.normal(size=(4, 5))), b=num_block(rng.normal(size=(4, 4))))
        passive.send_activation(batch.b)
        logits = active.forward_step(batch.a)
        grads_a = active.backward_step(np.zeros_like(logits))
        grads_b = passive.recv_gradient()
        for grads in (grads_a, grads_b):
            for name, g in grads.items():
                np.testing.assert_array_equal(g, np.zeros_like(g), err_msg=name)
        assert active.channel.counters.sent == {"GRADIENT": 1}
        assert passive.channel.counters.sent == {"ACTIVATION": 1}

    def test_gradient_message_shape_equals_activation_shape(self):
        _, _, bottom_a, bottom_b, top = random_party_models(4)
        active, passive = make_pair(bottom_a, bottom_b, top)
        rng = np.random.default_rng(0)
        batch = Segment(a=num_block(rng.normal(size=(6, 5))), b=num_block(rng.normal(size=(6, 4))))
        passive.send_activation(batch.b)
        logits = active.forward_step(batch.a)
        active.backward_step(np.ones_like(logits))
        passive.recv_gradient()
        sent = passive.channel.transcript[0]
        got = [e for e in active.channel.transcript if e.direction == "send"][0]
        assert (sent.rows, sent.cols) == (got.rows, got.cols)

    def test_exactly_two_messages_per_training_step(self):
        _, _, bottom_a, bottom_b, top = random_party_models(5)
        active, passive = make_pair(bottom_a, bottom_b, top)
        rng = np.random.default_rng(0)
        for _ in range(3):
            batch = Segment(a=num_block(rng.normal(size=(4, 5))),
                            b=num_block(rng.normal(size=(4, 4))))
            passive.send_activation(batch.b)
            logits = active.forward_step(batch.a)
            _, grad = bce_loss(logits, (rng.random(4) > 0.5).astype(F32))
            active.backward_step(grad)
            passive.recv_gradient()
        assert passive.channel.counters.sent == {"ACTIVATION": 3}
        assert active.channel.counters.sent == {"GRADIENT": 3}


class TestMonolithEquivalence:
    def test_forward_bit_exact_over_100_random_models(self):
        widths, top_widths = (8, 6), (7,)
        for trial in range(100):
            rng = np.random.default_rng(trial)
            schema_a, schema_b, bottom_a, bottom_b, top = random_party_models(
                trial, widths=widths, top_widths=top_widths
            )
            active, passive = make_pair(bottom_a, bottom_b, top)
            split = monolith_clone(schema_a, schema_b, active, passive,
                                   widths, top_widths, trial)
            m = int(rng.integers(1, 12))
            batch = Segment(a=num_block(rng.normal(size=(m, 5))),
                            b=num_block(rng.normal(size=(m, 4))))
            passive.send_activation(batch.b)
            fed_logits = active.forward_step(batch.a)
            mono_logits = split.predict_logits(batch.a, batch.b)
            assert fed_logits.tobytes() == mono_logits.tobytes()

    def test_full_step_parameters_match_within_1e6(self):
        widths, top_widths = (8, 6), (7,)
        for trial in range(10):
            rng = np.random.default_rng(1000 + trial)
            schema_a, schema_b, bottom_a, bottom_b, top = random_party_models(
                1000 + trial, widths=widths, top_widths=top_widths
            )
            settings = TrainSettings(lr=1e-2, l2=1e-4)
            active, passive = make_pair(bottom_a, bottom_b, top, settings=settings)
            split = monolith_clone(schema_a, schema_b, active, passive,
                                   widths, top_widths, trial)

            batch = Segment(a=num_block(rng.normal(size=(9, 5))),
                            b=num_block(rng.normal(size=(9, 4))))
            y = (rng.random(9) > 0.5).astype(F32)

            passive.send_activation(batch.b)

            logits = active.forward_step(batch.a)
            _, grad = bce_loss(logits, y)
            grads_a = active.backward_step(grad)
            grads_b = passive.recv_gradient()
            active.apply_update(grads_a)
            passive.apply_update(grads_b)

            # monolith oracle: same math, no transport, one optimizer per party
            h_a, ca = split.bottom_a.forward(batch.a)
            h_b, cb = split.bottom_b.forward(batch.b)
            fused = np.hstack([h_a, h_b])
            mono_logits, ct = split.top.forward(fused)
            _, mono_grad = bce_loss(mono_logits, y)
            grad_fused, g_top = split.top.backward(ct, mono_grad)
            g_ba = split.bottom_a.backward(ca, grad_fused[:, : h_a.shape[1]])
            g_bb = split.bottom_b.backward(cb, grad_fused[:, h_a.shape[1]:])
            monolith_update(split, settings, g_top, g_ba, g_bb)
            assert_params_match(active, passive, split)


def serve_in_thread(passive):
    thread = threading.Thread(target=passive.serve, daemon=True)
    thread.start()
    return thread


def build_session(dataset, seed, widths=(16, 8), top_widths=(8,)):
    bottom_a = BottomModel.create(dataset.schema_a, widths, rng_for(seed, 21))
    bottom_b = BottomModel.create(dataset.schema_b, widths, rng_for(seed, 22))
    top = TopModel.create(2 * widths[-1], top_widths, rng_for(seed, 23))
    chan_a, chan_b = inproc_pair()
    active = ActiveParty(chan_a, bottom_a, top, dataset)
    blocks = {"labeled": dataset.labeled.b}
    if dataset.unlabeled is not None:
        blocks["unlabeled"] = dataset.unlabeled.b
    if dataset.test is not None:
        blocks["test"] = dataset.test.b
    passive = PassiveParty(chan_b, bottom_b, blocks)
    return active, passive


class TestTrainers:
    def _dataset(self, rule, seed, n=6000, leak=0.0, noise=0.3, lift=1.0):
        spec = SyntheticSpec(n_labeled=n, n_unlabeled=0, n_test=2000, d_a=8, d_b=8,
                             rule=rule, lift=lift, leak=leak, noise=noise)
        return synth_federated(spec, seed=seed)

    def test_federated_xor_beats_both_locals(self):
        dataset = self._dataset("xor", seed=0, n=8000, noise=0.1)
        active, passive = build_session(dataset, seed=0)
        thread = serve_in_thread(passive)
        settings = TrainSettings(lr=1e-2, l2=1e-4, batch_size=512, epochs=15,
                                 patience=3, seed=0, stage="fed")
        history = train_supervised(active, settings)
        probs = federated_eval_probs(active, "test", batch_size=4096, seed=0)
        active.channel.send_new(MsgType.BYE)
        thread.join()
        fed_auc = auc(probs, dataset.test.y).auc
        assert fed_auc >= 0.9, fed_auc

        for party, schema, block, test_block in (
            ("A", dataset.schema_a, dataset.labeled.a, dataset.test.a),
            ("B", dataset.schema_b, dataset.labeled.b, dataset.test.b),
        ):
            model = LocalModel.create(schema, (16, 8), (8,), rng_for(0, 50 + ord(party)))
            local_train(model, block, dataset.labeled.y,
                        TrainSettings(lr=1e-2, l2=1e-4, batch_size=512, epochs=10,
                                      patience=3, seed=0, stage="local"))
            local_auc = auc(sigmoid(model.predict_logits(test_block)), dataset.test.y).auc
            assert local_auc <= 0.6, (party, local_auc)

    def test_a_only_federated_matches_local_a_and_b_is_blind(self):
        dataset = self._dataset("a_only", seed=1)
        active, passive = build_session(dataset, seed=1)
        thread = serve_in_thread(passive)
        settings = TrainSettings(lr=1e-2, l2=1e-4, batch_size=512, epochs=10,
                                 patience=3, seed=1, stage="fed")
        train_supervised(active, settings)
        probs = federated_eval_probs(active, "test", batch_size=4096, seed=1)
        active.channel.send_new(MsgType.BYE)
        thread.join()
        fed_auc = auc(probs, dataset.test.y).auc

        model_a = LocalModel.create(dataset.schema_a, (16, 8), (8,), rng_for(1, 51))
        local_train(model_a, dataset.labeled.a, dataset.labeled.y,
                    TrainSettings(lr=1e-2, l2=1e-4, batch_size=512, epochs=10,
                                  patience=3, seed=1, stage="local"))
        local_a = auc(sigmoid(model_a.predict_logits(dataset.test.a)), dataset.test.y).auc
        assert fed_auc >= 0.95 * local_a, (fed_auc, local_a)

        model_b = LocalModel.create(dataset.schema_b, (16, 8), (8,), rng_for(1, 52))
        local_train(model_b, dataset.labeled.b, dataset.labeled.y,
                    TrainSettings(lr=1e-2, l2=1e-4, batch_size=512, epochs=6,
                                  patience=3, seed=1, stage="local"))
        local_b = auc(sigmoid(model_b.predict_logits(dataset.test.b)), dataset.test.y).auc
        assert abs(local_b - 0.5) < 0.05, local_b

    def test_local_train_zero_epochs_returns_initial_model(self):
        dataset = self._dataset("a_only", seed=2, n=500)
        model = LocalModel.create(dataset.schema_a, (8,), (4,), rng_for(2, 53))
        before = {k: v.copy() for k, v in model.params().items()}
        history = local_train(model, dataset.labeled.a, dataset.labeled.y,
                              TrainSettings(epochs=0, seed=2, stage="local"))
        assert history.records == []
        for name, value in model.params().items():
            np.testing.assert_array_equal(value, before[name])

    def test_local_train_bit_deterministic(self):
        dataset = self._dataset("a_only", seed=3, n=1200)

        def one_run():
            model = LocalModel.create(dataset.schema_a, (8,), (4,), rng_for(3, 54))
            local_train(model, dataset.labeled.a, dataset.labeled.y,
                        TrainSettings(lr=1e-2, l2=1e-4, batch_size=128, epochs=3,
                                      patience=None, seed=3, stage="local"))
            return b"".join(v.tobytes() for _, v in sorted(model.params().items()))

        assert one_run() == one_run()

    def test_divergence_aborts_with_last_good_checkpoint(self):
        dataset = self._dataset("a_only", seed=4, n=1500)
        active, passive = build_session(dataset, seed=4)
        thread = serve_in_thread(passive)
        # absurd learning rate blows the loss up to NaN quickly
        settings = TrainSettings(lr=1e12, l2=0.0, batch_size=256, epochs=6,
                                 patience=None, seed=4, stage="fed")
        history = train_supervised(active, settings)
        active.channel.send_new(MsgType.BYE)
        thread.join()
        assert any(r.extra.get("diverged") for r in history.records)
        for value in active.params().values():
            assert np.all(np.isfinite(value))


    def test_local_divergence_skips_only_the_bad_batch_and_ends_the_run(self, monkeypatch):
        import fedsplit.splitnn

        dataset = self._dataset("a_only", seed=5, n=1000)
        model = LocalModel.create(dataset.schema_a, (8,), (4,), rng_for(5, 55))
        settings = TrainSettings(lr=1e-2, l2=0.0, batch_size=200, epochs=5,
                                 patience=None, seed=5, stage="local")
        per_epoch = 5  # 950 training rows after the 1/20 validation split
        calls = []

        def loss_fn(logits, rows):
            calls.append(len(rows))
            loss, grad = bce_loss(logits, dataset.labeled.y[rows])
            # the third batch of epoch 2 has a non-finite loss
            return (float("nan"), grad) if len(calls) == per_epoch + 3 else (loss, grad)

        steps = []
        adam = fedsplit.splitnn.adam_step
        monkeypatch.setattr(fedsplit.splitnn, "adam_step",
                            lambda *a, **k: steps.append(1) or adam(*a, **k))
        history = local_train(model, dataset.labeled.a, dataset.labeled.y, settings,
                              loss_fn=loss_fn)
        assert len(calls) == 2 * per_epoch
        assert len(steps) == 2 * per_epoch - 1
        assert [r.epoch for r in history.records] == [1, 2]
        assert history.records[0].extra == {}
        assert history.records[1].extra == {"diverged": True}
        assert history.records[1].val_auc is not None  # validation still ran


class TestPassivePrivacy:
    def test_passive_runtime_holds_no_labels_or_top(self):
        import inspect

        signature = inspect.signature(PassiveParty.__init__)
        assert "labels" not in signature.parameters
        assert "y" not in signature.parameters
        assert "top" not in signature.parameters

        _, _, bottom_a, bottom_b, top = random_party_models(6)
        _, passive = make_pair(bottom_a, bottom_b, top)
        leaked = [v for v in vars(passive).values()
                  if isinstance(v, TopModel) or
                  (isinstance(v, np.ndarray) and v.ndim == 1 and set(np.unique(v)) <= {0.0, 1.0})]
        assert not any(isinstance(v, TopModel) for v in vars(passive).values())

    def test_control_metadata_never_carries_labels_or_loss(self):
        dataset = synth_federated(
            SyntheticSpec(n_labeled=900, n_unlabeled=0, n_test=200, d_a=4, d_b=4,
                          rule="a_only", lift=1.0, noise=0.2),
            seed=5,
        )
        active, passive = build_session(dataset, seed=5, widths=(8,), top_widths=(4,))
        thread = serve_in_thread(passive)
        train_supervised(active, TrainSettings(lr=1e-2, batch_size=128, epochs=2,
                                               patience=None, seed=5, stage="fed"))
        active.channel.send_new(MsgType.BYE)
        thread.join()
        allowed = {"cmd", "name", "lr", "l2",
                   "segment", "subset", "split_seed", "shuffle", "batch_size",
                   "drop_short", "best", "rng_key", "tag", "wire_version",
                   "schema_hash", "config_hash", "role"}
        passive_received = [e for e in passive.channel.transcript if e.direction == "recv"]
        assert passive_received
        # replay what the passive side saw: only control metadata, no losses
        for entry in active.channel.transcript:
            if entry.direction == "send" and entry.msg_type == int(MsgType.CONTROL):
                pass  # shape checked below via meta keys on live messages
        # all control meta keys the active party ever sends come from the allowlist
        # (captured via a fresh run with a recording channel)
        from fedsplit.transport import Channel

        sent_meta_keys = set()
        original_send = Channel.send

        def recording_send(self, msg):
            if msg.meta:
                sent_meta_keys.update(msg.meta.keys())
            return original_send(self, msg)

        Channel.send = recording_send
        try:
            active2, passive2 = build_session(dataset, seed=5, widths=(8,), top_widths=(4,))
            t2 = serve_in_thread(passive2)
            train_supervised(active2, TrainSettings(lr=1e-2, batch_size=128, epochs=2,
                                                    patience=None, seed=5, stage="fed"))
            active2.channel.send_new(MsgType.BYE)
            t2.join()
        finally:
            Channel.send = original_send
        assert sent_meta_keys <= allowed, sent_meta_keys - allowed


class TestModelContainers:
    def test_params_round_trip_through_set_params(self):
        _, _, bottom_a, bottom_b, top = random_party_models(7)
        split = SplitModel(bottom_a, bottom_b, top)
        params = copy_params(split.params())
        for value in split.params().values():
            value += 1.0
        split.set_params(params)
        for name, value in split.params().items():
            np.testing.assert_array_equal(value, params[name])

    def test_embedding_bottom_forward_backward(self):
        schema = PartySchema(
            party="A",
            fields=(
                FieldSpec("cat1", "categorical", buckets=7, embed_dim=3),
                FieldSpec("x", "numerical"),
                FieldSpec("cat2", "categorical", buckets=5, embed_dim=2),
            ),
        )
        bottom = BottomModel.create(schema, (6,), rng_for(8, 1))
        assert bottom.mlp.n_in == 6  # 3 + 1 + 2
        block = FeatureBlock(
            cat=np.array([[1, 4], [6, 0]], dtype=np.int64),
            num=np.array([[0.5], [-0.5]], dtype=F32),
        )
        h, cache = bottom.forward(block)
        assert h.shape == (2, 6)
        grads = bottom.backward(cache, np.ones_like(h))
        assert set(grads) == {"emb.cat1", "emb.cat2", "mlp.layer0.weight", "mlp.layer0.bias"}
        # each table's gradient is row-sparse and carries the touched rows
        np.testing.assert_array_equal(grads["emb.cat1"].rows, [1, 6])
        np.testing.assert_array_equal(grads["emb.cat2"].rows, [0, 4])
        untouched = np.setdiff1d(np.arange(7), [1, 6])
        assert np.all(dense_grad(grads["emb.cat1"])[untouched] == 0.0)

        # a batch as long as cat2's table is row-sparse there too
        block5 = FeatureBlock(
            cat=np.array([[1, 4], [6, 0], [1, 0], [2, 3], [2, 4]], dtype=np.int64),
            num=np.zeros((5, 1), dtype=F32),
        )
        h5, cache5 = bottom.forward(block5)
        grads5 = bottom.backward(cache5, np.ones_like(h5))
        np.testing.assert_array_equal(grads5["emb.cat2"].rows, [0, 3, 4])
        np.testing.assert_array_equal(grads5["emb.cat1"].rows, [1, 2, 6])

    def test_grad_check_of_a_model_with_row_sparse_embedding_gradients(self):
        rng = np.random.default_rng(12)
        schema = PartySchema(party="A", fields=(
            FieldSpec("c1", "categorical", buckets=16, embed_dim=2),
            FieldSpec("x", "numerical"),
            FieldSpec("c2", "categorical", buckets=9, embed_dim=3),
        ))
        local = LocalModel.create(schema, (5,), (4,), rng_for(2, 24))
        local.bottom.mlp.layers[0].bias += np.sign(rng.normal(size=5)).astype(F32) * 0.7
        block = FeatureBlock(
            cat=np.stack([rng.integers(0, 16, size=6), rng.integers(0, 9, size=6)], axis=1),
            num=rng.normal(size=(6, 1)).astype(F32),
        )
        y = (rng.random(6) > 0.5).astype(F32)

        def loss_fn(m):
            logits, cache = m.forward(block)
            loss, grad = bce_loss(logits, y)
            grads = m.backward(cache, grad)
            assert isinstance(grads["bottom.emb.c1"], RowSparseGrad)
            assert isinstance(grads["bottom.emb.c2"], RowSparseGrad)
            return loss, grads

        report = grad_check(local, loss_fn, tolerance=1e-3, step=1e-5)
        assert report.passed, report
        assert report.n_checked == sum(p.size for p in local.params().values())

    def test_bottom_step_on_a_hashed_id_table_allocates_under_an_eighth_of_it(self):
        # A 2^16 x 8 float32 table is 2 MiB. A dense gradient alone is one
        # whole table; the row-sparse gradient and the live-row Adam update
        # hold only rows a few batches touched.
        import tracemalloc

        rng = np.random.default_rng(4)
        schema = PartySchema(party="A", fields=(
            FieldSpec("user", "categorical", buckets=1 << 16, embed_dim=8),))
        bottom = BottomModel.create(schema, (16,), rng_for(3, 1))
        table = bottom.embeddings["user"].table
        state = AdamState(lr=1e-3, l2=1e-4)

        def step():
            ids = (rng.zipf(1.3, size=512) % table.shape[0]).reshape(-1, 1)
            h, cache = bottom.forward(FeatureBlock(cat=ids, num=np.zeros((512, 0), F32)))
            grad_h = rng.normal(size=h.shape).astype(F32)
            tracemalloc.start()
            try:
                grads = bottom.backward(cache, grad_h)
                adam_step(state, bottom.params(), grads)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return grads["emb.user"], peak

        step()  # the first step allocates the optimizer's m and v
        g, peak = step()
        assert peak < table.nbytes // 8, peak
        assert g.nbytes == g.rows.nbytes + g.values.nbytes < table.nbytes // 64


def cat(name, buckets, dim):
    return FieldSpec(name, "categorical", buckets=buckets, embed_dim=dim)


# bottoms whose categorical tables fall into one or more embed-dim groups
GROUPED_SCHEMAS = {
    "mixed-dims": (cat("c1", 7, 3), FieldSpec("x", "numerical"), cat("c2", 5, 2),
                   cat("c3", 11, 3), FieldSpec("y", "numerical"), cat("c4", 4, 2)),
    "numeric-between": (cat("c1", 9, 4), FieldSpec("x", "numerical"), cat("c2", 6, 4),
                        FieldSpec("y", "numerical")),
    "above-threshold": (cat("id", DENSE_TABLE_ROWS + 10, 4), cat("c1", 16, 4),
                        FieldSpec("x", "numerical")),
    "desk": tuple(cat(f"a{j}", 24, 8) for j in range(8)),
}


def grouped_case(name, n, seed, dtype=F32):
    """A bottom over GROUPED_SCHEMAS[name] in `dtype`, and an n-row batch."""
    schema = PartySchema(party="A", fields=GROUPED_SCHEMAS[name])
    bottom = BottomModel.create(schema, (5,), rng_for(seed, 1))
    bottom.set_params({k: v.astype(dtype) for k, v in bottom.params().items()})
    rng = np.random.default_rng(seed)
    block = FeatureBlock(
        cat=np.stack([rng.integers(0, f.buckets, size=n) for f in schema.cat_fields], axis=1),
        num=rng.normal(size=(n, len(schema.num_fields))).astype(F32),
    )
    return bottom, block


def grad_bytes(g):
    if isinstance(g, RowSparseGrad):
        return g.rows.tobytes(), g.values.tobytes(), g.values.dtype, g.shape
    return g.tobytes(), g.dtype, g.shape


class TestGroupedEmbeddings:
    @pytest.mark.parametrize("dtype", [F32, np.float64])
    @pytest.mark.parametrize("n", [1, 40])
    @pytest.mark.parametrize("case", sorted(GROUPED_SCHEMAS))
    def test_grouped_bottom_matches_the_per_table_reference(self, case, n, dtype):
        bottom, block = grouped_case(case, n, seed=len(case) + n, dtype=dtype)
        h, cache = bottom.forward(block)
        grad_h = np.random.default_rng(n).normal(size=h.shape).astype(h.dtype)
        grads = bottom.backward(cache, grad_h)
        ref_h, ref_grads = per_table_bottom(bottom, block, grad_h)
        assert h.dtype == ref_h.dtype == dtype and h.tobytes() == ref_h.tobytes()
        assert set(grads) == set(ref_grads) == set(bottom.params())
        for name, g in grads.items():
            assert grad_bytes(g) == grad_bytes(ref_grads[name]), name

    def test_tables_are_views_of_one_block_per_embed_dim(self):
        bottom, _ = grouped_case("mixed-dims", 3, seed=1)
        tables = {name: e.table for name, e in bottom.embeddings.items()}
        assert tables["c1"].base is tables["c3"].base
        assert tables["c2"].base is tables["c4"].base
        assert tables["c1"].base is not tables["c2"].base
        assert [t.shape for t in tables.values()] == [(7, 3), (5, 2), (11, 3), (4, 2)]

    def test_set_params_copies_into_the_views(self):
        bottom, block = grouped_case("desk", 6, seed=2)
        fresh, _ = grouped_case("desk", 6, seed=3)
        source = copy_params(fresh.params())
        views = {name: e.table for name, e in bottom.embeddings.items()}
        bottom.set_params(source)
        for name, view in views.items():
            assert bottom.embeddings[name].table is view
            assert view.tobytes() == source[f"emb.{name}"].tobytes()
        for name in views:
            source[f"emb.{name}"] += 1.0  # the tables hold copies, not the caller's arrays
        h, _ = bottom.forward(block)
        assert h.tobytes() == fresh.forward(block)[0].tobytes()

    @pytest.mark.parametrize("bad", [-1, 5, 7])
    def test_out_of_range_index_in_the_second_field_names_that_field(self, bad):
        # c2 has 5 buckets and sits after c1's 7 rows in the dim-3 block, so
        # without its own check index 5 or 7 would read c3's or c1's rows
        schema = PartySchema(party="A", fields=(cat("c1", 7, 3), cat("c2", 5, 3),
                                                 cat("c3", 11, 3)))
        bottom = BottomModel.create(schema, (4,), rng_for(0, 1))
        block = FeatureBlock(cat=np.array([[0, 1, 2], [6, bad, 10]]),
                             num=np.zeros((2, 0), F32))
        with pytest.raises(ValidationError, match=r"field 'c2'.*\[0, 5\)"):
            bottom.forward(block)

    @pytest.mark.parametrize("dtype", [F32, np.float64])
    @pytest.mark.parametrize("l2", [0.0, 1e-2])
    def test_fused_adam_over_a_whole_party_matches_the_reference(self, l2, dtype):
        # a local model over mixed dims, numeric columns and one table above
        # DENSE_TABLE_ROWS, laid out once by the first step
        schema = PartySchema(party="A", fields=GROUPED_SCHEMAS["mixed-dims"]
                             + GROUPED_SCHEMAS["above-threshold"][:1])
        model = LocalModel.create(schema, (6,), (4,), rng_for(4, 24))
        model.set_params({k: v.astype(dtype) for k, v in model.params().items()})
        ref_params = copy_params(model.params())
        ours, ref = AdamState(lr=3e-2, l2=l2), AdamState(lr=3e-2, l2=l2)
        rng = np.random.default_rng(6)
        for step in range(10):
            block = FeatureBlock(
                cat=np.stack([rng.integers(0, f.buckets, size=16)
                              for f in schema.cat_fields], axis=1),
                num=rng.normal(size=(16, 2)).astype(F32),
            )
            logits, cache = model.forward(block)
            _, grad = bce_loss(logits, (rng.random(16) > 0.5).astype(dtype))
            grads = model.backward(cache, grad)
            adam_step(ours, model.params(), grads)
            reference_adam_step(ref, ref_params, grads)
            if step == 0:
                layout = ours.layout
            assert ours.layout is layout
            for name, p in model.params().items():
                assert p.dtype == dtype
                assert p.tobytes() == ref_params[name].tobytes(), (step, name)
                assert ours.m[name].tobytes() == ref.m[name].tobytes(), (step, name)
                assert ours.v[name].tobytes() == ref.v[name].tobytes(), (step, name)
        assert sorted(ours.live) == ["bottom.emb.id"]


# small random schemas (unique field names), widths and model kinds for the
# one load rule of LocalModel and SplitModel
_fields = st.lists(
    st.one_of(
        st.just(("numerical", 0, 0)),
        st.tuples(st.just("categorical"), st.integers(2, 9), st.integers(1, 3)),
    ),
    min_size=1, max_size=4,
)
_widths = st.lists(st.integers(1, 5), min_size=1, max_size=2)


def random_schema(party, fields):
    return PartySchema(party=party, fields=tuple(
        FieldSpec(f"f{j}", kind) if kind == "numerical"
        else FieldSpec(f"f{j}", kind, buckets=buckets, embed_dim=dim)
        for j, (kind, buckets, dim) in enumerate(fields)
    ))


def random_model(kind, fields_a, fields_b, widths_a, widths_b, top_widths, seed):
    schema_a = random_schema("A", fields_a)
    if kind == "local":
        return LocalModel.create(schema_a, widths_a, top_widths, rng_for(seed, 1))
    return SplitModel.create(schema_a, random_schema("B", fields_b), widths_a, widths_b,
                             top_widths, seed)


def tensor_bytes(model):
    return {name: (v.dtype, v.shape, v.tobytes()) for name, v in model.params().items()}


class TestOneLoadRule:
    @given(kind=st.sampled_from(["local", "split"]), fields_a=_fields, fields_b=_fields,
           widths_a=_widths, widths_b=_widths,
           top_widths=st.lists(st.integers(1, 4), max_size=2),
           seed=st.integers(0, 2**16), fault=st.sampled_from(["drop", "resize", "no-part"]),
           pick=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_checkpoint_round_trip_and_typed_refusals(
            self, kind, fields_a, fields_b, widths_a, widths_b, top_widths, seed, fault, pick):
        args = (kind, fields_a, fields_b, widths_a, widths_b, top_widths)
        model = random_model(*args, seed)
        fresh = random_model(*args, seed + 1)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            save_checkpoint(path, model.params(), "schema")
            loaded, _, _ = load_checkpoint(path)
        fresh.set_params(loaded)
        assert tensor_bytes(fresh) == tensor_bytes(model)
        for value in loaded.values():
            value += 1.0  # the model holds copies, not the checkpoint's arrays
        assert tensor_bytes(fresh) == tensor_bytes(model)

        other = random_model(*args, seed + 2)
        bad = other.params()
        name = sorted(bad)[pick % len(bad)]
        if fault == "drop":
            del bad[name]
        elif fault == "resize":
            bad[name] = np.concatenate([bad[name], bad[name][:1]])
        else:
            name = f"{name.split('.')[0]}x.{name}"
            bad[name] = np.zeros(1, F32)
        before = tensor_bytes(fresh)
        with pytest.raises((ShapeError, ValidationError), match=re.escape(name)):
            fresh.set_params(bad)
        assert tensor_bytes(fresh) == before


def control_passive():
    """A passive party over 8 numerical rows, and the active end of its channel."""
    schema_b = numeric_schema("B", 2)
    block = num_block(np.arange(16, dtype=F32).reshape(8, 2))
    chan_a, chan_b = inproc_pair(timeout=1.0)
    passive = PassiveParty(chan_b, BottomModel.create(schema_b, (3,), rng_for(0, 1)),
                           {"labeled": block})
    return chan_a, passive


class TestControlFrames:
    @pytest.mark.parametrize("meta, cmd, field", [
        ({"cmd": "epoch"}, "epoch", "segment"),
        ({"cmd": "epoch", "segment": "unlabeled", "split_seed": "0", "shuffle": "1",
          "batch_size": "4"}, "epoch", "segment"),
        ({"cmd": "phase", "lr": "x", "l2": "0"}, "phase", "lr"),
        ({"cmd": "reinit", "rng_key": "a,b"}, "reinit", "rng_key"),
        ({"cmd": "reinit", "rng_key": "3,-1"}, "reinit", "rng_key"),
        ({"cmd": "eval", "segment": "labeled", "subset": "bogus", "split_seed": "0",
          "batch_size": "4"}, "eval", "subset"),
    ])
    def test_malformed_field_is_a_protocol_error_naming_command_and_field(
            self, meta, cmd, field):
        chan_a, passive = control_passive()
        chan_a.send_new(MsgType.CONTROL, meta=meta)
        chan_a.send_new(MsgType.BYE)
        with pytest.raises(ProtocolError, match=f"'{cmd}'.*'{field}'"):
            passive.serve()

    @pytest.mark.parametrize("tag", ["x/y", "../x", ".x"])
    def test_save_refuses_a_tag_that_is_not_a_plain_file_name(self, tag, tmp_path):
        chan_a, passive = control_passive()
        passive.save_dir = tmp_path / "run"
        (passive.save_dir / "party_b_..").mkdir(parents=True)  # where "../x" would land
        chan_a.send_new(MsgType.CONTROL, meta={"cmd": "save", "tag": tag})
        chan_a.send_new(MsgType.BYE)
        with pytest.raises(ProtocolError, match="'save'.*'tag'"):
            passive.serve()
        assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_save_writes_a_plain_tag_inside_the_save_dir(self, tmp_path):
        chan_a, passive = control_passive()
        passive.save_dir = tmp_path
        chan_a.send_new(MsgType.CONTROL, meta={"cmd": "save", "tag": "vfl-mpd_ft.2"})
        chan_a.send_new(MsgType.BYE)
        passive.serve()
        assert [p.name for p in tmp_path.iterdir()] == ["party_b_vfl-mpd_ft.2.ckpt"]

    def test_an_unknown_subset_is_refused_before_any_frame_is_sent(self):
        dataset = synth_federated(
            SyntheticSpec(n_labeled=60, n_unlabeled=0, n_test=20, d_a=2, d_b=2), seed=1)
        active, _ = build_session(dataset, seed=1, widths=(4,), top_widths=(2,))
        with pytest.raises(ValidationError, match="bogus"):
            federated_eval_probs(active, "labeled", subset="bogus", batch_size=8)
        assert active.channel.counters.snapshot() == (0, 0)
        assert [len(subset_rows(60, s, 3)) for s in ("all", "train", "val")] == [60, 57, 3]


_meta_text = st.text(st.characters(codec="utf-8", exclude_characters="\n="), max_size=8)
_meta_values = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "4", "labeled", "unlabeled", "test", "all",
                     "train", "val", "1,2,3", "a,b", "", "nan", "1e3", "final"]),
    st.integers(-3, 2**70).map(str),
    st.lists(st.integers(-2, 2**65), min_size=1, max_size=3).map(
        lambda xs: ",".join(map(str, xs))),
    _meta_text,
)
_commands = st.one_of(st.sampled_from(
    ["phase", "epoch", "eval", "epoch-end", "restore-best", "reinit", "save"]), _meta_text)
_fields = st.one_of(st.sampled_from(
    ["segment", "subset", "split_seed", "shuffle", "batch_size", "drop_short", "lr", "l2",
     "best", "rng_key", "tag"]), _meta_text)
_control_meta = st.builds(
    lambda cmd, rest: {**rest, "cmd": cmd},
    _commands, st.dictionaries(_fields, _meta_values, max_size=7),
)


@given(st.lists(_control_meta, min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_passive_serve_on_arbitrary_control_metadata_returns_or_raises_typed(metas):
    chan_a, passive = control_passive()
    for meta in metas:
        chan_a.send_new(MsgType.CONTROL, meta=meta)
    chan_a.send_new(MsgType.BYE)
    try:
        passive.serve()
    except FedSplitError:
        pass
