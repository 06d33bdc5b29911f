"""Teacher prediction caching and the blended hard/soft student loss."""

import hashlib
import math

import numpy as np
import pytest

from fedsplit.data import SyntheticSpec, synth_federated
from fedsplit.distill import SoftLabelCache, distill, distill_loss, teacher_predict
from fedsplit.errors import DataError
from fedsplit.metrics import auc
from fedsplit.numeric import bce_loss, sigmoid
from fedsplit.splitnn import (
    LocalModel,
    TrainSettings,
    copy_params,
    local_train,
    rng_for,
)
from fedsplit.transport import MsgType

from test_splitnn import build_session, serve_in_thread

F32 = np.float32


def small_dataset(seed=0, n=3000):
    spec = SyntheticSpec(n_labeled=n, n_unlabeled=0, n_test=800, d_a=6, d_b=6,
                         rule="additive", lift=0.9, noise=0.3)
    return synth_federated(spec, seed=seed)


class TestTeacherPredict:
    def test_constant_zero_logit_teacher_gives_half_everywhere(self):
        dataset = small_dataset(seed=1, n=600)
        active, passive = build_session(dataset, seed=1, widths=(8,), top_widths=(4,))
        # zero out the top head so every logit is exactly 0
        for layer in active.top.mlp.layers:
            layer.weight[:] = 0.0
            layer.bias[:] = 0.0
        thread = serve_in_thread(passive)
        cache = teacher_predict(active, "labeled", batch_size=256)
        active.channel.send_new(MsgType.BYE)
        thread.join()
        np.testing.assert_array_equal(cache.probs, np.full(600, 0.5, dtype=F32))

    def test_cache_row_count_matches_segment(self):
        dataset = small_dataset(seed=2, n=500)
        active, passive = build_session(dataset, seed=2, widths=(8,), top_widths=(4,))
        thread = serve_in_thread(passive)
        cache = teacher_predict(active, "labeled", batch_size=128)
        active.channel.send_new(MsgType.BYE)
        thread.join()
        assert len(cache) == 500

    def test_cached_predictions_equal_live_recompute_bitwise(self):
        dataset = small_dataset(seed=3, n=700)
        active, passive = build_session(dataset, seed=3, widths=(8,), top_widths=(4,))
        thread = serve_in_thread(passive)
        cache = teacher_predict(active, "labeled", batch_size=256)
        # recompute-and-compare oracle: a second pass over the same teacher
        from fedsplit.splitnn import federated_eval_probs

        again = federated_eval_probs(active, "labeled", batch_size=256)
        active.channel.send_new(MsgType.BYE)
        thread.join()
        assert cache.probs.tobytes() == again.astype(F32).tobytes()

    def test_eval_uses_eval_activation_frames_only(self):
        dataset = small_dataset(seed=4, n=512)
        active, passive = build_session(dataset, seed=4, widths=(8,), top_widths=(4,))
        thread = serve_in_thread(passive)
        teacher_predict(active, "labeled", batch_size=128)
        active.channel.send_new(MsgType.BYE)
        thread.join()
        assert passive.channel.counters.sent == {"EVAL_ACTIVATION": 4}
        assert active.channel.counters.sent.get("GRADIENT", 0) == 0


class TestDistillLoss:
    def test_alpha_one_is_exactly_bce(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=16).astype(F32)
        y = (rng.random(16) > 0.5).astype(F32)
        soft = rng.random(16).astype(F32)
        loss_a, grad_a = distill_loss(logits, y, soft, alpha=1.0)
        loss_b, grad_b = bce_loss(logits, y)
        assert loss_a == loss_b
        assert grad_a.tobytes() == grad_b.tobytes()

    def test_alpha_zero_with_matching_predictions_is_zero(self):
        logits = np.array([0.4, -1.2, 2.0], dtype=F32)
        # teacher probabilities equal the student's pointwise
        soft = sigmoid(logits.astype(np.float64))
        y = np.array([1.0, 0.0, 1.0], dtype=F32)
        loss, grad = distill_loss(logits, y, soft, alpha=0.0)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(3, dtype=grad.dtype))

    def test_half_alpha_closed_form(self):
        # y=1, soft=0.9, student prob 0.5 (logit 0):
        # 0.5*ln2 + 0.5*(0.9 ln(0.9/0.5) + 0.1 ln(0.1/0.5))
        logits = np.array([0.0], dtype=F32)
        expected = 0.5 * math.log(2) + 0.5 * (
            0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
        )
        loss, _ = distill_loss(logits, np.array([1.0], dtype=F32),
                               np.array([0.9], dtype=F32), alpha=0.5)
        np.testing.assert_allclose(loss, expected, rtol=1e-6)

    def test_loss_is_affine_in_alpha_at_fixed_predictions(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=32).astype(F32)
        y = (rng.random(32) > 0.5).astype(F32)
        soft = rng.random(32).astype(F32)
        l0, _ = distill_loss(logits, y, soft, alpha=0.0)
        l1, _ = distill_loss(logits, y, soft, alpha=1.0)
        for alpha in (0.25, 0.5, 0.75):
            la, _ = distill_loss(logits, y, soft, alpha=alpha)
            np.testing.assert_allclose(la, alpha * l1 + (1 - alpha) * l0, rtol=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=8)
        y = (rng.random(8) > 0.5).astype(float)
        soft = rng.random(8)
        _, grad = distill_loss(logits, y, soft, alpha=0.3)
        step = 1e-6
        for i in range(8):
            zp = logits.copy(); zp[i] += step
            zm = logits.copy(); zm[i] -= step
            fd = (distill_loss(zp, y, soft, 0.3)[0] - distill_loss(zm, y, soft, 0.3)[0]) / (2 * step)
            np.testing.assert_allclose(grad[i], fd, rtol=1e-4, atol=1e-10)


def params_checksum(params):
    return hashlib.sha256(
        b"".join(v.tobytes() for _, v in sorted(params.items()))
    ).hexdigest()


class TestDistill:
    def _teacher_cache(self, dataset, seed):
        active, passive = build_session(dataset, seed=seed, widths=(8,), top_widths=(4,))
        thread = serve_in_thread(passive)
        from fedsplit.splitnn import train_supervised

        train_supervised(active, TrainSettings(lr=1e-2, l2=1e-4, batch_size=256,
                                               epochs=5, patience=None, seed=seed,
                                               stage="fed"))
        before = params_checksum(active.params())
        cache = teacher_predict(active, "labeled", batch_size=512)
        after = params_checksum(active.params())
        active.channel.send_new(MsgType.BYE)
        thread.join()
        assert before == after  # prediction never modifies the teacher
        return cache

    def test_alpha_one_random_init_replays_baseline_local_bitwise(self):
        dataset = small_dataset(seed=5, n=2000)
        cache = self._teacher_cache(dataset, seed=5)
        settings = TrainSettings(lr=1e-2, l2=1e-4, batch_size=256, epochs=4,
                                 patience=3, seed=5, stage="local")

        baseline = LocalModel.create(dataset.schema_a, (8,), (4,), rng_for(5, 24))
        history_b = local_train(baseline, dataset.labeled.a, dataset.labeled.y, settings)

        student = LocalModel.create(dataset.schema_a, (8,), (4,), rng_for(5, 24))
        history_s = distill(student, dataset.labeled.a, dataset.labeled.y, cache,
                            settings, alpha=1.0)

        assert params_checksum(baseline.params()) == params_checksum(student.params())
        assert [r.train_loss for r in history_b.records] == [
            r.train_loss for r in history_s.records
        ]
        assert [r.val_auc for r in history_b.records] == [
            r.val_auc for r in history_s.records
        ]

    def test_missing_soft_label_names_row(self):
        dataset = small_dataset(seed=6, n=400)
        probs = np.full(400, 0.5, dtype=F32)
        probs[37] = np.nan
        cache = SoftLabelCache(probs=probs)
        student = LocalModel.create(dataset.schema_a, (8,), (4,), rng_for(6, 24))
        with pytest.raises(DataError, match="37"):
            distill(student, dataset.labeled.a, dataset.labeled.y, cache,
                    TrainSettings(seed=6, stage="local"), alpha=0.5)

    def test_cache_length_mismatch_rejected(self):
        dataset = small_dataset(seed=7, n=300)
        cache = SoftLabelCache(probs=np.full(299, 0.5, dtype=F32))
        student = LocalModel.create(dataset.schema_a, (8,), (4,), rng_for(7, 24))
        with pytest.raises(DataError, match="299"):
            distill(student, dataset.labeled.a, dataset.labeled.y, cache,
                    TrainSettings(seed=7, stage="local"), alpha=0.5)

    def test_student_checkpoint_contains_no_party_b_parameters(self, tmp_path):
        dataset = small_dataset(seed=8, n=1500)
        cache = self._teacher_cache(dataset, seed=8)
        student = LocalModel.create(dataset.schema_a, (8,), (4,), rng_for(8, 24))
        distill(student, dataset.labeled.a, dataset.labeled.y, cache,
                TrainSettings(lr=1e-2, batch_size=256, epochs=3, patience=None,
                              seed=8, stage="local"), alpha=0.5)
        from fedsplit.checkpoint import load_checkpoint, save_checkpoint

        path = tmp_path / "student.ckpt"
        save_checkpoint(path, student.params(), "schema", meta={"role": "student"})
        params, _, _ = load_checkpoint(path)
        b_fields = {f.name for f in dataset.schema_b.fields}
        for name in params:
            assert not name.startswith("b.")
            assert not any(f"emb.{b}" in name for b in b_fields)

    def test_student_inference_sends_zero_messages(self):
        dataset = small_dataset(seed=9, n=1200)
        cache = self._teacher_cache(dataset, seed=9)
        student = LocalModel.create(dataset.schema_a, (8,), (4,), rng_for(9, 24))
        distill(student, dataset.labeled.a, dataset.labeled.y, cache,
                TrainSettings(lr=1e-2, batch_size=256, epochs=3, patience=None,
                              seed=9, stage="local"), alpha=0.5)
        # the student's inference path has no channel at all: predictions are
        # a pure function of party-A features
        scores = student.predict_logits(dataset.test.a)
        assert scores.shape == (dataset.test.n_rows,)
        assert not hasattr(student, "channel")
