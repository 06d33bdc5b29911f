"""Acceptance suite: one test per criterion, tolerances pinned.

Each test prints a single PASS line when its assertions hold (run with
`pytest tests/test_acceptance.py -v -s` to watch them stream by). The
method-matrix criteria share one run of the frozen desk-scale
configuration; everything is deterministic given the pinned seeds.
"""

import hashlib
import json
import math
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedsplit.data import (
    FeatureBlock,
    FieldSpec,
    PartySchema,
    Segment,
    SyntheticSpec,
    synth_federated,
)
from fedsplit.checkpoint import load_checkpoint, save_checkpoint
from fedsplit.distill import SoftLabelCache, distill, distill_loss, teacher_predict
from fedsplit.harness import ExperimentConfig
from fedsplit.metrics import auc
from fedsplit.mpd import mpd_loss, pretrain, sample_derangement
from fedsplit.numeric import (
    AdamState,
    DenseLayer,
    Mlp,
    bce_loss,
    bernoulli_kl,
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
    local_train,
    rng_for,
    train_supervised,
)
from fedsplit.transport import MsgType, inproc_pair

from oracles import (best_epoch, epochs_to_auc, grad_check, pmi_probe, run_matrix,
                     synth_categorical_pair)
from test_metrics import auc_pair_counting
from test_splitnn import (
    assert_params_match,
    build_session,
    monolith_clone,
    monolith_update,
    num_block,
    random_party_models,
    serve_in_thread,
)

F32 = np.float32

# the frozen desk-scale configuration for the method-matrix criteria
ACCEPTANCE_CONFIG = ExperimentConfig(
    synth=SyntheticSpec(
        n_labeled=10_000, n_unlabeled=50_000, n_test=10_000,
        d_a=8, d_b=8, rule="xor", positive_rate=0.5,
        lift=0.9, leak=0.35, shared_dim=0, private_dim=1,
        noise=0.4, buckets=24, embed_dim=8,
    ),
    bottom_a=(64, 64), bottom_b=(64, 64), top=(64, 64),
    lr=1e-2, finetune_lr=1e-3, alpha=0.5, l2=1e-5,
    batch_pretrain=512, batch_train=128, eval_batch=16_384,
    epochs=40, pretrain_epochs=15, patience=5,
)
SEEDS = (0, 1, 2)


def announce(criterion: str, detail: str = ""):
    print(f"\n[{criterion}] PASS {detail}")


@pytest.fixture(scope="module")
def matrix():
    """One shared run of the 7-method matrix over 3 seeds."""
    t0 = time.time()
    results = run_matrix(ACCEPTANCE_CONFIG, seeds=SEEDS)
    for method, by_seed in results.items():
        for seed, report in by_seed.items():
            assert report.failed_stage is None, (method, seed, report.error)
    print(f"\n[matrix] 7 methods x 3 seeds in {time.time() - t0:.0f}s")
    return results


class TestCriterion01SplitMonolithEquivalence:
    def test_forward_bit_exact_and_post_update_within_1e6(self):
        t0 = time.time()
        widths, top_widths = (8, 6), (7,)
        rng = np.random.default_rng(2024)
        for trial in range(100):
            schema_a, schema_b, bottom_a, bottom_b, top = random_party_models(
                trial, widths=widths, top_widths=top_widths
            )
            chan_a, chan_b = inproc_pair()
            active = ActiveParty(chan_a, bottom_a, top)
            passive = PassiveParty(chan_b, bottom_b, {})
            split = monolith_clone(schema_a, schema_b, active, passive,
                                   widths, top_widths, trial)
            m = int(rng.integers(1, 16))
            batch = Segment(a=num_block(rng.normal(size=(m, 5))),
                            b=num_block(rng.normal(size=(m, 4))))
            passive.send_activation(batch.b)
            fed = active.forward_step(batch.a)
            mono = split.predict_logits(batch.a, batch.b)
            assert fed.tobytes() == mono.tobytes(), f"forward differs at trial {trial}"

            if trial < 10:  # full train-step equivalence on a subsample
                settings = TrainSettings(lr=1e-2, l2=1e-4)
                active.optimizer = settings.adam()
                passive.optimizer = settings.adam()
                y = (rng.random(m) > 0.5).astype(F32)
                _, grad = bce_loss(fed, y)
                grads_a = active.backward_step(grad)
                grads_b = passive.recv_gradient()
                active.apply_update(grads_a)
                passive.apply_update(grads_b)

                h_a, ca = split.bottom_a.forward(batch.a)
                h_b, cb = split.bottom_b.forward(batch.b)
                logits, ct = split.top.forward(np.hstack([h_a, h_b]))
                _, mono_grad = bce_loss(logits, y)
                grad_fused, g_top = split.top.backward(ct, mono_grad)
                g_ba = split.bottom_a.backward(ca, grad_fused[:, : h_a.shape[1]])
                g_bb = split.bottom_b.backward(cb, grad_fused[:, h_a.shape[1]:])
                monolith_update(split, settings, g_top, g_ba, g_bb)
                assert_params_match(active, passive, split)
        elapsed = time.time() - t0
        assert elapsed < 60, f"criterion budget exceeded: {elapsed:.0f}s"
        announce("criterion 01", f"split/monolith equivalence ({elapsed:.0f}s, "
                 "100 forwards bit-exact, 10 train steps <= 1e-6)")


class TestCriterion02GradientCorrectness:
    TOL = 1e-3

    def test_every_layer_and_both_losses(self):
        t0 = time.time()
        rng = np.random.default_rng(7)
        worst = {}

        # dense stacks (identity head + relu hidden) against BCE
        mlp = Mlp.create(4, [6, 1], rng, final_activation="identity")
        mlp.layers[0].bias += np.sign(rng.normal(size=6)).astype(F32) * 0.7
        x = rng.normal(size=(10, 4)).astype(F32)
        y = (rng.random(10) > 0.5).astype(F32)

        def bce_fn(m):
            out, caches = m.forward(x)
            loss, grad = bce_loss(out[:, 0], y)
            _, grads = m.backward(caches, grad.reshape(-1, 1))
            return loss, grads

        report = grad_check(mlp, x, bce_fn, lambda z: bce_loss(z, y)[0],
                            tolerance=self.TOL, step=1e-5)
        assert report.passed, report
        worst["dense+bce"] = report.max_rel_error

        # embedding bottom + top, full local model against BCE
        schema = PartySchema("A", (
            FieldSpec("c1", "categorical", buckets=6, embed_dim=3),
            FieldSpec("x", "numerical"),
            FieldSpec("c2", "categorical", buckets=4, embed_dim=2),
        ))
        local = LocalModel.create(schema, (5,), (4,), rng_for(1, 24))
        local.bottom.mlp.layers[0].bias += np.sign(rng.normal(size=5)).astype(F32) * 0.7
        block = FeatureBlock(
            cat=rng.integers(0, 4, size=(12, 2)).astype(np.int64),
            num=rng.normal(size=(12, 1)).astype(F32),
        )
        y2 = (rng.random(12) > 0.5).astype(F32)

        def local_fn(m):
            logits, cache = m.forward(block)
            loss, grad = bce_loss(logits, y2)
            return loss, m.backward(cache, grad)

        report = grad_check(local, block, local_fn, lambda z: bce_loss(z, y2)[0],
                            tolerance=self.TOL, step=1e-5)
        assert report.passed, report
        worst["embedding-model+bce"] = report.max_rel_error

        # blended distillation loss (exercises the Bernoulli KL gradient)
        soft = rng.random(12).astype(F32)

        def blended_fn(m):
            logits, cache = m.forward(block)
            loss, grad = distill_loss(logits, y2, soft, alpha=0.4)
            return loss, m.backward(cache, grad)

        report = grad_check(local, block, blended_fn,
                            lambda z: distill_loss(z, y2, soft, alpha=0.4)[0],
                            tolerance=self.TOL, step=1e-5)
        assert report.passed, report
        worst["model+kl-blend"] = report.max_rel_error

        # match/mismatch loss gradient at the logits
        z_pos = rng.normal(size=7)
        z_neg = rng.normal(size=14)
        _, g_pos, g_neg = mpd_loss(z_pos, z_neg)
        step = 1e-6
        for i in range(len(z_pos)):
            zp = z_pos.copy(); zp[i] += step
            zm = z_pos.copy(); zm[i] -= step
            fd = (mpd_loss(zp, z_neg)[0] - mpd_loss(zm, z_neg)[0]) / (2 * step)
            assert abs(g_pos[i] - fd) / max(abs(fd), 1e-8) < self.TOL
        for i in range(len(z_neg)):
            zp = z_neg.copy(); zp[i] += step
            zm = z_neg.copy(); zm[i] -= step
            fd = (mpd_loss(z_pos, zp)[0] - mpd_loss(z_pos, zm)[0]) / (2 * step)
            assert abs(g_neg[i] - fd) / max(abs(fd), 1e-8) < self.TOL

        # bare Bernoulli KL gradient at the student logit
        for p in (0.1, 0.5, 0.9):
            for z in (-1.0, 0.2, 2.0):
                _, grad = bernoulli_kl(p, float(sigmoid(np.array(z))))
                fd = (bernoulli_kl(p, float(sigmoid(np.array(z + 1e-6))))[0]
                      - bernoulli_kl(p, float(sigmoid(np.array(z - 1e-6))))[0]) / 2e-6
                assert abs(grad - fd) / max(abs(fd), 1e-8) < self.TOL

        elapsed = time.time() - t0
        assert elapsed < 120, f"criterion budget exceeded: {elapsed:.0f}s"
        announce("criterion 02", f"gradient correctness ({elapsed:.0f}s, "
                 f"max rel errors: " + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()) + ")")


class TestCriterion03AucOracle:
    def test_exact_match_on_1000_random_cases(self):
        t0 = time.time()
        rng = np.random.default_rng(99)
        for case in range(1000):
            n = int(rng.integers(2, 80))
            levels = int(rng.choice([2, 3, 5, 1000]))  # few levels force ties
            scores = rng.integers(0, levels, size=n).astype(np.float64)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            fast = auc(scores, labels).auc
            oracle = auc_pair_counting(scores, labels)
            assert fast == oracle, f"case {case}: {fast} != {oracle}"
        elapsed = time.time() - t0
        assert elapsed < 60, f"criterion budget exceeded: {elapsed:.0f}s"
        announce("criterion 03", f"AUC equals the pair-counting oracle exactly "
                 f"on 1000 cases ({elapsed:.0f}s)")


class TestCriterion04DerangementValidity:
    def test_validity_and_uniformity(self):
        t0 = time.time()
        rng = np.random.default_rng(4)
        for n in range(2, 65):
            for _ in range(1000):
                perm = sample_derangement(n, rng)
                assert not np.any(perm == np.arange(n))
            # spot-check permutation validity on a few samples per size
            perm = sample_derangement(n, rng)
            np.testing.assert_array_equal(np.sort(perm), np.arange(n))

        counts = {}
        for _ in range(100_000):
            key = tuple(sample_derangement(4, rng))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 9
        for key, count in counts.items():
            assert abs(count / 100_000 - 1 / 9) < 0.01, (key, count)
        elapsed = time.time() - t0
        announce("criterion 04", f"derangement validity and n=4 uniformity "
                 f"within +-0.01 ({elapsed:.0f}s)")


def _train_probe(coupling, seed, k=1, epochs=20):
    data = synth_categorical_pair(40_000, values=8, coupling=coupling, seed=seed)
    widths, top_widths = (16, 8), (16,)
    bottom_a = BottomModel.create(data.schema_a, widths, rng_for(seed, 21))
    bottom_b = BottomModel.create(data.schema_b, widths, rng_for(seed, 22))
    top = TopModel.create(2 * widths[-1], top_widths, rng_for(seed, 26))
    chan_a, chan_b = inproc_pair()
    active = ActiveParty(chan_a, bottom_a, top, data)
    passive = PassiveParty(chan_b, bottom_b, {"unlabeled": data.unlabeled.b})
    thread = serve_in_thread(passive)
    pretrain(active, TrainSettings(lr=1e-2, l2=0.0, batch_size=512, epochs=epochs,
                                   patience=None, seed=seed, stage="mpd"), k=k)
    active.channel.send_new(MsgType.BYE)
    thread.join()
    model = SplitModel(active.bottom, passive.bottom, active.top)
    return pmi_probe(model, data.unlabeled.a, data.unlabeled.b, k=k, min_count=50)


class TestCriterion05PmiIdentity:
    def test_logits_track_shifted_pmi(self):
        t0 = time.time()
        graded = _train_probe(coupling=(0.15, 0.75), seed=0, k=1)
        assert graded.pearson >= 0.9, graded.pearson
        assert all(p.count >= 50 for p in graded.pairs)

        independent = _train_probe(coupling=0.0, seed=1, k=1)
        assert abs(independent.mean_logit - (-math.log(1))) <= 0.3, independent.mean_logit

        # the shift tracks the negative count: with k = 2 the independent
        # probe's logits cluster near -log 2
        independent_k2 = _train_probe(coupling=0.0, seed=2, k=2)
        assert abs(independent_k2.mean_logit - (-math.log(2))) <= 0.3, independent_k2.mean_logit
        elapsed = time.time() - t0
        assert elapsed < 300, f"criterion budget exceeded: {elapsed:.0f}s"
        announce("criterion 05", f"PMI identity ({elapsed:.0f}s): "
                 f"pearson={graded.pearson:.3f} >= 0.9, independent mean logit "
                 f"{independent.mean_logit:+.3f} within +-0.3 of 0, "
                 f"k=2 mean {independent_k2.mean_logit:+.3f} within +-0.3 of -log 2")


class TestCriterion06FederatedOrdering:
    def test_table_2_ordering_at_desk_scale(self, matrix):
        aucs = {m: {s: matrix[m][s].test_auc for s in SEEDS} for m in matrix}
        chains = []
        for s in SEEDS:
            chains.append(
                aucs["vfl-mpd"][s] >= aucs["vfl-st"][s] >= aucs["vfl"][s]
                > aucs["baseline-local"][s] + 0.05
            )
        medians = {m: float(np.median(list(v.values()))) for m, v in aucs.items()}
        assert sum(chains) >= 2, (chains, aucs)
        assert (medians["vfl-mpd"] >= medians["vfl-st"] >= medians["vfl"]
                > medians["baseline-local"] + 0.05), medians
        announce("criterion 06", f"federated ordering holds for {sum(chains)}/3 seeds; "
                 f"medians mpd={medians['vfl-mpd']:.4f} >= st={medians['vfl-st']:.4f} "
                 f">= vfl={medians['vfl']:.4f} > base+0.05={medians['baseline-local'] + 0.05:.4f}")


class TestCriterion07LocalOrdering:
    def test_table_3_ordering_at_desk_scale(self, matrix):
        aucs = {m: {s: matrix[m][s].test_auc for s in SEEDS} for m in matrix}
        gains = [aucs["local-ssd"][s] - aucs["baseline-local"][s] for s in SEEDS]
        combined_best = [
            aucs["local-ssd"][s] >= max(aucs["local-sd"][s], aucs["local-mpd"][s])
            and aucs["local-ssd"][s] > aucs["baseline-local"][s]
            for s in SEEDS
        ]
        assert float(np.median(gains)) >= 0.005, gains
        assert sum(combined_best) >= 2, (combined_best, aucs)
        announce("criterion 07", f"local ordering: median gain "
                 f"{float(np.median(gains)):+.4f} >= 0.005, combined best for "
                 f"{sum(combined_best)}/3 seeds")


class TestCriterion08ConvergenceSpeed:
    def test_pretrained_reaches_plain_final_auc_in_fewer_epochs(self, matrix):
        wins = []
        details = []
        for s in SEEDS:
            plain = matrix["vfl"][s].histories["fed-train"]
            pre = matrix["vfl-mpd"][s].histories["fed-finetune"]
            target = plain.best_val_auc
            plain_epochs = best_epoch(plain)
            pre_epochs = epochs_to_auc(pre, target)
            wins.append(pre_epochs is not None and pre_epochs < plain_epochs)
            details.append(f"seed {s}: {pre_epochs} < {plain_epochs}")
        assert sum(wins) >= 2, details
        announce("criterion 08", f"pretrained fine-tune is faster for "
                 f"{sum(wins)}/3 seeds ({'; '.join(details)})")


class TestCriterion09DistillationDegenerations:
    def test_alpha_one_replays_baseline_bitwise(self):
        spec = SyntheticSpec(n_labeled=3000, n_unlabeled=0, n_test=500, d_a=6, d_b=6,
                             rule="additive", lift=0.9, noise=0.3)
        dataset = synth_federated(spec, seed=11)
        settings = TrainSettings(lr=1e-2, l2=1e-4, batch_size=256, epochs=5,
                                 patience=3, seed=11, stage="local")

        baseline = LocalModel.create(dataset.schema_a, (8,), (4,), rng_for(11, 24))
        hist_base = local_train(baseline, dataset.labeled.a, dataset.labeled.y, settings)

        cache = SoftLabelCache(probs=np.full(3000, 0.5, dtype=F32))
        student = LocalModel.create(dataset.schema_a, (8,), (4,), rng_for(11, 24))
        hist_student = distill(student, dataset.labeled.a, dataset.labeled.y, cache,
                               settings, alpha=1.0)

        def checksum(params):
            return hashlib.sha256(
                b"".join(v.tobytes() for _, v in sorted(params.items()))
            ).hexdigest()

        assert checksum(baseline.params()) == checksum(student.params())
        assert [r.train_loss for r in hist_base.records] == \
            [r.train_loss for r in hist_student.records]

        # alpha = 0 with student == teacher predictions: exactly zero
        logits = np.array([0.3, -1.7, 2.2], dtype=F32)
        soft = sigmoid(logits.astype(np.float64))
        loss, grad = distill_loss(logits, np.array([1.0, 0.0, 1.0], dtype=F32),
                                  soft, alpha=0.0)
        assert loss == 0.0
        assert np.all(grad == 0.0)
        announce("criterion 09", "alpha=1 replays the baseline bitwise; "
                 "alpha=0 at student==teacher gives exactly zero loss and gradient")


class TestCriterion10DeploymentIndependence:
    def test_student_runs_alone_with_no_party_b_state(self, matrix, tmp_path):
        report = matrix["local-ssd"][0]
        assert report.inference_messages == 0

        # re-derive the student and inspect its checkpoint
        spec = SyntheticSpec(n_labeled=2000, n_unlabeled=0, n_test=500, d_a=6, d_b=6,
                             rule="additive", lift=0.9, noise=0.3)
        dataset = synth_federated(spec, seed=12)
        student = LocalModel.create(dataset.schema_a, (8,), (4,), rng_for(12, 24))
        cache = SoftLabelCache(probs=np.full(2000, 0.5, dtype=F32))
        distill(student, dataset.labeled.a, dataset.labeled.y, cache,
                TrainSettings(lr=1e-2, batch_size=256, epochs=2, patience=None,
                              seed=12, stage="local"), alpha=0.5)
        path = tmp_path / "student.ckpt"
        save_checkpoint(path, student.params(), "schema-hash", meta={"role": "student"})
        params, _, _ = load_checkpoint(path)
        b_field_names = {f.name for f in dataset.schema_b.fields}
        for name in params:
            assert not name.startswith("b."), name
            for b_name in b_field_names:
                assert f"emb.{b_name}" not in name, name
        # inference is a pure function of party-A features: no channel exists
        assert not hasattr(student, "channel")
        scores = student.predict_logits(dataset.test.a)
        assert scores.shape == (500,)
        announce("criterion 10", "student inference sends zero messages and its "
                 "checkpoint holds no party-B tensors")


class TestCriterion11TransportSubstitution:
    def test_tcp_and_inproc_runs_produce_identical_parameters(self, tmp_path):
        t0 = time.time()
        sets = [
            "--set", "data.n_labeled=4000", "--set", "data.n_unlabeled=0",
            "--set", "data.n_test=1000", "--set", "data.d_a=6", "--set", "data.d_b=6",
            "--set", "data.buckets=12", "--set", "data.leak=0.35",
            "--set", "data.shared_dim=0", "--set", "data.private_dim=1",
            "--set", "data.noise=0.4",
            "--set", "arch.bottom_a=16,16", "--set", "arch.bottom_b=16,16",
            "--set", "arch.top=16",
            "--set", "hyper.epochs=6", "--set", "hyper.batch_train=256",
            "--set", "hyper.l2=1e-5", "--set", "hyper.patience=3",
        ]
        inproc_dir = tmp_path / "inproc"
        proc = subprocess.run(
            [sys.executable, "-m", "fedsplit", "run", "--method", "vfl",
             "--out", str(inproc_dir), *sets],
            capture_output=True, text=True, timeout=280,
        )
        assert proc.returncode == 0, proc.stderr
        report_inproc = json.loads(proc.stdout)

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        b_dir = tmp_path / "tcp_b"
        a_dir = tmp_path / "tcp_a"
        server = subprocess.Popen(
            [sys.executable, "-m", "fedsplit", "serve-b", "--port", str(port),
             "--method", "vfl", "--out", str(b_dir),
             "--set", "exec.recv_timeout=120", *sets],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            time.sleep(1.0)
            proc = subprocess.run(
                [sys.executable, "-m", "fedsplit", "run", "--method", "vfl",
                 "--transport", "tcp", "--set", f"exec.tcp_port={port}",
                 "--set", "exec.recv_timeout=120", "--out", str(a_dir), *sets],
                capture_output=True, text=True, timeout=280,
            )
            assert proc.returncode == 0, proc.stderr + proc.stdout
            report_tcp = json.loads(proc.stdout)
            server.wait(timeout=120)
            assert server.returncode == 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()

        a_in = next(inproc_dir.glob("runs/*/vfl/party_a.ckpt")).read_bytes()
        a_tcp = next(a_dir.glob("runs/*/vfl/party_a.ckpt")).read_bytes()
        b_in = next(inproc_dir.glob("runs/*/party_b_vfl.ckpt")).read_bytes()
        b_tcp = next(b_dir.glob("runs/*/party_b_vfl.ckpt")).read_bytes()
        assert a_in == a_tcp, "party A parameters differ across transports"
        assert b_in == b_tcp, "party B parameters differ across transports"
        assert report_inproc["test_auc"] == report_tcp["test_auc"]
        elapsed = time.time() - t0
        assert elapsed < 300, f"criterion budget exceeded: {elapsed:.0f}s"
        announce("criterion 11", f"TCP and in-process runs produced bit-identical "
                 f"parameters and test AUC ({elapsed:.0f}s)")
