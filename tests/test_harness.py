"""Experiment configs, method pipelines, run reports, and the grid."""

import json
import socket
import sys
import tempfile
import threading
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fedsplit.harness
from fedsplit.checkpoint import load_checkpoint
from fedsplit.data import SyntheticSpec
from fedsplit.errors import FedSplitError, TransportError, ValidationError
from fedsplit.harness import (
    CONFIG_KEYS,
    METHOD_STAGES,
    METHODS,
    ExperimentConfig,
    FedSession,
    RunContext,
    _stage_mpd_pretrain,
    grid,
    load_dataset,
    run,
    run_matrix,
    serve_party_b,
)
from fedsplit.splitnn import PassiveParty
from fedsplit.transport import MsgType


def tiny_config(method="vfl", seed=0, **kwargs):
    synth = SyntheticSpec(
        n_labeled=800, n_unlabeled=1600, n_test=400, d_a=6, d_b=6,
        rule="xor", positive_rate=0.5, lift=1.0, leak=0.3,
        shared_dim=2, private_dim=1, noise=0.3,
    )
    defaults = dict(
        method=method, seed=seed, synth=synth,
        bottom_a=(8,), bottom_b=(8,), top=(4,),
        lr=1e-2, finetune_lr=5e-3, alpha=0.5, l2=1e-4,
        batch_pretrain=256, batch_train=256, eval_batch=1024,
        epochs=3, pretrain_epochs=2, patience=3,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


GOLDEN_RESOLVED_TEXT = """\
[run]
method = local-ssd
seed = 7

[data]
kind = synthetic
label_column = label
n_labeled = 800
n_unlabeled = 1600
n_test = 400
d_a = 6
d_b = 6
rule = xor
positive_rate = 0.5
lift = 1.0
leak = 0.3
shared_dim = 2
private_dim = 1
noise = 0.3
buckets = 0
embed_dim = 8

[arch]
bottom_a = 8,4
bottom_b = 8
top = 4

[hyper]
lr = 0.01
finetune_lr = 0.005
alpha = 0.5
l2 = 0.0001
k = 1
batch_pretrain = 256
batch_train = 256
eval_batch = 1024
epochs = 3
pretrain_epochs = 2
patience = 3

[exec]
transport = inproc
tcp_host = 127.0.0.1
tcp_port = 9991
out_dir = /data/out
recv_timeout = 30.0

"""


class TestConfig:
    def test_file_round_trip(self, tmp_path):
        config = tiny_config(method="local-ssd", seed=7, alpha=0.9)
        path = tmp_path / "run.cfg"
        config.to_file(path)
        loaded = ExperimentConfig.from_file(path)
        assert loaded.method == "local-ssd"
        assert loaded.seed == 7
        assert loaded.alpha == 0.9
        assert loaded.synth == config.synth
        assert loaded.config_hash() == config.config_hash()

    def test_flag_overrides(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "run.cfg"
        config.to_file(path)
        loaded = ExperimentConfig.from_file(path, {"hyper.lr": "0.5", "run.seed": "9"})
        assert loaded.lr == 0.5 and loaded.seed == 9

    def test_hash_excludes_execution_details(self):
        a = tiny_config(transport="inproc")
        b = tiny_config(transport="tcp", tcp_port=12345, out_dir="/tmp/x")
        assert a.config_hash() == b.config_hash()

    def test_hash_sees_hyperparameters(self):
        assert tiny_config(lr=1e-2).config_hash() != tiny_config(lr=5e-3).config_hash()

    def test_unknown_key_is_rejected_by_name(self):
        with pytest.raises(ValidationError, match="hyper.lrr"):
            ExperimentConfig.from_flat({"hyper.lrr": "0.5"})

    def test_synthetic_keys_are_accepted_under_either_data_kind(self):
        config = ExperimentConfig.from_flat(
            {"data.kind": "csv", "data.n_labeled": "7", "data.csv_labeled_a": "a.csv"}
        )
        assert config.csv_paths == {"labeled_a": "a.csv"}

    @pytest.mark.parametrize("data_kind", ["synthetic", "csv"])
    def test_every_field_survives_a_file_round_trip(self, tmp_path, data_kind):
        base = ExperimentConfig()
        changed = dict(
            method="local-ssd", seed=5, data_kind=data_kind,
            label_column="clicked", bottom_a=(9, 3), bottom_b=(7,), top=(5, 2),
            lr=0.25, finetune_lr=0.125, alpha=0.75, l2=3e-6, k=3,
            batch_pretrain=77, batch_train=33, eval_batch=99, epochs=4,
            pretrain_epochs=6, patience=2, transport="tcp",
            tcp_host="10.0.0.2", tcp_port=4242, out_dir=str(tmp_path / "out"),
            recv_timeout=2.5,
        )
        if data_kind == "synthetic":
            changed["synth"] = SyntheticSpec(
                n_labeled=11, n_unlabeled=12, n_test=13, d_a=3, d_b=4, rule="additive",
                positive_rate=0.3, lift=0.8, leak=0.1, shared_dim=1, private_dim=3,
                noise=0.2, buckets=5, embed_dim=2,
            )
        else:
            changed["csv_paths"] = {"labeled_a": "la.csv", "labeled_b": "lb.csv"}
        config = replace(base, **changed)
        # everything but the data kind's own choice differs from the default
        unchanged = {"data_kind", "csv_paths"} if data_kind == "synthetic" else {"synth"}
        assert {f.name for f in fields(config)
                if getattr(config, f.name) == getattr(base, f.name)} == unchanged
        if data_kind == "synthetic":
            assert all(getattr(config.synth, f.name) != getattr(base.synth, f.name)
                       for f in fields(config.synth))
        path = tmp_path / "run.cfg"
        config.to_file(path)
        assert ExperimentConfig.from_file(path) == config

    def test_resolved_text_is_the_ini_file(self):
        config = tiny_config(method="local-ssd", seed=7, bottom_a=(8, 4), out_dir="/data/out")
        assert config.resolved_text() == GOLDEN_RESOLVED_TEXT
        assert ExperimentConfig.from_flat(
            {f"{section}.{key}": value for section, values in config.to_sections().items()
             for key, value in values.items()}) == config

    @pytest.mark.parametrize("key, value", [
        ("hyper.epochs", "two"), ("run.seed", "1.5"), ("arch.top", "4,x"),
        ("exec.recv_timeout", "soon"), ("data.n_labeled", "7.5"), ("data.noise", "low"),
    ])
    def test_unreadable_value_is_rejected_by_key(self, key, value):
        with pytest.raises(ValidationError, match=f"'{key}'"):
            ExperimentConfig.from_flat({key: value})

    def test_values_take_the_type_of_their_default(self):
        config = ExperimentConfig.from_flat(
            {"hyper.lr": "1", "data.noise": "0", "data.buckets": "5", "exec.out_dir": ""})
        assert type(config.lr) is float and type(config.synth.noise) is float
        assert config.synth.buckets == 5 and config.out_dir is None

    @pytest.mark.parametrize("field, value, key", [
        ("recv_timeout", -5.0, "exec.recv_timeout"),
        ("epochs", 0, "hyper.epochs"),
        ("lr", float("nan"), "hyper.lr"),
        ("lr", 0.0, "hyper.lr"),
        ("finetune_lr", -1e-3, "hyper.finetune_lr"),
        ("finetune_lr", float("nan"), "hyper.finetune_lr"),
        ("k", 0, "hyper.k"),
        ("l2", -1.0, "hyper.l2"),
        ("l2", float("inf"), "hyper.l2"),
        ("bottom_a", (), "arch.bottom_a"),
        ("bottom_b", (0,), "arch.bottom_b"),
        ("bottom_b", (8, -1), "arch.bottom_b"),
        ("top", (4, 0), "arch.top"),
        ("patience", -1, "hyper.patience"),
        ("pretrain_epochs", 0, "hyper.pretrain_epochs"),
        ("batch_pretrain", 1, "hyper.batch_pretrain"),
        ("batch_train", 1, "hyper.batch_train"),
        ("eval_batch", 1, "hyper.eval_batch"),
        ("seed", -1, "run.seed"),
    ])
    def test_out_of_range_value_is_rejected_by_key(self, field, value, key):
        with pytest.raises(ValidationError, match=key):
            tiny_config(**{field: value}).validate()

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            tiny_config(method="magic").validate()

    def test_unlabeled_requirement_enforced(self):
        bad = tiny_config(
            method="vfl-mpd",
            synth=SyntheticSpec(n_labeled=100, n_unlabeled=0, n_test=50),
        )
        with pytest.raises(ValidationError):
            bad.validate()


# "section.key=value" lines over the real keys and arbitrary ones, with
# values that parse as their field's type, fall out of range, or are text
_keys = st.one_of(
    st.sampled_from([*CONFIG_KEYS.values(), "data.n_unlabeled", "data.buckets",
                     "data.noise", "data.rule", "data.csv_labeled_a"]),
    st.text(max_size=12),
)
_values = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "0.5", "-0.5", "nan", "inf", "", "8,8", "0,4",
                     ",", "vfl", "local-ssd", "csv", "tcp", "1e999"]),
    st.integers(-2**40, 2**40).map(str),
    st.text(max_size=12),
)


@given(st.lists(st.tuples(_keys, _values), max_size=6))
@settings(max_examples=200, deadline=None)
def test_config_from_arbitrary_lines_validates_or_raises_typed(lines):
    flat = dict(f"{key}={value}".partition("=")[::2] for key, value in lines)
    try:
        ExperimentConfig.from_flat(flat).validate()
    except FedSplitError:
        pass


_ini_lines = st.sampled_from([b"[run]\n", b"[hyper]\n", b"[DEFAULT]\n", b"seed = 1\n",
                              b"seed = x\n", b"lr = 0.1\n", b"lr = %(x)s\n", b"  more\n",
                              b"method = vfl\n", b"=\n", b"x\n", b"\xff\n"])


@given(st.one_of(st.binary(max_size=120), st.lists(_ini_lines, max_size=10).map(b"".join)))
@settings(max_examples=200, deadline=None)
def test_config_file_of_arbitrary_bytes_loads_or_raises_typed(data):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "config.ini"
        path.write_bytes(data)
        try:
            ExperimentConfig.from_file(path)
        except FedSplitError:
            pass


class TestRun:
    def test_baseline_local_sends_zero_protocol_messages(self):
        report = run(tiny_config(method="baseline-local"))
        assert report.failed_stage is None
        assert report.messages_sent == {} and report.messages_received == {}
        assert report.inference_messages == 0
        assert report.stages == ["local-train"]
        assert 0.0 <= report.test_auc <= 1.0

    def test_vfl_counts_messages_and_improvement(self):
        report = run(tiny_config(method="vfl"))
        assert report.failed_stage is None
        assert report.messages_sent.get("GRADIENT", 0) > 0
        assert report.messages_received.get("ACTIVATION", 0) > 0
        assert report.inference_messages > 0
        assert report.baseline_auc is not None
        np.testing.assert_allclose(
            report.improvement, report.test_auc - report.baseline_auc, atol=1e-12
        )

    def test_stage_lists_match_method_definitions(self):
        ctx = RunContext()
        config = tiny_config()
        dataset = load_dataset(config)
        for method in METHODS:
            report = run(tiny_config(method=method), context=ctx, dataset=dataset)
            assert report.failed_stage is None, (method, report.error)
            assert report.stages == METHOD_STAGES[method], method

    def test_mpd_pipeline_history_has_no_validation_auc(self):
        # the pretraining stage never sees labels, so it records none
        report = run(tiny_config(method="vfl-mpd"))
        pretrain_history = report.histories["mpd-pretrain"]
        assert all(r.val_auc is None for r in pretrain_history.records)
        assert all("match_accuracy" in r.extra for r in pretrain_history.records)

    def test_local_methods_do_zero_inference_messages(self):
        ctx = RunContext()
        config = tiny_config()
        dataset = load_dataset(config)
        for method in ("local-sd", "local-mpd", "local-ssd"):
            report = run(tiny_config(method=method), context=ctx, dataset=dataset)
            assert report.inference_messages == 0, method

    def test_identical_config_and_seed_reproduce_the_report(self):
        config = tiny_config(method="local-ssd", seed=3)
        first = run(config)
        second = run(config)
        assert first.test_auc == second.test_auc
        assert first.baseline_auc == second.baseline_auc
        assert first.messages_sent == second.messages_sent
        assert first.bytes_sent == second.bytes_sent
        for stage in first.histories:
            a = first.histories[stage]
            b = second.histories[stage]
            assert [r.train_loss for r in a.records] == [r.train_loss for r in b.records]
            assert [r.val_auc for r in a.records] == [r.val_auc for r in b.records]

    def test_mpd_stage_copies_the_passive_bottom_after_its_last_update(self, monkeypatch):
        # a slow passive update exposes a copy taken before the passive
        # thread has applied the last gradient
        apply_update = PassiveParty.apply_update

        def slow_apply_update(party, grads):
            time.sleep(0.05)
            apply_update(party, grads)

        monkeypatch.setattr(PassiveParty, "apply_update", slow_apply_update)
        config = tiny_config(method="vfl-mpd", pretrain_epochs=1)
        dataset = load_dataset(config)
        sessions = []

        def session_factory():
            sessions.append(FedSession(config, dataset))
            return sessions[-1]

        out = _stage_mpd_pretrain(config, dataset, RunContext(), session_factory)
        final = {f"b.{k}": v for k, v in sessions[0].passive.bottom.params().items()}
        assert {k for k in out["params"] if k.startswith("b.")} == set(final)
        for name, value in final.items():
            assert out["params"][name].tobytes() == value.tobytes(), name

    def test_in_process_sessions_reuse_one_passive_thread(self, monkeypatch):
        # one thread per session would leave the process a new malloc arena
        # whenever the last thread was still exiting
        serve = PassiveParty.serve
        threads = []

        def recording_serve(party):
            threads.append(threading.current_thread())
            serve(party)

        monkeypatch.setattr(PassiveParty, "serve", recording_serve)
        config = tiny_config()
        dataset = load_dataset(config)
        for _ in range(3):
            with FedSession(config, dataset):
                pass
        assert len(threads) == 3
        assert all(thread is threads[0] for thread in threads)

    def test_passive_workers_give_each_concurrent_job_a_thread(self):
        # jobs that wait for each other deadlock if one queues behind a busy
        # worker; once they are done, later jobs reuse the idle threads
        workers = fedsplit.harness._PassiveWorkers()
        ran_on = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                barrier = threading.Barrier(6, timeout=10)

                def job():
                    ran_on.append(threading.current_thread())
                    barrier.wait()

                events = [workers.submit(job) for _ in range(6)]
                assert all(event.wait(timeout=10) for event in events)
        finally:
            sys.setswitchinterval(interval)
        assert len(ran_on) == 30
        assert len(set(ran_on)) == 6

    def test_a_busy_passive_worker_does_not_hold_up_a_new_session(self):
        config = tiny_config(method="vfl-mpd", pretrain_epochs=1)
        dataset = load_dataset(config)
        with FedSession(config, dataset) as outer:
            out = _stage_mpd_pretrain(config, dataset, RunContext(),
                                      lambda: FedSession(config, dataset))
            outer.reinit_passive([1, 2])
        assert any(k.startswith("b.") for k in out["params"])

    def test_tcp_run_takes_its_baseline_from_the_callers_context(self, monkeypatch):
        config = tiny_config(method="baseline-local")
        dataset = load_dataset(config)
        ctx = RunContext()
        baseline = run(config, context=ctx, dataset=dataset)
        calls = []
        local_train = fedsplit.harness.local_train

        def counting_local_train(*args, **kwargs):
            calls.append(args[3].stage)
            return local_train(*args, **kwargs)

        monkeypatch.setattr(fedsplit.harness, "local_train", counting_local_train)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        tcp = replace(config, method="vfl", transport="tcp", tcp_port=port, recv_timeout=60.0)
        server = threading.Thread(target=serve_party_b, args=(tcp,), daemon=True)
        server.start()
        report = run(tcp, context=ctx, dataset=dataset)
        server.join(timeout=60)
        assert not server.is_alive()
        assert report.failed_stage is None, report.error
        assert calls == []
        assert report.baseline_auc == baseline.test_auc

    def test_an_in_process_passive_fault_fails_at_once_with_its_own_type(self, monkeypatch):
        class PassiveFault(RuntimeError):
            pass

        def fail(passive, meta):
            raise PassiveFault("epoch handler failed")

        monkeypatch.setattr(PassiveParty, "_handle_epoch", fail)
        config = tiny_config(method="vfl", recv_timeout=20.0)
        t0 = time.perf_counter()
        report = run(config)
        assert time.perf_counter() - t0 < 5.0
        assert report.failed_stage == "fed-train"
        assert report.error == "PassiveFault: epoch handler failed"

        # the active party's own error, the closed stream, is kept as the cause
        with pytest.raises(PassiveFault) as caught:
            with FedSession(config, load_dataset(config)) as session:
                session.active.channel.send_new(MsgType.CONTROL, meta={"cmd": "epoch"})
                session.active.channel.recv()
        assert isinstance(caught.value.__cause__, TransportError)
        assert "peer closed connection" in str(caught.value.__cause__)

    def test_report_json_is_parseable(self):
        report = run(tiny_config(method="vfl"))
        payload = json.loads(report.to_json())
        assert payload["method"] == "vfl"
        assert payload["histories"]["fed-train"]

    def test_failed_run_reports_stage(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("training fault")

        monkeypatch.setattr(fedsplit.harness, "train_supervised", fail)
        report = run(tiny_config(method="vfl"))
        assert report.failed_stage == "fed-train"
        assert report.error == "RuntimeError: training fault"
        assert report.test_auc is None

    def test_artifacts_written(self, tmp_path):
        config = tiny_config(method="vfl", out_dir=str(tmp_path))
        report = run(config)
        run_dir = tmp_path / "runs" / config.config_hash()
        assert (run_dir / "resolved.cfg").exists()
        assert (run_dir / "report.json").exists()
        assert (run_dir / "fed-train" / "metrics.jsonl").exists()
        assert (run_dir / "final.ckpt").exists()
        assert (run_dir / "vfl" / "party_a.ckpt").exists()
        assert (run_dir / "party_b_vfl.ckpt").exists()


class TestTransportSubstitution:
    @pytest.mark.parametrize("method, fed_stage", [("vfl-mpd", "vfl-mpd-ft"),
                                                   ("local-sd", "vfl")])
    def test_tcp_run_equals_in_process_run(self, tmp_path, method, fed_stage):
        # over TCP party B's pretrained or teacher bottom stays in the peer's
        # one session from stage to stage; in-process it is loaded into each
        # stage's fresh session
        config = tiny_config(method=method, out_dir=str(tmp_path / "inproc"))
        inproc = run(config)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        tcp = replace(config, transport="tcp", tcp_port=port, recv_timeout=60.0,
                      out_dir=str(tmp_path / "tcp"))
        server = threading.Thread(target=serve_party_b, args=(tcp,), daemon=True)
        server.start()
        report = run(tcp)
        server.join(timeout=60)
        assert not server.is_alive()
        assert inproc.failed_stage is None and report.failed_stage is None, report.error
        assert report.test_auc == inproc.test_auc
        run_dirs = [tmp_path / side / "runs" / config.config_hash() for side in ("inproc", "tcp")]
        for name in (f"{fed_stage}/party_a.ckpt", f"party_b_{fed_stage}.ckpt"):
            first, second = ((d / name).read_bytes() for d in run_dirs)
            assert first == second, name


class TestRunMatrix:
    def test_shares_pretraining_across_methods(self):
        config = tiny_config()
        results = run_matrix(config, methods=("vfl-mpd", "local-mpd", "local-ssd"),
                             seeds=(0,))
        for method, by_seed in results.items():
            assert by_seed[0].failed_stage is None, method
        histories = [results[m][0].histories["mpd-pretrain"] for m in results]
        losses = [[r.train_loss for r in h.records] for h in histories]
        assert losses[0] == losses[1] == losses[2]

    def test_improvements_are_against_same_seed_baseline(self):
        config = tiny_config()
        results = run_matrix(config, methods=("baseline-local", "vfl"), seeds=(0, 1))
        for seed in (0, 1):
            base = results["baseline-local"][seed]
            fed = results["vfl"][seed]
            np.testing.assert_allclose(
                fed.improvement, fed.test_auc - base.test_auc, atol=1e-12
            )
            assert fed.baseline_auc == base.test_auc


class TestGrid:
    def test_grid_of_size_one_equals_repeated_runs(self):
        config = tiny_config(method="baseline-local")
        result = grid(config, {"lr": [1e-2]}, seeds=(0, 1, 2))
        assert len(result.table) == 3
        for entry, seed in zip(result.table, (0, 1, 2)):
            single = run(tiny_config(method="baseline-local", seed=seed, lr=1e-2))
            assert entry["test_auc"] == single.test_auc

    def test_selection_uses_validation_never_test(self):
        config = tiny_config(method="baseline-local")
        result = grid(config, {"lr": [1e-2, 5e-3]}, seeds=(0,))
        assert len(result.table) == 2
        picked = max(result.table, key=lambda e: e["val_auc"])
        assert result.best_val_auc == picked["val_auc"]
        assert result.best.test_auc == picked["test_auc"]

    def test_paper_style_grid_enumerates_all_combinations(self):
        config = tiny_config(method="baseline-local", epochs=1)
        result = grid(config, {"lr": [1e-2, 5e-3], "l2": [1e-4, 1e-5]}, seeds=(0,))
        assert len(result.table) == 4
        combos = {(e["combo"]["lr"], e["combo"]["l2"]) for e in result.table}
        assert len(combos) == 4

    def _count_stage_calls(self, monkeypatch):
        calls = {"train_supervised": 0, "local_train": 0}
        for name in calls:
            original = getattr(fedsplit.harness, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(fedsplit.harness, name, counting)
        return calls

    def test_cells_share_the_stages_the_gridded_key_does_not_reach(self, monkeypatch):
        config = tiny_config(method="local-sd")
        calls = self._count_stage_calls(monkeypatch)
        result = grid(config, {"alpha": [0.25, 0.75]}, seeds=(0,))
        # one teacher and one baseline serve both cells
        assert calls == {"train_supervised": 1, "local_train": 1}
        separate = []
        for alpha in (0.25, 0.75):
            report = run(replace(config, alpha=alpha))
            separate.append({"combo": {"alpha": alpha}, "seed": 0,
                             "val_auc": report.histories["distill"].best_val_auc,
                             "test_auc": report.test_auc})
        assert result.table == separate

    def test_a_cell_served_from_the_cache_writes_its_stage_checkpoints(self, tmp_path,
                                                                       monkeypatch):
        config = tiny_config(method="local-sd", out_dir=str(tmp_path))
        calls = self._count_stage_calls(monkeypatch)
        grid(config, {"alpha": [0.25, 0.75]}, seeds=(0,))
        assert calls["train_supervised"] == 1
        loaded = []
        for alpha in (0.25, 0.75):
            run_dir = tmp_path / "runs" / replace(config, alpha=alpha).config_hash()
            a_params, _, a_meta = load_checkpoint(run_dir / "vfl" / "party_a.ckpt")
            b_params, _, b_meta = load_checkpoint(run_dir / "party_b_vfl.ckpt")
            assert a_meta["config_hash"] == run_dir.name
            assert b_meta == {"role": "passive", "tag": "vfl"}
            loaded.append({**a_params, **b_params})
        first, second = loaded
        assert sorted(first) == sorted(second)
        assert any(name.startswith("b.") for name in first)
        for name in first:
            np.testing.assert_array_equal(first[name], second[name])

    def test_cells_differing_in_eval_batch_train_their_own_stage(self, monkeypatch):
        config = tiny_config(method="vfl", epochs=1)
        calls = self._count_stage_calls(monkeypatch)
        grid(config, {"eval_batch": [256, 1024]}, seeds=(0,))
        assert calls["train_supervised"] == 2
