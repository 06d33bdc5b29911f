"""Command-line surface: synth, run, grid, eval, pretrain, serve-b."""

import argparse
import json
import socket
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fedsplit import cli as fedsplit_cli
from fedsplit.data import SyntheticSpec
from fedsplit.errors import FedSplitError
from fedsplit.harness import CONFIG_KEYS

BASE_SETS = [
    "--set", "data.n_labeled=600",
    "--set", "data.n_unlabeled=1200",
    "--set", "data.n_test=300",
    "--set", "data.d_a=5",
    "--set", "data.d_b=5",
    "--set", "data.leak=0.3",
    "--set", "data.noise=0.3",
    "--set", "arch.bottom_a=8",
    "--set", "arch.bottom_b=8",
    "--set", "arch.top=4",
    "--set", "hyper.epochs=2",
    "--set", "hyper.pretrain_epochs=1",
    "--set", "hyper.batch_train=256",
    "--set", "hyper.batch_pretrain=256",
]


def cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "fedsplit", *args],
        capture_output=True, text=True, timeout=timeout,
    )


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestSynthCommand:
    def test_writes_csv_pairs_and_schemas(self, tmp_path):
        proc = cli("synth", "--out", str(tmp_path), *BASE_SETS)
        assert proc.returncode == 0, proc.stderr
        for name in ("schema_a.txt", "schema_b.txt", "labeled_a.csv", "labeled_b.csv",
                     "unlabeled_a.csv", "unlabeled_b.csv", "test_a.csv", "test_b.csv"):
            assert (tmp_path / name).exists(), name
        header = (tmp_path / "labeled_a.csv").read_text().splitlines()[0]
        assert header.endswith(",label")
        b_header = (tmp_path / "labeled_b.csv").read_text().splitlines()[0]
        assert "label" not in b_header

    def test_csv_round_trip_through_run(self, tmp_path):
        assert cli("synth", "--out", str(tmp_path), *BASE_SETS).returncode == 0
        proc = cli(
            "run", "--method", "baseline-local",
            "--set", "data.kind=csv",
            "--set", f"data.csv_labeled_a={tmp_path}/labeled_a.csv",
            "--set", f"data.csv_labeled_b={tmp_path}/labeled_b.csv",
            "--set", f"data.csv_test_a={tmp_path}/test_a.csv",
            "--set", f"data.csv_test_b={tmp_path}/test_b.csv",
            "--set", f"data.csv_schema_a={tmp_path}/schema_a.txt",
            "--set", f"data.csv_schema_b={tmp_path}/schema_b.txt",
            "--set", "arch.bottom_a=8", "--set", "arch.bottom_b=8", "--set", "arch.top=4",
            "--set", "hyper.epochs=2", "--set", "hyper.batch_train=256",
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert 0.0 <= report["test_auc"] <= 1.0


class TestRunCommand:
    def test_run_emits_report_json(self):
        proc = cli("run", "--method", "vfl", "--seed", "1", *BASE_SETS)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["method"] == "vfl"
        assert report["stages"] == ["fed-train"]
        assert report["messages_sent"]["GRADIENT"] > 0

    @pytest.mark.parametrize("args", [("run", "--set", "hyper.epochs=two"),
                                      ("grid", "--grid", "epochs=1,two")])
    def test_unreadable_value_exits_with_its_key(self, args):
        proc = cli(*args, "--method", "vfl")
        assert proc.returncode == 2
        assert "hyper.epochs" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("key, value", [
        ("exec.recv_timeout", "-5"), ("exec.recv_timeout", "0"),
        ("exec.recv_timeout", "inf"), ("hyper.epochs", "0"),
        ("hyper.lr", "nan"), ("hyper.finetune_lr", "0"),
        ("hyper.k", "0"), ("hyper.l2", "-1"), ("arch.bottom_b", "0"),
        ("hyper.patience", "-1"), ("hyper.pretrain_epochs", "0"), ("hyper.eval_batch", "1"),
    ])
    def test_out_of_range_value_exits_with_its_key(self, key, value):
        proc = cli("run", "--method", "vfl", "--set", f"{key}={value}")
        assert proc.returncode == 2
        assert key in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["pretrain", "serve-b"])
    def test_every_command_refuses_an_out_of_range_value(self, command, tmp_path):
        proc = cli(command, "--method", "vfl-mpd", "--out", str(tmp_path),
                   "--set", "hyper.k=0", "--set", "exec.recv_timeout=1", *BASE_SETS)
        assert proc.returncode == 2
        assert "hyper.k" in proc.stderr and "Traceback" not in proc.stderr

    def test_grid_seed_that_is_not_an_integer_exits_naming_seeds(self):
        proc = cli("grid", "--method", "vfl", "--grid", "epochs=1", "--seeds", "0,x")
        assert proc.returncode == 2
        assert "--seeds" in proc.stderr and "Traceback" not in proc.stderr

    def test_grid_over_an_integer_hyperparameter(self):
        proc = cli("grid", "--method", "vfl", "--grid", "epochs=1,2", "--seeds", "0",
                   *BASE_SETS)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert [row["combo"]["epochs"] for row in result["table"]] == [1, 2]

    def test_pretrain_reports_match_metrics(self, tmp_path):
        proc = cli("pretrain", "--out", str(tmp_path), *BASE_SETS)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert 0.0 <= payload["match_accuracy"] <= 1.0
        run_dirs = list((tmp_path / "runs").iterdir())
        assert run_dirs
        assert (run_dirs[0] / "pretrained_bottom_a.ckpt").exists()
        assert (run_dirs[0] / "party_b_pretrained.ckpt").exists()

    def test_eval_scores_a_checkpoint(self, tmp_path):
        proc = cli("run", "--method", "baseline-local", "--out", str(tmp_path), *BASE_SETS)
        assert proc.returncode == 0, proc.stderr
        ckpt = next((tmp_path / "runs").glob("*/final.ckpt"))
        proc = cli("eval", "--checkpoint", str(ckpt), *BASE_SETS)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert 0.0 <= payload["test_auc"] <= 1.0


class TestParseErrors:
    @pytest.mark.parametrize("args, named", [
        (["run", "--set", "hyper.epochs"], "--set"),
        (["grid", "--grid", "epochs"], "--grid"),
        (["grid", "--grid", "epoch=1,2"], "'epoch'"),
    ])
    def test_malformed_set_or_grid_exits_2_naming_it(self, args, named, capsys):
        assert fedsplit_cli.main([*args, "--method", "vfl"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err


_set_keys = sorted(CONFIG_KEYS.values()) + [f"data.{f.name}" for f in fields(SyntheticSpec)]
_set_items = st.one_of(
    st.text(max_size=24),
    st.builds("{}={}".format, st.sampled_from(_set_keys), st.text(max_size=12)),
)


@given(st.lists(_set_items, max_size=4))
@settings(max_examples=200, deadline=None)
def test_config_from_arbitrary_set_items_parses_or_raises_typed(items):
    args = argparse.Namespace(set=items, config=None, seed=None, method=None,
                              transport=None, out=None)
    try:
        fedsplit_cli._config_from(args)
    except FedSplitError:
        pass


class TestServeB:
    def test_handshake_mismatch_exits_nonzero(self):
        port = free_port()
        server = subprocess.Popen(
            [sys.executable, "-m", "fedsplit", "serve-b", "--port", str(port),
             "--set", "exec.recv_timeout=20", *BASE_SETS],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            time.sleep(1.0)
            # the client disagrees on a hyperparameter, so config hashes differ
            proc = cli("run", "--method", "vfl", "--transport", "tcp",
                       "--set", f"exec.tcp_port={port}",
                       "--set", "hyper.lr=0.5", *BASE_SETS)
            out = json.loads(proc.stdout)
            assert out["failed_stage"] is not None
            server.wait(timeout=30)
            assert server.returncode != 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()

    def test_killing_party_b_mid_run_aborts_with_transport_error(self, tmp_path):
        port = free_port()
        # big enough to keep training busy for several seconds
        sets = BASE_SETS + [
            "--set", "data.n_labeled=20000", "--set", "hyper.epochs=300",
            "--set", "hyper.patience=300",
        ]
        server = subprocess.Popen(
            [sys.executable, "-m", "fedsplit", "serve-b", "--port", str(port),
             "--set", "exec.recv_timeout=60", *sets],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            time.sleep(1.0)
            client = subprocess.Popen(
                [sys.executable, "-m", "fedsplit", "run", "--method", "vfl",
                 "--transport", "tcp", "--set", f"exec.tcp_port={port}",
                 "--set", "exec.recv_timeout=5", "--out", str(tmp_path), *sets],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            time.sleep(4.0)  # well inside training
            server.kill()
            server.wait()
            out, _ = client.communicate(timeout=120)
            assert client.returncode != 0
            report = json.loads(out)
            assert report["failed_stage"] == "fed-train"
            assert "Transport" in report["error"] or "recv" in report["error"]
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()

    def test_two_process_vfl_run_completes(self, tmp_path):
        port = free_port()
        server = subprocess.Popen(
            [sys.executable, "-m", "fedsplit", "serve-b", "--port", str(port),
             "--set", "exec.recv_timeout=60", *BASE_SETS],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            time.sleep(1.0)
            proc = cli("run", "--method", "vfl", "--transport", "tcp",
                       "--set", f"exec.tcp_port={port}",
                       "--set", "exec.recv_timeout=60",
                       "--out", str(tmp_path), *BASE_SETS)
            assert proc.returncode == 0, proc.stderr + proc.stdout
            report = json.loads(proc.stdout)
            assert report["failed_stage"] is None
            assert 0.0 <= report["test_auc"] <= 1.0
            server.wait(timeout=60)
            assert server.returncode == 0, server.stderr.read()
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
