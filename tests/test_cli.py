"""Command-line surface: synth, run, grid, eval, serve-b."""

import argparse
import json
import re
import socket
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fedsplit import cli as fedsplit_cli
from fedsplit.checkpoint import save_checkpoint
from fedsplit.data import SyntheticSpec, synth_federated, write_csv
from fedsplit.errors import FedSplitError
from fedsplit.harness import CONFIG_KEYS, ExperimentConfig, load_dataset
from fedsplit.splitnn import LocalModel, SplitModel, rng_for

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
        ("exec.tcp_port", "0"), ("exec.tcp_port", "70000"),
    ])
    def test_out_of_range_value_exits_with_its_key(self, key, value):
        proc = cli("run", "--method", "vfl", "--set", f"{key}={value}")
        assert proc.returncode == 2
        assert key in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["serve-b"])
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

    def test_run_into_a_directory_whose_name_holds_a_percent_sign(self, tmp_path):
        out = tmp_path / "100%"
        proc = cli("run", "--method", "baseline-local", "--out", str(out), *BASE_SETS)
        assert proc.returncode == 0, proc.stderr
        run_dir = next((out / "runs").iterdir())
        assert (run_dir / "report.json").exists()
        assert ExperimentConfig.from_file(run_dir / "resolved.cfg").out_dir == str(out)

    def test_eval_scores_a_checkpoint(self, tmp_path):
        proc = cli("run", "--method", "baseline-local", "--out", str(tmp_path), *BASE_SETS)
        assert proc.returncode == 0, proc.stderr
        ckpt = next((tmp_path / "runs").glob("*/final.ckpt"))
        proc = cli("eval", "--checkpoint", str(ckpt), *BASE_SETS)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert 0.0 <= payload["test_auc"] <= 1.0


def test_the_documented_commands_are_the_registered_ones(capsys):
    with pytest.raises(SystemExit):
        fedsplit_cli.main(["--help"])
    registered = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1).split(",")
    documented = re.findall(r"^ +fedsplit ([a-z-]+) ", fedsplit_cli.__doc__, re.MULTILINE)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    layout = re.search(r"^ +cli\.py +([a-z /-]+);", readme, re.MULTILINE).group(1)
    assert sorted(registered) == sorted(documented) == sorted(layout.split(" / "))


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


def main_error(capsys, *args):
    """The in-process CLI's exit code and stderr for args."""
    code = fedsplit_cli.main(list(args))
    return code, capsys.readouterr().err


CSV_SETS = ["--set", "data.kind=csv"] + [
    item for key in ("schema_a", "schema_b", "labeled_a", "labeled_b")
    for item in ("--set", f"data.csv_{key}=/nonexistent/{key}")
]


class TestInputErrors:
    """A bad address, a missing file or a checkpoint of another shape exits
    2 with one "error: ..." line, never a traceback."""

    @pytest.mark.parametrize("port", ["0", "70000"])
    def test_serve_b_port_out_of_range_names_the_key(self, capsys, port):
        code, err = main_error(capsys, "serve-b", "--port", port, *BASE_SETS)
        assert code == 2 and err.startswith("error: ") and "exec.tcp_port" in err

    def test_serve_b_on_a_port_in_use(self, capsys):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            port = taken.getsockname()[1]
            code, err = main_error(capsys, "serve-b", "--host", "127.0.0.1",
                                   "--port", str(port), *BASE_SETS)
        assert code == 2 and err.startswith("error: ")

    @pytest.mark.parametrize("axis", ["seed=1,2", "method=vfl,baseline-local"],
                             ids=["seed", "method"])
    def test_grid_refuses_a_key_that_is_not_a_hyperparameter(self, capsys, axis):
        # the seeds come from --seeds, and a grid reports the one method it tunes
        code, err = main_error(capsys, "grid", "--method", "vfl", "--grid", axis,
                               "--seeds", "0", *BASE_SETS)
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert f"'{axis.split('=')[0]}'" in err

    def test_missing_schema_file(self, capsys):
        code, err = main_error(capsys, "run", "--method", "baseline-local", *CSV_SETS)
        assert code == 2 and err.startswith("error: ") and "/nonexistent/schema_a" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, err = main_error(capsys, "run", "--config", str(tmp_path / "none.ini"))
        assert code == 2 and err.startswith("error: ") and "none.ini" in err

    @pytest.mark.parametrize("sets, named", [
        (["--set", "data.kind=csv"], "data.csv_schema_a"),
        (CSV_SETS[:-2], "data.csv_labeled_b"),
        (CSV_SETS + ["--set", "data.csv_test_a=t.csv"], "data.csv_test_b"),
        (CSV_SETS + ["--set", "data.csv_unlabeled_b=u.csv"], "data.csv_unlabeled_a"),
        (CSV_SETS + ["--set", "data.csv_tset_a=t.csv"], "data.csv_tset_a"),
    ], ids=["no-paths", "no-labeled-b", "half-test", "half-unlabeled", "misspelled"])
    def test_csv_paths_are_checked_up_front(self, capsys, sets, named):
        code, err = main_error(capsys, "run", "--method", "vfl", *sets)
        assert code == 2 and err.startswith("error: ") and named in err

    @pytest.mark.parametrize("command", [["run", "--method", "baseline-local"],
                                         ["eval", "--checkpoint", "unread.ckpt"]],
                             ids=["run", "eval"])
    def test_without_a_test_segment(self, capsys, command):
        code, err = main_error(capsys, *command, *BASE_SETS, "--set", "data.n_test=0")
        assert code == 2 and err.startswith("error: ") and "test segment" in err

    @pytest.mark.parametrize("kind", ["local", "split"])
    @pytest.mark.parametrize("bottom, top", [((3,), (4,)), ((8,), (2,)), ((8, 8), (4,))],
                             ids=["narrower-bottom", "narrower-top", "deeper-bottom"])
    def test_eval_of_a_checkpoint_of_other_widths(self, capsys, tmp_path, kind, bottom, top):
        config = ExperimentConfig.from_flat(dict(item.split("=", 1) for item in BASE_SETS[1::2]))
        dataset = load_dataset(config)
        if kind == "local":
            model = LocalModel.create(dataset.schema_a, bottom, top, rng_for(0, 1))
        else:
            model = SplitModel.create(dataset.schema_a, dataset.schema_b, bottom, bottom, top, 0)
        save_checkpoint(tmp_path / "other.ckpt", model.params(), "")
        code, err = main_error(capsys, "eval", "--checkpoint", str(tmp_path / "other.ckpt"),
                               *BASE_SETS)
        assert code == 2 and err.startswith("error: ") and "layer" in err

    @pytest.mark.parametrize("keep, named", [(("top.",), "bottom."), (("a.", "top."), "party_b_")],
                             ids=["top-only", "no-party-b"])
    def test_eval_refuses_an_incomplete_checkpoint(self, capsys, tmp_path, keep, named):
        # a TCP run's final.ckpt holds a.* and top.*; B's bottom stays with party B
        config = ExperimentConfig.from_flat(dict(item.split("=", 1) for item in BASE_SETS[1::2]))
        dataset = load_dataset(config)
        model = SplitModel.create(dataset.schema_a, dataset.schema_b, config.bottom_a,
                                  config.bottom_b, config.top, config.seed)
        params = {k: v for k, v in model.params().items() if k.startswith(keep)}
        save_checkpoint(tmp_path / "part.ckpt", params, "")
        code, err = main_error(capsys, "eval", "--checkpoint", str(tmp_path / "part.ckpt"),
                               *BASE_SETS)
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert "part.ckpt" in err and named in err

    @pytest.fixture
    def csv_sets(self, tmp_path):
        """--set items naming a small labeled+test CSV dataset under tmp_path."""
        write_csv(synth_federated(SyntheticSpec(n_labeled=40, n_unlabeled=0, n_test=40,
                                                d_a=2, d_b=2, buckets=4), seed=0),
                  tmp_path, "label")
        names = ("schema_a.txt", "schema_b.txt", "labeled_a.csv", "labeled_b.csv",
                 "test_a.csv", "test_b.csv")
        return ["--set", "data.kind=csv"] + [
            item for name in names
            for item in ("--set", f"data.csv_{name.split('.')[0]}={tmp_path / name}")]

    @pytest.mark.parametrize("name, data", [
        ("labeled_b.csv", b"b0,b1\n\xff\xfe,1\n"),
        ("test_a.csv", b"a0,a1,label\n" + b"x" * 131_073 + b",1,1\n"),
        ("schema_a.txt", b"a0 categorical buckets=4 embed_dim=\xe9\n"),
    ], ids=["csv-not-utf8", "csv-oversized-cell", "schema-not-utf8"])
    def test_unreadable_data_file_names_it(self, capsys, tmp_path, csv_sets, name, data):
        (tmp_path / name).write_bytes(data)
        code, err = main_error(capsys, "run", "--method", "baseline-local", *csv_sets)
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert name in err

    @pytest.mark.parametrize("data", [
        b"[run]\nmethod = vfl\xff\n",
        b"method = vfl\n",
        b"[run]\nseed = 1\nseed = 2\n",
    ], ids=["not-utf8", "no-section-header", "repeated-option"])
    def test_unreadable_config_file_names_it(self, capsys, tmp_path, data):
        (tmp_path / "bad.ini").write_bytes(data)
        code, err = main_error(capsys, "run", "--config", str(tmp_path / "bad.ini"))
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert "bad.ini" in err


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
