"""The benchmark's three workloads.

A run is a sequence of whole rounds. Round r of a run with seed s draws its
data and its model seed from `round_seed(s, r)`, so one run's figures cover
several synthetic problems: the generator draws new mixing matrices per
seed, and a single problem's AUC varies a lot from seed to seed. A round is
set-up (data generation or CSV ingest, plus the passive processes where
there are any) followed by the workload's method runs through the public
harness API; it returns the round's measurements and the problems its
checks found.

Early stopping is switched off (patience equals the epoch budget), so every
round trains the same number of rows and its work does not depend on the
data.
"""

from __future__ import annotations

import os
import shutil
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks

from fedsplit import harness
from fedsplit.checkpoint import load_checkpoint
from fedsplit.data import SyntheticSpec
from fedsplit.numeric import sigmoid
from fedsplit.splitnn import STREAM_INIT_LOCAL_A, LocalModel, SplitModel, rng_for

# ACCEPTANCE_CONFIG's model and batch shapes (8 + 8 fields x 24 buckets x
# dim 8, widths 64, batch 128); rows and epochs are cut so that one round
# fits several times into a run
DESK_SPEC = dict(d_a=8, d_b=8, rule="xor", positive_rate=0.5, lift=0.9, leak=0.35,
                 shared_dim=0, private_dim=1, noise=0.4, buckets=24, embed_dim=8)
DESK_ROWS = dict(n_labeled=5_000, n_unlabeled=10_000, n_test=3_000)
DESK_EPOCHS = 5
DESK_PRETRAIN_EPOCHS = 6

# hashed-vocabulary CSV: the desk fields plus one heavy-tailed ID column per
# party hashed into 2**16 buckets, at batch 512
HASHED_ROWS = dict(n_labeled=8_000, n_unlabeled=16_000, n_test=3_000)
# the desk codes are hashed into a table ten times their count, so that
# collisions lose little of them
HASHED_DESK_BUCKETS = 256
HASHED_BUCKETS = 1 << 16
HASHED_BATCH = 512
HASHED_EPOCHS = 6
HASHED_PRETRAIN_EPOCHS = 3
ID_ZIPF_EXPONENT = 1.3

MATRIX_METHODS = harness.METHODS
HASHED_METHODS = ("vfl-mpd", "local-ssd")
TCP_METHODS = ("vfl-mpd", "local-sd")
FED_METHOD = "vfl-mpd"
LOCAL_METHOD = {"matrix-inproc": "local-ssd", "hashed-vocab-csv": "local-ssd",
                "tcp-two-process": "local-sd"}

PASSIVE_START_TIMEOUT = 60.0
PASSIVE_EXIT_TIMEOUT = 60.0
RECV_TIMEOUT = 120.0


def round_seed(seed: int, index: int) -> int:
    return 1000 * seed + index


def base_config(seed: int, rows: dict, *, epochs: int, pretrain_epochs: int,
                batch_train: int, batch_pretrain: int = 512) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        seed=seed,
        synth=SyntheticSpec(**rows, **DESK_SPEC),
        bottom_a=(64, 64), bottom_b=(64, 64), top=(64, 64),
        lr=1e-2, finetune_lr=1e-3, alpha=0.5, l2=1e-5,
        batch_pretrain=batch_pretrain, batch_train=batch_train, eval_batch=16_384,
        epochs=epochs, pretrain_epochs=pretrain_epochs, patience=epochs,
        recv_timeout=RECV_TIMEOUT,
    )


@dataclass
class Round:
    setup_s: list  # one entry per set-up made in the round
    wall_s: float
    train_rows: int
    wire_bytes: int
    wire_frames: int
    auc_fed: float
    auc_local: float
    auc_baseline: float  # baseline-local AUC reported alongside auc_fed
    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    checksums: dict = field(default_factory=dict)
    passive_traces: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Checks shared by the workloads
# ---------------------------------------------------------------------------


def check_reports(name, reports, config, sizes, *, hidden_baselines):
    """Frame counts, matrix-frame bytes, inference messages and AUCs of one
    round's reports. Returns (traffic model, problems)."""
    problems = []
    traffic = checks.Traffic(sizes, config.batch_train, config.batch_pretrain,
                             config.eval_batch, config.bottom_b[-1])
    checks.model_round(reports, traffic, hidden_baselines=hidden_baselines,
                       epochs=config.epochs)
    received = sum(r.messages_received.get("ACTIVATION", 0) for r in reports)
    gradients = sum(r.messages_sent.get("GRADIENT", 0) for r in reports)
    evals = sum(r.messages_received.get("EVAL_ACTIVATION", 0) for r in reports)
    if received != traffic.activations or gradients != traffic.activations:
        problems.append(f"{name}: {received} activations / {gradients} gradients, "
                        f"expected {traffic.activations} of each")
    if evals != traffic.evals:
        problems.append(f"{name}: {evals} eval activations, expected {traffic.evals}")
    hellos = sum(r.messages_received.get("HELLO", 0) for r in reports)
    hello_bytes = hellos * checks.hello_frame_bytes("passive")
    bytes_received = sum(r.bytes_received for r in reports)
    if bytes_received != traffic.received_matrix_bytes() + hello_bytes:
        problems.append(f"{name}: received {bytes_received} bytes, expected "
                        f"{traffic.received_matrix_bytes()} matrix + {hello_bytes} hello")
    other_sent = sum(sum(r.messages_sent.values()) for r in reports) - gradients
    floor = traffic.gradient_bytes() + other_sent * checks.FRAME_HEADER_BYTES
    if sum(r.bytes_sent for r in reports) < floor:
        problems.append(f"{name}: sent fewer bytes than its gradient frames need")
    for report in reports:
        if report.failed_stage is not None:
            continue
        if report.method in harness.LOCAL_METHODS:
            if report.inference_messages != 0:
                problems.append(f"{report.method}: local serving sent "
                                f"{report.inference_messages} inference messages")
        elif report.inference_messages != traffic.test_inference_messages():
            problems.append(f"{report.method}: {report.inference_messages} inference "
                            f"messages, expected {traffic.test_inference_messages()}")
        for label, value in (("test", report.test_auc), ("baseline", report.baseline_auc)):
            if value is None or not 0.5 < value <= 1.0:
                problems.append(f"{report.method}: {label} AUC {value} outside (0.5, 1]")
    return traffic, problems


def run_dir(config) -> Path:
    return Path(config.out_dir) / "runs" / config.config_hash()


def final_params(config) -> dict:
    params, _, _ = load_checkpoint(run_dir(config) / "final.ckpt")
    return params


def recompute_auc(config, dataset, report, params) -> list:
    """Score the test segment with the saved final parameters and the
    benchmark's own AUC; the report's AUC must match."""
    if config.method in harness.LOCAL_METHODS:
        model = LocalModel.create(dataset.schema_a, config.bottom_a, config.top,
                                  rng_for(config.seed, STREAM_INIT_LOCAL_A))
        model.set_params(params)
        scores = sigmoid(model.predict_logits(dataset.test.a))
    else:
        model = SplitModel.create(dataset.schema_a, dataset.schema_b, config.bottom_a,
                                  config.bottom_b, config.top, config.seed)
        model.set_params(params)
        scores = sigmoid(model.predict_logits(dataset.test.a, dataset.test.b))
    mine = checks.auc(scores, dataset.test.y)
    if abs(mine - report.test_auc) > 1e-9:
        return [f"{config.method}: reported test AUC {report.test_auc!r}, "
                f"recomputed {mine!r}"]
    return []


def segment_sizes(dataset) -> dict:
    return {"labeled": dataset.labeled.n_rows, "unlabeled": dataset.unlabeled.n_rows,
            "test": dataset.test.n_rows}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    methods: tuple = ()
    one_cpu = False  # pin the benchmark process to a single CPU
    # in-process, the baseline-local run that fills the improvement column
    # is hidden unless baseline-local is one of the methods; over TCP each
    # run() keeps its own stage cache and trains its own
    hidden_baselines = 1

    def __init__(self, seed: int, workdir: Path, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.config = self.make_config()

    def make_config(self):
        raise NotImplementedError

    def round_config(self, index: int):
        return replace(self.config, seed=round_seed(self.seed, index))

    def input_problems(self, dataset) -> list:
        return []

    def extra_params(self, config) -> dict:
        """Parameters the final checkpoint lacks (the passive bottom over TCP)."""
        return {}

    def reap(self) -> None:
        """Stop and wait for every process the workload started."""

    @contextmanager
    def untraced(self):
        """Keep the benchmark's own work (inputs, checks) out of the trace."""
        if self.tracer is None:
            yield
            return
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True

    def round(self, index: int) -> Round:
        with self.untraced():
            config = self.round_config(index)
        setups, dataset = self.set_up(config, index)
        t1 = time.perf_counter()
        reports = self.run_methods(config, dataset)
        wall_s = time.perf_counter() - t1
        with self.untraced():
            problems = self.after_methods() + self.input_problems(dataset)
            traffic, found = check_reports(self.name, reports, config, segment_sizes(dataset),
                                           hidden_baselines=self.hidden_baselines)
            problems += found
            sums = {}
            for report in reports:
                if report.failed_stage is not None:
                    problems.append(f"{report.method} failed in {report.failed_stage}: "
                                    f"{report.error}")
                    continue
                method_config = replace(config, method=report.method)
                params = {**final_params(method_config), **self.extra_params(method_config)}
                sums[report.method] = checks.params_checksum(params)
                problems += recompute_auc(method_config, dataset, report, params)
        return Round(
            setup_s=setups, wall_s=wall_s, train_rows=traffic.train_rows,
            wire_bytes=sum(r.bytes_sent + r.bytes_received for r in reports),
            wire_frames=sum(sum(r.messages_sent.values()) + sum(r.messages_received.values())
                            for r in reports),
            auc_fed=_auc_of(reports, FED_METHOD),
            auc_local=_auc_of(reports, LOCAL_METHOD[self.name]),
            auc_baseline=_auc_of(reports, FED_METHOD, "baseline_auc"),
            attempted=len(reports), failed=sum(r.failed_stage is not None for r in reports),
            problems=problems, checksums=sums, passive_traces=self.passive_traces(index),
        )

    def after_methods(self) -> list:
        return []

    def passive_traces(self, index: int) -> list:
        return []


def _auc_of(reports, method, field="test_auc") -> float:
    value = getattr(next(r for r in reports if r.method == method), field)
    return value if value is not None else float("nan")


class InProcWorkload(Workload):
    """Methods sharing one RunContext per round, both parties in-process."""

    # Both parties share one interpreter lock and hand control to each other
    # thousands of times per round. On a second CPU each hand-off is a
    # cross-CPU wake-up, whose cost on a shared virtual machine follows the
    # host's load: unpinned rounds took 9-17 s in the host's slow phases where
    # pinned ones took 8-9 s. So the process runs on one CPU.
    one_cpu = True
    setup_repeats = 1

    def set_up(self, config, index):
        setups = []
        for _ in range(self.setup_repeats):
            t0 = time.perf_counter()
            dataset = harness.load_dataset(config)
            setups.append(time.perf_counter() - t0)
        return setups, dataset

    def run_methods(self, config, dataset):
        ctx = harness.RunContext()
        return [harness.run(replace(config, method=m), context=ctx, dataset=dataset)
                for m in self.methods]


class MatrixWorkload(InProcWorkload):
    name = "matrix-inproc"
    methods = MATRIX_METHODS
    hidden_baselines = 0
    # synthetic set-up takes tens of milliseconds; sample it more often
    setup_repeats = 5

    def make_config(self):
        return replace(
            base_config(self.seed, DESK_ROWS, epochs=DESK_EPOCHS,
                        pretrain_epochs=DESK_PRETRAIN_EPOCHS, batch_train=128),
            out_dir=str(self.workdir / "artifacts"),
        )


class HashedCsvWorkload(InProcWorkload):
    name = "hashed-vocab-csv"
    methods = HASHED_METHODS

    def make_config(self):
        config = base_config(self.seed, HASHED_ROWS, epochs=HASHED_EPOCHS,
                             pretrain_epochs=HASHED_PRETRAIN_EPOCHS,
                             batch_train=HASHED_BATCH, batch_pretrain=HASHED_BATCH)
        return replace(config, data_kind="csv", out_dir=str(self.workdir / "artifacts"))

    def round_config(self, index):
        """Write the round's CSV and schema files (not timed: they are the
        workload's input, not the program's work)."""
        import inputs

        config = super().round_config(index)
        data_dir = self.workdir / "csv"
        shutil.rmtree(data_dir, ignore_errors=True)
        self.written = inputs.write_hashed_csv(config.seed, data_dir, HASHED_ROWS, DESK_SPEC,
                                               desk_buckets=HASHED_DESK_BUCKETS,
                                               id_buckets=HASHED_BUCKETS,
                                               zipf_exponent=ID_ZIPF_EXPONENT)
        return replace(config, csv_paths=self.written.paths)

    def input_problems(self, dataset) -> list:
        """Bucket indices after ingest against our FNV over the raw values."""
        problems = []
        segments = {"labeled": dataset.labeled, "unlabeled": dataset.unlabeled,
                    "test": dataset.test}
        for (segment, party), columns in self.written.raw.items():
            block = getattr(segments[segment], party.lower())
            schema = dataset.schema_a if party == "A" else dataset.schema_b
            for j, spec in enumerate(schema.cat_fields):
                expected = checks.bucket_of(spec.name, columns[spec.name], spec.buckets)
                if not np.array_equal(expected, block.cat[:, j]):
                    bad = int(np.flatnonzero(expected != block.cat[:, j])[0])
                    problems.append(f"{segment}/{party}/{spec.name}: row {bad} bucket "
                                    f"{block.cat[bad, j]}, FNV-1a-64 gives {expected[bad]}")
        return problems


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def listening(port: int) -> bool:
    """True once a socket listens on 127.0.0.1:port (read from /proc/net/tcp,
    so that checking does not consume the passive party's one accept)."""
    wanted = f"0100007F:{port:04X}"
    with open("/proc/net/tcp", encoding="ascii") as fh:
        next(fh)
        for line in fh:
            parts = line.split()
            if parts[1] == wanted and parts[3] == "0A":
                return True
    return False


class TcpWorkload(Workload):
    """vfl-mpd then local-sd, each against its own `fedsplit serve-b` process.

    Both passive processes start with the round, on ports chosen free at run
    time; the second waits in accept while the first method runs.
    """

    name = "tcp-two-process"
    methods = TCP_METHODS
    hidden_baselines = len(TCP_METHODS)

    def __init__(self, seed: int, workdir: Path, tracer=None, *, src: Path, bench: Path):
        self.src = src
        self.bench = bench
        self.children: dict[str, subprocess.Popen] = {}
        super().__init__(seed, workdir, tracer)

    def make_config(self):
        return replace(
            base_config(self.seed, DESK_ROWS, epochs=DESK_EPOCHS,
                        pretrain_epochs=DESK_PRETRAIN_EPOCHS, batch_train=128),
            transport="tcp", out_dir=str(self.workdir / "active"),
        )

    def _start_passive(self, config, index: int) -> subprocess.Popen:
        cfg_path = self.workdir / f"{config.method}.cfg"
        config.to_file(cfg_path)
        args = ["serve-b", "--config", str(cfg_path), "--host", "127.0.0.1",
                "--port", str(config.tcp_port),
                "--out", str(self.workdir / f"passive-{config.method}")]
        if self.tracer is not None:
            trace_path = self.workdir / f"trace-{config.method}-{index}.json"
            cmd = [sys.executable, str(self.bench / "passive.py"), str(trace_path), *args]
        else:
            cmd = [sys.executable, "-m", "fedsplit", *args]
        env = dict(os.environ, PYTHONPATH=str(self.src))
        with open(self.workdir / f"passive-{config.method}.log", "w", encoding="utf-8") as log:
            return subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=subprocess.STDOUT)

    def reap(self) -> None:
        """Stop every passive process still running and wait for it."""
        for proc in self.children.values():
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.children.clear()

    def set_up(self, config, index):
        self.configs = {m: replace(config, method=m, tcp_port=free_port())
                        for m in self.methods}
        t0 = time.perf_counter()
        for method, method_config in self.configs.items():
            self.children[method] = self._start_passive(method_config, index)
        dataset = harness.load_dataset(config)
        deadline = time.perf_counter() + PASSIVE_START_TIMEOUT
        waiting = set(self.methods)
        while waiting:
            for method in list(waiting):
                if listening(self.configs[method].tcp_port):
                    waiting.discard(method)
                elif self.children[method].poll() is not None:
                    raise RuntimeError(f"passive {method} exited with "
                                       f"{self.children[method].returncode} before listening")
            if time.perf_counter() > deadline:
                raise RuntimeError("passive processes did not start listening in time")
            if waiting:
                time.sleep(0.002)
        return [time.perf_counter() - t0], dataset

    def run_methods(self, config, dataset):
        reports = []
        for method in self.methods:
            reports.append(harness.run(self.configs[method], dataset=dataset))
            self.children[method].wait(timeout=PASSIVE_EXIT_TIMEOUT)
        return reports

    def after_methods(self) -> list:
        problems = [f"passive {method} exited with {proc.returncode}"
                    for method, proc in self.children.items() if proc.returncode != 0]
        self.children.clear()
        return problems

    def extra_params(self, config) -> dict:
        if config.method != FED_METHOD:
            return {}
        passive_dir = self.workdir / f"passive-{config.method}" / "runs" / config.config_hash()
        return load_checkpoint(passive_dir / "party_b_vfl-mpd-ft.ckpt")[0]

    def passive_traces(self, index: int) -> list:
        if self.tracer is None:
            return []
        return [self.workdir / f"trace-{m}-{index}.json" for m in self.methods]
