"""Fast tests of the benchmark's own generators, checkers and tracer.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from fedsplit import harness, numeric, splitnn  # noqa: E402

TINY_ROWS = dict(n_labeled=400, n_unlabeled=600, n_test=300)


def tiny_config(tmp_path, **overrides):
    config = workloads.base_config(3, TINY_ROWS, epochs=2, pretrain_epochs=2,
                                   batch_train=64, batch_pretrain=97)
    config = replace(config, bottom_a=(8,), bottom_b=(8,), top=(8,), eval_batch=128,
                     out_dir=str(tmp_path / "artifacts"))
    return replace(config, **overrides)


# -- FNV-1a 64 ----------------------------------------------------------------

@pytest.mark.parametrize("text, expected", [
    (b"", 0xCBF29CE484222325),
    (b"a", 0xAF63DC4C8601EC8C),
    (b"foobar", 0x85944171F73967E8),
])
def test_fnv1a64_known_vectors(text, expected):
    assert checks.fnv1a64(text) == expected
    assert int(checks.fnv1a64_many([text.decode()])[0]) == expected


def test_vectorised_fnv_matches_the_scalar_one():
    rng = np.random.default_rng(0)
    values = ["", "x", "u12", "é€", *(str(v) for v in rng.zipf(1.3, 200))]
    got = checks.fnv1a64_many(values, b"a_id\x1f")
    assert [int(h) for h in got] == [checks.fnv1a64(b"a_id\x1f" + v.encode()) for v in values]


# -- AUC ----------------------------------------------------------------------

def auc_brute_force(scores, labels) -> float:
    """O(P*N) pair count with half credit for ties."""
    pos = [s for s, t in zip(scores, labels) if t == 1]
    neg = [s for s, t in zip(scores, labels) if t == 0]
    credit = 0.0
    for p in pos:
        for n in neg:
            credit += 1.0 if p > n else 0.5 if p == n else 0.0
    return credit / (len(pos) * len(neg))


def test_auc_matches_brute_force_pair_counting():
    rng = np.random.default_rng(1)
    for trial in range(200):
        n = int(rng.integers(2, 60))
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 0, 1
        # few distinct scores, so ties are common
        scores = rng.integers(0, 6, n) / 5.0 if trial % 2 else rng.normal(size=n)
        assert checks.auc(scores, labels) == auc_brute_force(scores.tolist(), labels.tolist())


# -- traffic model ------------------------------------------------------------

def test_batch_counts():
    assert checks.n_batches(10, 4) == 3
    assert checks.n_batches(9, 4, drop_short=True) == 2  # a 1-row batch is dropped
    assert checks.n_batches(10, 4, drop_short=True) == 3
    assert checks.validation_rows(401) == (381, 20)


def test_frame_formula_matches_a_tiny_matrix_run(tmp_path):
    """Every method over one shared stage cache; the model must predict the
    exact frame counts and matrix bytes, including a 1-row final pretraining
    batch (600 % 97 == 1) that the program drops."""
    config = tiny_config(tmp_path)
    dataset = harness.load_dataset(config)
    ctx = harness.RunContext()
    reports = [harness.run(replace(config, method=m), context=ctx, dataset=dataset)
               for m in harness.METHODS]
    assert all(r.failed_stage is None for r in reports)
    sizes = workloads.segment_sizes(dataset)
    traffic, problems = workloads.check_reports("tiny", reports, config, sizes,
                                                hidden_baselines=0)
    assert [p for p in problems if "AUC" not in p] == []
    assert traffic.activations == sum(r.messages_received.get("ACTIVATION", 0) for r in reports)
    assert traffic.activations > 0 and traffic.evals > 0

    # a wrong batch size in the model must be caught
    wrong = replace(config, batch_train=config.batch_train // 2)
    _, problems = workloads.check_reports("tiny", reports, wrong, sizes, hidden_baselines=0)
    assert any("activations" in p for p in problems)


# -- inputs -------------------------------------------------------------------

def test_hashed_csv_is_a_function_of_the_seed(tmp_path):
    spec = workloads.DESK_SPEC
    a = inputs.write_hashed_csv(5, tmp_path / "a", TINY_ROWS, spec, desk_buckets=256,
                                id_buckets=1 << 16, zipf_exponent=1.3)
    b = inputs.write_hashed_csv(5, tmp_path / "b", TINY_ROWS, spec, desk_buckets=256,
                                id_buckets=1 << 16, zipf_exponent=1.3)
    c = inputs.write_hashed_csv(6, tmp_path / "c", TINY_ROWS, spec, desk_buckets=256,
                                id_buckets=1 << 16, zipf_exponent=1.3)
    for key in a.paths:
        assert Path(a.paths[key]).read_bytes() == Path(b.paths[key]).read_bytes()
    assert Path(a.paths["labeled_a"]).read_bytes() != Path(c.paths["labeled_a"]).read_bytes()
    ids = a.raw[("unlabeled", "A")]["a_id"]
    _, counts = np.unique(ids, return_counts=True)
    # heavy tail: the commonest ID covers many rows, most IDs occur once
    assert counts.max() >= 0.1 * len(ids)
    assert (counts == 1).sum() > 0.5 * len(counts)


def test_ingested_buckets_match_our_fnv(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "HASHED_ROWS", TINY_ROWS)
    workload = workloads.HashedCsvWorkload(4, tmp_path)
    dataset = harness.load_dataset(workload.round_config(0))
    assert workload.input_problems(dataset) == []
    # one flipped bucket is reported
    dataset.test.b.cat[7, 2] += 1
    assert len(workload.input_problems(dataset)) == 1


# -- tracer -------------------------------------------------------------------

def test_tracer_self_times_add_up_and_uninstall_restores(tmp_path):
    before = (numeric.matmul, splitnn.BottomModel.forward, harness.run,
              harness.RunContext.stage, splitnn.adam_step)
    config = tiny_config(tmp_path, method="vfl-mpd")
    tracer = Tracer(finetune_lr=config.finetune_lr).install()
    try:
        report = harness.run(config)
    finally:
        tracer.uninstall()
    assert (numeric.matmul, splitnn.BottomModel.forward, harness.run,
            harness.RunContext.stage, splitnn.adam_step) == before
    assert report.failed_stage is None
    rep = tracer.report()
    assert set(rep["parties"]) == {"active", "passive"}
    for numbers in rep["parties"].values():
        assert numbers["self_sum_s"] == pytest.approx(numbers["wall_s"], rel=1e-6)
    assert set(rep["stages"]) >= {"mpd-pretrain", "fed-finetune", "local-train"}
    assert rep["counts"]["harness.cache_lookups"] >= 3
    # the active end counts each frame of the session once
    sent = sum(report.messages_sent.values()) + sum(report.messages_received.values())
    assert rep["counts"]["transport.frames"] == sent
    assert rep["counts"]["transport.bytes"] == report.bytes_sent + report.bytes_received
