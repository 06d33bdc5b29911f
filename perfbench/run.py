"""Benchmark of fedsplit: one command, three workloads.

    python3 perfbench/run.py --workload matrix-inproc --seed 0 --seconds 60 --trace 0

Run from the root of a checkout; the library is imported from ./src, so no
install step is needed. A run measures whole rounds of its workload (see
workloads.py): it always measures three, and starts another only while it
expects to finish within --seconds. The last line of standard output is one
JSON object: with --trace 0 the end-to-end metrics (medians over rounds),
with --trace 1 the per-layer metrics of a traced run (means over rounds).
Lines before it give each method's parameter checksum.

Everything the run writes goes under ./.perfbench_out/.
"""

from __future__ import annotations

import os

# one BLAS thread per process, set before numpy is first imported; the
# passive processes inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True

WORKLOADS = ("matrix-inproc", "hashed-vocab-csv", "tcp-two-process")
MIN_ROUNDS = 3
STAGES = ("mpd-pretrain", "fed-finetune", "soft-labels", "distill", "local-train")
# each party's span self times must add up to its wall time within this share
SELF_TIME_TOLERANCE = 0.02


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name, seed, workdir, *, src, bench):
    import workloads

    if name == "matrix-inproc":
        return workloads.MatrixWorkload(seed, workdir)
    if name == "hashed-vocab-csv":
        return workloads.HashedCsvWorkload(seed, workdir)
    return workloads.TcpWorkload(seed, workdir, src=src, bench=bench)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passive = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + passive) / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(rounds) -> dict:
    """Medians over the run's rounds. The first round warms the process (on
    hashed-vocab-csv its wall time ran 27-57% over the later rounds), so the
    wall-time medians start at the second round."""
    med = lambda values: float(statistics.median(values))  # noqa: E731
    warm = rounds[1:]
    return {
        "setup_s": (med([t for r in rounds for t in r.setup_s]), "s"),
        "wall_s": (med([r.wall_s for r in warm]), "s"),
        "train_rows_per_s": (med([r.train_rows / r.wall_s for r in warm]), "rows/s"),
        "wire_bytes": (med([r.wire_bytes for r in rounds]), "bytes"),
        "wire_frames": (med([r.wire_frames for r in rounds]), "frames"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "auc_fed": (med([r.auc_fed for r in rounds]), "AUC"),
        "auc_local": (med([r.auc_local for r in rounds]), "AUC"),
    }


def by_span(rep: dict) -> tuple[dict, dict]:
    """Self seconds and call counts per span name, summed over parties."""
    self_s: dict = {}
    calls: dict = {}
    for key, span in rep["spans"].items():
        name = key.split("|", 1)[1]
        self_s[name] = self_s.get(name, 0.0) + span["self_s"]
        calls[name] = calls.get(name, 0) + span["calls"]
    return self_s, calls


def per_layer(rep: dict, n_rounds: int) -> dict:
    """Per-layer metrics from a merged tracer report, per round."""
    self_s, calls = by_span(rep)
    counts = rep["counts"]
    load_s = self_s.get("data.synth", 0.0) + self_s.get("data.ingest", 0.0)
    s = lambda name: (self_s.get(name, 0.0) / n_rounds, "s")  # noqa: E731
    c = lambda value, unit="count": (value / n_rounds, unit)  # noqa: E731
    out = {
        "data.load_s": (load_s / n_rounds, "s"),
        "data.load_rows_per_s": (counts.get("data.load_rows", 0) / load_s, "rows/s"),
        "data.take_s": s("data.take"),
        "data.take_calls": c(calls.get("data.take", 0)),
        "numeric.adam_s": s("numeric.adam"),
        "numeric.adam_calls": c(calls.get("numeric.adam", 0)),
        "numeric.adam_elements": c(counts.get("numeric.adam_elements", 0)),
        "numeric.embed_grad_s": s("numeric.embed_grad"),
        "numeric.embed_grad_bytes": c(counts.get("numeric.embed_grad_bytes", 0), "bytes"),
        "numeric.embed_lookup_s": s("numeric.embed_lookup"),
        "numeric.dense_fwd_s": s("numeric.dense_fwd"),
        "numeric.dense_bwd_s": s("numeric.dense_bwd"),
        "numeric.matmul_s": s("numeric.matmul"),
        "numeric.matmul_calls": c(calls.get("numeric.matmul", 0)),
        "numeric.bce_s": s("numeric.bce"),
        "transport.active.send_s": s("transport.active.send"),
        "transport.passive.send_s": s("transport.passive.send"),
        "transport.active.recv_wait_s": s("transport.active.recv_wait"),
        "transport.passive.recv_wait_s": s("transport.passive.recv_wait"),
        "transport.encode_s": s("transport.encode"),
        "transport.decode_s": s("transport.decode"),
        "transport.frames": c(counts.get("transport.frames", 0), "frames"),
        "transport.bytes": c(counts.get("transport.bytes", 0), "bytes"),
        "transport.transcript_entries": c(rep["transcript_entries"]),
        "splitnn.active.step_s": s("splitnn.active.step"),
        "splitnn.passive.step_s": s("splitnn.passive.step"),
        "splitnn.bottom_fwd_s": s("splitnn.bottom_fwd"),
        "splitnn.bottom_bwd_s": s("splitnn.bottom_bwd"),
        "splitnn.top_fwd_s": s("splitnn.top_fwd"),
        "splitnn.top_bwd_s": s("splitnn.top_bwd"),
        "splitnn.fed_eval_s": s("splitnn.fed_eval"),
        "splitnn.fed_eval_rows": c(counts.get("splitnn.fed_eval_rows", 0), "rows"),
        "splitnn.train_steps": c(counts.get("splitnn.train_steps", 0), "steps"),
        "mpd.pretrain_s": s("mpd.pretrain"),
        "mpd.derangement_s": s("mpd.derangement"),
        "mpd.loss_s": s("mpd.loss"),
        "distill.teacher_predict_s": s("distill.teacher_predict"),
        "distill.distill_s": s("distill.distill"),
        "metrics.auc_s": s("metrics.auc"),
        "metrics.auc_calls": c(calls.get("metrics.auc", 0)),
        "harness.session_open_s": s("harness.session_open"),
        "harness.cache_hits": c(counts.get("harness.cache_hits", 0)),
        "harness.cache_lookups": c(counts.get("harness.cache_lookups", 0)),
        "checkpoint.save_s": s("checkpoint.save"),
    }
    for stage in STAGES:
        out[f"harness.stage.{stage}_s"] = (rep["stages"].get(stage, 0.0) / n_rounds, "s")
    return out


def workload_specific(rep: dict, n_rounds: int) -> dict:
    """Per-layer figures that apply to some workloads only. They go to the
    trace file; the result line carries only metrics every workload has."""
    self_s, _ = by_span(rep)
    out = {}
    if self_s.get("data.synth"):
        out["data.synth_s"] = self_s["data.synth"] / n_rounds
    if self_s.get("data.ingest"):
        out["data.ingest_s"] = self_s["data.ingest"] / n_rounds
        out["data.ingest_rows_per_s"] = rep["counts"]["data.load_rows"] / self_s["data.ingest"]
    for stage, seconds in rep["stages"].items():
        if stage not in STAGES:
            out[f"harness.stage.{stage}_s"] = seconds / n_rounds
    return out


def self_time_problems(rep: dict) -> list:
    problems = []
    for party, numbers in rep["parties"].items():
        wall, total = numbers["wall_s"], numbers["self_sum_s"]
        if wall > 0 and abs(total / wall - 1.0) > SELF_TIME_TOLERANCE:
            problems.append(f"{party}: span self times add up to {total:.4f}s "
                            f"of {wall:.4f}s wall")
    return problems


def measure(args, root: Path, bench: Path, workdir: Path):
    from tracer import Tracer, merge_reports

    workload = make_workload(args.workload, args.seed, workdir, src=root / "src", bench=bench)
    if workload.one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = None
    if args.trace:
        tracer = Tracer(finetune_lr=workload.config.finetune_lr).install()
        workload.tracer = tracer
    rounds = []
    started = time.perf_counter()
    try:
        while True:
            rounds.append(workload.round(len(rounds)))
            last = rounds[-1]
            print(f"round {len(rounds) - 1}: setup {max(last.setup_s):.3f}s "
                  f"wall {last.wall_s:.3f}s auc_fed {last.auc_fed:.4f} "
                  f"auc_local {last.auc_local:.4f}", file=sys.stderr, flush=True)
            elapsed = time.perf_counter() - started
            per_round = elapsed / len(rounds)
            if len(rounds) >= MIN_ROUNDS and elapsed + per_round > args.seconds:
                break
    finally:
        workload.reap()
    trace = None
    if tracer is not None:
        tracer.uninstall()
        passive = [json.loads(Path(p).read_text(encoding="utf-8"))
                   for r in rounds for p in r.passive_traces]
        trace = merge_reports([tracer.report(), *passive])
    return rounds, trace


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    bench = Path(__file__).resolve().parent
    if not (root / "src" / "fedsplit" / "__init__.py").is_file():
        print("error: run from the root of a fedsplit checkout (no src/fedsplit here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(bench))
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    out_root = root / ".perfbench_out"
    workdir = out_root / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rounds, trace = measure(args, root, bench, workdir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems]
    auc_fed = statistics.median(r.auc_fed for r in rounds)
    auc_baseline = statistics.median(r.auc_baseline for r in rounds)
    if not auc_fed > auc_baseline:
        problems.append(f"auc_fed {auc_fed:.4f} does not beat baseline-local {auc_baseline:.4f}")
    for index, r in enumerate(rounds):
        for method, digest in r.checksums.items():
            print(f"checksum {args.workload} seed {args.seed} round {index} {method} {digest}")
    if trace is not None:
        problems += self_time_problems(trace)
        metrics = per_layer(trace, len(rounds))
        trace_out = out_root / f"trace-{args.workload}-s{args.seed}.json"
        timings = {"rounds": len(rounds), "round_wall_s": [r.wall_s for r in rounds],
                   "round_setup_s": [r.setup_s for r in rounds],
                   "per_layer": {k: v for k, (v, _) in metrics.items()},
                   "workload_specific": workload_specific(trace, len(rounds))}
        trace_out.write_text(json.dumps({**timings, **trace}, indent=1), encoding="utf-8")
    else:
        metrics = end_to_end(rounds)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
