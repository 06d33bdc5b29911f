"""Calibration driver: run the 7-method matrix on candidate desk-scale
configurations and print the acceptance orderings. Not a test."""

import json
import sys
import time

import numpy as np

from fedsplit.data import SyntheticSpec
from fedsplit.harness import ExperimentConfig
from oracles import best_epoch, epochs_to_auc, run_matrix


def build_config(**kw):
    synth = SyntheticSpec(
        n_labeled=kw.get("n_labeled", 10_000),
        n_unlabeled=kw.get("n_unlabeled", 50_000),
        n_test=kw.get("n_test", 10_000),
        d_a=kw.get("d", 16), d_b=kw.get("d", 16),
        rule="xor", positive_rate=0.5,
        lift=kw.get("lift", 0.9),
        leak=kw.get("leak", 0.35),
        shared_dim=kw.get("shared", 2),
        private_dim=kw.get("private", 2),
        noise=kw.get("noise", 1.0),
        buckets=kw.get("buckets", 0),
        embed_dim=kw.get("embed_dim", 8),
    )
    return ExperimentConfig(
        synth=synth,
        bottom_a=kw.get("bottom", (64, 64)),
        bottom_b=kw.get("bottom", (64, 64)),
        top=kw.get("top", (64, 64)),
        lr=kw.get("lr", 1e-2),
        finetune_lr=kw.get("ft_lr", 1e-3),
        alpha=kw.get("alpha", 0.5),
        k=kw.get("k", 1),
        l2=kw.get("l2", 1e-4),
        batch_pretrain=kw.get("bp", 2048),
        batch_train=kw.get("bt", 1024),
        epochs=kw.get("epochs", 40),
        pretrain_epochs=kw.get("pre_epochs", 15),
        patience=kw.get("patience", 3),
        eval_batch=16_384,
    )


def analyze(results, seeds):
    aucs = {m: {s: results[m][s].test_auc for s in seeds} for m in results}
    print("\n=== test AUC by method/seed ===")
    for m in results:
        row = "  ".join(f"s{s}={aucs[m][s]:.4f}" for s in seeds)
        med = float(np.median(list(aucs[m].values())))
        print(f"{m:16s} {row}  median={med:.4f}")

    print("\n=== criterion 6 chain per seed (vfl-mpd >= vfl-st >= vfl > base+0.05) ===")
    ok6 = 0
    for s in seeds:
        c1 = aucs["vfl-mpd"][s] >= aucs["vfl-st"][s]
        c2 = aucs["vfl-st"][s] >= aucs["vfl"][s]
        c3 = aucs["vfl"][s] > aucs["baseline-local"][s] + 0.05
        ok = c1 and c2 and c3
        ok6 += ok
        print(f"seed {s}: mpd>=st {c1} ({aucs['vfl-mpd'][s]:.4f} vs {aucs['vfl-st'][s]:.4f}), "
              f"st>=vfl {c2} ({aucs['vfl-st'][s]:.4f} vs {aucs['vfl'][s]:.4f}), "
              f"vfl>base+.05 {c3} ({aucs['vfl'][s]:.4f} vs {aucs['baseline-local'][s]:.4f}) -> {ok}")
    print(f"criterion 6: {ok6}/3")

    print("\n=== criterion 7 per seed (local-ssd >= max(local-sd, local-mpd); ssd > base) ===")
    ok7 = 0
    gains = []
    for s in seeds:
        best_component = max(aucs["local-sd"][s], aucs["local-mpd"][s])
        c1 = aucs["local-ssd"][s] >= best_component
        c2 = aucs["local-ssd"][s] > aucs["baseline-local"][s]
        gains.append(aucs["local-ssd"][s] - aucs["baseline-local"][s])
        ok7 += c1 and c2
        print(f"seed {s}: ssd={aucs['local-ssd'][s]:.4f} sd={aucs['local-sd'][s]:.4f} "
              f"mpd={aucs['local-mpd'][s]:.4f} base={aucs['baseline-local'][s]:.4f} "
              f"-> ssd>=components {c1}, ssd>base {c2}")
    print(f"criterion 7: {ok7}/3, median gain {np.median(gains):.4f} (need >= 0.005)")

    print("\n=== criterion 8 per seed (mpd finetune reaches vfl final val auc faster) ===")
    ok8 = 0
    for s in seeds:
        vfl_hist = results["vfl"][s].histories["fed-train"]
        mpd_hist = results["vfl-mpd"][s].histories["fed-finetune"]
        target = vfl_hist.best_val_auc
        vfl_epochs = best_epoch(vfl_hist)
        mpd_epochs = epochs_to_auc(mpd_hist, target)
        ok = mpd_epochs is not None and mpd_epochs < vfl_epochs
        ok8 += ok
        print(f"seed {s}: vfl target {target:.4f} at epoch {vfl_epochs}; "
              f"mpd reaches it at {mpd_epochs} -> {ok}")
    print(f"criterion 8: {ok8}/3")
    return ok6, ok7, ok8


if __name__ == "__main__":
    kw = json.loads(sys.argv[1]) if len(sys.argv) > 1 else {}
    seeds = tuple(kw.pop("seeds", (0, 1, 2)))
    config = build_config(**kw)
    t0 = time.time()
    results = run_matrix(config, seeds=seeds)
    for m in results:
        for s in seeds:
            if results[m][s].failed_stage:
                print(f"FAILED {m} seed {s}: {results[m][s].error}")
                raise SystemExit(1)
    analyze(results, seeds)
    print(f"\ntotal wall time: {time.time() - t0:.1f}s")
