"""Summarize run records from perfbench/out into perfbench/baseline.json and
print the tables of the README's baseline section.

    python3 perfbench/summarize.py --seeds 301-310 --trace-seed 301

It reads ``<workload>-seed<n>-trace0.json`` for every seed and workload, and
``<workload>-seed<trace-seed>-trace1.json`` for the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.run import LAYER_METRICS, OUT  # noqa: E402

WORKLOADS = ("rank-sweep", "hecke-cat2", "hecke-cat4", "ext-field")
MACHINE_KEYS = ("git_revision", "source_digest", "nproc", "cpu_model", "memory_mb",
                "python", "numpy", "blas", "blas_threads")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(workload: str, seed: int, trace: int) -> dict:
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        return json.load(fh)


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--trace-seed", type=int, required=True)
    args = ap.parse_args(argv)
    seeds = seed_range(args.seeds)

    end_to_end, per_layer, failed_items, skips, machine, run_seconds = {}, {}, {}, {}, {}, None
    for w in WORKLOADS:
        runs = [load(w, s, 0) for s in seeds]
        results = [r["result"] for r in runs]
        row = {k: [res[k] for res in results] for k in ("correct", "attempted", "failed")}
        for name, m in results[0]["metrics"].items():
            row[name] = {"unit": m["unit"], **spread([res["metrics"][name]["value"] for res in results])}
        end_to_end[w] = row
        rec = runs[0]["record"]
        failed_items[w] = rec["failed_items"]
        skips[w] = rec["skips_by_reason"]
        machine = {k: rec[k] for k in MACHINE_KEYS}
        run_seconds = rec["seconds"]
        traced = load(w, args.trace_seed, 1)["result"]["metrics"]
        per_layer[w] = {"seed": args.trace_seed, "metrics": {k: v["value"] for k, v in traced.items()}}

    baseline = {"run_seconds": run_seconds, "seeds": seeds, "end_to_end": end_to_end,
                "per_layer": per_layer, "failed_items": failed_items,
                "skips_by_reason": skips, "machine": machine}
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")

    names = list(end_to_end[WORKLOADS[0]])[3:]
    print("| workload | " + " | ".join(f"`{n}` median [q1, q3] (IQR/median)" for n in names) + " |")
    print("|---" * (len(names) + 1) + "|")
    for w in WORKLOADS:
        cells = [f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] ({100 * c['iqr_frac']:.1f}%)"
                 for c in (end_to_end[w][n] for n in names)]
        print(f"| {w} | " + " | ".join(cells) + " |")
    print()
    print("| metric | " + " | ".join(WORKLOADS) + " |")
    print("|---" * (len(WORKLOADS) + 1) + "|")
    for metric, _, _ in LAYER_METRICS:
        print(f"| `{metric}` | " + " | ".join(f"{per_layer[w]['metrics'][metric]:.4g}" for w in WORKLOADS) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
