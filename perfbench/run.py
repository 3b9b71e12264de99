"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload hecke-cat2 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout: weilrep is imported from ``src/``.
With ``--trace 0`` the run repeats whole passes of the workload for about
``--seconds``, sets the workload up in fresh processes between passes (the
median of those is ``setup_s``) and reports the end-to-end metrics; the pass
time behind ``checks_per_s`` is the 90th percentile of the passes after the
first.  With ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the run record, the item table and (traced) the spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: BLAS threads; one keeps the timings steady on a small shared machine
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
SETUP_PROBES_PER_PASS = 2
PROBE_TIMEOUT_S = 30

#: a fresh interpreter that imports weilrep, builds one workload's inputs and
#: says so; argv: root, workload, seed
SETUP_PROBE = (
    "import sys\n"
    "root, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])\n"
    "sys.path[:0] = [root + '/src', root]\n"
    "from perfbench.workloads import build\n"
    "build(name, seed)\n"
    "print('ready', flush=True)\n"
)

LAYER_METRICS = (
    # (metric, unit, better)
    ("gfq.factor_poly.calls", "count", "lower"),
    ("gfq.factor_poly.self_s", "s", "lower"),
    ("gfq.poly_gcd.self_s", "s", "lower"),
    ("fqlin.det.self_s", "s", "lower"),
    ("fqlin.inv.self_s", "s", "lower"),
    ("symp.rank_from_charpoly.self_s", "s", "lower"),
    ("symp.centralizer_torus.calls", "count", "lower"),
    ("symp.centralizer_torus.self_s", "s", "lower"),
    ("symp.module_structure.self_s", "s", "lower"),
    ("symp.build_maximal_torus.self_s", "s", "lower"),
    ("heiwei.WeilRep.self_s", "s", "lower"),
    ("heiwei.weil_op.calls", "count", "lower"),
    ("heiwei.weil_op.built", "count", "lower"),
    ("heiwei.weil_op.nested", "count", "lower"),
    ("heiwei.weil_op.self_s", "s", "lower"),
    ("heiwei.char_phase_table.prime.self_s", "s", "lower"),
    ("heiwei.char_phase_table.ext.self_s", "s", "lower"),
    ("heiwei.wigner_batch.self_s", "s", "lower"),
    ("heiwei.pi_op.calls", "count", "lower"),
    ("heiwei.pi_op.self_s", "s", "lower"),
    ("heiwei.restrict_to_extension.self_s", "s", "lower"),
    ("spectra.decompose.calls", "count", "lower"),
    ("spectra.decompose.self_s", "s", "lower"),
    ("sums.c_chi_table.prime.self_s", "s", "lower"),
    ("sums.c_chi_table.ext.self_s", "s", "lower"),
    ("sums.orbit_spans_space.calls", "count", "lower"),
    ("sums.orbit_spans_space.self_s", "s", "lower"),
    ("sums.bound_report.self_s", "s", "lower"),
    ("catmap.HeckeContext.self_s", "s", "lower"),
    ("catmap.hecke_que_experiment.self_s", "s", "lower"),
    ("catmap.statistical_state_experiment.self_s", "s", "lower"),
    ("catmap.rank_density_sweep.self_s", "s", "lower"),
    ("catmap.skip_reason.self_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.traced_pass_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


# -- run record ----------------------------------------------------------------


def git_revision(root: str) -> str | None:
    """HEAD of a checkout's .git directory, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: str) -> str:
    """sha256 over src/weilrep/*.py, names and contents: the revision of the
    code under test when the checkout carries no git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "weilrep")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, workload) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # older numpy without the dict form: the name is optional
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_use": "ext-field SL(2, GF(9)) samples only; other workloads are deterministic",
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.inputs(),
        "git_revision": git_revision(ROOT),
        "source_digest": source_digest(SRC),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "memory_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


# -- measuring -----------------------------------------------------------------


def setup_seconds(name: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter to the workload's inputs
    being built."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE, ROOT, name, str(seed)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return t1 - t0


def run_pass(workload, tracer=None) -> tuple[float, list]:
    """One pass over the workload's items; returns its wall time and the
    checked item results."""
    from perfbench import workloads as wl

    clock = time.perf_counter
    t0 = clock()
    root = tracer.begin("bench.pass") if tracer else None
    results = []
    for item in workload.items():
        if tracer:
            tracer.item = item.id
            index = tracer.begin("bench.item")
        try:
            results.append(wl.run_item(item, clock))
        finally:
            if tracer:
                tracer.end(index)
                tracer.item = None
    workload.cross_check({r.id: r for r in results})
    wl.check_work(results, workload.expected)
    if tracer:
        tracer.end(root)
    return clock() - t0, results


def pass_p90(pass_times: list[float]) -> float:
    """The 90th percentile of the pass times after the first, which warms up.

    On a host whose cores are shared, a pass's time moves by up to 1.6 times
    within a run with the neighbours' load, and the fastest pass of a run
    moves with how long the neighbours stayed idle.  The slow passes, those run
    while the neighbours were busy, recur in every run at about the same
    time, so a high percentile is the steadiest measure from run to run."""
    warm = pass_times[1:] or pass_times
    if len(warm) == 1:
        return warm[0]
    return statistics.quantiles(warm, n=10, method="inclusive")[-1]


def keep_going(deadline, pass_times) -> bool:
    """Start another pass only if a typical pass still fits before the deadline."""
    return time.perf_counter() + statistics.median(pass_times) <= deadline


def layer_metrics(spans, n_passes: int, untraced: list[float], traced: list[float]) -> dict:
    from perfbench.tracer import layer_totals

    totals = layer_totals(spans)
    values = {}
    for metric, _, _ in LAYER_METRICS:
        prefix, kind = metric.rsplit(".", 1)
        if prefix == "bench":
            v = sum(totals.get(n, {}).get("self_s", 0.0) for n in ("bench.pass", "bench.item"))
        elif prefix == "trace":
            continue
        else:
            v = totals.get(prefix, {}).get(kind, 0)
        values[metric] = v / n_passes
    u, t = statistics.fmean(untraced), statistics.fmean(traced)
    values["trace.untraced_pass_s"] = u
    values["trace.traced_pass_s"] = t
    values["trace.overhead_frac"] = t / u - 1
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "weilrep", "__init__.py")):
        print(f"error: no weilrep sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [SRC, ROOT]
    import weilrep

    if not os.path.abspath(weilrep.__file__).startswith(SRC + os.sep):
        print(f"error: weilrep imported from {weilrep.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import workloads as wl
    from perfbench.tracer import Tracer, span_records

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = wl.build(args.workload, args.seed)
    record = run_record(args, workload)

    start = time.perf_counter()
    deadline = start + args.seconds
    setup, untraced, traced, all_results = [], [], [], []
    tracer = Tracer() if args.trace else None
    while True:
        if not tracer:
            # set-up probes are spread over the run, a few before each pass,
            # so that their median sees the machine as the passes do
            wanted = min(SETUP_REPEATS, SETUP_PROBES_PER_PASS * (len(untraced) + 1))
            while len(setup) < wanted:
                setup.append(setup_seconds(args.workload, args.seed))
        # traced runs alternate the order (UT, TU, UT, ...) so that neither
        # side always gets the first, coldest pass
        order = (False,)
        if tracer:
            order = (False, True) if len(untraced) % 2 == 0 else (True, False)
        for traced_pass in order:
            if traced_pass:
                tracer.install()
            try:
                seconds, results = run_pass(workload, tracer if traced_pass else None)
            finally:
                if traced_pass:
                    tracer.uninstall()
            (traced if traced_pass else untraced).append(seconds)
            all_results.append(results)
        pass_times = [u + t for u, t in zip(untraced, traced)] if tracer else untraced
        if not keep_going(deadline, pass_times):
            break
    while not tracer and len(setup) < SETUP_REPEATS:
        setup.append(setup_seconds(args.workload, args.seed))

    flat = [r for results in all_results for r in results]
    attempted = sum(r.attempted for r in flat)
    failed = sum(r.failed for r in flat)
    correct = not any(r.status == "wrong" for r in flat)
    checks = sum(r.checks for r in all_results[0] if r.status != "error")
    if tracer:
        metrics = layer_metrics(tracer.spans, len(traced), untraced, traced)
        units = {m: u for m, u, _ in LAYER_METRICS}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "checks_per_s": checks / pass_p90(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "passed_frac": (attempted - failed) / attempted,
        }
        units = {"setup_s": "s", "checks_per_s": "1/s", "peak_rss_mb": "MB", "passed_frac": "ratio"}

    skips = {}
    for r in all_results[0]:
        if r.skipped:
            skips.setdefault(r.skipped, []).append(r.id)
        for p, reason in r.summary.get("skips", {}).items():
            skips.setdefault(reason, []).append(f"p={p}")
    record.update(
        passes=len(all_results),
        untraced_pass_s=untraced,
        p90_pass_s=pass_p90(untraced),
        traced_pass_s=traced,
        setup_s=setup,
        checks_per_pass=checks,
        skips_by_reason=skips,
        items=[vars(r) for r in all_results[0]],
        item_seconds={r.id: [res[i].seconds for res in all_results] for i, r in enumerate(all_results[0])},
        failed_items=sorted({
            (r.id, json.dumps(r.error) if r.error else "; ".join(r.failures))
            for r in flat if r.failed
        }),
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        payload = {"record": record, "result": result}
        if tracer:
            payload["bindings"] = sorted(tracer.bindings)
            payload["spans"] = span_records(tracer.spans, start)
        json.dump(payload, fh, default=str)

    for r in all_results[0]:
        detail = r.skipped or (r.error and f"{r.error['type']}: {r.error['message']}") or "; ".join(r.failures)
        print(f"{r.status:8s} {r.id:28s} {r.seconds:8.3f} s  {r.checks:9d} checks  {detail}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"record written to {os.path.relpath(out_path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
