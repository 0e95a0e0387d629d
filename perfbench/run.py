"""svbench benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload dvector-train --seed 1 --seconds 25 --trace 0

Prints each metric by name with its unit, then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they are the
per-layer ones, from a run traced through perfbench/tracing.py. The program is
imported from src/ of the checkout that holds this file; all files it writes
go under perfbench/.work/.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
BLAS_THREADS = "1"     # at 2, OpenBLAS spin-waits doubled CPU time and widened the spread
SETUP_REPEATS = 3

# BLAS reads its thread count once, when NumPy is first imported.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402


def machine_facts():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": int(BLAS_THREADS)}


def source_digest():
    """Digest of svbench and of the benchmark itself, which fixes the workload sizes."""
    h = hashlib.sha256()
    for src in (os.path.join(ROOT, "src", "svbench"), HERE):
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name), "rb") as f:
                    h.update(name.encode() + f.read())
    return h.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace):
    """Set up SETUP_REPEATS times, then repeat the measured unit for up to `seconds`.

    Returns (bench, summary dict). A traced run traces set-up, warm-up and a
    fixed number of units (so its counts repeat for a seed), then times
    untraced units for the rest of the run to measure the tracing overhead.
    """
    from tracing import Tracer
    from workloads import Bench, artifact_hash, wipe

    tracer = Tracer() if trace else None
    bench = Bench(seed, tracer)
    base = os.path.join(WORK, workload.name)
    wipe(base)
    if tracer:
        tracer.install()

    setup_times, setup_hashes = [], []
    for i in range(SETUP_REPEATS):
        d = os.path.join(base, f"setup{i}")
        if tracer:
            tracer.unit += 1
        start = time.perf_counter()
        workload.setup(bench, d)
        setup_times.append(time.perf_counter() - start)
        setup_hashes.append(artifact_hash(d))
        if i:
            wipe(os.path.join(base, f"setup{i - 1}"))
    if len(set(setup_hashes)) != 1:
        bench.fail("set-up", "artifacts differ between set-ups of one seed")
    try:
        workload.after_setup(d)
    except OSError as e:  # set-up failed; every unit will fail and be counted
        bench.fail("set-up", f"artifacts unreadable: {e}")
    if workload.warmup:
        if tracer:
            tracer.unit += 1
        run_unit(workload, bench, d)

    samples = {"traced": [], "untraced": []}
    durations = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(durations) < workload.traced_units
        if traced:
            tracer.unit += 1
        elif bench.tracer is not None:
            tracer.uninstall()
            bench.tracer = None
        first_call = len(bench.calls)
        t0 = time.perf_counter()
        result = run_unit(workload, bench, d)
        durations.append(time.perf_counter() - t0)
        if result is not None:
            items, value = result
            # time the program only: the unit's CLI calls, not the benchmark's output checks
            program_s = sum(s for _, s in bench.calls[first_call:])
            samples["traced" if traced else "untraced"].append((program_s, items, value))
        # stop before a unit that would end past `seconds`; a traced run also
        # needs one untraced unit to measure its overhead against
        next_end = time.perf_counter() - start + statistics.median(durations)
        if next_end > seconds and (tracer is None or len(durations) > workload.traced_units):
            break

    summary = {"setup_s": setup_times, "setup_hash": setup_hashes[0],
               "unit_output_hash": workload.unit_hash, "samples": samples}
    if bench.failed == 0:
        record_hashes(workload.name, seed, summary, bench)
    wipe(base)
    return bench, tracer, summary


def run_unit(workload, bench, d):
    try:
        return workload.unit(bench, d)
    except Exception as e:  # a broken output must fail the unit, not end the run
        bench.fail(workload.name, f"unit raised {type(e).__name__}: {e}")
        return None


def record_hashes(name, seed, summary, bench):
    """Artifacts of one seed must hash the same in every clean run of this source tree."""
    path = os.path.join(WORK, "hashes", f"{source_digest()}-{name}-{seed}.json")
    mine = {"setup": summary["setup_hash"], "units": summary["unit_output_hash"]}
    if os.path.exists(path):
        with open(path) as f:
            if json.load(f) != mine:
                bench.fail("determinism", f"artifacts differ from an earlier run ({path})")
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(mine, f)


def end_to_end_metrics(summary):
    untraced = summary["samples"]["untraced"]
    throughput = (statistics.median(items / t for t, items, _ in untraced)
                  if untraced else float("nan"))
    return {
        "setup_s": (statistics.median(summary["setup_s"]), "s"),
        "throughput_per_s": (throughput, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def result_value(workload, summary):
    """The workload's deterministic result (a loss or mean EER) from its last unit."""
    rows = summary["samples"]["untraced"] or summary["samples"]["traced"]
    return rows[-1][2] if rows else float("nan")


def collect_metrics(workload, tracer, summary):
    """({name: (value, unit)}, derived ratios); per-layer metrics when traced."""
    if tracer is None:
        return end_to_end_metrics(summary), {}
    from tracing import LAYER_METRICS
    from workloads import RESULT_METRICS
    traced = [t for t, _, _ in summary["samples"]["traced"]]
    untraced = [t for t, _, _ in summary["samples"]["untraced"]]
    overhead = (statistics.median(traced) / statistics.median(untraced) - 1.0
                if traced and untraced else float("nan"))
    values, ratios = tracer.layer_metrics(overhead)
    metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS}
    for name, unit in RESULT_METRICS:
        metrics[name] = (result_value(workload, summary) if name == workload.result else 0.0, unit)
    return metrics, ratios


def main(argv=None):
    from workloads import FULL, WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    facts = machine_facts()
    workload = WORKLOADS[args.workload](FULL)
    bench, tracer, summary = run_workload(workload, args.seed, args.seconds, args.trace)
    metrics, ratios = collect_metrics(workload, tracer, summary)
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    if tracer is not None:
        tracer.write(os.path.join(results, f"{args.workload}.spans.tsv"))

    print(f"machine: {json.dumps(facts)}")
    print(f"workload {args.workload}, seed {args.seed}: set-up runs "
          + ", ".join(f"{t:.3f}s" for t in summary["setup_s"]))
    for kind, rows in summary["samples"].items():
        if rows:
            print(f"  {kind} units (n={len(rows)}): " + ", ".join(
                f"{items} {workload.item} in {t:.3f}s" for t, items, _ in rows))
    print(f"  {workload.result} = {result_value(workload, summary)!r} (deterministic for the seed)")
    for name, (value, num, den, what) in ratios.items():
        print(f"  {name} = {value:.6g} ({num:.6g} / {den:.6g}: {what})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for problem in bench.failures:
        print(f"FAILED {problem}")

    correct = bench.failed == 0 and all(v == v for v, _ in metrics.values())
    # a metric without a successful unit is NaN, which JSON cannot carry: report 0, not correct
    result = {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": {k: {"value": v if v == v else 0.0, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump({"machine": facts, "summary": summary, "cli_calls": bench.calls,
                   "ratios": ratios, "failures": bench.failures, **result}, f, indent=1)
    print(json.dumps(result))
    return 0


def check_tree():
    """The benchmark measures the svbench source beside it; without it there is nothing to run."""
    needed = [os.path.join(ROOT, "src", "svbench", "cli.py"), os.path.join(ROOT, "tests", "oracles.py")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        sys.stderr.write(f"perfbench: missing {', '.join(missing)}; run from an svbench checkout\n")
        sys.exit(2)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]


if __name__ == "__main__":
    check_tree()
    sys.exit(main())
