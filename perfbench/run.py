"""msflow benchmark: one workload, timed repetitions, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rt0-2d --seed 3 --seconds 30 --trace 0

The process runs one workload (see BENCHMARK.json) and repeats it until
`--seconds` would be exceeded by one more repetition (at least once).
Every repetition's output is checked: solve workloads against a direct
saddle solve, `impes-2d` for saturation bounds, converged pressure
solves and water volume balance.  A repetition that raises or fails a
check counts as failed.

`--trace 0` reports the end-to-end metrics: medians over repetitions of
`setup_s`, `solve_s`, `time_to_solution_s`, and `peak_rss_mb` of this
process after its first repetition.  Every time is scaled to a nominal
host speed measured next to its repetition (see `hostspeed.py`); the
unscaled medians are in the detail line.  `--trace 1` alternates traced
and untraced repetitions and reports per-layer metrics (medians over
traced repetitions), the traced time to solution and the tracing
overhead against the untraced ones; the spans are written to
`perfbench/out/`.

Earlier stdout lines give a readable summary (with `failed_fraction`)
and a JSON record of the environment and sample counts; the last line is
the result object.  Without the package sources (`src/msflow`) the
run exits with status 2 before printing any result.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent

# Single-threaded BLAS: the workloads are dominated by many small
# factorizations and per-block solves, and one thread keeps them steady
# on a shared machine.  Must be set before numpy loads OpenBLAS.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Read only at process start, so the run re-executes itself once with
# them set.  A fixed string hash seed keeps set and dict layouts the same
# from process to process.  A fixed mmap threshold (glibc's initial
# default, 128 KiB) turns off glibc's dynamic threshold, so large arrays
# are always mapped and unmapped the same way.  With the interpreter's
# random hash seed and the dynamic threshold, the peak RSS of one input
# varied by 10% between runs.
START_ENV = {"PYTHONHASHSEED": "0", "MALLOC_MMAP_THRESHOLD_": "131072"}

E2E_UNITS = {"setup_s": "s", "solve_s": "s", "time_to_solution_s": "s",
             "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("rt0-2d", "gmsfem-3d", "impes-2d"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile_summary(samples):
    """Median, and the highest percentile with ten samples beyond it."""
    n = len(samples)
    summary = {"n": n, "median": statistics.median(samples),
               "samples": samples}
    if n >= 20:
        q = int(100 * (1 - 10 / n))
        summary[f"p{q}"] = statistics.quantiles(samples, n=100)[q - 1]
    return summary


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "start_env": START_ENV,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def measure(case, field, seconds, traced_names, trace):
    """Run repetitions for about `seconds`; with `trace`, every other one
    is traced.  Each rep is a dict with its spans, whether it was traced,
    its time to solution `tts`, its host-speed `scale`, and its output
    and caught warnings or the error it raised.  Also returns the peak
    RSS after the first repetition, in MB."""
    import hostspeed
    import workloads

    reps = []
    start = time.perf_counter()
    kernel_before = hostspeed.kernel_time()
    while True:
        traced = bool(trace) and len(reps) % 2 == 0
        tracer = Tracer(None if traced else traced_names)
        gc.collect()
        t0 = time.perf_counter()
        rep = {"traced": traced}
        try:
            with tracer.installed():
                rep["output"], rep["caught"] = workloads.run_rep(
                    case, field, tracer)
        except Exception as exc:  # a failed run is counted, then reported
            rep["error"] = f"{type(exc).__name__}: {exc}"
        spans = tracer.take()
        rep["spans"] = spans
        rep["finished"] = "error" not in rep
        rep["tts"] = spans[0].duration if spans else time.perf_counter() - t0
        # the host speed next to this repetition: kernel times on both sides
        kernel_after = hostspeed.kernel_time()
        rep["kernel_s"] = (kernel_before + kernel_after) / 2
        rep["scale"] = hostspeed.NOMINAL_S / rep["kernel_s"]
        kernel_before = kernel_after
        reps.append(rep)
        if len(reps) == 1:
            # peak of the warm-up plus one cold repetition; later
            # repetitions would add allocator growth that depends on
            # how many of them fit in the run
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["tts"] for r in reps)
        enough = not trace or any(not r["traced"] for r in reps)
        if enough and elapsed + typical > seconds:
            return reps, peak_rss_mb


def main(argv=None):
    args = parse_args(argv)
    for name in THREAD_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)
    if any(os.environ.get(k) != v for k, v in START_ENV.items()):
        os.environ.update(START_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (ROOT / "src" / "msflow" / "__init__.py").is_file():
        print(f"error: no msflow sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import hostspeed
    import workloads

    case = workloads.WORKLOADS[args.workload]
    traced_names = workloads.E2E_SPANS[args.workload]
    warm = workloads.WARMUP[args.workload]
    workloads.run_rep(warm, warm.field(0), Tracer(set()))
    hostspeed.kernel()

    field = case.field(args.seed)
    reps, peak_rss_mb = measure(case, field, args.seconds, traced_names,
                                args.trace)

    # checks run after the timed loop and the RSS reading
    oracle = None
    if isinstance(case, workloads.ImpesCase):
        def check(output):
            return workloads.check_impes(case, output)
    else:
        oracle = workloads.Oracle(case, field)
        check = oracle.check
    for i, rep in enumerate(reps):
        if "error" in rep:
            problems = [rep["error"]]
        else:
            try:
                problems = check(rep["output"])
            except Exception as exc:  # malformed output fails its check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        rep["ok"] = not problems
        for problem in problems:
            print(f"rep {i}: FAILED {problem}", file=sys.stderr)

    timed = [r for r in reps if r["finished"]]
    attempted = len(reps)
    failed = sum(1 for r in reps if not r["ok"])
    detail = {"workload": args.workload, "seed": args.seed,
              "environment": environment(),
              "failed_fraction": failed / attempted}
    if oracle is not None:
        detail["max_velocity_error"] = max(oracle.errors, default=None)

    if args.trace:
        plain = [r for r in timed if not r["traced"]]
        with_trace = [r for r in timed if r["traced"]]
        if not plain or not with_trace:
            print("error: no successful traced and untraced repetitions",
                  file=sys.stderr)
            return 1
        layers = [workloads.layer_metrics(r["spans"], r["caught"])
                  for r in with_trace]
        values = {key: statistics.median(m[key] for m in layers)
                  for key in layers[0]}
        plain_tts = statistics.median(r["tts"] * r["scale"] for r in plain)
        traced_tts = statistics.median(r["tts"] * r["scale"]
                                       for r in with_trace)
        values["trace.time_to_solution_s"] = traced_tts
        values["trace.overhead"] = traced_tts / plain_tts - 1.0
        detail["traced_reps"] = len(with_trace)
        detail["untraced_reps"] = len(plain)
        detail["untraced_time_to_solution_s"] = plain_tts
        detail["counts_by_rep"] = [{k: m[k] for k in workloads.COUNTS}
                                   for m in layers]
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, (unit, _) in workloads.PER_LAYER.items()}
        write_trace(args, with_trace)
    else:
        if not timed:
            print("error: no repetition finished", file=sys.stderr)
            return 1
        samples = {key: [] for key in ("setup_s", "solve_s",
                                       "time_to_solution_s")}
        unscaled = {key: [] for key in samples}
        for rep in timed:
            for key, values in workloads.e2e_samples(case, rep["spans"]).items():
                samples[key].extend(v * rep["scale"] for v in values)
                unscaled[key].extend(values)
        detail["samples"] = {key: percentile_summary(values)
                             for key, values in samples.items()}
        detail["unscaled_median"] = {key: statistics.median(values)
                                     for key, values in unscaled.items()}
        detail["kernel_s"] = percentile_summary([r["kernel_s"] for r in reps])
        detail["recover_pressure_warnings"] = sum(
            workloads.recover_pressure_warnings(r["caught"])
            for r in timed if "caught" in r)
        metrics = {key: {"value": statistics.median(values),
                         "unit": E2E_UNITS[key]}
                   for key, values in samples.items()}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}

        for key, metric in metrics.items():
            extra = detail["samples"].get(key, {})
            note = ", ".join(f"{k}={v:.4g}" if isinstance(v, float)
                             else f"{k}={v}" for k, v in extra.items()
                             if k not in ("median", "samples"))
            print(f"{args.workload} {key}: {metric['value']:.4f} "
                  f"{metric['unit']}" + (f" ({note})" if note else ""))
    print(f"{args.workload} failed_fraction: {failed / attempted:.4f} "
          f"(failed {failed} of {attempted} attempted)")
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def write_trace(args, reps):
    """All spans of the traced repetitions, with parent indices."""
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    records = []
    for rep in reps:
        index = {id(s): k for k, s in enumerate(rep["spans"])}
        records.append([{"name": s.name, "start": s.start, "end": s.end,
                         "parent": index.get(id(s.parent)),
                         "error": s.error, "attrs": s.attrs}
                        for s in rep["spans"]])
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "reps": records}))


if __name__ == "__main__":
    sys.exit(main())
