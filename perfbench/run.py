"""Seeded benchmark of ``interodds analyze`` and the Monte Carlo measure sweep.

One workload per process::

    python3 perfbench/run.py --workload analyze_delta_csv --seed 3 \\
        --seconds 30 --trace 0

prints the end-to-end metrics (``--trace 0``) or the per-layer metrics of
a traced run (``--trace 1``), one JSON object as the last line of stdout,
and exits non-zero when any operation's output differs from the stored
reference.  Without ``--workload`` it runs every workload, each in its own
process, untraced and then traced, and prints every metric by name;
``--baseline`` also writes ``perfbench/baseline.json``.

``--make-reference`` rewrites the stored references from the program as
it stands.  Run it only when the reference outputs are meant to change.
"""

import os

# BLAS pinned to one thread before numpy is imported, here and in children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import fmean, median, quantiles  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
SPAN_FILE_OPS = 8

END_TO_END = {
    "wall_s": "s",
    "intervals_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "trace.op_s": "s",
    "trace.overhead_s": "s",
    "dataio.load_csv.pct": "%",
    "dataio.load_csv.mb_per_s": "MB/s",
    "logit.fit.pct": "%",
    "logit.fit.calls": "count",
    "logit.fit.iterations": "count",
    "logit.design_mb": "MB",
    "inference.refit.pct": "%",
    "inference.refit.calls": "count",
    "inference.refit.iterations": "count",
    "inference.bootstrap_ci.pct": "%",
    "inference.bootstrap.self_pct": "%",
    "inference.bootstrap.failed": "count",
    "inference.bootstrap.kept_ratio": "ratio",
    "inference.delta_ci.pct": "%",
    "inference.delta_ci.calls": "count",
    "measures.measure.pct": "%",
    "measures.measure.calls": "count",
    "simulate.simulate.pct": "%",
    "cli.run_analysis.self_pct": "%",
    "cli.render.pct": "%",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--work-dir", default=str(BENCH_DIR / ".work"),
                        help="generated inputs and span files")
    parser.add_argument("--reference-dir", default=str(BENCH_DIR / "reference"))
    parser.add_argument("--make-reference", action="store_true")
    parser.add_argument("--baseline", action="store_true",
                        help="with all workloads: write perfbench/baseline.json")
    parser.add_argument("--generate", metavar="INPUT_SET", type=int,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment(seed, input_set, input_paths):
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "commit": commit,
        "seed": seed,
        "input_set": input_set,
        "input_bytes": {p.name: p.stat().st_size for p in input_paths},
    }


def ensure_inputs(workload, input_set, args):
    """Generate missing inputs in a separate process; return their paths."""
    work_dir = Path(args.work_dir)
    paths = [work_dir / f for f in workload.input_files(input_set, args.size)]
    if not all(p.exists() for p in paths):
        work_dir.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [sys.executable, __file__, "--workload", workload.name,
             "--generate", str(input_set), "--size", args.size,
             "--work-dir", str(work_dir)],
            check=True, stdout=subprocess.DEVNULL,
        )
    return paths


def measure_setup():
    """Median wall time of a fresh interpreter importing ``interodds.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import interodds.cli"],
                       env=env, cwd=ROOT, check=True)
        times.append(perf_counter() - start)
    return median(times)


class Checker:
    """Compares every operation's output with the stored reference."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def __call__(self, k, output):
        self.attempted += 1
        if not self.workload.matches(self.reference[k], output):
            self.failed += 1
            if self.failed == 1:
                print(f"op {self.attempted}: output differs from the "
                      f"reference (pool entry {k})", file=sys.stderr)


def run_ops(ops, seconds, check, tracer=None):
    """Run whole cycles of the op pool for at least ``seconds``; op times."""
    times = []
    start = perf_counter()
    while not times or len(times) % len(ops) or perf_counter() - start < seconds:
        k = len(times) % len(ops)
        t0 = perf_counter()
        out = ops[k]() if tracer is None else tracer.run_op(len(times), ops[k])
        times.append(perf_counter() - t0)
        check(k, out)
    return times


def tail(times):
    """Highest of p50/p90/p95/p99 with at least 10 samples beyond it."""
    levels = [q for q in (50, 90, 95, 99) if len(times) * (100 - q) / 100 >= 10]
    if not levels:
        return None
    return levels[-1], quantiles(times, n=100)[levels[-1] - 1]


def end_to_end(workload, times, setup_s):
    return {
        "wall_s": fmean(times),
        "intervals_per_s": workload.intervals_per_op / fmean(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer(tracer, untraced, traced):
    calls, total, own = tracer.summary()
    counts = tracer.counts
    n_ops = calls["op"]
    op_s = total["op"]

    def pct(seconds):
        return 100.0 * seconds / op_s

    load_s = total["dataio.load_csv"]
    attempted = counts["inference.bootstrap_ci.attempted"]
    return {
        "trace.op_s": fmean(traced),
        "trace.overhead_s": fmean(traced) - fmean(untraced),
        "dataio.load_csv.pct": pct(load_s),
        "dataio.load_csv.mb_per_s": (
            counts["dataio.load_csv.bytes"] / 1e6 / load_s if load_s else 0.0),
        "logit.fit.pct": pct(total["logit.fit"]),
        "logit.fit.calls": calls["logit.fit"] / n_ops,
        "logit.fit.iterations": counts["logit.fit.iterations"] / n_ops,
        "logit.design_mb": (counts["logit.fit.design_bytes"] / 1e6
                            / max(calls["logit.fit"], 1)),
        "inference.refit.pct": pct(total["inference.refit"]),
        "inference.refit.calls": calls["inference.refit"] / n_ops,
        "inference.refit.iterations": counts["inference.refit.iterations"] / n_ops,
        "inference.bootstrap_ci.pct": pct(total["inference.bootstrap_ci"]),
        "inference.bootstrap.self_pct": pct(own["inference.bootstrap_ci"]),
        "inference.bootstrap.failed": (
            counts["inference.bootstrap_ci.failed"] / n_ops),
        "inference.bootstrap.kept_ratio": (
            1.0 - counts["inference.bootstrap_ci.failed"] / attempted
            if attempted else 1.0),
        "inference.delta_ci.pct": pct(total["inference.delta_ci"]),
        "inference.delta_ci.calls": calls["inference.delta_ci"] / n_ops,
        "measures.measure.pct": pct(total["measures.measure"]),
        "measures.measure.calls": calls["measures.measure"] / n_ops,
        "simulate.simulate.pct": pct(total["simulate.simulate"]),
        "cli.run_analysis.self_pct": pct(own["cli.run_analysis"]),
        "cli.render.pct": pct(total["cli.render"]),
    }


def run_workload(workload, args):
    from tracing import Tracer
    from workloads import INPUT_SETS

    input_set = args.seed % INPUT_SETS
    paths = ensure_inputs(workload, input_set, args)
    reference = workload.load_reference(
        Path(args.reference_dir) / workload.reference_file())[input_set]
    env = environment(args.seed, input_set, paths)
    print("environment: " + json.dumps(env))
    setup_s = None if args.trace else measure_setup()

    ops = workload.operations(input_set, args.size, args.work_dir)
    check = Checker(workload, reference)
    for k, op in enumerate(ops):  # untimed warm-up fills caches
        check(k, op())

    if not args.trace:
        times = run_ops(ops, args.seconds, check)
        values = end_to_end(workload, times, setup_s)
        units = END_TO_END
        print(f"wall_s: mean of {len(times)} ops; median {median(times):.6g} s, "
              f"fastest {min(times):.6g} s")
        shown = tail(times)
        if shown:
            print(f"wall_s_tail: p{shown[0]} = {shown[1]:.6g} s "
                  f"({len(times)} ops)")
    else:
        untraced = run_ops(ops, args.seconds / 2, check)
        tracer = Tracer()
        with tracer.installed():
            traced = run_ops(ops, args.seconds / 2, check, tracer)
        values = per_layer(tracer, untraced, traced)
        units = PER_LAYER
        # the sweep makes about 4k spans per op: keep the file small by
        # writing the spans of the first ops only (a prefix of the list)
        written = [s for s in tracer.spans if s[4] < SPAN_FILE_OPS]
        calls, total, own = tracer.summary()
        out = Path(args.work_dir) / f"spans-{workload.name}-{args.seed}.json"
        out.write_text(json.dumps({
            "environment": env, "counts": tracer.counts,
            "summary": {name: {"calls": calls[name], "s": total[name],
                               "self_s": own[name]} for name in calls},
            "spans": written,
        }))
        print(f"spans: {len(tracer.spans)} recorded, those of the first "
              f"{SPAN_FILE_OPS} ops written to {out}")

    print(f"fail_rate: {check.failed / check.attempted:.6g} "
          f"({check.failed} of {check.attempted} ops)")
    for name, value in values.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if check.failed == 0 else 1


def make_reference(workloads, args):
    from workloads import INPUT_SETS

    ref_dir = Path(args.reference_dir)
    ref_dir.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        outputs = []
        for input_set in range(INPUT_SETS):
            ensure_inputs(workload, input_set, args)
            ops = workload.operations(input_set, args.size, args.work_dir)
            outputs.append([op() for op in ops])
        workload.save_reference(outputs, ref_dir / workload.reference_file())
        print(f"{workload.name}: reference for {INPUT_SETS} input sets")
    return 0


def run_all(workloads, args):
    """Every workload in its own process, untraced then traced."""
    results = {}
    status = 0
    for workload in workloads:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload.name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size,
                   "--work-dir", args.work_dir,
                   "--reference-dir", args.reference_dir]
            done = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode or not lines:
                print(f"{workload.name} --trace {trace}: exit {done.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            env = json.loads(lines[0].removeprefix("environment: "))
            entry = results.setdefault(workload.name, {"environment": env})
            entry["trace" if trace else "end_to_end"] = result
            print(f"== {workload.name} (trace {trace}, seed {args.seed})")
            print("\n".join(lines[1:-1]))
    if args.baseline and not status:
        path = BENCH_DIR / "baseline.json"
        path.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "workloads": results},
            indent=1) + "\n")
        print(f"wrote {path}")
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "interodds" / "__init__.py").is_file():
        print(f"error: no interodds sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import interodds

    if Path(interodds.__file__).resolve().parent != SRC / "interodds":
        print("error: imported interodds from outside this checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    chosen = ([WORKLOADS[args.workload]] if args.workload
              else list(WORKLOADS.values()))
    if args.generate is not None:
        chosen[0].generate(args.generate, args.size, args.work_dir)
        return 0
    if args.make_reference:
        return make_reference(chosen, args)
    if args.workload is None:
        return run_all(chosen, args)
    return run_workload(chosen[0], args)


if __name__ == "__main__":
    sys.exit(main())
