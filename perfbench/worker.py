"""One workload process: set up, run the closed loop, check, report.

    PYTHONPATH=src python perfbench/worker.py --workload NAME --seed N --seconds S \\
        --mode full|setup|trace

`full` sets up and then runs whole rounds of operations, one at a time,
until about S seconds have passed and the latency tail has at least ten
samples beyond it; `setup` stops after the set-up (imports, inputs, one
warm-up operation); `trace` runs one round untraced, the same round
traced, and further traced rounds, and reports per-layer figures.  The
last line on stdout is one JSON object.  Times in `metrics` are nominal
seconds (see reference.py); `raw` holds them unscaled.
"""

import time

import reference

SETUP_LOOP_TIMES = [reference.measure() for _ in range(5)]
START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IMPORT_PROBES = 3

# per-layer metric -> (layer or counter, field, unit); the fields are
# calls, total and self of a layer's spans, or count of a counter
LAYER_METRICS = {
    "feasibility.rows_s": ("feasibility.rows", "total", "s/round"),
    "feasibility.rows_calls": ("feasibility.rows", "calls", "count/round"),
    "feasibility.kellerer_self_s": ("feasibility.kellerer", "self", "s/round"),
    "lp_core.problem_s": ("lp_core.problem", "total", "s/round"),
    "lp_core.problem_calls": ("lp_core.problem", "calls", "count/round"),
    "lp_core.solve_s": ("lp_core.solve", "total", "s/round"),
    "lp_core.solve_calls": ("lp_core.solve", "calls", "count/round"),
    "lp_core.solve_self_s": ("lp_core.solve", "self", "s/round"),
    "lp_core.nonzeros_solved": ("lp_core.nonzeros_solved", "count", "count/round"),
    "lp_core.infeasible_solves": ("lp_core.infeasible_solves", "count", "count/round"),
    "highs.linprog_s": (tracing.LINPROG, "total", "s/round"),
    "highs.linprog_calls": (tracing.LINPROG, "calls", "count/round"),
    "highs.linprog_on_infeasible": ("highs.linprog_on_infeasible", "count", "count/round"),
    "transport.self_s": ("transport", "self", "s/round"),
    "transport.calls": ("transport", "calls", "count/round"),
    "case_studies.self_s": ("case_studies", "self", "s/round"),
    "case_studies.calls": ("case_studies", "calls", "count/round"),
    "cli.load_problem_s": ("cli.load_problem", "total", "s/round"),
    "cli.self_s": ("cli.main", "self", "s/round"),
    "python.gc_s": ("python.gc", "total", "s/round"),
    "python.gc_collections": ("python.gc", "calls", "count/round"),
}
FIELDS = {"calls": 0, "total": 1, "self": 2}


class Run:
    """Counts, latencies and loop times of one workload process."""

    def __init__(self, name):
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.latencies = []
        self.loop_times = []  # the reference loop's time before each latency

    def log(self, message):
        print(f"[{self.name}] {message}", file=sys.stderr, flush=True)

    def reset(self):
        self.attempted = self.failed = 0
        self.latencies, self.loop_times = [], []

    def op(self, op):
        """Time one operation, then check its output outside the timed span."""
        self.attempted += 1
        loop_time = reference.measure()
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.log(f"{op.label} failed: {type(exc).__name__}: {exc}")
            return
        self.latencies.append(time.perf_counter() - start)
        self.loop_times.append(loop_time)
        self.check(op.label, op.check, out)

    def check(self, label, check, *args):
        try:
            check(*args)
        except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
            self.correct = False
            self.log(f"{label}: wrong output: {type(exc).__name__}: {exc}")


def latency_metrics(latencies, percentile):
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": statistics.quantiles(latencies, n=100)[percentile - 1],
    }


def import_probe():
    """Median (mmk, scipy.optimize) import seconds of fresh processes."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mmk.cli; import scipy.optimize"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
        samples.append(tracing.import_seconds(proc.stderr))
    return [statistics.median(s[i] for s in samples) for i in (0, 1)]


def layer_metrics(tracer, workload, run, round_starts, scaled):
    """Per-layer figures per traced round, set-up build time and tracing overhead."""
    rounds = len(round_starts) - 1
    stats = tracer.stats.get("loop", {})
    counts = tracer.counts.get("loop", {})
    out = {}
    for metric, (layer, field, unit) in LAYER_METRICS.items():
        source = "lp_core.solve" if field == "count" else layer  # the counters are solve's
        if source in tracer.missing:
            run.log(f"dropped {metric}: {', '.join(sorted(tracer.missing[source]))} not found")
            continue
        if field == "count":
            value = counts.get(layer, 0)
        else:
            value = stats.get(layer, (0, 0.0, 0.0))[FIELDS[field]]
        out[metric] = (value / rounds, unit)
    setup_build = tracer.stats.get("setup", {}).get("measures.build", (0, 0.0))[1]
    out["measures.build_s"] = (setup_build, "s")
    if isinstance(workload, workloads.CliOneshot):
        samples = workload.import_samples
        mmk_s = statistics.fmean(s[0] for s in samples)
        scipy_s = statistics.fmean(s[1] for s in samples)
    else:
        mmk_s, scipy_s = import_probe()
    out["cli.import_mmk_s"] = (mmk_s, "s")
    out["cli.import_scipy_optimize_s"] = (scipy_s, "s")
    # Rounds 0 (untraced) and 1 (traced) run the same operations.
    ends = round_starts[1:] + [len(scaled)]
    untraced = sum(scaled[round_starts[0]:ends[0]])
    traced = sum(scaled[round_starts[1]:ends[1]])
    out["trace.overhead_s"] = (traced - untraced, "s/round")
    return out


def write_trace(tracer, workload, seed):
    path = os.path.join(ROOT, ".perfbench", f"trace-{workload.name}-seed{seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({
            "span_fields": ["layer", "start", "end", "parent", "op", "phase"],
            "spans": tracer.spans,
            "cli_process_spans": getattr(workload, "child_spans", []),
            "stats": tracer.stats,
            "counts": tracer.counts,
        }, fh)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["full", "setup", "trace"], required=True)
    args = parser.parse_args()

    tracer = tracing.Tracer() if args.mode == "trace" else None
    workload = workloads.WORKLOADS[args.workload](args.seed, tracer, ROOT)
    run = Run(args.workload)
    try:
        workload.import_program()
        if tracer is not None:
            tracer.install()
        workload.build()
        run.op(workload.warm_up)
        setup_raw = time.perf_counter() - START
        setup_loop_times = SETUP_LOOP_TIMES + [reference.measure() for _ in range(5)]
        setup_s = reference.scale(setup_raw, setup_loop_times)
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw,
                              "correct": run.correct}))
            return 0

        if tracer is not None:
            tracer.uninstall()
        run.reset()
        percentile = workload.tail_percentile
        min_samples = 10 / (1 - percentile / 100)
        min_rounds = 2 if tracer is not None else 1
        round_starts = []  # index of each round's first latency
        loop_start = time.perf_counter()
        while True:
            if tracer is not None and len(round_starts) == 1:
                tracer.phase = "loop"
                tracer.install()
            else:
                ops = workload.next_round()
            round_starts.append(len(run.latencies))
            start = time.perf_counter()
            for op in ops:
                if tracer is not None:
                    tracer.op = run.attempted
                run.op(op)
            now = time.perf_counter()
            if (len(round_starts) >= min_rounds and len(run.latencies) >= min_samples
                    and now - loop_start + (now - start) / 2 >= args.seconds):
                break
        if tracer is not None:
            tracer.uninstall()
        run.check("end of run", workload.finish)
    finally:
        workload.close()

    who = (resource.RUSAGE_CHILDREN if isinstance(workload, workloads.CliOneshot)
           else resource.RUSAGE_SELF)
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    scaled = reference.scale_each(run.latencies, run.loop_times)
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": dict(setup_s=setup_s, peak_rss_mb=peak_rss_mb,
                        **latency_metrics(scaled, percentile)),
        "raw": dict(setup_s=setup_raw, **latency_metrics(run.latencies, percentile)),
        "tail_percentile": percentile,
        "samples": len(run.latencies),
        "rounds": len(round_starts),
        "loop_s": time.perf_counter() - loop_start,
        "reference_s": statistics.median(run.loop_times),
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, workload, run, round_starts, scaled)
        write_trace(tracer, workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
