"""Benchmark of mmk: certified solves, many-LP families, Farkas
certificates and one-shot CLI runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 the workload runs in
one worker process for about S seconds, and two more worker processes
repeat only its set-up; the result holds the end-to-end metrics.  With
--trace 1 one traced worker process gives the per-layer metrics.  The
last line on stdout is one JSON object: correct, attempted, failed and
metrics; .perfbench/ keeps each result with the workers' reports.  See
perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
SETUP_REPEATS = 3  # set-ups per untraced run; setup_s is their median
TIME_LIMIT = 170  # seconds for the whole command

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}


def worker(args, mode, deadline):
    """Run one worker process to its end; its last stdout line as a dict."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    env = dict(os.environ)
    env.pop("MMK_ARITHMETIC", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{mode} worker for {args.workload} ran out of time")
    if proc.returncode != 0:
        raise SystemExit(f"{mode} worker for {args.workload} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "mmk", "__init__.py")):
        raise SystemExit("no mmk sources under src/: run from the root of a checkout")
    deadline = time.monotonic() + TIME_LIMIT

    if args.trace:
        runs = [worker(args, "trace", deadline)]
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in runs[0]["layers"].items()}
    else:
        runs = [worker(args, "full", deadline)]
        runs += [worker(args, "setup", deadline) for _ in range(SETUP_REPEATS - 1)]
        values = dict(runs[0]["metrics"])
        values["setup_s"] = statistics.median(
            [values["setup_s"]] + [run["setup_s"] for run in runs[1:]])
        runs[0]["raw"]["setup_s"] = statistics.median(
            [runs[0]["raw"]["setup_s"]] + [run["setup_raw_s"] for run in runs[1:]])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    main_run = runs[0]
    raw = " ".join(f"{k}={v:.4g}" for k, v in main_run["raw"].items())
    print(f"{args.workload}: {main_run['samples']} samples in {main_run['rounds']} rounds, "
          f"{main_run['loop_s']:.1f} s, tail p{main_run['tail_percentile']}, reference loop "
          f"{main_run['reference_s'] * 1e3:.3f} ms; unscaled: {raw}", file=sys.stderr)
    result = {
        "correct": all(run["correct"] for run in runs),
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(dict(result, runs=runs), fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
