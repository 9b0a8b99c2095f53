"""ccmm benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload degrees|realize|build|all \
        --seed N --seconds S --trace 0|1

Each workload runs in a fresh worker process (worker.py), one at a time,
with BLAS and OpenMP pinned to one thread. The worker repeats passes until
the next one would overrun --seconds; each operation of a pass counts with
its fastest repetition in the run. Set-up time is the time from starting a
worker until ccmm is imported and the seeded inputs exist, sampled in
several fresh processes. With --trace 1 the worker alternates untraced and
traced passes and the per-layer metrics come from the traced ones; end-to-end
metrics always come from untraced passes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics, holding the metrics that BENCHMARK.json
lists. pass_s, ladder_s and batch_per_s in it are at reference host speed:
raw figures divided (rates: multiplied) by host_factor, the fastest time of
a fixed reference kernel timed between the operations of the run, over its
time on a quiet host. On a shared host whose speed drifts by up to 2x for
minutes at a time this keeps runs comparable. setup_s and peak_rss_mb are
raw. Lines before the result give the environment stamp and every workload
metric, raw, by name with its unit. The exit code is 0 when every check passed,
1 when a check failed and 2 when the benchmark could not run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")
THREADS = "1"
SETUP_SAMPLES = 7  # fresh processes timed to READY, the worker included
TIMEOUT_S = 170

COMMON = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("failed_ratio", "ratio")]
# The end-to-end metrics of BENCHMARK.json exist on every workload, so two
# of them stand for the workload's own ladder and batch metric.
SLOTS = {
    "degrees": {"ladder_s": "profile_s", "batch_per_s": "small_profiles_per_s"},
    "realize": {"ladder_s": "realize_s", "batch_per_s": "matmul_per_s"},
    "build": {"ladder_s": "build_s", "batch_per_s": "reject_per_s"},
}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    env["PERFBENCH_SCRATCH"] = SCRATCH
    return env


def start_worker(args, extra):
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
    ] + (["--fault"] if args.fault else []) + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
    except BaseException:
        stop(proc)
        raise
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise BenchError("worker for %s did not start (exit %s)" % (args.workload, proc.returncode))
    return proc, ready


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def run_workload(args):
    """Returns (info line, report rows, metric values, worker result)."""
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, ready = start_worker(args, ["--setup-only"])
        try:
            proc.communicate(timeout=TIMEOUT_S)
        finally:
            stop(proc)
        setups.append(ready)
    os.makedirs(SCRATCH, exist_ok=True)
    spans = os.path.join(SCRATCH, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    proc, ready = start_worker(args, ["--spans", spans] if args.trace else [])
    setups.append(ready)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    finally:
        stop(proc)
    if proc.returncode != 0 or not out.strip():
        raise BenchError("worker for %s failed with exit %s" % (args.workload, proc.returncode))
    res = json.loads(out.strip().splitlines()[-1])
    for note in res["notes"]:
        print("FAILED CHECK: %s" % note, file=sys.stderr)
    values = dict(res["metrics"])
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = res["peak_rss_mb"]
    values["failed_ratio"] = res["failed"] / res["attempted"]
    rows = [(name, values[name], unit) for name, unit in COMMON + res["units"] + [("host_factor", "1")]]
    factor = values["host_factor"]
    values["pass_s"] = values["wall_s"] / factor
    ladder, batch = SLOTS[args.workload]["ladder_s"], SLOTS[args.workload]["batch_per_s"]
    values["ladder_s"] = values[ladder] / factor
    values["batch_per_s"] = values[batch] * factor
    values.update(res.get("layer", {}))
    info = "workload %s seed %d: %d untraced pass(es)" % (args.workload, args.seed, res["passes"])
    if args.trace:
        info += " and as many traced, spans in %s" % os.path.relpath(spans, ROOT)
    return info, rows, values, res


def result_metrics(values, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(SLOTS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    p.add_argument("--fault", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    names = sorted(SLOTS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            args.workload = name
            info, rows, values, res = run_workload(args)
            attempted += res["attempted"]
            failed += res["failed"]
            print("env: %s" % json.dumps(res["env"], sort_keys=True))
            print(info)
            for metric, value, unit in rows:
                print("  %-22s %14.6g %s" % (metric, value, unit))
            own = result_metrics(values, args.trace)
            if len(names) == 1:
                metrics = own
            else:
                metrics.update({"%s.%s" % (name, k): v for k, v in own.items()})
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print("benchmark could not run: %s" % exc, file=sys.stderr)
        return 2
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
