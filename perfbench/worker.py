"""One workload in one fresh process; started by run.py.

Imports ccmm from the src/ directory of the checkout, generates the seeded
inputs, prints READY, runs passes and prints one JSON line with the raw
per-pass figures. The thread counts of BLAS and OpenMP are fixed by run.py
in the environment before this process starts, so before numpy loads.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def load_ccmm():
    sys.path.insert(0, SRC)
    import ccmm
    import ccmm.cli  # noqa: F401  (imports every other module)

    if not os.path.abspath(ccmm.__file__).startswith(SRC + os.sep):
        raise ImportError("ccmm resolved outside %s: %s" % (SRC, ccmm.__file__))
    return ccmm


def environment():
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (deps.get("name"), deps.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--fault", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None, help="JSON-lines file for the traced pass")
    args = p.parse_args(argv)

    ccmm = load_ccmm()
    wl = workloads.WORKLOADS[args.workload](ccmm, args.seed, args.size, args.fault)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    ck = workloads.Checks()
    # untimed warm-up: the probe touches every layer once, so lazy imports
    # and first-call costs fall outside the timed passes
    wl.probe(workloads.Pass(workloads.NoTrace()), ck)
    untraced, traced = [], []
    t0 = time.perf_counter()
    rounds = 0
    while True:
        # a round is one untraced pass, plus one traced pass in a traced run
        untraced.append(wl.run_pass(workloads.NoTrace(), ck))
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = spans.Tracer()
            tracer.install(ccmm)
            try:
                p = wl.run_pass(tracer, ck)
            finally:
                tracer.uninstall()
            traced.append((tracer.self_times(), p))
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break
    out = {
        "env": environment(),
        "attempted": ck.attempted,
        "failed": ck.failed,
        "notes": ck.notes,
        "passes": len(untraced),
        "metrics": workloads.summarize(untraced, wl.REPORT),
        "units": [(metric, {"s": "s", "rate": "1/s"}[kind]) for metric, _, kind in wl.REPORT],
        "peak_rss_mb": peak_rss,
    }
    if args.trace:
        out["layer"] = layer_metrics(wl, untraced, traced, tracer)
        if args.spans:
            tracer.write_jsonl(args.spans, {"workload": args.workload, "seed": args.seed, "env": out["env"]})
    print(json.dumps(out), flush=True)
    return 0


def layer_metrics(wl, untraced, traced, last):
    """Per-layer metrics of the traced passes: each self time at its
    minimum over the passes, counts from the last pass (they repeat)."""
    layer = {}
    for (self_s, covered), p in traced:
        for name, value in self_s.items():
            key = name + ".self_s"
            layer[key] = min(value, layer.get(key, value))
        wall = sum(rec[1] for rec in p.ops.values())
        layer["trace.coverage"] = max(covered / wall, layer.get("trace.coverage", 0.0))
    layer.update(last.counts)
    layer.update(last.maxima)
    p = traced[-1][1]
    layer["tensors.products"] = p.stats["products"]
    for kind, prefix in (("real", "realization"), ("cfg", "configuration")):
        layer[prefix + ".corruptions"] = p.stats[kind + "_attempted"]
        layer[prefix + ".reject_ratio"] = p.stats[kind + "_rejected"] / max(p.stats[kind + "_attempted"], 1)
    layer["trace.overhead_s"] = (
        workloads.summarize([p for _, p in traced], wl.REPORT)["wall_s"]
        - workloads.summarize(untraced, wl.REPORT)["wall_s"]
    )
    return layer


if __name__ == "__main__":
    sys.exit(main())
