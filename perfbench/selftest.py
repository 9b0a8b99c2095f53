"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

Runs every workload at its tiny size and checks that every metric is
emitted by name with its unit, that a deliberately wrong oracle answer
shows up as failed_ratio > 0 with a nonzero exit, and that the benchmark
refuses to run where the ccmm sources are missing. The file name keeps it
out of the repository's default test collection.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("degrees", "realize", "build")
REPORT_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
    "profile_s": "s",
    "small_profiles_per_s": "1/s",
    "realize_s": "s",
    "matmul_per_s": "1/s",
    "boolmm_per_s": "1/s",
    "reject_per_s": "1/s",
    "build_s": "s",
    "reverify_s": "s",
    "sympow_rank_s": "s",
    "cli_s": "s",
    "host_factor": "1",
}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(*args, root=ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--seed", "3", "--seconds", "1", "--size", "tiny"]
    proc = subprocess.run(cmd + list(args), capture_output=True, text=True, cwd=root, timeout=170)
    return proc.returncode, proc.stdout


def report(stdout):
    """{metric: unit} from the report lines before the JSON line."""
    rows = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            rows[parts[0]] = parts[2]
    return rows


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def test_every_metric_is_emitted_with_its_unit():
    s = spec()
    seen = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for w in WORKLOADS:
            code, out = bench("--workload", w, "--trace", str(trace))
            check(code == 0, "%s trace %d exited %d" % (w, trace, code))
            res = json.loads(out.splitlines()[-1])
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"], "result keys %s" % sorted(res))
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, "%s checks failed" % w)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in s[key]}
            check(got == want, "%s trace %d metrics %s" % (w, trace, sorted(set(got) ^ set(want))))
            if trace == 0:
                check(all(v["value"] > 0 for v in res["metrics"].values()), "%s has a zero metric" % w)
                seen.update(report(out))
    check(seen == REPORT_UNITS, "report rows %s" % sorted(set(seen.items()) ^ set(REPORT_UNITS.items())))


def test_wrong_oracle_answer_fails_the_run():
    for w in WORKLOADS:
        code, out = bench("--workload", w, "--fault")
        check(code == 1, "%s with a wrong oracle answer exited %d" % (w, code))
        res = json.loads(out.splitlines()[-1])
        check(res["failed"] > 0 and not res["correct"], "%s did not count the failure" % w)
        ratio = [line.split()[1] for line in out.splitlines() if line.split()[:1] == ["failed_ratio"]]
        check(ratio and float(ratio[0]) > 0, "%s failed_ratio %s" % (w, ratio))


def test_refuses_to_run_without_sources():
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        code, out = bench("--workload", "degrees", root=bare)
        check(code not in (0, 1), "bare checkout exited %d" % code)
        check(not out.strip(), "bare checkout printed %r" % out[-200:])
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
