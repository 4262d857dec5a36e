"""Self-test of the benchmark.  Run from the checkout root:

    python3 perfbench/selftest.py

For each workload at its smallest size: two traced runs must both pass
their output checks, report exactly the per-layer metrics BENCHMARK.json
names, and agree on every deterministic count; one untraced run must
report exactly the end-to-end metrics.  Finally the benchmark must refuse
to run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DETERMINISTIC_SUFFIXES = ("_calls", ".grid_points", ".phi_evals",
                          ".coefficient_evals", ".steps_accepted",
                          ".steps_rejected", ".max_coeff_bits",
                          ".terms_out", ".report_bytes")


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    problems = []
    for w in (wl["name"] for wl in spec["workloads"]):
        first, second = (result(run(ROOT, w, 1)) for _ in range(2))
        for res in (first, second):
            if not res["correct"] or res["failed"]:
                problems.append(f"{w}: traced run failed its checks")
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            if units != per_layer:
                problems.append(f"{w}: per-layer names or units differ "
                                f"from BENCHMARK.json")
        for name in per_layer:
            if name.endswith(DETERMINISTIC_SUFFIXES):
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                if a != b:
                    problems.append(f"{w}: {name} differs: {a} vs {b}")
        plain = result(run(ROOT, w, 0))
        units = {k: v["unit"] for k, v in plain["metrics"].items()}
        if not plain["correct"] or units != end_to_end:
            problems.append(f"{w}: untraced run wrong: {plain}")
        print(f"{w}: checked", flush=True)

    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("benchmark ran without the package sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
