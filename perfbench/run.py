"""Benchmark of the fuchsian toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source checkout; the package is imported from
./src.  Workloads (see README.md): solve-dense, certify-grid, cli-small.

With --trace 0 the run makes the workload's passes, and starts them over,
until every pass is done and --seconds have elapsed, and reports the
end-to-end metrics.  With --trace 1 it runs the first pass's job list once
untraced and once traced and reports the per-layer metrics; the trace is
written to .bench_out/.  Every job is checked against reference.json.
The last line of standard output is the JSON result; the line before it
carries run metadata.  `--workload all` runs every workload in its own
process, prints each end-to-end metric with its unit and exits 1 when any
job failed its check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = (("wall_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("rational.crat_mul_calls", "count"),
    ("rational.crat_add_calls", "count"),
    ("rational.max_coeff_bits", "bits"),
    ("series.substitute_z_s", "s"),
    ("series.substitute_z_calls", "count"),
    ("series.tx_mul_s", "s"),
    ("series.tx_mul_calls", "count"),
    ("series.tx_init_calls", "count"),
    ("series.invert_unit_s", "s"),
    ("series.terms_out", "count"),
    ("series.shift_z_s", "s"),
    ("series.substitute_z_linear_s", "s"),
    ("solver.solve_formal_s", "s"),
    ("solver.residual_s", "s"),
    ("solver.derivative_tuple_s", "s"),
    ("equation.char_exponents_s", "s"),
    ("builtin.load_equation_s", "s"),
    ("builtin.remark2_residual_grid_s", "s"),
    ("majorant.sector_eval_calls", "count"),
    ("majorant.sector_eval_s", "s"),
    ("majorant.profile_eval_calls", "count"),
    ("majorant.rhopoly_eval_calls", "count"),
    ("certificate.build_shifted_rhs_s", "s"),
    ("certificate.normal_form_s", "s"),
    ("certificate.profile_family_s", "s"),
    ("certificate.choose_params_s", "s"),
    ("certificate.verify_barrier_s", "s"),
    ("certificate.growth_bound_calls", "count"),
    ("certificate.transport_rate_calls", "count"),
    ("certificate.grid_points", "count"),
    ("certificate.phi_evals", "count"),
    ("certificate.coefficient_evals", "count"),
    ("characteristics.integrate_s", "s"),
    ("characteristics.smallness_box_s", "s"),
    ("characteristics.steps_accepted", "count"),
    ("characteristics.steps_rejected", "count"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.numpy_import_s", "s"),
    ("cli.emit_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)

# Time of `spin` at the reference machine speed: about its median on the
# 2-CPU host this benchmark was written on.  Each end-to-end time is scaled
# to this speed by the mean of the spin times just before and just after
# it, so that the host's speed, which drifts by up to half within and
# between runs, does not read as a change of the code.
REFERENCE_SPIN_S = 0.006

SETUP_PROBES = 8          # fresh processes timing setup, besides this one
PASS_DEADLINE_S = 120.0   # start no pass that would end after this
CHILD_TIMEOUT_S = 170.0


# CPUs this process may run on, read before any pinning narrows the set
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))


def calibration_kernel(n: int = 1_000_000) -> float:
    """Fixed pure-Python loop; its time tracks the speed of the machine,
    not of the code under test."""
    t0 = perf_counter()
    x = 0
    for i in range(n):
        x = (x * 31 + i) & 0xFFFFFFFF
    return perf_counter() - t0


def spin() -> float:
    """Time of a 5 ms loop on the current CPU: the faster of two tries."""
    return min(calibration_kernel(50_000) for _ in range(2))


def pin_quietest_cpu() -> float:
    """Pin this process, and the children it starts from now on, to the
    allowed CPU on which `spin` runs fastest, and return its time there.

    On a shared host a virtual CPU is slowed by about half, for a few
    seconds at a time, by load outside this machine; an unpinned process
    stays on whichever CPU it started on.  Choosing the quieter CPU before
    every job keeps most of that load out of the timings."""
    best, best_s = ALLOWED_CPUS[0], float("inf")
    for cpu in ALLOWED_CPUS:
        os.sched_setaffinity(0, {cpu})
        spin_s = spin()
        if spin_s < best_s:
            best, best_s = cpu, spin_s
    os.sched_setaffinity(0, {best})
    return best_s


def quantile(values, pct: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    s = sorted(values)
    pos = pct / 100.0 * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_level(n: int) -> int:
    """Highest whole percentile with at least ten of n samples above it."""
    return max(0, math.floor(100.0 * (1.0 - 10.0 / n))) if n > 10 else 0


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def _probe_setup(workload: str, seed: int, small: bool) -> float:
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "setup",
           workload, str(seed)] + (["--small"] if small else [])
    out = subprocess.run(cmd, env=_child_env(), cwd=ROOT, check=True,
                         capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S)
    return float(out.stdout.split()[-1])


def _probe_cli() -> dict:
    """Interpreter start and import costs of `python -m fuchsian.cli`,
    medians of fresh processes."""
    bare = []
    for _ in range(5):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True,
                       timeout=CHILD_TIMEOUT_S)
        bare.append(perf_counter() - t0)
    imp, npy = [], []
    pat = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")
    for _ in range(3):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c",
                              "import fuchsian.cli"], env=_child_env(),
                             cwd=ROOT, check=True, capture_output=True,
                             text=True, timeout=CHILD_TIMEOUT_S).stderr
        cum = {m.group(2): int(m.group(1)) * 1e-6
               for m in map(pat.match, err.splitlines()) if m}
        imp.append(cum["fuchsian.cli"])
        npy.append(cum.get("numpy", 0.0))
    return {"cli.interpreter_s": statistics.median(bare),
            "cli.import_s": statistics.median(imp),
            "cli.numpy_import_s": statistics.median(npy)}


def _run_pass(runner, jobs, record, spins):
    """Run the job list once; the pass time is the sum of job latencies,
    which leaves out the CPU choice made before each job.  The mean spin
    time before and after each job is appended to `spins`."""
    total = 0.0
    for i, job in enumerate(jobs):
        before = pin_quietest_cpu()
        ok, dt, info = runner.run(job, i)
        spins.append((before + spin()) / 2)
        record(job, ok, dt, info)
        total += dt
    return total


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool) -> tuple[dict, dict]:
    before = pin_quietest_cpu()
    calib = [calibration_kernel()]
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    workdir = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)

    import workloads
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    wl = workloads.setup(name, seed, small)
    setup = [perf_counter() - t0]
    setup_spins = [(before + spin()) / 2]
    pkg = os.path.dirname(os.path.abspath(sys.modules["fuchsian"].__file__))
    if pkg != os.path.join(SRC, "fuchsian"):
        raise RuntimeError(f"fuchsian imported from {pkg}, not from {SRC}")

    runner = workloads.Runner(ROOT, workdir, reference)
    latencies, maxrss, failures = [], [], []
    counts = {"attempted": 0, "failed": 0}
    by_scale: dict = {}
    by_label: dict = {}

    def record(job, ok, dt, info, untraced=True):
        counts["attempted"] += 1
        if untraced:
            latencies.append(dt)
            by_scale.setdefault(job.scale, []).append(dt)
            by_label.setdefault(job.label, []).append(dt)
        if "maxrss_kb" in info:
            maxrss.append(info["maxrss_kb"])
        if not ok:
            counts["failed"] += 1
            failures.append({"job": job.label, **{k: v for k, v in info.items()
                                                  if k != "trace"}})

    meta = {"workload": name, "seed": seed, "trace": int(trace),
            "jobs_per_pass": len(wl.passes[0])}
    try:
        if trace:
            metrics = _traced(name, wl, runner, record, latencies, meta)
        else:
            for _ in range(SETUP_PROBES):
                before = pin_quietest_cpu()
                setup.append(_probe_setup(name, seed, small))
                setup_spins.append((before + spin()) / 2)
            metrics = _timed(name, wl, runner, record, latencies, maxrss,
                             seconds, meta)
            metrics["setup_s"] = statistics.median(
                t * REFERENCE_SPIN_S / spin_s
                for t, spin_s in zip(setup, setup_spins))
            meta["setup_spin_s"] = setup_spins
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calib.append(calibration_kernel())
    meta.update(setup_samples_s=setup, calibration_s=calib,
                scaling_job_s={k: statistics.median(v)
                               for k, v in sorted(by_scale.items())},
                label_job_s={k: statistics.median(v)
                             for k, v in sorted(by_label.items())},
                failures=failures[:10])
    return {"correct": counts["failed"] == 0, **counts,
            "metrics": metrics}, meta


def _timed(name, wl, runner, record, latencies, maxrss, seconds, meta):
    """End-to-end metrics of repeated passes.  Times are reported at the
    reference machine speed: each job's latency is multiplied by
    REFERENCE_SPIN_S over the mean spin time just before and after it."""
    passes, spins = [], []
    t0 = perf_counter()
    while len(passes) < len(wl.passes) or perf_counter() - t0 < seconds:
        if passes and perf_counter() - t0 + passes[-1] > PASS_DEADLINE_S:
            break
        jobs = wl.passes[len(passes) % len(wl.passes)]
        passes.append(_run_pass(runner, jobs, record, spins))
    level = tail_level(min(len(latencies), sum(map(len, wl.passes))))
    if name == "cli-small":
        rss_kb = max(maxrss)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = [t * REFERENCE_SPIN_S / spin_s
              for t, spin_s in zip(latencies, spins)]
    n = len(wl.passes[0])
    meta.update(pass_s=passes, tail_percentile=level,
                jobs_measured=len(latencies), latencies_s=latencies,
                spin_s=spins)
    return {"wall_s": statistics.fmean(sum(scaled[i:i + n])
                                       for i in range(0, len(scaled), n)),
            "op_p50_s": statistics.median(scaled),
            "op_tail_s": quantile(scaled, level),
            "peak_rss_mb": rss_kb / 1024.0}


def _traced(name, wl, runner, record, latencies, meta):
    from tracer import Tracer, merge_summaries, write_jsonl

    jobs = wl.passes[0]
    untraced = _run_pass(runner, jobs, record, [])
    untraced_p50 = statistics.median(latencies)
    job_s = []

    def keep(job, ok, dt, info):
        record(job, ok, dt, info, untraced=False)
        job_s.append(dt)
        if "trace" in info:
            child.append(info["trace"])

    tracer, child = Tracer(), []
    if name == "cli-small":
        runner.child_trace = True
        traced = _run_pass(runner, jobs, keep, [])
        runner.child_trace = False
        summary = merge_summaries(c["summary"] for c in child)
        spans = [dict(s, job=j) for j, c in enumerate(child)
                 for s in c["spans"]]
    else:
        tracer.install()
        try:
            for i, job in enumerate(jobs):
                tracer.job = i
                pin_quietest_cpu()
                keep(job, *runner.run(job, i))
        finally:
            tracer.uninstall()
        traced = sum(job_s)
        summary = tracer.summary()
        spans = tracer.written_spans()
        meta["scaling_span_s"] = {
            span: _by_scale(jobs, tracer.job_totals(span))
            for span in ("solver.solve_formal", "certificate.verify_barrier")}

    metrics = {}
    for metric, _ in PER_LAYER:
        base = metric.rsplit("_", 1)[0]
        if metric.endswith("_s") and base in summary["spans"]:
            metrics[metric] = summary["spans"][base]["total_ns"] * 1e-9
        elif metric.endswith("_calls") and base in summary["spans"]:
            metrics[metric] = summary["spans"][base]["calls"]
        else:
            metrics[metric] = summary["counters"].get(metric, 0)
    metrics["rational.max_coeff_bits"] = summary["max_coeff_bits"]
    metrics.update(_probe_cli())
    metrics["trace.overhead_s"] = traced - untraced

    def share(part, whole):
        return part / whole if whole else None

    meta.update(
        untraced_pass_s=untraced, traced_pass_s=traced,
        module_self_s={k: v * 1e-9 for k, v in
                       sorted(summary["module_self_ns"].items())},
        span_totals=summary["spans"],
        shares={
            "verify_barrier_of_job_time": share(
                metrics["certificate.verify_barrier_s"], sum(job_s)),
            "substitute_z_of_solve_formal": share(
                metrics["series.substitute_z_s"],
                metrics["solver.solve_formal_s"]),
            "import_and_interpreter_of_op_p50": share(
                metrics["cli.import_s"] + metrics["cli.interpreter_s"],
                untraced_p50),
        })
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    write_jsonl(os.path.join(ROOT, ".bench_out",
                             f"trace-{name}-{meta['seed']}.jsonl"),
                [{"summary": summary}] + spans)
    return metrics


def _by_scale(jobs, per_job: dict) -> dict:
    out: dict = {}
    for i, ns in per_job.items():
        out.setdefault(jobs[i].scale, []).append(ns * 1e-9)
    return {k: statistics.median(v) for k, v in sorted(out.items())}


def run_all(seed: int, seconds: int) -> int:
    import workloads
    bad = False
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S + 60)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: benchmark failed (exit {proc.returncode})\n"
                  f"{proc.stderr}")
            bad = True
            continue
        res = json.loads(lines[-1])
        fail_frac = res["failed"] / res["attempted"]
        print(f"{name}:")
        for metric, rec in res["metrics"].items():
            print(f"  {metric:<12} {rec['value']:.6g} {rec['unit']}")
        print(f"  {'fail_frac':<12} {fail_frac:.6g} "
              f"({res['failed']} of {res['attempted']} jobs)")
        bad = bad or fail_frac > 0 or not res["correct"]
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="smallest job list of the workload (self-test)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fuchsian", "__init__.py")):
        sys.stderr.write(f"perfbench: no fuchsian package under {SRC}; "
                         "run from the root of a source checkout\n")
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)} or all")
    result, meta = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), args.small)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    result["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in result["metrics"].items()}
    print(json.dumps({"meta": meta}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
