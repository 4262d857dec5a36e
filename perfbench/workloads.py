"""The three benchmark workloads: job lists made from a seed, and how each
job is run and checked.

Every workload is a list of passes, each a list of jobs, run in turn by
one closed-loop client.  The seed picks the inputs (coefficient variants,
test-function seeds, orders) and the order of the jobs; the structure of a
pass (how many jobs of each size) is the same for every pass and seed, so
that timings from different seeds measure the same amount of work.
Inputs are drawn from finite pools so that every job has a checked-in
reference output.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

# -- solve-dense -------------------------------------------------------------

# Equation shapes (n, K, x_j, quadratic jet terms).  Each jet key is
# (i, alpha): z[i, alpha] = (t d/dt)^i d^alpha u.  Shapes fix the structure
# that sets the cost of a solve; the seed only picks coefficient values.
# Deep jobs have n = 1 and K in {8, 10, 12}; wide jobs have n = 2 and K in
# {4, 6}.
SOLVE_SHAPES = (
    (1, 8, 0, (((0, (1,)), (0, (0,))), ((0, (1,)), (0, (2,))),
               ((1, (1,)), (0, (1,))))),
    (1, 8, 0, (((0, (1,)), (0, (2,))), ((0, (2,)), (1, (1,))))),
    (1, 8, 0, (((0, (0,)), (0, (2,))), ((1, (0,)), (1, (1,))))),
    (1, 8, 0, (((1, (1,)), (0, (2,))), ((0, (0,)), (1, (1,))),
               ((0, (1,)), (0, (2,))))),
    (1, 10, 0, (((0, (1,)), (0, (0,))), ((0, (1,)), (0, (2,))),
                ((1, (1,)), (0, (1,))))),
    (1, 12, 0, (((0, (1,)), (0, (2,))), ((0, (2,)), (1, (1,))))),
    (2, 4, 0, (((0, (1, 1)), (0, (0, 0))), ((1, (0, 0)), (1, (0, 0))))),
    (2, 4, 1, (((0, (1, 0)), (0, (0, 1))), ((1, (0, 0)), (0, (2, 0))),
               ((1, (0, 0)), (0, (0, 0))))),
    (2, 6, 0, (((0, (1, 1)), (0, (0, 0))), ((1, (0, 0)), (1, (0, 0))))),
    (2, 6, 1, (((0, (1, 0)), (0, (0, 1))), ((1, (0, 0)), (0, (2, 0))),
               ((1, (0, 0)), (0, (0, 0))))),
)
# Shapes of one pass: the four wide ones (the first twice), the four K = 8
# ones, the K = 10 one twice and the K = 12 one.  Over six passes (72 jobs)
# the median then falls in the middle of the twelve jobs of the two
# cheaper K = 8 shapes, and the tail percentile (p86, ten jobs above it)
# among the twelve K = 10 jobs: inside a cluster of similar jobs, not on
# the gap between two, where it moved by a fifth between runs.
PASS_SHAPES = (0, 1, 2, 3, 4, 4, 5, 6, 6, 7, 8, 9)
SOLVE_X_ORDER = 2        # x-degree of the returned solution
SOLVE_VARIANTS = 8       # coefficient variants per shape (reference pool)

CERTIFY_SEEDS = 32       # pool of test-function seeds for certify-grid
BUILTINS = ("remark2", "remark3", "remark3_forced")
CLI_SOLVE_ORDERS = (4, 5, 6)


def _small_rational(rng) -> Fraction:
    return Fraction(rng.randint(1, 4), rng.randint(1, 4))


def solve_document(shape: int, variant: int) -> dict:
    """Equation JSON document for one (shape, variant) of solve-dense.

    (t d/dt)^2 u = t + b1 z[1,0] + b0 z[0,0] + c x_j z[0,0] + quadratic
    jet terms, with b1, b0 chosen so the indicial roots are
    lambda1 = -a/2 and lambda2 = -b/3, both negative and distinct.  The
    jet-term coefficients are positive: with mixed signs, pairs such as
    z[0,(1,)] z[0,(2,)] and z[0,(2,)] z[1,(1,)] can cancel on u = t f(x)
    and leave a one-step solve that costs a tenth of its shape."""
    n, K, xj, pairs = SOLVE_SHAPES[shape]
    rng = random.Random(f"solve-dense/{shape}/{variant}")
    lam1 = Fraction(-rng.choice((1, 3, 5, 7)), 2)
    lam2 = Fraction(-rng.choice((1, 2, 4, 5)), 3)
    b1, b0 = lam1 + lam2, -lam1 * lam2
    zero = [0] * n
    x_j = [1 if q == xj else 0 for q in range(n)]

    def coeff(f):
        f = Fraction(f)
        return [f.numerator, f.denominator, 0, 1]

    def term(c, t_pow, x_pows, z_pows):
        return {"coeff": coeff(c), "t_pow": t_pow, "x_pows": x_pows,
                "z_pows": [{"i": i, "alpha": list(al), "pow": p}
                           for (i, al), p in z_pows]}

    u00 = ((0, tuple(zero)), 1)
    terms = [term(1, 1, zero, []),
             term(b1, 0, zero, [((1, tuple(zero)), 1)]),
             term(b0, 0, zero, [u00]),
             term(rng.choice((-1, 1)) * _small_rational(rng), 0, x_j, [u00])]
    for a, b in pairs:
        z_pows = [(a, 2)] if a == b else [(a, 1), (b, 1)]
        terms.append(term(_small_rational(rng), 0, zero, z_pows))
    return {"name": f"dense-{shape}-{variant}", "m": 2, "n": n,
            "terms": terms,
            "truncation": {"K_t": K, "K_x": SOLVE_X_ORDER + 2 * K,
                           "K_z": 2}}


def series_digest(u) -> str:
    """sha256 of the exact series: sorted (t power, x powers, re, im)."""
    rows = [[k, list(alpha), [c.re.numerator, c.re.denominator],
             [c.im.numerator, c.im.denominator]]
            for (k, alpha), c in u.sorted_terms()]
    data = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


# -- jobs --------------------------------------------------------------------

@dataclass
class Job:
    label: str            # reference key
    kind: str             # "solve", "certify" or "cli"
    args: tuple           # solve: (document,), others: CLI argv
    scale: str            # timing key: "n1_K12", "50x50" or the command


@dataclass
class Workload:
    name: str
    # The job list of each pass a run makes at least; a run that makes
    # more passes starts again from the first list.  The passes deal
    # different inputs from the pools, so one run covers most of each pool
    # and the seed moves its figures little.  The count gives a tail
    # percentile near p80 with ten jobs above it, in 20 to 35 s on a 2-CPU
    # machine.
    passes: list


def make_workload(name: str, seed: int, small: bool = False) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    passes = []
    if name == "solve-dense":
        shapes = [0, 6] if small else PASS_SHAPES
        decks = {s: itertools.cycle(rng.sample(range(SOLVE_VARIANTS),
                                               SOLVE_VARIANTS))
                 for s in sorted(set(shapes))}
        for _ in range(6):
            jobs = []
            for s in shapes:
                v = next(decks[s])
                n, K = SOLVE_SHAPES[s][:2]
                jobs.append(Job(f"{s}/{v}", "solve",
                                (solve_document(s, v),), scale=f"n{n}_K{K}"))
            rng.shuffle(jobs)
            passes.append(jobs)
        return Workload(name, passes)
    if name == "certify-grid":
        deck = itertools.cycle(rng.sample(range(CERTIFY_SEEDS),
                                          CERTIFY_SEEDS))
        for _ in range(5):
            argvs = [["remark3"], ["remark3_forced"]]
            argvs += [["remark3", "--seed", str(next(deck))]
                      for _ in range(0 if small else 6)]
            if small:
                argvs = argvs[:1]
            jobs = [Job(" ".join(a), "certify", ("certify", *a),
                        scale="50x50") for a in argvs]
            rng.shuffle(jobs)
            passes.append(jobs)
        return Workload(name, passes)
    if name == "cli-small":
        for _ in range(4):
            argvs = []
            for _ in range(1 if small else 2):
                argvs += [["check", b] for b in BUILTINS]
                argvs += [["solve", b, "--order",
                           str(rng.choice(CLI_SOLVE_ORDERS))]
                          for b in BUILTINS]
                argvs += [["verify-example", b] for b in BUILTINS]
                argvs.append(["certify", "remark2"])
            if small:
                argvs = [argvs[0], argvs[3], argvs[6], argvs[9]]
            jobs = [Job(" ".join(a), "cli", tuple(a), scale=a[0])
                    for a in argvs]
            rng.shuffle(jobs)
            passes.append(jobs)
        return Workload(name, passes)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("solve-dense", "certify-grid", "cli-small")


def setup(name: str, seed: int, small: bool = False) -> Workload:
    """The set-up that `setup_s` times: import the CLI module (and with it
    the whole package and numpy), then build the job list."""
    import fuchsian.cli  # noqa: F401
    return make_workload(name, seed, small)


# -- running and checking ----------------------------------------------------

class Runner:
    """Runs jobs of one workload and checks them against the reference.

    `run` returns (ok, seconds, info); info carries the child's resource
    usage for CLI jobs and the observed outputs when a check fails."""

    def __init__(self, root: str, workdir: str, reference: dict):
        self.root = root
        self.workdir = workdir
        self.reference = reference
        self.env = dict(os.environ,
                        PYTHONPATH=os.path.join(root, "src"))
        self.child_trace = False

    def run(self, job: Job, index: int):
        if job.kind == "solve":
            return self._solve(job)
        if job.kind == "certify":
            return self._certify(job, index)
        return self._cli(job, index)

    def _solve(self, job):
        from time import perf_counter

        from fuchsian import builtin, solver
        t0 = perf_counter()
        eq = builtin.parse_equation(job.args[0])
        sol = solver.solve_formal(eq, eq.F.k_t, verify=True)
        digest = series_digest(sol.u)
        dt = perf_counter() - t0
        want = self.reference["solve-dense"][job.label]
        ok = sol.verified and digest == want
        return ok, dt, {} if ok else {"verified": sol.verified,
                                      "digest": digest}

    def _certify(self, job, index):
        from time import perf_counter

        from fuchsian import cli
        out = os.path.join(self.workdir, f"certify-{index}.json")
        t0 = perf_counter()
        code = cli.main([*job.args, "--out", out])
        dt = perf_counter() - t0
        with open(out, "rb") as fh:
            data = fh.read()
        os.unlink(out)
        return self._compare("certify-grid", job, code, data, dt)

    def _cli(self, job, index):
        from time import perf_counter
        out = os.path.join(self.workdir, f"cli-{index}.json")
        if self.child_trace:
            trace_out = os.path.join(self.workdir, f"trace-{index}.json")
            cmd = [sys.executable, os.path.join(self.root, "perfbench",
                                                "child.py"),
                   "trace", trace_out, *job.args, "--out", out]
        else:
            cmd = [sys.executable, "-m", "fuchsian.cli", *job.args,
                   "--out", out]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, env=self.env, cwd=self.workdir,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        dt = perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        try:
            with open(out, "rb") as fh:
                data = fh.read()
            os.unlink(out)
        except FileNotFoundError:
            data = b""
        ok, dt, info = self._compare("cli-small", job, code, data, dt)
        info["maxrss_kb"] = usage.ru_maxrss
        if self.child_trace:
            with open(trace_out) as fh:
                info["trace"] = json.load(fh)
            os.unlink(trace_out)
        return ok, dt, info

    def _compare(self, workload, job, code, data, dt):
        want = self.reference[workload][job.label]
        got = observe_report(code, data)
        ok = got == want
        return ok, dt, {} if ok else {"observed": got}


def observe_report(code: int, data: bytes) -> dict:
    """What the reference records for a CLI job: exit code, report sha256
    and, for certify, the violation count of every barrier check."""
    obs = {"exit": code, "sha256": hashlib.sha256(data).hexdigest()}
    try:
        report = json.loads(data)
    except ValueError:
        return obs
    checks = report.get("results", {}).get("barrier", {}).get("checks")
    if checks is not None:
        obs["violations"] = {name: c.get("violations", 0)
                             for name, c in sorted(checks.items())}
    return obs
