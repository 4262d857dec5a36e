"""Spans and counters recorded from outside the fuchsian package.

The tracer wraps public functions and methods of the package's modules in
place (module attributes, every `from x import f` copy of them inside the
package, and class attributes) and undoes the wrapping on `uninstall`.
Nothing under the package's own source changes.

Spans are kept in memory as parallel integer columns: name, start and end
in nanoseconds, parent span and job id.  Self time is derived from the
columns after the run: a span's duration minus the durations of its direct
children.  Count-only wrappers (arithmetic operators, constructors, hot
evaluators) take no span; their time stays in the caller's self time.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# (module, attribute path, metric stem).  Each becomes a span named
# "<module>.<stem>", reported as <module>.<stem>_s and <module>.<stem>_calls.
SPANS = (
    ("solver", "solve_formal", "solve_formal"),
    ("solver", "residual", "residual"),
    ("solver", "derivative_tuple", "derivative_tuple"),
    ("series", "SeriesTXZ.substitute_z", "substitute_z"),
    ("series", "SeriesTXZ.shift_z", "shift_z"),
    ("series", "SeriesTXZ.substitute_z_linear", "substitute_z_linear"),
    ("series", "SeriesTX.__mul__", "tx_mul"),
    ("series", "SeriesTX.invert_unit", "invert_unit"),
    ("equation", "FuchsianEquation.char_exponents", "char_exponents"),
    ("builtin", "parse_equation", "parse_equation"),
    ("builtin", "load_equation", "load_equation"),
    ("builtin", "remark2_residual_grid", "remark2_residual_grid"),
    ("majorant", "SectorMajorant.eval", "sector_eval"),
    ("certificate", "build_shifted_rhs", "build_shifted_rhs"),
    ("certificate", "normal_form", "normal_form"),
    ("certificate", "profile_family", "profile_family"),
    ("certificate", "choose_params", "choose_params"),
    ("certificate", "verify_barrier", "verify_barrier"),
    ("characteristics", "integrate", "integrate"),
    ("characteristics", "smallness_box", "smallness_box"),
    ("cli", "_emit", "emit"),
)

# Spans too frequent to write out one by one (about 10^5 per certify job);
# they stay in memory for the self-time derivation and appear in the
# written trace only through the per-name totals.
HOT = frozenset({"majorant.sector_eval", "series.tx_mul"})

# (module, attribute path, counter name): call counts only, no span.
COUNTS = (
    ("rational", "CRat.__mul__", "rational.crat_mul_calls"),
    ("rational", "CRat.__rmul__", "rational.crat_mul_calls"),
    ("rational", "CRat.__add__", "rational.crat_add_calls"),
    ("rational", "CRat.__radd__", "rational.crat_add_calls"),
    ("series", "SeriesTX.__init__", "series.tx_init_calls"),
    ("majorant", "NormProfileZ.eval", "majorant.profile_eval_calls"),
    ("majorant", "RhoPoly.eval", "majorant.rhopoly_eval_calls"),
    ("certificate", "BarrierSystem.growth_bound",
     "certificate.growth_bound_calls"),
    ("certificate", "BarrierSystem.transport_rate",
     "certificate.transport_rate_calls"),
)

_SERIES_RESULTS = frozenset(
    f"series.{stem}" for mod, _, stem in SPANS if mod == "series")


def _coeff_bits(terms) -> int:
    best = 0
    for c in terms.values():
        for f in (c.re, c.im):
            best = max(best, f.numerator.bit_length(),
                       f.denominator.bit_length())
    return best


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans and counters for the fuchsian package while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.col_name = array("q")
        self.col_start = array("q")
        self.col_end = array("q")
        self.col_parent = array("q")
        self.col_job = array("q")
        self.stack: list[int] = []
        self.job = -1
        self.counters: Counter = Counter()
        self.max_coeff_bits = 0
        self._undo: list = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = {mod: importlib.import_module(f"fuchsian.{mod}")
                   for mod in {m for m, _, _ in SPANS + COUNTS}}
        for mod, path, stem in SPANS:
            self._patch(modules[mod], path, self._span_wrapper(
                f"{mod}.{stem}", *_resolve(modules[mod], path)))
        for mod, path, counter in COUNTS:
            self._patch(modules[mod], path, self._count_wrapper(
                counter, *_resolve(modules[mod], path)))

    def _patch(self, module, path, wrapper) -> None:
        owner, attr = _resolve(module, path)
        orig = owner.__dict__[attr]
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))
        if owner is not module:
            return
        # functions copied into other modules by `from .x import f`
        for name, other in list(sys.modules.items()):
            if not name.startswith("fuchsian") or other is module:
                continue
            for key, val in list(vars(other).items()):
                if val is orig:
                    setattr(other, key, wrapper)
                    self._undo.append((other, key, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, name, owner, attr):
        fn = owner.__dict__[attr]
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        after = self._after_hook(name)
        tr = self

        def wrapper(*args, **kwargs):
            sid = len(tr.col_start)
            tr.col_name.append(name_id)
            tr.col_parent.append(tr.stack[-1] if tr.stack else -1)
            tr.col_job.append(tr.job)
            tr.col_end.append(0)
            tr.stack.append(sid)
            tr.col_start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.col_end[sid] = perf_counter_ns()
                tr.stack.pop()
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, counter, owner, attr):
        fn = owner.__dict__[attr]
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_hook(self, name):
        """Counts read off a span's return value or arguments."""
        c = self.counters
        if name in ("series.substitute_z", "solver.solve_formal"):
            def bits(result, args):
                terms = result.u.terms if name == "solver.solve_formal" \
                    else result.terms
                self.max_coeff_bits = max(self.max_coeff_bits,
                                          _coeff_bits(terms))
                if name == "series.substitute_z":
                    c["series.terms_out"] += len(terms)
            return bits
        if name in _SERIES_RESULTS:
            def terms_out(result, args):
                # __mul__ may return NotImplemented for foreign operands
                c["series.terms_out"] += len(getattr(result, "terms", ()))
            return terms_out
        if name == "certificate.verify_barrier":
            def work(result, args):
                w = result["work"]
                c["certificate.grid_points"] += w["grid_points"]
                c["certificate.phi_evals"] += w["phi_evals"]
                c["certificate.coefficient_evals"] += w["coefficient_evals"]
            return work
        if name == "characteristics.integrate":
            def steps(result, args):
                c["characteristics.steps_accepted"] += result.steps_accepted
                c["characteristics.steps_rejected"] += result.steps_rejected
            return steps
        if name == "cli.emit":
            def size(result, args):
                out = args[1] if len(args) > 1 else None
                if out:
                    c["cli.report_bytes"] += os.path.getsize(out)
            return size
        return None

    # -- results --------------------------------------------------------

    def summary(self) -> dict:
        """Mergeable per-name totals: calls, inclusive and self nanoseconds,
        per-module self nanoseconds, counters and the largest coefficient."""
        import numpy as np

        name = np.frombuffer(self.col_name, dtype=np.int64)
        start = np.frombuffer(self.col_start, dtype=np.int64)
        end = np.frombuffer(self.col_end, dtype=np.int64)
        parent = np.frombuffer(self.col_parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_ns, minlength=k)
        spans = {n: {"calls": int(calls[i]), "total_ns": int(total[i]),
                     "self_ns": int(own[i])}
                 for i, n in enumerate(self.names)}
        modules: Counter = Counter()
        for n, rec in spans.items():
            modules[n.split(".")[0]] += rec["self_ns"]
        return {"spans": spans, "module_self_ns": dict(modules),
                "counters": dict(self.counters),
                "max_coeff_bits": self.max_coeff_bits}

    def job_totals(self, span_name: str) -> dict:
        """Inclusive nanoseconds of one span name, summed per job id."""
        out: Counter = Counter()
        if span_name not in self._name_ids:
            return {}
        nid = self._name_ids[span_name]
        for i, n in enumerate(self.col_name):
            if n == nid:
                out[self.col_job[i]] += self.col_end[i] - self.col_start[i]
        return dict(out)

    def written_spans(self) -> list:
        """Spans other than the HOT ones, as plain records."""
        hot = {self._name_ids[n] for n in HOT if n in self._name_ids}
        return [{"name": self.names[self.col_name[i]],
                 "start_ns": self.col_start[i], "end_ns": self.col_end[i],
                 "parent": self.col_parent[i],
                 "job": self.col_job[i], "id": i}
                for i in range(len(self.col_start))
                if self.col_name[i] not in hot]


def merge_summaries(parts) -> dict:
    """Sum summaries from several processes (max for coefficient bits)."""
    spans: dict = {}
    modules: Counter = Counter()
    counters: Counter = Counter()
    bits = 0
    for part in parts:
        for n, rec in part["spans"].items():
            acc = spans.setdefault(n, {"calls": 0, "total_ns": 0,
                                       "self_ns": 0})
            for key in acc:
                acc[key] += rec[key]
        modules.update(part["module_self_ns"])
        counters.update(part["counters"])
        bits = max(bits, part["max_coeff_bits"])
    return {"spans": spans, "module_self_ns": dict(modules),
            "counters": dict(counters), "max_coeff_bits": bits}


def write_jsonl(path, records) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
