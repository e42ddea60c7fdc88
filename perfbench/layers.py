"""Spans around the public calls into each gridfdi layer, from outside the
package.

``install`` replaces each target function with a timing wrapper in its
defining module and in every ``gridfdi`` module that imported it by name, so
calls through ``harness``'s own imports are seen too.  A target that no longer
exists is listed as missing and its metrics read null; nothing crashes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

from stats import Span, miss_ratio, percentile, self_times

# (span name, module, attribute path, result flag).  The flag marks a result
# as a failure (``lp``), an alarm (``estimation``) or a Stage-2 run
# (``detect``).
TARGETS = (
    ("cases.load_case", "gridfdi.cases", "load_case", None),
    ("powerflow.compute_ptdf", "gridfdi.powerflow", "compute_ptdf", None),
    ("powerflow.solve_dc", "gridfdi.powerflow", "solve_dc", None),
    ("lp.solve_lp", "gridfdi.lp", "solve_lp", lambda sol: sol.status != "optimal"),
    ("lp.linprog", "scipy.optimize", "linprog", None),
    ("sced.run_sced", "gridfdi.sced", "run_sced", None),
    ("attack.build_attack_lp", "gridfdi.attack", "build_attack_lp", None),
    ("attack.audit_attack", "gridfdi.attack", "audit_attack", None),
    ("attack.solve_attack", "gridfdi.attack", "solve_attack", None),
    ("estimation.build_measurements", "gridfdi.estimation", "build_measurements", None),
    ("estimation.wls_estimate", "gridfdi.estimation", "wls_estimate",
     lambda se: se.bad_data),
    ("detect.run_two_stage", "gridfdi.detect", "run_two_stage",
     lambda report: report.stage2 is not None),
    ("harness.cache.get", "gridfdi.harness", "NetworkCache.get", None),
    ("harness.run_timeline", "gridfdi.harness", "run_timeline", None),
)

OP = "op"


class Recorder:
    """In-memory span list with a stack of open spans (one thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op: int | None = None

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), None, parent, self.op))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int, error: bool = False, flag: bool | None = None):
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.error = error
        span.flag = flag
        self._open.pop()


def _wrap(recorder: Recorder, name: str, fn, flag_of):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.end(idx, error=True)
            raise
        flag = None
        if flag_of is not None:
            try:
                flag = bool(flag_of(result))
            except AttributeError:  # result type changed; the metric reads null
                flag = None
        recorder.end(idx, flag=flag)
        return result

    return traced


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def install(recorder: Recorder):
    """Wrap every target; returns (restore callable, missing span names)."""
    patches = []   # (owner, attr, original)
    missing = []
    for name, module_name, path, flag_of in TARGETS:
        try:
            owner, attr, original = _resolve(module_name, path)
        except (ImportError, AttributeError):
            missing.append(name)
            continue
        wrapper = _wrap(recorder, name, original, flag_of)
        owners = [owner]
        if "." not in path:
            owners += [
                mod for mod_name, mod in list(sys.modules.items())
                if mod is not None and mod is not owner
                and (mod_name == "gridfdi" or mod_name.startswith("gridfdi."))
                and getattr(mod, attr, None) is original
            ]
        for o in owners:
            patches.append((o, attr, original))
            setattr(o, attr, wrapper)

    def restore():
        for o, attr, original in reversed(patches):
            setattr(o, attr, original)

    return restore, missing


# (metric, unit, kind, span name, parent or child span name).  Busy and self
# times are seconds per operation and calls are calls per operation, so runs
# of different length compare; errors are totals over the traced window.
METRICS = (
    ("lp.solve_lp.calls", "calls/op", "calls", "lp.solve_lp", None),
    ("lp.solve_lp.busy_s", "s/op", "busy", "lp.solve_lp", None),
    ("lp.solve_lp.self_s", "s/op", "self", "lp.solve_lp", None),
    ("lp.linprog.busy_s", "s/op", "busy", "lp.linprog", None),
    ("lp.solve_lp.sced.busy_s", "s/op", "busy", "lp.solve_lp", "sced.run_sced"),
    ("lp.solve_lp.attack.busy_s", "s/op", "busy", "lp.solve_lp", "attack.solve_attack"),
    ("lp.solve_lp.errors", "count", "errors", "lp.solve_lp", None),
    ("sced.run_sced.calls", "calls/op", "calls", "sced.run_sced", None),
    ("sced.run_sced.self_s", "s/op", "self", "sced.run_sced", None),
    ("attack.solve_attack.calls", "calls/op", "calls", "attack.solve_attack", None),
    ("attack.solve_attack.self_s", "s/op", "self", "attack.solve_attack", None),
    ("attack.build_attack_lp.busy_s", "s/op", "busy", "attack.build_attack_lp", None),
    ("attack.audit_attack.busy_s", "s/op", "busy", "attack.audit_attack", None),
    ("attack.solve_attack.errors", "count", "errors", "attack.solve_attack", None),
    ("estimation.wls_estimate.calls", "calls/op", "calls", "estimation.wls_estimate", None),
    ("estimation.wls_estimate.busy_s", "s/op", "busy", "estimation.wls_estimate", None),
    ("estimation.wls_estimate.ms_p50", "ms", "p50_ms", "estimation.wls_estimate", None),
    ("estimation.build_measurements.busy_s", "s/op", "busy",
     "estimation.build_measurements", None),
    ("estimation.lnr_alarm_ratio", "frac", "flag_ratio", "estimation.wls_estimate", None),
    ("powerflow.solve_dc.calls", "calls/op", "calls", "powerflow.solve_dc", None),
    ("powerflow.solve_dc.busy_s", "s/op", "busy", "powerflow.solve_dc", None),
    ("cases.load_case.calls", "calls/op", "calls", "cases.load_case", None),
    ("cases.load_case.busy_s", "s/op", "busy", "cases.load_case", None),
    ("powerflow.compute_ptdf.calls", "calls/op", "calls", "powerflow.compute_ptdf", None),
    ("powerflow.compute_ptdf.busy_s", "s/op", "busy", "powerflow.compute_ptdf", None),
    ("harness.cache.miss_ratio", "frac", "miss", "harness.cache.get", "cases.load_case"),
    ("detect.run_two_stage.calls", "calls/op", "calls", "detect.run_two_stage", None),
    ("detect.run_two_stage.busy_s", "s/op", "busy", "detect.run_two_stage", None),
    ("detect.stage2_ratio", "frac", "flag_ratio", "detect.run_two_stage", None),
    ("harness.run_timeline.self_s", "s/op", "self", "harness.run_timeline", None),
)
UNITS = {metric: unit for metric, unit, *_ in METRICS}
UNITS.update({"trace.ops": "count", "trace.overhead_frac": "frac"})


def layer_metrics(spans: list[Span], missing: list[str]) -> dict[str, float | None]:
    """Every metric of ``METRICS`` from the spans of a traced window.  A layer
    that is not called reads 0; a metric whose span could not be wrapped, or
    whose result flag could not be read, reads None."""
    selfs = self_times(spans)
    ops = sum(1 for s in spans if s.name == OP) or 1
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def duration(i):
        return spans[i].end - spans[i].start

    out = {}
    for metric, _unit, kind, name, other in METRICS:
        idx = by_name.get(name, [])
        if name in missing or other in missing:
            out[metric] = None
        elif kind == "calls":
            out[metric] = len(idx) / ops
        elif kind == "busy":
            if other is not None:   # only the calls made from this parent
                idx = [i for i in idx if spans[i].parent is not None
                       and spans[spans[i].parent].name == other]
            out[metric] = sum(duration(i) for i in idx) / ops
        elif kind == "self":
            out[metric] = sum(selfs[i] for i in idx) / ops
        elif kind == "errors":
            out[metric] = float(sum(spans[i].error or bool(spans[i].flag) for i in idx))
        elif kind == "p50_ms":
            out[metric] = percentile([1e3 * duration(i) for i in idx], 50.0) if idx else 0.0
        elif kind == "flag_ratio":
            flags = [spans[i].flag for i in idx]
            out[metric] = (None if None in flags
                           else sum(flags) / len(flags) if flags else 0.0)
        elif kind == "miss":
            out[metric] = miss_ratio(spans, name, other)
    return out
