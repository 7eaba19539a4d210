"""Spans and counts around calls into the stasis modules, from outside.

A hook replaces a function or method of a stasis module with a wrapper that
records a span (name, layer, start, end, parent) and counts into the current
operation's record.  Module-level functions are replaced in every stasis
module namespace that binds them, so calls between modules are traced too.
A hook whose target is missing (a later change may rename a private helper)
is skipped: its metrics read 0 and the report lists it under
``missing_hooks``.

Wrappers exist only between ``install()`` and ``uninstall()``; untimed and
untraced runs never see them.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


class OpRecord:
    """Spans and counts of one timed call into the program."""

    __slots__ = ("spans", "counts", "maxima")

    def __init__(self):
        self.spans = []          # [name, layer, start, end, parent index]
        self.counts = Counter()
        self.maxima = {}

    def note_max(self, name, value):
        if name not in self.maxima or value > self.maxima[name]:
            self.maxima[name] = float(value)


class Tracer:
    def __init__(self):
        self.op = None
        self.stack = []

    def begin_op(self):
        self.op = OpRecord()
        self.stack = []
        return self.op

    def end_op(self):
        self.op = None


# ---------------------------------------------------------------------------
# per-hook count callbacks: (record, args, kwargs, result, before) -> None
# ---------------------------------------------------------------------------

def _panel_prepare(rec, args, kwargs):
    """Count integrand evaluations by wrapping the integrand itself."""
    f = args[0] if args else kwargs.pop("f")
    counts = rec.counts

    def counted(x):
        counts["quadrules.evals"] += np.size(x)
        return f(x)

    return (counted,) + tuple(args[1:]), kwargs


def _panel_after(rec, args, kwargs, result, before):
    edges = args[1] if len(args) > 1 else kwargs["edges"]
    rec.counts["quadrules.panels"] += max(0, np.size(edges) - 1)


def _oracle_after(prefix, tol_index):
    def after(rec, args, kwargs, result, before):
        rec.counts[prefix + ".panels"] += int(result.panel_count)
        tol = args[tol_index] if len(args) > tol_index else kwargs["tol"]
        rec.note_max("oracle.err_over_tol", result.abs_error_estimate / tol)
    return after


def _newton_after(rec, args, kwargs, result, before):
    rec.counts["model.newton.nodes"] += np.size(args[1])


def _wk_before(args, kwargs):
    frame = args[0] if args else kwargs["frame"]
    cache = getattr(frame, "cache", None)
    return len(cache) if isinstance(cache, dict) else None


def _wk_after(rec, args, kwargs, result, before):
    if before is None:
        return
    frame = args[0] if args else kwargs["frame"]
    rec.counts["expansion.wk.attempts"] += 1
    if len(frame.cache) == before:
        rec.counts["expansion.wk.hits"] += 1


@dataclass(frozen=True)
class Hook:
    target: str                 # "module:attr" or "module:Class.attr"
    name: str                   # span name
    layer: str
    prepare: Callable | None = None
    before: Callable | None = None
    after: Callable | None = None


HOOKS = (
    Hook("stasis.cli:run", "cli.run", "cli"),
    Hook("stasis.cli:_load_config", "cli.load_config", "cli"),
    Hook("stasis.cli:_sweep_task", "cli.sweep_row", "cli"),
    Hook("stasis.catalog:amplitude", "catalog.amplitude", "catalog"),
    Hook("stasis.catalog:phase", "catalog.phase", "catalog"),
    Hook("stasis.model:build_frame", "model.build_frame", "model"),
    Hook("stasis.model:SingularAmplitude.__post_init__", "model.amplitude_built", "model"),
    Hook("stasis.model:PhaseModel.__post_init__", "model.phase_built", "model"),
    Hook("stasis.model:_SideGeometry.__init__", "model.geometry", "model"),
    Hook("stasis.model:_SideGeometry.inv_dist", "model.newton", "model",
         after=_newton_after),
    Hook("stasis.quadrules:panel_complex", "quadrules.panel_complex", "quadrules",
         prepare=_panel_prepare, after=_panel_after),
    Hook("stasis.quadrules:adaptive_complex", "quadrules.adaptive_complex", "quadrules"),
    Hook("stasis.oracle:integrate_oscillatory", "oracle.integrate_oscillatory", "oracle",
         after=_oracle_after("oracle.integrate_oscillatory", 3)),
    Hook("stasis.oracle:reconstruct_total", "oracle.reconstruct_total", "oracle",
         after=_oracle_after("oracle.reconstruct_total", 4)),
    Hook("stasis.oracle:integrate_by_parts_check", "oracle.parts_side", "oracle"),
    Hook("stasis.oracle:_ray_integral", "oracle.ray.integral", "oracle"),
    Hook("stasis.oracle:_PrimitiveEval.__init__", "oracle.ray.setup", "oracle"),
    Hook("stasis.oracle:_PrimitiveEval.__call__", "oracle.ray.eval", "oracle"),
    Hook("stasis.expansion:expand_integral", "expansion.expand_integral", "expansion"),
    Hook("stasis.expansion:weighted_kprime_integral",
         "expansion.weighted_kprime_integral", "expansion",
         before=_wk_before, after=_wk_after),
    Hook("stasis.quadratic:expand_quadratic", "quadratic.expand_quadratic", "quadratic"),
    Hook("stasis.schrodinger:evaluate_solution", "schrodinger.evaluate_solution",
         "schrodinger"),
    Hook("stasis.schrodinger:integrate_quadratic", "schrodinger.integrate_quadratic",
         "schrodinger"),
)

LAYERS = ("cli", "catalog", "model", "quadrules", "oracle", "expansion",
          "quadratic", "schrodinger")


def _wrap(fn, hook, tracer):
    name, layer = hook.name, hook.layer
    prepare, before_fn, after = hook.prepare, hook.before, hook.after

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = tracer.op
        if rec is None:
            return fn(*args, **kwargs)
        if prepare is not None:
            args, kwargs = prepare(rec, args, kwargs)
        before = before_fn(args, kwargs) if before_fn is not None else None
        stack = tracer.stack
        span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(rec.spans))
        rec.spans.append(span)
        rec.counts[name + ".calls"] += 1
        span[2] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            stack.pop()
        if after is not None:
            after(rec, args, kwargs, result, before)
        return result

    return wrapper


def _resolve(target):
    """(owner, attribute, original) for a hook target, or None if missing."""
    mod_name, path = target.split(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
        if owner is None:
            return None
    original = (owner.__dict__.get(attr) if isinstance(owner, type)
                else getattr(owner, attr, None))
    if not callable(original):
        return None
    return owner, attr, original


class Hooks:
    """Installs every hook for one tracer; records which targets are missing."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing = []
        self._plan = []
        for hook in HOOKS:
            found = _resolve(hook.target)
            if found is None:
                self.missing.append(hook.target)
                continue
            owner, attr, original = found
            self._plan.append((owner, attr, original, _wrap(original, hook, tracer)))
        self._undo = []

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "stasis" or n.startswith("stasis."))]
        for owner, attr, original, wrapped in self._plan:
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, original))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


# ---------------------------------------------------------------------------
# per-layer metrics from the records of one traced pass
# ---------------------------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(records, extras):
    """Per-layer metrics of the given op records.

    Every metric is a number: a count, time or ratio with nothing behind it
    (no call, or a missing hook) is 0.  ``extras`` holds what the benchmark
    measured outside the program: bytes written, rows, and the largest
    residual-to-bound ratio of the checked expansions.
    """
    counts = Counter()
    maxima = {}
    total = Counter()          # duration per span name, outermost spans only
    self_time = Counter()      # self time per layer
    ray_s = 0.0
    for rec in records:
        counts.update(rec.counts)
        for key, value in rec.maxima.items():
            maxima[key] = max(value, maxima.get(key, value))
        spans = rec.spans
        child = [0.0] * len(spans)
        for name, layer, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, layer, start, end, parent) in enumerate(spans):
            dur = end - start
            self_time[layer] += dur - child[i]
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(spans[p][0])
                p = spans[p][4]
            if name not in ancestors:
                total[name] += dur
            if name.startswith("oracle.ray.") and not any(
                    a.startswith("oracle.ray.") for a in ancestors):
                ray_s += dur

    def calls(name):
        return counts[name + ".calls"]

    def secs(name):
        return total[name]

    out = {"cli.self_s": self_time["cli"]}
    out["cli.bytes_written"] = extras["bytes_written"]
    out["cli.config_reads_per_row"] = _ratio(counts["cli.load_config.calls"],
                                             extras["rows"])
    out["catalog.amplitude.calls"] = calls("catalog.amplitude")
    out["catalog.phase.calls"] = calls("catalog.phase")
    out["model.build_frame.calls"] = calls("model.build_frame")
    out["model.build_frame.s"] = secs("model.build_frame")
    out["model.amplitude_built"] = calls("model.amplitude_built")
    out["model.phase_built"] = calls("model.phase_built")
    validation = ("model.amplitude_built", "model.phase_built", "model.build_frame")
    out["model.validate_s"] = (sum(total[n] for n in validation)
                               - total["model.geometry"])
    out["model.newton.nodes"] = counts["model.newton.nodes"]
    out["model.newton.s"] = secs("model.newton")
    out["quadrules.panel_complex.calls"] = calls("quadrules.panel_complex")
    out["quadrules.panel_complex.s"] = secs("quadrules.panel_complex")
    out["quadrules.panels"] = counts["quadrules.panels"]
    out["quadrules.evals"] = counts["quadrules.evals"]
    out["quadrules.evals_per_panel"] = _ratio(counts["quadrules.evals"],
                                              counts["quadrules.panels"])
    out["quadrules.adaptive_complex.calls"] = calls("quadrules.adaptive_complex")
    out["quadrules.adaptive_complex.s"] = secs("quadrules.adaptive_complex")
    for fn in ("integrate_oscillatory", "reconstruct_total"):
        name = "oracle." + fn
        out[name + ".calls"] = calls(name)
        out[name + ".s"] = secs(name)
        out[name + ".panels"] = counts[name + ".panels"]
    out["oracle.ray_s"] = ray_s
    out["oracle.err_over_tol_max"] = maxima.get("oracle.err_over_tol", 0.0)
    out["expansion.expand_integral.calls"] = calls("expansion.expand_integral")
    out["expansion.expand_integral.s"] = secs("expansion.expand_integral")
    wk = "expansion.weighted_kprime_integral"
    out[wk + ".calls"] = calls(wk)
    out[wk + ".s"] = secs(wk)
    out["expansion.wk_cache_hit_ratio"] = _ratio(counts["expansion.wk.hits"],
                                                 counts["expansion.wk.attempts"])
    out["expansion.resid_over_bound_max"] = extras["resid_over_bound_max"]
    out["quadratic.expand_quadratic.calls"] = calls("quadratic.expand_quadratic")
    out["quadratic.expand_quadratic.s"] = secs("quadratic.expand_quadratic")
    for fn in ("evaluate_solution", "integrate_quadratic"):
        name = "schrodinger." + fn
        out[name + ".calls"] = calls(name)
        out[name + ".s"] = secs(name)
    for layer in LAYERS[1:]:
        out[layer + ".self_s"] = self_time[layer]
    return out


def _units():
    units = {"cli.self_s": "s", "cli.bytes_written": "bytes",
             "cli.config_reads_per_row": "count",
             "catalog.amplitude.calls": "count", "catalog.phase.calls": "count",
             "model.build_frame.calls": "count", "model.build_frame.s": "s",
             "model.amplitude_built": "count", "model.phase_built": "count",
             "model.validate_s": "s", "model.newton.nodes": "count",
             "model.newton.s": "s"}
    for name in ("quadrules.panel_complex", "quadrules.adaptive_complex"):
        units.update({name + ".calls": "count", name + ".s": "s"})
    units.update({"quadrules.panels": "count", "quadrules.evals": "count",
                  "quadrules.evals_per_panel": "count"})
    for name in ("oracle.integrate_oscillatory", "oracle.reconstruct_total"):
        units.update({name + ".calls": "count", name + ".s": "s",
                      name + ".panels": "count"})
    units.update({"oracle.ray_s": "s", "oracle.err_over_tol_max": "ratio"})
    for name in ("expansion.expand_integral", "expansion.weighted_kprime_integral"):
        units.update({name + ".calls": "count", name + ".s": "s"})
    units.update({"expansion.wk_cache_hit_ratio": "ratio",
                  "expansion.resid_over_bound_max": "ratio"})
    for name in ("quadratic.expand_quadratic", "schrodinger.evaluate_solution",
                 "schrodinger.integrate_quadratic"):
        units.update({name + ".calls": "count", name + ".s": "s"})
    for layer in LAYERS[1:]:
        units[layer + ".self_s"] = "s"
    units.update({"trace.overhead": "ratio", "trace.spans": "count"})
    return units


# name -> unit of every per-layer metric, in the order they are printed
UNITS = _units()


def cost_counts(rec: OpRecord):
    """The counts of one op that must repeat exactly when the op is rerun."""
    return dict(sorted(rec.counts.items()))


def spans_json(records):
    """Every span of the given records, with its op id, for the trace file."""
    out = []
    for op_id, rec in enumerate(records):
        for i, (name, layer, start, end, parent) in enumerate(rec.spans):
            out.append({"op": op_id, "id": i, "name": name, "layer": layer,
                        "start": start, "end": end,
                        "parent": parent if parent >= 0 else None})
    return out
