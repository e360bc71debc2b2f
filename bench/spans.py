"""Spans and counters at the library's module boundaries, for the traced run.

The tracer wraps public names from outside the library: for each
function it finds every jost1d module that binds the same object (so
jost.tails, scaled.jost_evaluator and limits.truncated_operator are
wrapped with the function they re-bind), and for each class it wraps
the methods on the class itself.  A name that no longer exists is
recorded as absent and the metrics that need it are reported absent.

Each wrapped call records a span: name, start, end and the index of the
span that was open when it began.  Spans are kept in memory and reduced
to per-layer metrics when the traced pass ends.  A layer is a module
(potential, transfer, jost, scaled, resonance, limits) or the CLI,
whose spans the benchmark opens around each cli.main call.  The
potential's __call__ and the ODE solver's right-hand side run tens of
thousands of times per scattering, so __call__ only counts points and
solver work is read from the solution solve_ivp returns.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _points(counter):
    def hook(counts, args, kwargs, result):
        x = args[1] if len(args) > 1 else kwargs.get("x")
        counts[counter] += np.size(x)

    return hook


def _pair_points(counter):
    def hook(counts, args, kwargs, result):
        counts[counter] += np.broadcast(*args[1:3]).size

    return hook


def _propagator(counts, args, kwargs, result):
    counts["transfer.propagator_elements"] += np.broadcast(*args[:2]).size


def _ode(counts, args, kwargs, result):
    counts["jost.ode_steps"] += result.t.size - 1
    counts["jost.ode_rhs_calls"] += result.nfev


def _evaluator(counts, args, kwargs, result):
    if type(result).__name__ == "PiecewiseJost":
        counts["jost.builds_transfer"] += 1


def _roots(counts, args, kwargs, result):
    counts["resonance.roots"] += len(result.roots)


def _kernel_points(signature):
    def hook(counts, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        counts["limits.kernel_distance_points"] += bound.arguments["n"] ** 2

    return hook


# (module, function, span name, hook)
FUNCTIONS = [
    ("jost1d.potential", "tails", "potential.tails", None),
    ("jost1d.potential", "splitting_scale", "potential.splitting_scale", None),
    ("jost1d.potential", "fm_norm", "potential.fm_norm", None),
    ("jost1d.potential", "quad", "potential.quad", None),
    ("jost1d.transfer", "propagator_entries", "transfer.propagator", _propagator),
    ("jost1d.jost", "jost_evaluator", "jost.evaluator", _evaluator),
    ("jost1d.jost", "jost_wronskian", "jost.wronskian", None),
    ("jost1d.jost", "scattering", "jost.scattering", None),
    ("jost1d.jost", "solve_ivp", "jost.solve_ivp", _ode),
    ("jost1d.scaled", "truncated_operator", "scaled.truncated_operator", None),
    ("jost1d.resonance", "resonance_report", "resonance.report", None),
    ("jost1d.resonance", "d_dot_zero", "resonance.d_dot_zero", None),
    ("jost1d.resonance", "resonant_couplings", "resonance.sweep", _roots),
    ("jost1d.limits", "classify_limit", "limits.classify_limit", None),
    ("jost1d.limits", "kernel_distance", "limits.kernel_distance", "kernel_points"),
    ("jost1d.limits", "convergence_table", "limits.convergence_table", None),
]

# (module, class, method, span name, hook)
METHODS = [
    ("jost1d.transfer", "PiecewiseJost", "__init__", "transfer.build", None),
    ("jost1d.transfer", "PiecewiseJost", "eval", "transfer.eval", _points("transfer.eval_points")),
    ("jost1d.jost", "OdeJost", "__init__", "jost.ode_build", None),
    ("jost1d.jost", "OdeJost", "eval", "jost.ode_eval", None),
    ("jost1d.scaled", "TruncatedScaledOperator", "__init__", "scaled.build", None),
    ("jost1d.scaled", "TruncatedScaledOperator", "green", "scaled.green",
     _pair_points("scaled.green_points")),
    ("jost1d.scaled", "TruncatedScaledOperator", "scattering", "scaled.scattering", None),
]

# counted only: Potential.__call__ runs once per ODE right-hand side
COUNTED = ("jost1d.potential", "Potential", "__call__", "potential.call")

# child span -> enclosing spans whose nested calls are counted
NESTED = {
    "potential.tails": ("potential.splitting_scale",),
    "transfer.build": ("jost.scattering",),
    "jost.ode_build": ("jost.scattering",),
    "jost.wronskian": ("resonance.sweep",),
    "limits.classify_limit": ("cli.converge",),
}

class Tracer:
    """Wraps the library's boundaries while installed and records spans."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent, outer_in_name, outer_in_layer]
        self.stack = []
        self.active = defaultdict(int)
        self.counts = defaultdict(float)
        self.absent = set()
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name, layer):
        for outer in NESTED.get(name, ()):
            if self.active[outer]:
                self.counts[f"{name}<{outer}"] += 1
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        record = [name, layer, 0.0, 0.0, parent, self.active[name] == 0, self.active[layer] == 0]
        self.spans.append(record)
        self.active[name] += 1
        self.active[layer] += 1
        self.stack.append(idx)
        record[2] = time.perf_counter()
        return record

    def _exit(self, record):
        record[3] = time.perf_counter()
        self.stack.pop()
        self.active[record[0]] -= 1
        self.active[record[1]] -= 1

    @contextmanager
    def span(self, name):
        record = self._enter(name, name.split(".", 1)[0])
        try:
            yield
        finally:
            self._exit(record)

    def _wrap(self, orig, name, hook):
        layer = name.split(".", 1)[0]
        tracer = self

        def wrapper(*args, **kwargs):
            record = tracer._enter(name, layer)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._exit(record)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "jost1d" or n.startswith("jost1d.")) and m is not None]
        by_name = {m.__name__: m for m in modules}
        for mod_name, attr, name, hook in FUNCTIONS:
            orig = getattr(by_name.get(mod_name), attr, None)
            if orig is None:
                self.absent.add(name)
                continue
            if hook == "kernel_points":
                try:
                    signature = inspect.signature(orig)
                except (TypeError, ValueError):
                    signature = None
                if signature is None or "n" not in signature.parameters:
                    self.absent.add("limits.kernel_distance_points")
                    hook = None
                else:
                    hook = _kernel_points(signature)
            wrapper = self._wrap(orig, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._set(module, key, wrapper)
        for mod_name, cls_name, meth, name, hook in METHODS:
            cls = getattr(by_name.get(mod_name), cls_name, None)
            orig = getattr(cls, "__dict__", {}).get(meth)
            if orig is None:
                self.absent.add(name)
                continue
            self._set(cls, meth, self._wrap(orig, name, hook))
        mod_name, cls_name, meth, name = COUNTED
        cls = getattr(by_name.get(mod_name), cls_name, None)
        orig = getattr(cls, "__dict__", {}).get(meth)
        if orig is None:
            self.absent.add(name)
        else:
            counts = self.counts

            def counted(obj, x):
                counts["potential.eval_points"] += 1 if isinstance(x, float) else np.size(x)
                return orig(obj, x)

            self._set(cls, meth, counted)

    def _set(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    # -- reducing ----------------------------------------------------------

    def totals(self):
        """Sums over the recorded spans: time, calls, busy and self time."""
        child_time = defaultdict(float)
        for name, layer, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        t = defaultdict(float)
        n = defaultdict(int)
        busy = defaultdict(float)
        own = defaultdict(float)
        for idx, (name, layer, start, end, parent, outer_name, outer_layer) in enumerate(self.spans):
            dur = end - start
            n[name] += 1
            if outer_name:
                t[name] += dur
            if outer_layer:
                busy[layer] += dur
            own[layer] += dur - child_time[idx]
        return t, n, busy, own


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (predicted end-to-end metric @ workload, spans or counters it needs, value)
# value(t, n, busy, own, c) with t/n/busy/own from Tracer.totals and c the counters;
# ratios are marked so that they are not divided by the pass count.
def _per_layer():
    m = {}

    def add(name, predicts, needs, fn, ratio=False):
        m[name] = (predicts, needs, fn, ratio)

    add("potential.eval_points", "wall_s@smooth_scatter", ["potential.call"],
        lambda t, n, b, o, c: c["potential.eval_points"])
    add("potential.quad_calls", "wall_s@smooth_scatter", ["potential.quad"],
        lambda t, n, b, o, c: n["potential.quad"])
    add("potential.tails_s", "wall_s@smooth_scatter", ["potential.tails"],
        lambda t, n, b, o, c: t["potential.tails"])
    add("potential.splitting_scale_s", "op_p50_s@smooth_scatter (about 0 @piecewise_limit)",
        ["potential.splitting_scale"], lambda t, n, b, o, c: t["potential.splitting_scale"])
    add("potential.splitting_scale_tails_per_call", "op_p50_s@smooth_scatter",
        ["potential.tails", "potential.splitting_scale"],
        lambda t, n, b, o, c: _ratio(c["potential.tails<potential.splitting_scale"],
                                     n["potential.splitting_scale"]), ratio=True)
    add("potential.fm_norm_s", "op_tail_s@coupling_sweep", ["potential.fm_norm"],
        lambda t, n, b, o, c: t["potential.fm_norm"])
    add("transfer.builds", "wall_s/op_p50_s@coupling_sweep", ["transfer.build"],
        lambda t, n, b, o, c: n["transfer.build"])
    add("transfer.build_s", "wall_s/op_p50_s@coupling_sweep", ["transfer.build"],
        lambda t, n, b, o, c: t["transfer.build"])
    add("transfer.propagator_calls", "wall_s/op_p50_s@coupling_sweep", ["transfer.propagator"],
        lambda t, n, b, o, c: n["transfer.propagator"])
    add("transfer.propagator_s", "wall_s/op_p50_s@coupling_sweep", ["transfer.propagator"],
        lambda t, n, b, o, c: t["transfer.propagator"])
    add("transfer.propagator_elements", "wall_s@piecewise_limit", ["transfer.propagator"],
        lambda t, n, b, o, c: c["transfer.propagator_elements"])
    add("transfer.eval_points", "wall_s@piecewise_limit", ["transfer.eval"],
        lambda t, n, b, o, c: c["transfer.eval_points"])
    add("jost.builds_ode", "wall_s@smooth_scatter", ["jost.ode_build"],
        lambda t, n, b, o, c: n["jost.ode_build"])
    add("jost.ode_build_s", "wall_s@smooth_scatter", ["jost.ode_build"],
        lambda t, n, b, o, c: t["jost.ode_build"])
    add("jost.ode_steps", "wall_s@smooth_scatter", ["jost.solve_ivp"],
        lambda t, n, b, o, c: c["jost.ode_steps"])
    add("jost.ode_rhs_calls", "wall_s@smooth_scatter", ["jost.solve_ivp"],
        lambda t, n, b, o, c: c["jost.ode_rhs_calls"])
    add("jost.builds_transfer", "wall_s@coupling_sweep", ["jost.evaluator"],
        lambda t, n, b, o, c: c["jost.builds_transfer"])
    add("jost.scattering_s", "op_p50_s@smooth_scatter", ["jost.scattering"],
        lambda t, n, b, o, c: t["jost.scattering"])
    add("jost.builds_per_scattering", "op_p50_s@smooth_scatter", ["jost.scattering"],
        lambda t, n, b, o, c: _ratio(c["transfer.build<jost.scattering"]
                                     + c["jost.ode_build<jost.scattering"],
                                     n["jost.scattering"]), ratio=True)
    add("jost.wronskian_calls", "wall_s@coupling_sweep", ["jost.wronskian"],
        lambda t, n, b, o, c: n["jost.wronskian"])
    add("jost.wronskian_s", "wall_s@coupling_sweep", ["jost.wronskian"],
        lambda t, n, b, o, c: t["jost.wronskian"])
    add("scaled.operator_builds", "op_p50_s@smooth_scatter", ["scaled.build"],
        lambda t, n, b, o, c: n["scaled.build"])
    add("scaled.operator_build_s", "op_p50_s@smooth_scatter", ["scaled.build"],
        lambda t, n, b, o, c: t["scaled.build"])
    add("scaled.green_points", "wall_s@piecewise_limit", ["scaled.green"],
        lambda t, n, b, o, c: c["scaled.green_points"])
    add("scaled.green_s", "wall_s@piecewise_limit", ["scaled.green"],
        lambda t, n, b, o, c: t["scaled.green"])
    add("resonance.report_calls", "op_tail_s@coupling_sweep", ["resonance.report"],
        lambda t, n, b, o, c: n["resonance.report"])
    add("resonance.report_s", "op_tail_s@coupling_sweep", ["resonance.report"],
        lambda t, n, b, o, c: t["resonance.report"])
    add("resonance.d_dot_zero_s", "op_tail_s@coupling_sweep", ["resonance.d_dot_zero"],
        lambda t, n, b, o, c: t["resonance.d_dot_zero"])
    add("resonance.sweep_s", "wall_s@coupling_sweep", ["resonance.sweep"],
        lambda t, n, b, o, c: t["resonance.sweep"])
    add("resonance.d0_evals_per_root", "wall_s@coupling_sweep",
        ["resonance.sweep", "jost.wronskian"],
        lambda t, n, b, o, c: _ratio(c["jost.wronskian<resonance.sweep"], c["resonance.roots"]),
        ratio=True)
    add("limits.kernel_distance_s", "wall_s/op_p50_s@piecewise_limit", ["limits.kernel_distance"],
        lambda t, n, b, o, c: t["limits.kernel_distance"])
    add("limits.kernel_distance_points", "wall_s/op_p50_s@piecewise_limit",
        ["limits.kernel_distance", "limits.kernel_distance_points"],
        lambda t, n, b, o, c: c["limits.kernel_distance_points"])
    add("limits.classify_per_converge", "op_p50_s@piecewise_limit", ["limits.classify_limit"],
        lambda t, n, b, o, c: _ratio(c["limits.classify_limit<cli.converge"], n["cli.converge"]),
        ratio=True)
    for cmd, where in (("scatter", "smooth_scatter"), ("converge", "piecewise_limit"),
                       ("sweep", "coupling_sweep"), ("theta", "coupling_sweep")):
        add(f"cli.{cmd}_s", f"wall_s@{where}", [],
            lambda t, n, b, o, c, cmd=cmd: t[f"cli.{cmd}"])
    add("cli.overhead_s", "wall_s@coupling_sweep", [], lambda t, n, b, o, c: o["cli"])
    for layer, where in (("potential", "smooth_scatter"), ("transfer", "coupling_sweep"),
                         ("jost", "smooth_scatter"), ("scaled", "piecewise_limit"),
                         ("resonance", "coupling_sweep"), ("limits", "piecewise_limit")):
        add(f"{layer}.busy_s", f"wall_s@{where}", [],
            lambda t, n, b, o, c, layer=layer: b[layer])
        add(f"{layer}.self_s", f"wall_s@{where}", [],
            lambda t, n, b, o, c, layer=layer: o[layer])
    return m


PER_LAYER = _per_layer()


def layer_metrics(tracer, passes):
    """{metric: (value, predicted, absent)} over the traced passes.

    Sums are per pass (divided by the number of traced passes); ratios
    are taken over all traced passes.
    """
    t, n, busy, own = tracer.totals()
    out = {}
    for name, (predicts, needs, fn, ratio) in PER_LAYER.items():
        absent = any(need in tracer.absent for need in needs)
        value = 0.0 if absent else float(fn(t, n, busy, own, tracer.counts))
        if not ratio:
            value /= max(passes, 1)
        out[name] = (value, predicts, absent)
    return out
