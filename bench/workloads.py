"""The three benchmark workloads: seeded inputs, task lists and output checks.

A workload draws one pass worth of inputs from the seeded generator,
writes each potential as a JSON description (the form the CLI reads),
and yields the pass's operations one at a time.  An operation is one
user-level call into the public API, or one CLI invocation; later
operations may depend on earlier results (the roots of a sweep decide
which reports follow), so the task list is a generator that reads the
results of the operations before it.

Every operation carries a check against a reference from reference.py,
never against another call into the library, except that CLI output is
compared bit for bit with the library call on the same input.  The
tolerances are the ones the repository's tests use for the same
quantity.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import jost1d
from jost1d import cli

import reference as ref

# tolerances, each as used by the repository's tests for the same quantity
STAIRCASE_TOL = 5e-7  # DOP853 route vs a staircase reference
UNITARITY_TOL = 1e-8  # criterion 02
GAP_ODE_TOL = 1e-8  # two DOP853 solves against each other (route and window tests)
LAYER_TOL = 1e-9  # piecewise scattering vs layer matching, relative
XI_TOL = 1e-10  # compact splitting scale vs sqrt(1/eps - 1), relative
RHO_TOL = 1e-9  # exp splitting scale: rho(xi) = 1/eps, relative
D0_TOL = 1e-10  # d0 vs closed form, relative (absolute floor 1e-12)
EXP_D0_TOL = 5e-8  # extrapolated d0 vs the Bessel closed form
ROOT_TOL = 1e-5  # criterion 04
THETA_TOL = 1e-5  # far-field ratio at a refined sweep root
THETA_EXACT_TOL = 1e-10  # far-field ratio of the exact theta = +-1 wells
DDOT_TOL = 1e-5  # criterion 05
DDOT_EXACT_TOL = 1e-6  # D'(0) identity at the exact theta = +-1 wells
KERNEL_FINAL_MAX = 0.1  # criterion 08

EPS_LADDER = (0.2, 0.1, 0.05, 0.02, 0.01)
SWEEP_RANGE = (1e-3, 25.0)
README_EXP_COUPLING = -1.4458


@dataclass
class Op:
    """One user-level call: what to run and how to check its result."""

    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]


# ---------------------------------------------------------------------------
# check helpers: each returns a list of failure causes, empty when it passes


def near(label, got, want, tol):
    gap = abs(got - want)
    if gap <= tol:
        return []
    return [f"{label}: got {got}, want {want}, gap {gap:.3g} > {tol:.3g}"]


def below(label, value, limit):
    return [] if value < limit else [f"{label} {value:.3g} not below {limit:.3g}"]


def same(label, got, want):
    return [] if got == want else [f"{label}: CLI {got!r} != library {want!r}"]


# ---------------------------------------------------------------------------
# inputs


def square_spec(left, right, height, coupling=1.0):
    return {"kind": "square", "params": {"left": left, "right": right, "height": height},
            "coupling": coupling}


def piecewise_spec(segments):
    return {"kind": "piecewise",
            "params": [{"left": lo, "right": hi, "height": h} for lo, hi, h in segments],
            "coupling": 1.0}


def table_spec(xs, vs):
    return {"kind": "table", "params": {"x": [float(x) for x in xs], "v": [float(v) for v in vs]},
            "coupling": 1.0}


def exp_spec(rate, amplitude, coupling=1.0):
    return {"kind": "exp_decay", "params": {"rate": rate, "amplitude": amplitude},
            "coupling": coupling}


def bump_table_spec():
    """The 81-node bump the repository's tests use."""
    xs = np.linspace(-2.0, 2.0, 81)
    return table_spec(xs, np.sin(np.pi * xs) * np.exp(-(xs**2)))


def random_table_spec(rng, nodes, sign):
    half = rng.uniform(1.5, 2.5)
    xs = np.linspace(-half, half, nodes)
    center = rng.uniform(-0.4, 0.4)
    width = rng.uniform(0.5, 0.9)
    amp = sign * rng.uniform(1.0, 2.0)
    freq = rng.uniform(0.0, 2.5)
    return table_spec(xs, amp * np.exp(-(((xs - center) / width) ** 2)) * np.cos(freq * xs))


def random_exp_spec(rng, sign):
    return exp_spec(float(rng.uniform(1.45, 1.55)), float(sign * rng.uniform(0.9, 1.1)))


def random_layers(rng, n_layers, half_span, heights, edge_at_zero=False):
    """n_layers contiguous layers tiling [-half_span, half_span].

    With edge_at_zero, x = 0 is an edge between two layers.
    """
    if edge_at_zero:
        n_left = int(rng.integers(1, n_layers))
        left = np.cumsum(rng.uniform(0.2, 1.0, n_left))
        right = np.cumsum(rng.uniform(0.2, 1.0, n_layers - n_left))
        edges = half_span * np.concatenate([[-1.0], left / left[-1] - 1.0, right / right[-1]])
    else:
        widths = rng.uniform(0.2, 1.0, n_layers)
        cum = np.concatenate([[0.0], np.cumsum(widths)])
        edges = -half_span + 2.0 * half_span * cum / widths.sum()
    hs = rng.uniform(*heights, n_layers)
    return [(float(edges[i]), float(edges[i + 1]), float(hs[i])) for i in range(n_layers)]


def random_k(rng, re, im=(0.0, 0.0)):
    return complex(rng.uniform(*re), rng.uniform(*im) if im[1] > 0 else 0.0)


def k_arg(k):
    return repr(k.real) if k.imag == 0 else f"{k.real!r},{k.imag!r}"


class Inputs:
    """Named potential descriptions of one pass, written as JSON files."""

    def __init__(self, workdir, pass_index):
        self.index = pass_index
        self.dir = os.path.join(workdir, f"pass{pass_index:04d}")
        os.makedirs(self.dir, exist_ok=True)
        self.specs = {}
        self.paths = {}
        self.values = {}

    def add(self, name, spec):
        path = os.path.join(self.dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        self.specs[name] = spec
        self.paths[name] = path

    def load(self):
        """Potentials as the library sees them: loaded from the JSON files."""
        return {name: jost1d.load_potential(path) for name, path in self.paths.items()}


# ---------------------------------------------------------------------------
# the CLI, in-process


def run_cli(args):
    """Run jost1d.cli.main in-process and return its standard output."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main(args, standalone_mode=False)
    except SystemExit as exc:
        raise RuntimeError(f"CLI exited with {exc.code}: {err.getvalue().strip()}") from None
    return out.getvalue()


def csv_sections(text):
    """CSV sections as (header, rows), split at blank rows."""
    sections, current = [], None
    for row in csv.reader(io.StringIO(text)):
        if not row:
            current = None
            continue
        if current is None:
            current = (row, [])
            sections.append(current)
        else:
            current[1].append(row)
    return sections


def cell(text):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    return float(text)


def compare_rows(label, header, rows, expected):
    """CLI rows vs library values, column by column, bit for bit."""
    causes = []
    if len(rows) != len(expected):
        return [f"{label}: CLI gave {len(rows)} rows, library {len(expected)}"]
    for i, (row, want) in enumerate(zip(rows, expected)):
        for name, text, value in zip(header, row, want):
            got = text if isinstance(value, str) else cell(text)
            causes += same(f"{label} row {i} {name}", got, value)
    return causes


# ---------------------------------------------------------------------------
# shared checks


def check_smooth_scattering(spec, k):
    def check(sd):
        r_ref, t_ref = ref.spec_scattering(spec, k)
        causes = near("r vs staircase", sd.r, r_ref, STAIRCASE_TOL)
        causes += near("t vs staircase", sd.t, t_ref, STAIRCASE_TOL)
        if k.imag == 0:
            causes += below("unitarity defect", sd.unitarity_defect(), UNITARITY_TOL)
        causes += below("wronskian gap", sd.wronskian_gap, GAP_ODE_TOL)
        return causes

    return check


def check_window(spec, eps, k):
    """Windowed squeezed scattering = scattering of V cut to |x| <= xi at eps*k."""

    def check(result):
        xi, sd = result
        if spec["kind"] == "exp_decay":
            p = spec["params"]
            rho = ref.exp_rho(p["rate"], spec["coupling"] * p["amplitude"], xi)
            causes = near("rho(xi_eps) * eps", rho * eps, 1.0, RHO_TOL)
        else:
            causes = near("xi_eps / closed form", xi / ref.compact_splitting_scale(eps), 1.0, XI_TOL)
        r_ref, t_ref = ref.spec_scattering(spec, eps * k, half_width=xi)
        causes += near("r vs dilated staircase", sd.r, r_ref, STAIRCASE_TOL)
        causes += near("t vs dilated staircase", sd.t, t_ref, STAIRCASE_TOL)
        causes += below("window wronskian mismatch", sd.wronskian_gap, GAP_ODE_TOL)
        return causes

    return check


def window_scattering(p, eps, k):
    op = jost1d.truncated_operator(p, eps, k)
    return op.xi_eps, op.scattering()


# ---------------------------------------------------------------------------
# smooth_scatter


def smooth_scatter_inputs(rng, inputs):
    # The DOP853 cost of a call depends on the node count of a table, on
    # the sign and size of V and on |k|.  Each slot of the task list keeps
    # its cost class from pass to pass (the node counts of the two random
    # tables add up to 102, each shape has a fixed sign and its own |k|
    # band), so the spread between runs measures the program rather than
    # which inputs a seed happened to draw.
    nodes = int(rng.integers(29, 34))
    inputs.add("bump81", bump_table_spec())
    inputs.add("table_a", random_table_spec(rng, nodes, 1.0))
    inputs.add("table_b", random_table_spec(rng, 102 - nodes, -1.0))
    for name, sign in (("exp_1", 1.0), ("exp_2", -1.0), ("exp_3", 1.0)):
        inputs.add(name, random_exp_spec(rng, sign))
    inputs.values.update(
        k_bump=random_k(rng, (0.5, 3.0)),
        k_a=random_k(rng, (1.4, 1.6), (0.1, 0.3)),
        k_b=random_k(rng, (1.4, 1.6)),
        k_1=random_k(rng, (0.45, 0.55)),
        k_2=random_k(rng, (1.4, 1.6)),
        k_3=random_k(rng, (2.8, 3.2), (0.05, 0.15)),
        k_window=random_k(rng, (0.9, 1.1)),
        k_window_table=random_k(rng, (0.9, 1.1), (0.0, 0.3)),
    )


def smooth_scatter_tasks(inputs, results):
    pots, specs, v = inputs.load(), inputs.specs, inputs.values
    for name, k in (("bump81", v["k_bump"]), ("table_a", v["k_a"]), ("table_b", v["k_b"]),
                    ("exp_1", v["k_1"]), ("exp_2", v["k_2"]), ("exp_3", v["k_3"])):
        yield Op(f"scattering[{name}, k={k:.4g}]", "scattering",
                 lambda p=pots[name], k=k: jost1d.scattering(p, k),
                 check_smooth_scattering(specs[name], k))
    for eps in EPS_LADDER:
        k = v["k_window"]
        yield Op(f"window[exp_1, eps={eps:g}, k={k:.4g}]", "window",
                 lambda eps=eps, k=k: window_scattering(pots["exp_1"], eps, k),
                 check_window(specs["exp_1"], eps, k))
    k = v["k_window_table"]
    yield Op(f"window[table_a, eps=0.1, k={k:.4g}]", "window",
             lambda: window_scattering(pots["table_a"], 0.1, k),
             check_window(specs["table_a"], 0.1, k))

    library_key = f"scattering[exp_2, k={v['k_2']:.4g}]"

    def check_cli(text):
        if library_key not in results:
            return ["library result for the same input is missing"]
        sd = results[library_key]
        (header, rows), = csv_sections(text)
        want = [v["k_2"].real, v["k_2"].imag, sd.a.real, sd.a.imag, sd.b.real, sd.b.imag,
                sd.r.real, sd.r.imag, sd.t.real, sd.t.imag, sd.unitarity_defect()]
        return compare_rows("scatter", header, rows, [want])

    yield Op("cli scatter[exp_2]", "cli.scatter",
             lambda: run_cli(["scatter", "--potential", inputs.paths["exp_2"],
                              "--k", k_arg(v["k_2"])]),
             check_cli)


# ---------------------------------------------------------------------------
# piecewise_limit


def piecewise_limit_inputs(rng, inputs):
    inputs.add("barrier", square_spec(-1.0, 1.0, 1.0))
    inputs.add("well_minus", square_spec(-1.0, 1.0, -((math.pi / 2.0) ** 2)))
    inputs.add("well_plus", square_spec(-1.0, 1.0, -(math.pi**2)))
    for name in ("layers_a", "layers_b", "layers_c"):
        n = int(rng.integers(2, 9))
        inputs.add(name, piecewise_spec(random_layers(rng, n, rng.uniform(0.5, 1.0), (0.5, 4.0))))
    for name in inputs.specs:
        inputs.values[name] = random_k(rng, (0.5, 1.5), (0.5, 1.5))


def expected_limit(name, spec):
    """(r, t) of the limit operator, from closed-form zero-energy data."""
    if name == "well_minus":
        return ref.interface_limit(-1.0)
    if name == "well_plus":
        return ref.interface_limit(1.0)
    segs = ref.tile(ref.spec_segments(spec))
    d0, theta = ref.zero_energy(segs, 1.0)
    if abs(d0[0]) < 1e-8 * (1.0 + ref.piecewise_fm_norm(segs)):
        return ref.interface_limit(float(theta[0]))
    return -1.0, 0.0


def check_table(name, spec, k):
    def check(rows):
        if [row.eps for row in rows] != sorted(EPS_LADDER, reverse=True):
            return [f"rows at eps {[row.eps for row in rows]}"]
        r_lim, t_lim = expected_limit(name, spec)
        causes = []
        for row in rows:
            xi = ref.compact_splitting_scale(row.eps)
            r_ref, t_ref = ref.spec_scattering(spec, row.eps * k, half_width=xi)
            tol = LAYER_TOL * max(1.0, abs(r_ref), abs(t_ref))
            causes += near(f"eps={row.eps:g} r vs layer matching", row.r_eps, r_ref, tol)
            causes += near(f"eps={row.eps:g} t vs layer matching", row.t_eps, t_ref, tol)
            causes += near(f"eps={row.eps:g} limit r", row.limit_r, r_lim, THETA_EXACT_TOL)
            causes += near(f"eps={row.eps:g} limit t", row.limit_t, t_lim, THETA_EXACT_TOL)
        dists = [row.kernel_distance for row in rows]
        if not all(lo < hi for lo, hi in zip(dists[1:], dists[:-1])):
            causes.append(f"criterion 08: kernel distances not strictly decreasing {dists}")
        causes += below("criterion 08: final kernel distance", dists[-1], KERNEL_FINAL_MAX)
        return causes

    return check


def piecewise_limit_tasks(inputs, results):
    pots, specs, v = inputs.load(), inputs.specs, inputs.values
    for name in specs:
        yield Op(f"convergence_table[{name}, k={v[name]:.4g}]", "convergence_table",
                 lambda p=pots[name], k=v[name]: jost1d.convergence_table(p, k, EPS_LADDER),
                 check_table(name, specs[name], v[name]))

    k = v["layers_a"]
    library_key = f"convergence_table[layers_a, k={k:.4g}]"

    def check_cli(text):
        if library_key not in results:
            return ["library result for the same input is missing"]
        (header, rows), = csv_sections(text)
        label = "dirichlet" if results[library_key][0].limit_t == 0 else "interface"
        want = [[r.eps, r.r_eps.real, r.r_eps.imag, r.t_eps.real, r.t_eps.imag,
                 r.kernel_distance, r.limit_r.real, r.limit_t.real, label]
                for r in results[library_key]]
        return compare_rows("converge", header, rows, want)

    yield Op("cli converge[layers_a]", "cli.converge",
             lambda: run_cli(["converge", "--potential", inputs.paths["layers_a"], "--k", k_arg(k),
                              "--eps", ",".join(repr(e) for e in EPS_LADDER)]),
             check_cli)


# ---------------------------------------------------------------------------
# coupling_sweep


def sweep_layers(rng, n_layers):
    """Random well layers with int sqrt(-V) dx scaled into [2.1, 2.3].

    Such a well has three resonant couplings in (0, 25] in all but a few
    draws in a thousand (four in the rest), so the bisection work of a
    sweep and the number of reports that follow it hardly depend on the
    draw.

    x = 0 is a layer edge.  fm_norm integrates (1 + |x|) |V| panel by
    panel between layer edges, and a layer straddling the kink of |x| at
    0 makes it raise QuadratureError (error estimate 1.3e-10-2.5e-10
    against 1e-10) for about one in seven 6-layer wells at the third
    root; resonance_report and d_dot_zero call fm_norm at every root.
    """
    segs = random_layers(rng, n_layers, rng.uniform(0.8, 1.2), (-1.8, -0.2), edge_at_zero=True)
    depth = sum((hi - lo) * math.sqrt(-h) for lo, hi, h in segs)
    scale = (rng.uniform(2.1, 2.3) / depth) ** 2
    return [(lo, hi, h * scale) for lo, hi, h in segs]


SWEEP_LAYER_CYCLE = (6, 14)


def coupling_sweep_inputs(rng, inputs):
    # The layer counts of the two random potentials add up to 36 and
    # alternate between SWEEP_LAYER_CYCLE and its complement from pass to
    # pass; a run ends on a whole cycle (see PASS_CYCLE), so every run
    # sees the same mix of sweep sizes whatever the seed or the speed.
    # Counts drawn afresh for each pass would not do: the median call is
    # a report on the smaller potential, so it would follow the few
    # counts a run happened to draw.
    n_layers = SWEEP_LAYER_CYCLE[inputs.index % len(SWEEP_LAYER_CYCLE)]
    inputs.add("square", square_spec(-1.0, 1.0, -1.0))
    inputs.add("layers_a", piecewise_spec(sweep_layers(rng, n_layers)))
    inputs.add("layers_b", piecewise_spec(sweep_layers(rng, 36 - n_layers)))
    inputs.add("readme_exp", exp_spec(1.0, 1.0, README_EXP_COUPLING))
    inputs.add("well_minus", square_spec(-1.0, 1.0, -((math.pi / 2.0) ** 2)))
    inputs.add("well_plus", square_spec(-1.0, 1.0, -(math.pi**2)))


def check_sweep(spec):
    segs = ref.tile(ref.spec_segments(spec))

    def check(sweep):
        d0_ref, _ = ref.zero_energy(segs, sweep.alphas)
        causes = []
        gap = np.abs(sweep.d0_values - d0_ref)
        worst = int(np.argmax(gap - D0_TOL * np.maximum(np.abs(d0_ref), 1e-2)))
        causes += near(f"d0 at alpha={sweep.alphas[worst]:.6g}", sweep.d0_values[worst],
                       d0_ref[worst], D0_TOL * max(abs(d0_ref[worst]), 1e-2))
        flips = int(np.sum(d0_ref[:-1] * d0_ref[1:] < 0.0))
        if len(sweep.roots) != flips:
            causes.append(f"{len(sweep.roots)} roots, reference d0 changes sign {flips} times")
        for root in sweep.roots:
            h = 1e-6 * max(1.0, root.alpha)
            d_at, d_lo, d_hi = ref.zero_energy(segs, [root.alpha, root.alpha - h, root.alpha + h])[0]
            offset = abs(d_at) / max(abs(d_hi - d_lo) / (2.0 * h), 1e-300)
            causes += below(f"root {root.alpha:.8g} distance to reference root", offset, ROOT_TOL)
        if spec["kind"] == "square":
            want = [a for a, _ in ref.square_roots(2.0, SWEEP_RANGE[1])]
            if len(want) == len(sweep.roots):
                for root, a in zip(sweep.roots, want):
                    causes += near("root vs (n pi/2)^2", root.alpha, a, ROOT_TOL)
        return causes

    return check


def exact_root(spec, alpha):
    """The resonant coupling next to alpha, to machine precision, or None.

    The closed form (n pi / width)^2 for a square well; otherwise the
    reference zero-energy Wronskian bisected from a bracket around alpha.
    """
    if spec["kind"] == "square":
        (lo, hi, h), = ref.spec_segments(spec)
        roots = [a / -h for a, _ in ref.square_roots(hi - lo, SWEEP_RANGE[1] * -h)]
        return min(roots, key=lambda a: abs(a - alpha)) if roots else None
    segs = ref.tile(ref.spec_segments(spec))
    h = 1e-6 * max(1.0, alpha)
    return ref.bisect_root(lambda a: float(ref.zero_energy(segs, a)[0][0]), alpha - h, alpha + h)


def theta_reference(spec, alpha):
    return float(ref.zero_energy(ref.tile(ref.spec_segments(spec)), alpha)[1][0])


def check_report_at_root(spec, alpha):
    def check(rep):
        if not rep.is_resonant:
            return [f"not resonant at root alpha={alpha:.10g}: |d0| {abs(rep.d0):.3g} "
                    f">= threshold {rep.threshold:.3g}"]
        theta = theta_reference(spec, alpha)
        return near("theta vs zero-energy reference", rep.theta, theta,
                    THETA_TOL * max(1.0, abs(theta)))

    return check


def check_ddot(theta, tol):
    want = -1j * (theta + 1.0 / theta)
    return lambda dd: near("D'(0) vs -i(theta + 1/theta)", dd.value, want, tol)


def check_readme_exp(spec):
    alpha = -spec["coupling"] * spec["params"]["amplitude"]

    def check(rep):
        d0 = ref.exp_well_d0(alpha)
        threshold = 1e-8 * (1.0 + ref.exp_fm_norm(spec["params"]["rate"], alpha))
        causes = near("d0 vs Bessel closed form", rep.d0, d0, EXP_D0_TOL)
        causes += near("threshold / closed form", rep.threshold / threshold, 1.0, 1e-9)
        if rep.is_resonant != (abs(d0) < threshold):
            causes.append(f"classified resonant={rep.is_resonant}, closed form |d0| {abs(d0):.3g} "
                          f"vs threshold {threshold:.3g}")
        if not rep.extrapolated:
            causes.append("infinite support but the report is not marked extrapolated")
        return causes

    return check


def coupling_sweep_tasks(inputs, results):
    pots, specs = inputs.load(), inputs.specs
    for name in ("square", "layers_a", "layers_b"):
        key = f"resonant_couplings[{name}]"
        yield Op(key, "resonant_couplings",
                 lambda p=pots[name]: jost1d.resonant_couplings(p, *SWEEP_RANGE),
                 check_sweep(specs[name]))
        if key not in results:
            continue
        for root in results[key].roots:
            # d_dot_zero requires W(0) = 0, but a sweep root leaves |W(0)| up to
            # root_tol = 1e-8, which its finite difference divides by delta down
            # to 1e-6.  So the report and D'(0) are taken at the root polished
            # by the reference; check_sweep checks the sweep's own root.
            alpha = exact_root(specs[name], root.alpha)
            if alpha is None:
                continue  # no reference sign change near the root: check_sweep reports it
            p_root = pots[name].with_coupling(pots[name].coupling * alpha)
            rep_key = f"resonance_report[{name}, alpha={alpha:.15g}]"
            yield Op(rep_key, "resonance_report",
                     lambda p=p_root: jost1d.resonance_report(p),
                     check_report_at_root(specs[name], alpha))
            if rep_key in results and results[rep_key].is_resonant:
                theta = theta_reference(specs[name], alpha)
                yield Op(f"d_dot_zero[{name}, alpha={alpha:.15g}]", "d_dot_zero",
                         lambda p=p_root, rep=results[rep_key]: jost1d.d_dot_zero(p, report=rep),
                         check_ddot(theta, DDOT_TOL))

    yield Op("resonance_report[readme_exp]", "resonance_report",
             lambda: jost1d.resonance_report(pots["readme_exp"]),
             check_readme_exp(specs["readme_exp"]))

    sweep_key = "resonant_couplings[square]"

    def check_cli_sweep(text):
        if sweep_key not in results:
            return ["library result for the same input is missing"]
        sweep = results[sweep_key]
        sections = csv_sections(text)
        if len(sections) != 2:
            return [f"CLI printed {len(sections)} sections, expected 2"]
        (h1, r1), (h2, r2) = sections
        causes = compare_rows("sweep", h1, r1, list(zip(sweep.alphas, sweep.d0_values)))
        causes += compare_rows("roots", h2, r2, [[r.alpha, *r.bracket, r.residual]
                                                  for r in sweep.roots])
        return causes

    yield Op("cli resonance sweep[square]", "cli.sweep",
             lambda: run_cli(["resonance", "sweep", "--potential", inputs.paths["square"],
                              "--alpha-min", repr(SWEEP_RANGE[0]),
                              "--alpha-max", repr(SWEEP_RANGE[1])]),
             check_cli_sweep)

    for name, theta in (("well_minus", -1.0), ("well_plus", 1.0)):
        rep_key = f"resonance_report[{name}]"
        dd_key = f"d_dot_zero[{name}]"

        def check_exact(rep, theta=theta):
            if not rep.is_resonant:
                return [f"theta = {theta:+g} well not classified resonant"]
            return near("theta vs closed form", rep.theta, theta, THETA_EXACT_TOL)

        yield Op(rep_key, "resonance_report", lambda p=pots[name]: jost1d.resonance_report(p),
                 check_exact)
        if rep_key not in results or not results[rep_key].is_resonant:
            continue
        yield Op(dd_key, "d_dot_zero",
                 lambda p=pots[name], rep=results[rep_key]: jost1d.d_dot_zero(p, report=rep),
                 check_ddot(theta, DDOT_EXACT_TOL))

        def check_cli_theta(text, rep_key=rep_key, dd_key=dd_key):
            if dd_key not in results:
                return ["library result for the same input is missing"]
            rep, dd = results[rep_key], results[dd_key]
            (header, rows), = csv_sections(text)
            want = [rep.d0, rep.threshold, rep.is_resonant, rep.theta, rep.theta_far_field,
                    dd.value.real, dd.value.imag, dd.ray_gap, dd.theta_formula_gap,
                    rep.extrapolated]
            return compare_rows("theta", header, rows, [want])

        yield Op(f"cli resonance theta[{name}]", "cli.theta",
                 lambda name=name: run_cli(["resonance", "theta", "--potential",
                                            inputs.paths[name]]),
                 check_cli_theta)


# a run ends only after a whole number of these passes
PASS_CYCLE = {"coupling_sweep": len(SWEEP_LAYER_CYCLE)}

WORKLOADS = {
    "smooth_scatter": (smooth_scatter_inputs, smooth_scatter_tasks),
    "piecewise_limit": (piecewise_limit_inputs, piecewise_limit_tasks),
    "coupling_sweep": (coupling_sweep_inputs, coupling_sweep_tasks),
}
