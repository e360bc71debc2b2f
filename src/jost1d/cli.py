"""Command line interface.

Reads a potential description from a JSON file and drives the library:
`scatter` for reflection/transmission tables, `resonance sweep` and
`resonance theta` for zero-energy structure, `converge` for the
squeezed-family convergence table.  Output is CSV (default) or JSON;
complex quantities are split into _re/_im columns.  Floats are printed
with shortest round-trip precision, so re-parsing a table reproduces
the values bit-exactly.

Every command is one _table_command wrapper around a body that only
computes: the wrapper declares the shared --potential, --format and
--out options, loads the potential, writes the tables the body returns,
and decides the exit codes: 0 on success, 2 for a bad description, bad
arguments or an unwritable --out, 3 when a computation fails numerically.
"""

from __future__ import annotations

import csv
import functools
import json
import sys
from contextlib import nullcontext

import click

from .errors import NumericsError, SpecError
from .jost import scattering
from .limits import convergence_table
from .potential import load_potential
from .resonance import d_dot_zero, resonance_report, resonant_couplings


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise SpecError(f"cannot parse wavenumber {text!r}; expected RE or RE,IM")


def _parse_eps_list(text: str) -> list[float]:
    # convergence_table checks the values: nonempty and positive
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise SpecError(f"cannot parse eps list {text!r}") from None


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    return repr(float(value))


def _records(header, rows):
    """The JSON objects of typed rows: numbers as floats; None, bools and text as they are."""
    return [{name: v if v is None or isinstance(v, (bool, str)) else float(v)
             for name, v in zip(header, row)} for row in rows]


def _write(sections, payload, fmt, out):
    try:
        target = nullcontext(sys.stdout) if out is None else open(out, "w", newline="")
    except OSError as exc:
        raise SpecError(f"cannot write output file: {exc}") from None
    with target as stream:
        if fmt == "json":
            json.dump(payload(), stream, indent=2)
            stream.write("\n")
            return
        writer = csv.writer(stream, lineterminator="\n")
        for i, (header, rows) in enumerate(sections):
            if i:
                writer.writerow([])
            writer.writerow(header)
            writer.writerows([_cell(v) for v in row] for row in rows)


def _table_command(group):
    """Register a body on group as a command that writes the tables the body computes.

    The body takes the loaded --potential and its own options and returns
    (sections, payload): the CSV sections as (header, rows) and a function
    of no arguments that builds the JSON payload, called for --format json
    only.  Its options are listed between --potential and the shared
    --format and --out.
    """

    def register(body):
        # the name and help of body, but not its options: params lists them
        @functools.wraps(body, updated=())
        def command(potential_path, fmt, out, **options):
            try:
                _write(*body(load_potential(potential_path), **options), fmt, out)
            except SpecError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(2)
            except NumericsError as exc:
                click.echo(f"numerical failure: {exc}", err=True)
                sys.exit(3)

        params = [
            click.Option(["--potential", "potential_path"], required=True, type=click.Path(),
                         help="JSON potential description."),
            *reversed(body.__click_params__),  # click.option stacks them last first
            click.Option(["--format", "fmt"], type=click.Choice(["csv", "json"]), default="csv",
                         show_default=True),
            click.Option(["--out"], default=None, type=click.Path(),
                         help="Write to a file instead of stdout."),
        ]
        return group.command(params=params)(command)

    return register


@click.group()
def main():
    """Scattering, resonance, and squeezing-limit computations for 1d potentials."""


@_table_command(main)
@click.option("--k", "k_values", multiple=True, help="Wavenumber RE or RE,IM; repeatable.")
@click.option("--k-list", "k_list", default=None, help="Semicolon-separated wavenumbers.")
@click.option("--tol", default=1e-10, show_default=True, help="Tail / integration tolerance.")
def scatter(p, k_values, k_list, tol):
    """Reflection and transmission coefficients at one or more wavenumbers."""
    texts = list(k_values)
    if k_list:
        texts.extend(tok for tok in k_list.split(";") if tok.strip())
    if not texts:
        raise SpecError("no wavenumbers given; use --k or --k-list")
    ks = [_parse_complex(t) for t in texts]
    header = ["k_re", "k_im", "a_re", "a_im", "b_re", "b_im",
              "r_re", "r_im", "t_re", "t_im", "unitarity_defect"]
    rows = []
    for k in ks:
        sd = scattering(p, k, tol)
        rows.append([k.real, k.imag, sd.a.real, sd.a.imag, sd.b.real, sd.b.imag,
                     sd.r.real, sd.r.imag, sd.t.real, sd.t.imag, sd.unitarity_defect()])
    return [(header, rows)], lambda: _records(header, rows)


@main.group()
def resonance():
    """Zero-energy resonance tools."""


@_table_command(resonance)
@click.option("--alpha-min", required=True, type=float)
@click.option("--alpha-max", required=True, type=float)
@click.option("--grid", "grid_n", default=201, show_default=True, type=int)
@click.option("--root-tol", default=1e-8, show_default=True, type=float)
def sweep(base, alpha_min, alpha_max, grid_n, root_tol):
    """Sweep the coupling and locate zero-energy resonances."""
    result = resonant_couplings(base, alpha_min, alpha_max, grid_n, root_tol)
    sweep_rows = [[a, d] for a, d in zip(result.alphas, result.d0_values)]
    root_rows = [[r.alpha, r.bracket[0], r.bracket[1], r.residual] for r in result.roots]
    root_names = ["alpha", "bracket_lo", "bracket_hi", "residual"]
    sections = [(["alpha", "d0"], sweep_rows), (["root_alpha", *root_names[1:]], root_rows)]
    if result.trivial_root is not None:
        sections.append((["trivial_root"], [[result.trivial_root]]))
    return sections, lambda: {"sweep": _records(["alpha", "d0"], sweep_rows),
                               "roots": _records(root_names, root_rows),
                               "trivial_root": result.trivial_root}


@_table_command(resonance)
@click.option("--threshold", default=None, type=float, help="Resonance threshold on |d0|.")
def theta(p, threshold):
    """Report d0, the far-field ratio, and the zero-energy derivative."""
    report = resonance_report(p, threshold=threshold)
    dd = d_dot_zero(p, report=report) if report.is_resonant else None
    header = ["d0", "threshold", "is_resonant", "theta", "theta_far_field",
              "ddot0_re", "ddot0_im", "ray_gap", "theta_formula_gap", "extrapolated"]
    ddot = (None,) * 4 if dd is None else (dd.value.real, dd.value.imag, dd.ray_gap,
                                           dd.theta_formula_gap)
    row = [report.d0, report.threshold, report.is_resonant, report.theta,
           report.theta_far_field, *ddot, report.extrapolated]
    return [(header, [row])], lambda: _records(header, [row])[0]


@_table_command(main)
@click.option("--k", "k_text", required=True, help="Wavenumber RE or RE,IM.")
@click.option("--eps", "eps_text", required=True, help="Comma-separated eps values.")
@click.option("--box", default=10.0, show_default=True, type=float)
@click.option("--n", "n_points", default=200, show_default=True, type=int)
@click.option("--tol", default=1e-10, show_default=True, type=float)
def converge(p, k_text, eps_text, box, n_points, tol):
    """Convergence of the windowed squeezed family toward its limit operator."""
    records = convergence_table(p, _parse_complex(k_text), _parse_eps_list(eps_text),
                                box=box, n=n_points, tol=tol)
    # the Dirichlet-decoupled limit is the only one that transmits nothing
    label = "dirichlet" if records[0].limit_t == 0 else "interface"
    header = ["eps", "r_re", "r_im", "t_re", "t_im", "kernel_distance",
              "limit_r", "limit_t", "classification"]
    rows = [
        [rec.eps, rec.r_eps.real, rec.r_eps.imag, rec.t_eps.real, rec.t_eps.imag,
         rec.kernel_distance, rec.limit_r.real, rec.limit_t.real, label]
        for rec in records
    ]
    return [(header, rows)], lambda: _records(header, rows)


if __name__ == "__main__":
    main()
