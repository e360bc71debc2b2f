"""Command line interface.

Reads a potential description from a JSON file and drives the library:
`scatter` for reflection/transmission tables, `resonance sweep` and
`resonance theta` for zero-energy structure, `converge` for the
squeezed-family convergence table.  Output is CSV (default) or JSON;
complex quantities are split into _re/_im columns.  Floats are printed
with shortest round-trip precision, so re-parsing a table reproduces
the values bit-exactly.

Exit codes: 0 on success, 2 for a bad description or bad arguments,
3 when a computation fails numerically.
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

_FORMATS = click.Choice(["csv", "json"])


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SpecError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except NumericsError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(3)

    return wrapper


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


def _write_csv(sections, stream):
    writer = csv.writer(stream, lineterminator="\n")
    first = True
    for header, rows in sections:
        if not first:
            writer.writerow([])
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
        first = False


def _emit(sections, json_payload, fmt, out):
    with nullcontext(sys.stdout) if out is None else open(out, "w", newline="") as stream:
        if fmt == "json":
            json.dump(json_payload, stream, indent=2)
            stream.write("\n")
        else:
            _write_csv(sections, stream)


@click.group()
def main():
    """Scattering, resonance, and squeezing-limit computations for 1d potentials."""


@main.command()
@click.option("--potential", "potential_path", required=True, type=click.Path(), help="JSON potential description.")
@click.option("--k", "k_values", multiple=True, help="Wavenumber RE or RE,IM; repeatable.")
@click.option("--k-list", "k_list", default=None, help="Semicolon-separated wavenumbers.")
@click.option("--tol", default=1e-10, show_default=True, help="Tail / integration tolerance.")
@click.option("--format", "fmt", type=_FORMATS, default="csv", show_default=True)
@click.option("--out", default=None, type=click.Path(), help="Write to a file instead of stdout.")
@_guarded
def scatter(potential_path, k_values, k_list, tol, fmt, out):
    """Reflection and transmission coefficients at one or more wavenumbers."""
    p = load_potential(potential_path)
    texts = list(k_values)
    if k_list:
        texts.extend(tok for tok in k_list.split(";") if tok.strip())
    if not texts:
        raise SpecError("no wavenumbers given; use --k or --k-list")
    ks = [_parse_complex(t) for t in texts]
    header = ["k_re", "k_im", "a_re", "a_im", "b_re", "b_im",
              "r_re", "r_im", "t_re", "t_im", "unitarity_defect"]
    rows = []
    payload = []
    for k in ks:
        sd = scattering(p, k, tol)
        rows.append([k.real, k.imag, sd.a.real, sd.a.imag, sd.b.real, sd.b.imag,
                     sd.r.real, sd.r.imag, sd.t.real, sd.t.imag, sd.unitarity_defect()])
        payload.append(dict(zip(header, (float(v) for v in rows[-1]))))
    _emit([(header, rows)], payload, fmt, out)


@main.group()
def resonance():
    """Zero-energy resonance tools."""


@resonance.command()
@click.option("--potential", "potential_path", required=True, type=click.Path())
@click.option("--alpha-min", required=True, type=float)
@click.option("--alpha-max", required=True, type=float)
@click.option("--grid", "grid_n", default=201, show_default=True, type=int)
@click.option("--root-tol", default=1e-8, show_default=True, type=float)
@click.option("--format", "fmt", type=_FORMATS, default="csv", show_default=True)
@click.option("--out", default=None, type=click.Path())
@_guarded
def sweep(potential_path, alpha_min, alpha_max, grid_n, root_tol, fmt, out):
    """Sweep the coupling and locate zero-energy resonances."""
    base = load_potential(potential_path)
    result = resonant_couplings(base, alpha_min, alpha_max, grid_n, root_tol)
    sweep_rows = [[a, d] for a, d in zip(result.alphas, result.d0_values)]
    root_rows = [[r.alpha, r.bracket[0], r.bracket[1], r.residual] for r in result.roots]
    sections = [
        (["alpha", "d0"], sweep_rows),
        (["root_alpha", "bracket_lo", "bracket_hi", "residual"], root_rows),
    ]
    if result.trivial_root is not None:
        sections.append((["trivial_root"], [[result.trivial_root]]))
    payload = {
        "sweep": [{"alpha": float(a), "d0": float(d)} for a, d in sweep_rows],
        "roots": [
            {"alpha": r.alpha, "bracket_lo": r.bracket[0],
             "bracket_hi": r.bracket[1], "residual": r.residual}
            for r in result.roots
        ],
        "trivial_root": result.trivial_root,
    }
    _emit(sections, payload, fmt, out)


@resonance.command()
@click.option("--potential", "potential_path", required=True, type=click.Path())
@click.option("--threshold", default=None, type=float, help="Resonance threshold on |d0|.")
@click.option("--format", "fmt", type=_FORMATS, default="csv", show_default=True)
@click.option("--out", default=None, type=click.Path())
@_guarded
def theta(potential_path, threshold, fmt, out):
    """Report d0, the far-field ratio, and the zero-energy derivative."""
    p = load_potential(potential_path)
    report = resonance_report(p, threshold=threshold)
    header = ["d0", "threshold", "is_resonant", "theta", "theta_far_field",
              "ddot0_re", "ddot0_im", "ray_gap", "theta_formula_gap", "extrapolated"]
    if report.is_resonant:
        dd = d_dot_zero(p, report=report)
        row = [report.d0, report.threshold, report.is_resonant, report.theta,
               report.theta_far_field, dd.value.real, dd.value.imag,
               dd.ray_gap, dd.theta_formula_gap, report.extrapolated]
    else:
        row = [report.d0, report.threshold, report.is_resonant, None, None,
               None, None, None, None, report.extrapolated]
    payload = {
        name: (bool(v) if isinstance(v, bool) else (None if v is None else float(v)))
        for name, v in zip(header, row)
    }
    _emit([(header, [row])], payload, fmt, out)


@main.command()
@click.option("--potential", "potential_path", required=True, type=click.Path())
@click.option("--k", "k_text", required=True, help="Wavenumber RE or RE,IM.")
@click.option("--eps", "eps_text", required=True, help="Comma-separated eps values.")
@click.option("--box", default=10.0, show_default=True, type=float)
@click.option("--n", "n_points", default=200, show_default=True, type=int)
@click.option("--tol", default=1e-10, show_default=True, type=float)
@click.option("--format", "fmt", type=_FORMATS, default="csv", show_default=True)
@click.option("--out", default=None, type=click.Path())
@_guarded
def converge(potential_path, k_text, eps_text, box, n_points, tol, fmt, out):
    """Convergence of the windowed squeezed family toward its limit operator."""
    p = load_potential(potential_path)
    k = _parse_complex(k_text)
    eps = _parse_eps_list(eps_text)
    records = convergence_table(p, k, eps, box=box, n=n_points, tol=tol)
    # the Dirichlet-decoupled limit is the only one that transmits nothing
    label = "dirichlet" if records[0].limit_t == 0 else "interface"
    header = ["eps", "r_re", "r_im", "t_re", "t_im", "kernel_distance",
              "limit_r", "limit_t", "classification"]
    rows = [
        [rec.eps, rec.r_eps.real, rec.r_eps.imag, rec.t_eps.real, rec.t_eps.imag,
         rec.kernel_distance, rec.limit_r.real, rec.limit_t.real, label]
        for rec in records
    ]
    payload = [
        {**{name: float(v) for name, v in zip(header[:-1], row[:-1])}, "classification": label}
        for row in rows
    ]
    _emit([(header, rows)], payload, fmt, out)


if __name__ == "__main__":
    main()
