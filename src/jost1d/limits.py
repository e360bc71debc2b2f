"""Limit operators of the squeezed family and convergence diagnostics.

As eps -> 0 the windowed squeezed operator converges in norm-resolvent
sense to one of two self-adjoint operators on the line with a point
perturbation at the origin:

* no zero-energy resonance: the two half lines decouple, with a
  Dirichlet condition on each side of the origin;
* a resonance with far-field ratio theta: the interface conditions
  y(0+) = theta y(0-), theta y'(0+) = y'(0-).

Both have closed-form resolvent kernels built from plane waves, given
here together with a sampled Hilbert-Schmidt distance between kernels
and a per-eps convergence table.  theta = 1 reproduces the free line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .jost import ScatteringData, check_wavenumber
from .potential import Potential
from .resonance import resonance_report
from .scaled import truncated_operator

__all__ = [
    "LimitOperator",
    "ConvergenceRecord",
    "dirichlet_decoupled",
    "interface",
    "classify_limit",
    "limit_scattering",
    "green_kernel_fn",
    "kernel_distance",
    "convergence_table",
]


@dataclass(frozen=True)
class LimitOperator:
    """Either the Dirichlet-decoupled pair or the interface coupling."""

    kind: str
    theta: float | None = None


def dirichlet_decoupled() -> LimitOperator:
    return LimitOperator("dirichlet")


def interface(theta: float) -> LimitOperator:
    theta = float(theta)
    if theta == 0.0 or not np.isfinite(theta):
        raise SpecError(f"interface ratio must be real, finite and nonzero, got {theta}")
    return LimitOperator("interface", theta)


def classify_limit(
    p: Potential, threshold: float | None = None, tol: float = 1e-10
) -> LimitOperator:
    """Map a potential to its small-eps limit operator."""
    report = resonance_report(p, threshold=threshold, tol=tol)
    if report.is_resonant:
        return interface(report.theta)
    return dirichlet_decoupled()


def limit_scattering(op: LimitOperator, k) -> ScatteringData:
    """Reflection and transmission of the limit operator.

    Independent of k: the limits are scale-invariant point interactions.
    The decoupled case reflects everything (r = -1, t = 0) and has no
    finite plane-wave coefficients a, b.
    """
    k = check_wavenumber(k, allow_zero=False)
    if op.kind == "dirichlet":
        return ScatteringData(k=k, a=None, b=None, r=-1.0 + 0.0j, t=0.0 + 0.0j)
    if op.kind == "interface":
        th = op.theta
        t = 2.0 * th / (1.0 + th * th)
        r = (1.0 - th * th) / (1.0 + th * th)
        return ScatteringData(k=k, a=1.0 / t, b=r / t, r=complex(r), t=complex(t))
    raise SpecError(f"unknown limit operator kind {op.kind!r}")


def green_kernel_fn(op: LimitOperator, k):
    """Vectorized (x, y) -> G(x, y; k) for a limit operator.

    Dirichlet-decoupled: the image-charge kernel on each half line,
    zero across the origin.  Interface(theta): built from the two
    plane-wave solutions that satisfy the interface conditions; their
    Wronskian is -ik(theta + 1/theta) on both sides.
    """
    k = check_wavenumber(k, allow_zero=False)
    if op.kind == "dirichlet":

        def kernel(x, y):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            same_side = np.sign(x) * np.sign(y) > 0
            direct = np.exp(1j * k * np.abs(x - y))
            image = np.exp(1j * k * (np.abs(x) + np.abs(y)))
            return np.where(same_side, (direct - image) / (-2j * k), 0.0)

        return kernel

    if op.kind == "interface":
        th = op.theta
        a_co = 0.5 * (th + 1.0 / th)
        b_co = 0.5 * (1.0 / th - th)
        d_co = 0.5 * (th - 1.0 / th)
        w = -1j * k * (th + 1.0 / th)

        def kernel(x, y):
            x = np.asarray(x, dtype=float)
            y = np.asarray(y, dtype=float)
            hi = np.maximum(x, y)
            lo = np.minimum(x, y)
            u_plus = np.where(
                hi >= 0,
                np.exp(1j * k * hi),
                a_co * np.exp(1j * k * hi) + b_co * np.exp(-1j * k * hi),
            )
            u_minus = np.where(
                lo <= 0,
                np.exp(-1j * k * lo),
                a_co * np.exp(-1j * k * lo) + d_co * np.exp(1j * k * lo),
            )
            return u_plus * u_minus / w

        return kernel

    raise SpecError(f"unknown limit operator kind {op.kind!r}")


def kernel_distance(kernel_a, kernel_b, box: float = 10.0, n: int = 200) -> float:
    """Sampled Hilbert-Schmidt distance between two kernels at the same k.

    Both arguments are vectorized (x, y) -> complex callables.  The sum
    runs over an n x n lattice on [-box, box]^2 and is normalized by
    box^2/n^2, a fixed surrogate for the continuum norm; it is meant for
    trend comparison, not certified error bounds.
    """
    if box <= 0 or n < 2:
        raise SpecError("kernel_distance needs box > 0 and n >= 2")
    xs = np.linspace(-box, box, n)
    xg, yg = np.meshgrid(xs, xs)
    diff = np.asarray(kernel_a(xg, yg)) - np.asarray(kernel_b(xg, yg))
    return float(np.sqrt(box * box / (n * n) * np.sum(np.abs(diff) ** 2)))


@dataclass(frozen=True)
class ConvergenceRecord:
    eps: float
    r_eps: complex
    t_eps: complex
    kernel_distance: float
    limit_r: complex
    limit_t: complex


def convergence_table(
    p: Potential,
    k,
    eps_list,
    box: float = 10.0,
    n: int = 200,
    tol: float = 1e-10,
    alpha_weight: float = 0.5,
    threshold: float | None = None,
) -> list[ConvergenceRecord]:
    """Scattering and kernel-distance trend of the windowed family.

    eps values are processed in decreasing order; each row carries the
    windowed operator's (r, t), its sampled Hilbert-Schmidt distance to
    the classified limit kernel, and the limit's (r, t) for reference.
    """
    k = check_wavenumber(k, allow_zero=False)
    eps_sorted = sorted({float(e) for e in np.atleast_1d(np.asarray(eps_list, dtype=float))},
                        reverse=True)
    if not eps_sorted:
        raise SpecError("eps_list is empty")
    if eps_sorted[-1] <= 0:
        raise SpecError("all eps values must be positive")
    op = classify_limit(p, threshold=threshold, tol=tol)
    ls = limit_scattering(op, k)
    limit_fn = green_kernel_fn(op, k)
    records = []
    for eps in eps_sorted:
        tso = truncated_operator(p, eps, k, tol, alpha_weight)
        sd = tso.scattering()
        dist = kernel_distance(tso.green, limit_fn, box, n)
        records.append(
            ConvergenceRecord(
                eps=eps, r_eps=sd.r, t_eps=sd.t,
                kernel_distance=dist, limit_r=ls.r, limit_t=ls.t,
            )
        )
    return records
