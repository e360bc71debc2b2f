"""The windowed squeezed operator, its limit operators, and their kernels.

For a potential V and small eps > 0 the operator of interest is

    -d^2/dx^2 + eps^-2 V(x/eps) restricted to the window |x| <= x_eps,

with the window half-width x_eps = eps * xi_eps chosen by the splitting
scale so that the window both shrinks to a point and, after unsqueezing,
swallows ever more of V.  That operator is -d^2/dx^2 plus the potential
scale(truncate(V, xi_eps), eps), so its Jost solutions f~_+- are that
potential's, and jost_evaluator builds them by dilation: f~_+ at (x, k)
is f_+ of V cut to |s| <= xi_eps at (x/eps, eps k), solved on the
unsqueezed axis at the small wavenumber eps k, and its error_bound is
that of the cut V (zero: the cut is compact).  Whether a = W/(-2ik)
blows up like 1/eps (generic case) or stays bounded (zero-energy
resonance) decides the limiting operator.

As eps -> 0 the windowed operator converges in norm-resolvent sense to
one of two self-adjoint operators on the line with a point perturbation
at the origin:

* no zero-energy resonance: the two half lines decouple, with a
  Dirichlet condition on each side of the origin;
* a resonance with far-field ratio theta: the interface conditions
  y(0+) = theta y(0-), theta y'(0+) = y'(0-).

theta = 1 reproduces the free line.

Every resolvent kernel here is one Kernel, u(max(x, y)) v(min(x, y)) / w
with w = W{u, v}: f~_+ and f~_- for the window, the two plane-wave
solutions glued by theta for the interface.  The Dirichlet kernel has
that form on each half line: u = e^{ikx}, v = sin kx on x > 0 and
u = -sin kx, v = e^{-ikx} on x < 0, each pair with W = k.  Across the
origin that product would couple the half lines, so its Kernel sets
split, which zeroes pairs on opposite sides of 0; at x = 0 the sines
vanish, so it is exactly 0 there, like the image-charge form.

kernel_distance samples the Hilbert-Schmidt distance of two kernels on
an n x n lattice, and the convergence table reports it per eps, filling
the same lattice through Kernel.lattice: the limit's once per table,
the window's from its two solutions at n points per eps, bit for bit
what Kernel.__call__ gives on the meshgrid.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .jost import ScatteringData, _jost_pair, _scattering_from, check_wavenumber
from .potential import Potential, scale, splitting_scale, truncate
from .resonance import resonance_report

__all__ = [
    "Kernel",
    "TruncatedScaledOperator",
    "truncated_operator",
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
class Kernel:
    """The resolvent kernel u(max(x, y)) v(min(x, y)) / w.

    u and v map an array of points to solution values; w is W{u, v}.
    With split the kernel is zero for x and y on opposite sides of 0.
    """

    u: Callable
    v: Callable
    w: complex
    split: bool = False

    def __call__(self, x, y):
        """G(x, y), vectorized over broadcast x and y."""
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        hi, lo = np.maximum(x, y), np.minimum(x, y)
        return self._join(self.u(hi), self.v(lo), hi, lo)[()]

    def lattice(self, xs):
        """G on the lattice xs x xs, laid out as np.meshgrid(xs, xs).

        xs increases, so max(xs[i], xs[j]) = xs[max(i, j)]: u and v are
        evaluated at the n abscissae and gathered by index.
        """
        xs = np.asarray(xs, dtype=float)
        i = np.arange(len(xs))
        hi, lo = np.maximum.outer(i, i), np.minimum.outer(i, i)
        return self._join(self.u(xs)[hi], self.v(xs)[lo], xs[hi], xs[lo])

    def _join(self, u, v, hi, lo):
        g = u * v / self.w
        return np.where((hi > 0) & (lo < 0), 0.0, g) if self.split else g


class TruncatedScaledOperator:
    """Jost solutions and resolvent kernel of the windowed squeezed operator.

    plus and minus are the Jost evaluators of the window potential
    scale(truncate(p, xi_eps), eps), built once: evaluating either
    solution or the kernel green afterwards is vectorized and cheap,
    which is what the Hilbert-Schmidt lattice sums need.  green.w is
    their Wronskian.
    """

    def __init__(self, p: Potential, eps, k, tol=1e-10, alpha_weight=0.5):
        k = check_wavenumber(k, allow_zero=False)
        ss = splitting_scale(p, eps, alpha_weight)
        self.eps, self.xi_eps, self.x_eps = ss.eps, ss.xi_eps, ss.x_eps
        plus, minus = self.plus, self.minus = _jost_pair(scale(truncate(p, ss.xi_eps), ss.eps),
                                                         k, tol)
        # W at the window's right edge, where both solutions are plane waves:
        # it is -2ik a of f_-, so the Wronskian gap checks reciprocity a_+ = a_-
        (f, fp), (g, gp) = plus.eval(self.x_eps), minus.eval(self.x_eps)
        # u and v close over the evaluators, not self: a cycle through self
        # would keep their arrays alive until the cyclic collector runs
        self.green = Kernel(lambda x: plus.eval(x)[0], lambda x: minus.eval(x)[0],
                            complex(f * gp - fp * g))
        self._scattering = _scattering_from(k, plus, self.green.w)

    def scattering(self) -> ScatteringData:
        return self._scattering


def truncated_operator(p, eps, k, tol=1e-10, alpha_weight=0.5):
    return TruncatedScaledOperator(p, eps, k, tol, alpha_weight)


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


def green_kernel_fn(op: LimitOperator, k) -> Kernel:
    """The resolvent kernel of a limit operator at k.

    Dirichlet-decoupled: on each half line the solution outgoing at
    infinity over the one vanishing at the origin, zero across it (see
    the module docstring).  Interface(theta): u is e^{ikx} for x >= 0
    and v is e^{-ikx} for x <= 0; across the origin each continues by
    the interface conditions, and W is -ik(theta + 1/theta).
    """
    k = check_wavenumber(k, allow_zero=False)
    if op.kind == "dirichlet":
        return Kernel(
            lambda x: np.where(x > 0, np.exp(1j * k * x), -np.sin(k * x)),
            lambda x: np.where(x >= 0, np.sin(k * x), np.exp(-1j * k * x)),
            k,
            split=True,
        )
    if op.kind == "interface":
        theta = op.theta
        a_co = 0.5 * (theta + 1.0 / theta)
        b_co = 0.5 * (1.0 / theta - theta)
        d_co = 0.5 * (theta - 1.0 / theta)
        return Kernel(
            lambda x: np.where(x >= 0, np.exp(1j * k * x),
                               a_co * np.exp(1j * k * x) + b_co * np.exp(-1j * k * x)),
            lambda x: np.where(x <= 0, np.exp(-1j * k * x),
                               a_co * np.exp(-1j * k * x) + d_co * np.exp(1j * k * x)),
            -1j * k * (theta + 1.0 / theta),
        )
    raise SpecError(f"unknown limit operator kind {op.kind!r}")


def kernel_distance(kernel_a, kernel_b, box: float = 10.0, n: int = 200) -> float:
    """Sampled Hilbert-Schmidt distance between two kernels at the same k.

    Both arguments are vectorized (x, y) -> complex callables.  The sum
    runs over an n x n lattice on [-box, box]^2 and is normalized by
    box^2/n^2, a fixed surrogate for the continuum norm; it is meant for
    trend comparison, not certified error bounds.  Both callables are
    evaluated at all n^2 lattice points; a Kernel is one.
    convergence_table sums the same lattice through Kernel.lattice, with
    bit-identical results.
    """
    xs = _abscissae(box, n)
    xg, yg = np.meshgrid(xs, xs)
    return _hs_distance(np.asarray(kernel_a(xg, yg)) - np.asarray(kernel_b(xg, yg)), box, n)


def _abscissae(box, n):
    """The n lattice abscissae on [-box, box], shared by both lattice axes."""
    if not 0 < box < np.inf or n < 2:
        raise SpecError("kernel_distance needs box > 0 and n >= 2")
    return np.linspace(-box, box, n)


def _hs_distance(diff, box, n):
    """The normalized Hilbert-Schmidt sum of a kernel difference on the lattice."""
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
    The distance equals kernel_distance(tso.green, green_kernel_fn(op, k),
    box, n) bit for bit.
    """
    k = check_wavenumber(k, allow_zero=False)
    xs = _abscissae(box, n)
    eps_sorted = sorted({float(e) for e in np.atleast_1d(np.asarray(eps_list, dtype=float))},
                        reverse=True)
    if not eps_sorted:
        raise SpecError("eps_list is empty")
    if not all(e > 0 for e in eps_sorted):  # NaN fails this too
        raise SpecError("all eps values must be positive")
    op = classify_limit(p, threshold=threshold, tol=tol)
    ls = limit_scattering(op, k)
    limit = green_kernel_fn(op, k).lattice(xs)
    records = []
    for eps in eps_sorted:
        tso = truncated_operator(p, eps, k, tol, alpha_weight)
        sd = tso.scattering()
        dist = _hs_distance(tso.green.lattice(xs) - limit, box, n)
        records.append(
            ConvergenceRecord(
                eps=eps, r_eps=sd.r, t_eps=sd.t,
                kernel_distance=dist, limit_r=ls.r, limit_t=ls.t,
            )
        )
    return records
