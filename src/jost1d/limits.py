"""The windowed squeezed operator, its limit operators, and their kernels.

For a potential V and small eps > 0 the operator of interest is

    -d^2/dx^2 + eps^-2 V(x/eps) restricted to the window |x| <= x_eps,

with the window half-width x_eps = eps * xi_eps chosen by the splitting
scale so that the window both shrinks to a point and, after unsqueezing,
swallows ever more of V.  That operator is -d^2/dx^2 plus the potential
scale(truncate(V, xi_eps), eps), so its Jost solutions f~_+- are that
potential's, and the jost module builds them by dilation: f~_+ at (x, k)
is f_+ of V cut to |s| <= xi_eps at (x/eps, eps k), solved on the
unsqueezed axis at the small wavenumber eps k, and its error_bound is
that of the cut V (zero: the cut is compact).  Whether a = W/(-2ik)
blows up like 1/eps (generic case) or stays bounded (zero-energy
resonance) decides the limiting operator.

As eps -> 0 the windowed operator converges in norm-resolvent sense to
a self-adjoint operator on the line with a point perturbation at the
origin, a LimitOperator whose one field theta is the resonance report's:

* no zero-energy resonance (theta None): the two half lines decouple,
  with a Dirichlet condition on each side of the origin;
* a resonance with far-field ratio theta: the interface conditions
  y(0+) = theta y(0-), theta y'(0+) = y'(0-).

LimitOperator(theta) rejects any other theta; theta = 1 is the free
line.  Its scattering(k) gives (r, t) and green(k) the resolvent kernel.

Every resolvent kernel here is one Kernel, u(max(x, y)) v(min(x, y)) / w
with w = W{u, v}: f~_+ and f~_- for the window, the two plane-wave
solutions glued by theta for the interface.  The Dirichlet kernel has
that form on each half line: u = e^{ikx}, v = sin kx on x > 0 and
u = -sin kx, v = e^{-ikx} on x < 0, each pair with W = k.  Across the
origin that product would couple the half lines, so its Kernel sets
split, which zeroes pairs on opposite sides of 0; at x = 0 the sines
vanish, so it is exactly 0 there, like the image-charge form.

kernel_distance samples the Hilbert-Schmidt distance of two kernels on
an n x n lattice, and the convergence table reports it per eps.  For
two Kernels the lattice sum never forms the lattice: G is symmetric and
G[i, j] = a_i b_j for j <= i, so the sum of |G_A - G_B|^2 is the
diagonal plus twice a lower triangle that three prefix sums of length n
give (_hs_sum).

The window at eps is its base truncate(V, xi_eps) at eps k, so once
xi_eps clears every layer of V the windows differ only in k.  The table
solves the run of such eps as one k batch, a row per eps, on one window
base and one tiling: one set of step maps, one scan and one evaluation
for both sides (u and v at the n abscissae) and one _hs_sum.  A
TruncatedScaledOperator, the one window type, is the one-row run of the
same code, so a row equals its lone window bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from .errors import SpecError
from .jost import (JostEvaluator, ScatteringData, _jost_maps, _layers, _unsqueezed,
                   check_wavenumber)
from .potential import Potential, scale, splitting_scale, truncate
from .resonance import _count, resonance_report

__all__ = [
    "Kernel",
    "TruncatedScaledOperator",
    "truncated_operator",
    "LimitOperator",
    "ConvergenceRecord",
    "classify_limit",
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
        g = self.u(hi) * self.v(lo) / self.w
        return (np.where((hi > 0) & (lo < 0), 0.0, g) if self.split else g)[()]


def _windows(p: Potential, eps, k, tol):
    """(scales, built) per run of consecutive eps whose windows tile alike, in eps order.

    A window that keeps every layer of p whole tiles as p does, so the
    run of such eps is one k batch of _jost_maps, a row per eps, on the
    tiling of the run's first window; any other window, a Magnus one at
    a scalar eps k, is a run of its own.  Only a run's first eps builds
    its window potential.  A window has layers just when p has.
    """
    scales = [splitting_scale(p, e) for e in eps]
    base, e0 = _unsqueezed(p)
    tiling = _layers(base.shape, base.coupling)
    # the half width, on the base's axis, beyond which a window cuts no layer
    reach = np.inf if tiling is None else np.abs(tiling[0]).max()
    keys = ["whole" if ss.xi_eps / e0 >= reach else i for i, ss in enumerate(scales)]
    for _, run in groupby(range(len(eps)), keys.__getitem__):
        run = [scales[i] for i in run]
        window, dilation = _unsqueezed(scale(truncate(p, run[0].xi_eps), run[0].eps))
        yield run, _jost_maps(window, k, tol, eps=dilation if tiling is None
                              else np.array([e0 * ss.eps for ss in run]))


class TruncatedScaledOperator:
    """Jost solutions and resolvent kernel of the windowed squeezed operator.

    The window potential scale(truncate(p, xi_eps), eps) is the one-row
    run of a convergence table's windows; its build's product gives the
    scattering data and w = -2ik a.  The Jost pair of both sides scans
    once, on first use; plus and minus are its sides and green reads them,
    so evaluating any of them afterwards is vectorized and cheap.
    """

    def __init__(self, p: Potential, eps, k, tol=1e-10):
        k = check_wavenumber(k, allow_zero=False)
        ((ss,), built), = _windows(p, [eps], k, tol)
        self.eps, self.xi_eps, self.x_eps = ss.eps, ss.xi_eps, ss.x_eps
        (self._data,) = built.scattering(k)
        self._built = built
        # an array product, as the table's rows take it: a complex scalar one rounds otherwise
        self._w = (-2j * k * np.array([self._data.a]))[0]

    def scattering(self) -> ScatteringData:
        return self._data

    @cached_property
    def _pair(self):
        return JostEvaluator(self._built)

    @cached_property
    def plus(self):
        return self._pair._side(0)

    @cached_property
    def minus(self):
        return self._pair._side(1)

    @cached_property
    def green(self) -> Kernel:
        # u and v close over the evaluators, not self: a cycle through self
        # would keep their arrays alive until the cyclic collector runs
        plus, minus = self.plus, self.minus
        return Kernel(lambda x: plus.eval(x)[0], lambda x: minus.eval(x)[0], self._w)


def truncated_operator(p, eps, k, tol=1e-10):
    return TruncatedScaledOperator(p, eps, k, tol)


@dataclass(frozen=True)
class LimitOperator:
    """The point interaction at the origin that the windows converge to.

    theta is the interface ratio: y(0+) = theta y(0-), theta y'(0+) =
    y'(0-), a real, finite and nonzero number, stored as a float.  None is
    the Dirichlet-decoupled pair, as a resonance report's theta is None
    for a potential without a zero-energy resonance.
    """

    theta: float | None

    def __post_init__(self):
        if self.theta is None:
            return
        # text and complex numbers are no ratio (numpy's would cast with a warning)
        try:
            ratio = np.nan if np.iscomplexobj(self.theta) else float(self.theta)
        except (TypeError, ValueError):
            ratio = np.nan
        if ratio == 0.0 or not np.isfinite(ratio):
            raise SpecError(f"interface ratio must be real, finite and nonzero, got {self.theta}")
        object.__setattr__(self, "theta", ratio)

    def scattering(self, k) -> ScatteringData:
        """Reflection and transmission of the limit operator.

        Independent of k: the limits are scale-invariant point interactions.
        The decoupled pair reflects everything (r = -1, t = 0) and has no
        finite plane-wave coefficients a, b.
        """
        k = check_wavenumber(k, allow_zero=False)
        th = self.theta
        if th is None:
            return ScatteringData(k=k, a=None, b=None, r=-1.0 + 0.0j, t=0.0 + 0.0j)
        t = 2.0 * th / (1.0 + th * th)
        r = (1.0 - th * th) / (1.0 + th * th)
        return ScatteringData(k=k, a=1.0 / t, b=r / t, r=complex(r), t=complex(t))

    def green(self, k) -> Kernel:
        """The resolvent kernel of the limit operator at k.

        Dirichlet-decoupled: on each half line the solution outgoing at
        infinity over the one vanishing at the origin, zero across it (see
        the module docstring).  Interface(theta): u is e^{ikx} for x >= 0,
        continued across the origin by the interface conditions, and W is
        -ik(theta + 1/theta).  Either way v(x) is u(-x) of the mirror image,
        itself for the Dirichlet pair and of ratio 1/theta for the interface,
        which flips the sign of u's e^{-ikx} coefficient across the origin.
        """
        k = check_wavenumber(k, allow_zero=False)
        theta = self.theta
        if theta is None:
            def u(x):
                return np.where(x > 0, np.exp(1j * k * x), -np.sin(k * x))
            return Kernel(u, lambda x: u(-x), k, split=True)
        a_co, b_co = 0.5 * (theta + 1.0 / theta), 0.5 * (1.0 / theta - theta)

        def wave(x, b):  # e^{ikx} on x >= 0, with e^{-ikx} coefficient b across the origin
            return np.where(x >= 0, np.exp(1j * k * x),
                            a_co * np.exp(1j * k * x) + b * np.exp(-1j * k * x))
        return Kernel(lambda x: wave(x, b_co), lambda x: wave(-x, -b_co),
                      -1j * k * (theta + 1.0 / theta))


def classify_limit(
    p: Potential, threshold: float | None = None, tol: float = 1e-10
) -> LimitOperator:
    """Map a potential to its small-eps limit operator."""
    return LimitOperator(resonance_report(p, threshold=threshold, tol=tol).theta)


def kernel_distance(kernel_a, kernel_b, box: float = 10.0, n: int = 200) -> float:
    """Sampled Hilbert-Schmidt distance between two kernels at the same k.

    Both arguments are vectorized (x, y) -> complex callables.  The sum
    runs over an n x n lattice on [-box, box]^2 and is normalized by
    box^2/n^2, a fixed surrogate for the continuum norm; it is meant for
    trend comparison, not certified error bounds.  Plain callables are
    evaluated at all n^2 lattice points.  Two Kernels are evaluated at
    the n abscissae only and summed in O(n) by _hs_sum, the sum
    convergence_table reports, so its distances equal this one's.
    """
    xs = _abscissae(box, n)
    if isinstance(kernel_a, Kernel) and isinstance(kernel_b, Kernel):
        fa, fb = (_lattice_factors(kern.u(xs), kern.v(xs), kern.w, xs, kern.split)
                  for kern in (kernel_a, kernel_b))
        total = _hs_sum(fa, fb, xs)
    else:
        xg, yg = np.meshgrid(xs, xs)
        total = np.sum(np.abs(np.asarray(kernel_a(xg, yg)) - np.asarray(kernel_b(xg, yg))) ** 2)
    return float(_hs_distance(total, box, n))


def _abscissae(box, n):
    """The n lattice abscissae on [-box, box], shared by both lattice axes."""
    if not 0 < box < np.inf or _count("n", n) < 2:
        raise SpecError("kernel_distance needs box > 0 and n >= 2")
    return np.linspace(-box, box, n)


def _hs_distance(total, box, n):
    """The normalized Hilbert-Schmidt distances from lattice sums of |G_A - G_B|^2."""
    return np.sqrt(box * box / (n * n) * total)


def _lattice_factors(u, v, w, xs, split=False):
    """Two factorings of the Kernel (u, v, w, split) from u and v on the increasing abscissae xs.

    For j <= i, G(xs[i], xs[j]) = a_i b_j with (a, b) = (u/w, v) on rows
    x_i <= 0 and (u, v/w) on rows x_i > 0.  Putting w on the factor of
    the far side makes two Jost-normalized kernels agree factor by
    factor, so the differences _hs_sum takes are as small as the
    distance and lose no digits to cancellation.  A split kernel's v/w is
    0 at x < 0: those are the pairs across the origin.
    """
    w = np.asarray(w)[..., None]
    v_w = np.where(xs < 0, 0.0, v / w) if split else v / w
    return (u / w, v), (u, v_w)


def _hs_sum(factors_a, factors_b, xs):
    """Sum of |G_A - G_B|^2 over the lattice xs x xs, in O(n) time and memory.

    factors_a and factors_b are _lattice_factors of the two kernels, whose
    leading axes (a window row per eps) broadcast to one sum each.  G is
    symmetric, so the sum is the diagonal plus twice the strict lower
    triangle; rows x_i <= 0 read the first factoring, rows x_i > 0 the
    second.  Clamped at 0, which rounding could otherwise undercut.
    """
    neg, pos = (_row_sums(*fa, *fb) for fa, fb in zip(factors_a, factors_b))
    m = np.searchsorted(xs, 0.0, side="right")
    return np.maximum(np.sum(neg[..., :m], axis=-1) + np.sum(pos[..., m:], axis=-1), 0.0)


def _row_sums(a_a, b_a, a_b, b_b):
    """|d_ii|^2 + 2 sum_{j<i} |d_ij|^2 per row i, for d_ij = a_a[i] b_a[j] - a_b[i] b_b[j].

    With alpha = a_a - a_b and beta = b_a - b_b, d_ij = alpha_i b_a[j] +
    a_b[i] beta_j, so the sum over j < i needs only the prefix sums of
    |b_a|^2, |beta|^2 and b_a conj(beta).
    """
    alpha, beta = a_a - a_b, b_a - b_b
    lower = (np.abs(alpha) ** 2 * _before(np.abs(b_a) ** 2)
             + np.abs(a_b) ** 2 * _before(np.abs(beta) ** 2)
             + 2.0 * (alpha * np.conj(a_b) * _before(b_a * np.conj(beta))).real)
    return np.abs(alpha * b_a + a_b * beta) ** 2 + 2.0 * lower


def _before(z):
    """The exclusive prefix sums sum_{j<i} z_j along the last axis."""
    out = np.zeros_like(z)
    np.cumsum(z[..., :-1], axis=-1, out=out[..., 1:])
    return out


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
    threshold: float | None = None,
) -> list[ConvergenceRecord]:
    """Scattering and kernel-distance trend of the windowed family.

    eps values are processed in decreasing order; each row carries the
    windowed operator's (r, t), its sampled Hilbert-Schmidt distance to
    the classified limit kernel, and the limit's (r, t) for reference.
    The limit's u and v are evaluated once per table, and each run of eps
    whose windows tile alike is one row batch (see the module docstring),
    whose _hs_sum adds each row's lattice in O(n).  Each row equals its
    eps's one-row table, and its distance kernel_distance(tso.green,
    op.green(k), box, n), bit for bit.
    """
    k = check_wavenumber(k, allow_zero=False)
    xs = _abscissae(box, n)
    eps_sorted = sorted({float(e) for e in np.atleast_1d(np.asarray(eps_list, dtype=float))},
                        reverse=True)
    if not eps_sorted:
        raise SpecError("no eps value given")
    if not all(e > 0 for e in eps_sorted):  # NaN fails this too
        raise SpecError("every eps value must be positive")
    op = classify_limit(p, threshold=threshold, tol=tol)
    ls = op.scattering(k)
    kern = op.green(k)
    limit = _lattice_factors(kern.u(xs), kern.v(xs), kern.w, xs, kern.split)
    records = []
    for scales, built in _windows(p, eps_sorted, k, tol):
        rows = built.scattering(k)
        w = -2j * k * np.array([sd.a for sd in rows])  # each row's green.w
        u, v = JostEvaluator(built).eval(xs)[0]  # each row's green u and v, in one call
        dist = _hs_distance(_hs_sum(_lattice_factors(u, v, w, xs), limit, xs), box, n)
        records += [ConvergenceRecord(eps=ss.eps, r_eps=sd.r, t_eps=sd.t, kernel_distance=float(d),
                                      limit_r=ls.r, limit_t=ls.t)
                    for ss, sd, d in zip(scales, rows, np.ravel(dist))]
    return records
