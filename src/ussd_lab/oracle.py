"""Slow, independent checks for the closed-form results.

Everything here recomputes from first principles: success probabilities
by brute-force search over coupling amplitudes, separability by direct
minimization of the system-ancilla concurrence, the rank-two
decomposition by rebuilding both vectors from the reported scalars, and
integrals by a node-doubling quadrature table. Nothing in this module
imports the closed-form layer; instances and strategies are consumed as
plain attribute bags so that agreement between the two layers is
evidence rather than tautology.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from collections.abc import Sequence
from typing import Callable, Optional

import numpy as np

from .errors import NumericalError, RangeError, _check, _count, _entries
from .coherence import _golden_min, wootters_concurrence


@dataclass(frozen=True)
class GridSpec:
    """Closed search interval with an inclusive point count.

    refine counts golden-section passes run after the coarse sweep; zero
    means take the raw grid winner.
    """

    lower: float
    upper: float
    count: int
    refine: int = 2

    def __post_init__(self):
        for name in ("lower", "upper"):
            if not math.isfinite(getattr(self, name)):
                raise RangeError(
                    f"GridSpec.{name} must be finite, got {getattr(self, name)!r}")
        for name in ("count", "refine"):
            _count(getattr(self, name), f"GridSpec.{name}")
        if not self.upper > self.lower:
            raise RangeError(
                f"grid bounds must be ordered, got [{self.lower!r}, {self.upper!r}]"
            )
        if self.count < 2:
            raise RangeError(f"grid needs at least 2 points, got {self.count!r}")
        if self.refine < 0:
            raise RangeError(f"refine must be non-negative, got {self.refine!r}")

    def points(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.count)


def _refine(f, lo: float, hi: float) -> tuple:
    """Golden-section minimum of f on [lo, hi] to 1e-12, as floats: the
    point and f there. f takes a 1-D array of points."""
    x, fx = _golden_min(lambda _, pts: f(pts), np.array([lo]), np.array([hi]), tol=1e-12)
    return float(x[0]), float(fx[0])


@dataclass(frozen=True)
class SuccessSearchResult:
    abs_alpha_plus: float
    value: float


def _success_objective(rp, rm, a, m) -> np.ndarray:
    """Conclusive-outcome probability at each first-sub-state amplitude m
    (an array, or a float as a 0-d one), -inf outside the domain: m <= 0
    with a nonzero overlap, or a partner amplitude a/m above 1. a == 0
    pins the partner at 0 for every m. rp, rm and a broadcast against m,
    one instance per entry."""
    m = np.asarray(m, dtype=float)
    pos = m > 0.0
    partner = a / np.where(pos, m, math.inf)
    out = (partner > 1.0 + 1e-12) | (~pos & (a != 0.0))
    return np.where(out, -math.inf, rp * (1.0 - m * m) + rm * (1.0 - partner * partner))


def grid_optimize_success(inst, grid: Optional[GridSpec] = None):
    """Maximize the conclusive-outcome probability by brute force.

    Scans the flagged-by-ancilla amplitude for the first sub-state over a
    dense grid (the partner amplitude is pinned by the overlap
    constraint), then golden-sections around the grid winner. Used as the
    oracle for the closed-form optimum.

    inst is one instance, which gives a SuccessSearchResult, or any
    iterable of them, which gives a tuple of results. The coarse scan is
    one array pass over every instance's grid, and each refinement round
    one lockstep golden-section search over one bracket per instance, so
    each result equals a call on that instance alone.
    """
    if grid is None:
        grid = GridSpec(0.0, 1.0, 10000, 2)
    single, insts, where = _entries(inst)
    if not insts:
        return ()
    rp = np.array([float(i.r_plus) for i in insts])
    rm = np.array([float(i.r_minus) for i in insts])
    a = np.array([abs(i.alpha) for i in insts])
    lo = np.where(a > grid.lower, a, grid.lower)
    hi = np.full(a.size, min(grid.upper, 1.0))
    _check(~(hi > lo), RangeError,
           lambda i: f"search interval is empty for this instance{where(i)}")

    pts = np.array([np.linspace(l, h, grid.count) for l, h in zip(lo.tolist(), hi.tolist())])
    vals = _success_objective(rp[:, None], rm[:, None], a[:, None], pts)
    i = np.argmax(vals, axis=1)
    rows = np.arange(a.size)
    best_m, best_v = pts[rows, i], vals[rows, i]
    cell = (hi - lo) / (grid.count - 1)
    for _ in range(grid.refine):
        wlo = np.where(best_m - cell > lo, best_m - cell, lo)
        whi = np.where(best_m + cell < hi, best_m + cell, hi)
        x, neg = _golden_min(lambda r, m: -_success_objective(rp[r], rm[r], a[r], m),
                             wlo, whi, tol=1e-12)
        better = -neg >= best_v
        best_m, best_v = np.where(better, x, best_m), np.where(better, -neg, best_v)
        cell = (whi - wlo) * 1e-3
        cell = np.where(cell > 1e-12, cell, 1e-12)
    results = tuple(SuccessSearchResult(abs_alpha_plus=m, value=v)
                    for m, v in zip(best_m.tolist(), best_v.tolist()))
    return results[0] if single else results


def _zeta_rows(alpha_plus: complex, alpha_minus: complex,
               betas: np.ndarray, deltas: np.ndarray) -> tuple:
    """Coupled sub-states on the system-ancilla pair, assembled directly,
    one row per failure direction (beta, delta) of betas and deltas
    broadcast together, in C order: a grid of them from a column of
    betas and a row of deltas takes each angle's cos, sin or e^{i delta}
    once.

    Basis order is (system, ancilla) with the system qubit most
    significant; the failure direction is cos(beta), sin(beta) e^{i
    delta} on the system with the ancilla reading 1. cos(beta) and
    sin(beta) are taken per entry with math.cos and math.sin, and the
    products with them and with e^{i delta} are written in real
    arithmetic, term by term as Python's and numpy's scalar complex
    products form them (cos(beta) as cos(beta) + 0j, sin(beta) as
    sin(beta) + 0j): numpy's array complex multiply can fuse a product
    into the following sum, which moves last bits.
    """
    ap, am = complex(alpha_plus), complex(alpha_minus)
    bp = math.sqrt(max(0.0, 1.0 - abs(ap) ** 2))
    bm = math.sqrt(max(0.0, 1.0 - abs(am) ** 2))
    flat = betas.reshape(-1).tolist()
    e0 = np.array([math.cos(b) for b in flat]).reshape(betas.shape)
    s = np.array([math.sin(b) for b in flat]).reshape(betas.shape)
    ph = np.exp(1j * deltas)
    e1r = s * ph.real - 0.0 * ph.imag
    e1i = s * ph.imag + 0.0 * ph.real
    zp = np.zeros(e1r.shape + (4,), dtype=complex)
    zm = np.zeros_like(zp)
    zp[..., 0], zm[..., 2] = bp, bm
    for z, c in ((zp, ap), (zm, am)):
        z.real[..., 1] = c.real * e0 - c.imag * 0.0
        z.imag[..., 1] = c.real * 0.0 + c.imag * e0
        z.real[..., 3] = c.real * e1r - c.imag * e1i
        z.imag[..., 3] = c.real * e1i + c.imag * e1r
    return zp.reshape(-1, 4), zm.reshape(-1, 4)


def _rho_sa_row(inst, strat, betas: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """The (N, 4, 2) stack of factors V of the system-ancilla states
    rho_SA = V V^dag, one per failure direction of betas and deltas
    broadcast together (_zeta_rows): the columns sqrt(r+) zeta+ +
    sqrt(r-) conj(alpha_c) zeta- and sqrt(r-) sqrt(1 - |alpha_c|^2)
    zeta-, with 1 - |alpha_c|^2 as (1 - |alpha_c|)(1 + |alpha_c|). Each
    column is a real or complex scalar times a named row stack, plus
    such a product, so every row rounds as it would on its own."""
    zp, zm = _zeta_rows(strat.alpha_plus, strat.alpha_minus, betas, deltas)
    rp, rm = float(inst.r_plus), float(inst.r_minus)
    ac = complex(inst.alpha_c)
    mod = abs(ac)
    v = np.empty(zp.shape + (2,), dtype=complex)
    v[:, :, 0] = math.sqrt(rp) * zp + math.sqrt(rm) * ac.conjugate() * zm
    v[:, :, 1] = math.sqrt(rm) * math.sqrt((1.0 - mod) * (1.0 + mod)) * zm
    return v


@dataclass(frozen=True)
class ConcurrenceSearchResult:
    beta: float
    delta: float
    value: float


def grid_min_concurrence(inst, strat_base, beta_grid: GridSpec,
                         delta_grid: GridSpec) -> ConcurrenceSearchResult:
    """Minimize the system-ancilla concurrence over the failure direction.

    Coarse grid over both angles as one stacked concurrence call, then
    alternating golden-section sweeps in each coordinate around the
    winner, each evaluation of a sweep one stacked concurrence call on
    every point the search's next steps could need (up to 15 points,
    four steps, in coherence's _golden_min). Oracle for the closed-form
    direction that renders the pair separable.
    """
    betas, deltas = beta_grid.points(), delta_grid.points()
    cells = wootters_concurrence(_rho_sa_row(inst, strat_base, betas[:, None], deltas))
    # first minimum in row-major order, as a point-by-point scan finds it
    i, j = divmod(int(np.argmin(cells)), deltas.size)
    value, beta, delta = float(cells[i * deltas.size + j]), float(betas[i]), float(deltas[j])
    bcell = (beta_grid.upper - beta_grid.lower) / (beta_grid.count - 1)
    dcell = (delta_grid.upper - delta_grid.lower) / (delta_grid.count - 1)
    rounds = max(beta_grid.refine, delta_grid.refine)
    for _ in range(rounds):
        blo = max(beta_grid.lower, beta - bcell)
        bhi = min(beta_grid.upper, beta + bcell)
        beta, value = _refine(lambda bs: wootters_concurrence(
            _rho_sa_row(inst, strat_base, bs, np.full(bs.size, delta))), blo, bhi)
        dlo = max(delta_grid.lower, delta - dcell)
        dhi = min(delta_grid.upper, delta + dcell)
        delta, value = _refine(lambda ds: wootters_concurrence(
            _rho_sa_row(inst, strat_base, np.full(ds.size, beta), ds)), dlo, dhi)
        bcell = max(bhi - blo, 1e-9) * 1e-2
        dcell = max(dhi - dlo, 1e-9) * 1e-2
    return ConcurrenceSearchResult(beta=beta, delta=delta, value=value)


@dataclass(frozen=True)
class DecompositionReport:
    """Residuals of the reported rank-two decomposition, all of which
    should sit at machine precision for a valid report."""

    reconstruction: float
    weight_plus: float
    weight_minus: float
    cross: float

    @property
    def worst(self) -> float:
        return max(self.reconstruction, self.weight_plus,
                   self.weight_minus, self.cross)


def decomposition_check(factor, params, inst, strat) -> DecompositionReport:
    """Audit a separability report against the state it claims to split.

    The state is given by a 4 x r factor V, rho_SA = V V^dag. Both
    decomposition vectors are rebuilt from the scalar weights and phases
    in the report (it stores no vectors), so a wrong phase or weight
    shows up as a reconstruction residual instead of being copied
    through.
    """
    try:
        v = np.asarray(factor)
    except ValueError:                      # a ragged nesting of sequences
        v = np.asarray(None)
    if v.ndim != 2 or v.shape[0] != 4 or not np.issubdtype(v.dtype, np.number):
        raise RangeError("expected a numeric 4 x r factor of a two-qubit state, got "
                         f"{type(factor).__name__} of shape {v.shape}")
    rho = v @ v.conj().T
    zp, zm = (z[0] for z in _zeta_rows(strat.alpha_plus, strat.alpha_minus,
                                       np.array([float(strat.beta)]),
                                       np.array([float(strat.delta)])))
    z1 = params.q1_plus * zp + params.q1_minus * np.exp(1j * params.gamma1) * zm
    z2 = params.q2_plus * zp + params.q2_minus * np.exp(1j * params.gamma2) * zm
    recon = np.outer(z1, z1.conj()) + np.outer(z2, z2.conj())
    rp, rm = float(inst.r_plus), float(inst.r_minus)
    cross_target = math.sqrt(rp * rm) * np.conj(complex(inst.alpha_c))
    cross_built = (params.q1_plus * params.q1_minus * np.exp(1j * params.gamma1)
                   + params.q2_plus * params.q2_minus * np.exp(1j * params.gamma2))
    return DecompositionReport(
        reconstruction=float(np.max(np.abs(recon - rho))),
        weight_plus=abs(params.q1_plus ** 2 + params.q2_plus ** 2 - rp),
        weight_minus=abs(params.q1_minus ** 2 + params.q2_minus ** 2 - rm),
        cross=float(abs(cross_built - cross_target)),
    )


@dataclass(frozen=True)
class QuadratureRow:
    nodes: int
    value: float
    delta: float    # change from the previous row; nan on the first


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple

    @property
    def value(self) -> float:
        return self.rows[-1].value

    @property
    def final_delta(self) -> float:
        return self.rows[-1].delta


@functools.cache
def _gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per count
    and returned read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def quadrature_refine(f: Callable[[float], float],
                      node_counts: Sequence[int] = (8, 16, 32, 64, 128)) -> ConvergenceTable:
    """Integrate f over the polar interval [0, pi] at increasing
    Gauss-Legendre node counts and tabulate the successive differences.

    The integrands used here are analytic in the polar angle, so the
    deltas collapse geometrically; a table whose tail refuses to shrink
    is the designed failure signal for a bad integrand.
    """
    if len(node_counts) < 1:
        raise RangeError("need at least one node count")
    rows = []
    prev = None
    for i, n in enumerate(node_counts):
        n = _count(n, f"node_counts[{i}]")
        if n < 2:
            raise RangeError(f"node counts must be at least 2, got {n}")
        x, w = _gauss_legendre(n)
        mus = 0.5 * math.pi * (x + 1.0)
        vals = np.array([f(float(m)) for m in mus], dtype=float)
        if not np.all(np.isfinite(vals)):
            raise NumericalError("integrand returned a non-finite value")
        total = 0.5 * math.pi * float(np.dot(w, vals))
        delta = math.nan if prev is None else abs(total - prev)
        rows.append(QuadratureRow(nodes=n, value=total, delta=delta))
        prev = total
    return ConvergenceTable(rows=tuple(rows))
