"""Concurrence, tangles and the three-qubit coherence ledger.

Entanglement here is always measured in tangle units (squared
concurrence), because for pure three-qubit states the tangles obey an
exact trade-off: the one-vs-rest tangle of any qubit equals the sum of
its two pairwise tangles plus a genuinely tripartite remainder that is
the same for every choice of pivot. That common total is what the rest
of the package calls intrinsic coherence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DegenerateOverlap,
    NumericalError,
    RangeError,
    ShapeError,
    _count,
)
from .qcore import PureState, reduce_stack
from .tolerances import DEFAULT as TOL

_SAC = ("S", "A", "C")
_SY = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_SY, _SY).real  # spin-flip kernel, real in this basis


def wootters_concurrence(rho):
    """Concurrence of a two-qubit mixed state, or of each in a stack.

    rho is one 4x4 matrix, which gives a float, or a (..., 4, 4) stack,
    which gives an array of the leading shape; one matrix is a stack of
    one. Works from a rank-revealing factorization
    rho = V V^dag and takes the singular values of V^T (sy x sy) V.
    These equal the conventional square-rooted eigenvalues of rho rho~
    but remain accurate for the rank-2 states this package produces,
    where the textbook sqrt(rho) route loses half the available digits.
    Matrices are grouped by rank, so each factor has the shape it would
    have on its own and every value is bit-equal to a call on that
    matrix alone.
    """
    m = np.asarray(rho, dtype=complex)
    if m.ndim < 2 or m.shape[-2:] != (4, 4):
        raise ShapeError(f"expected a 4x4 matrix or a stack of them, got {m.shape}")
    lead = m.shape[:-2]
    m = m.reshape(-1, 4, 4)
    w, v = np.linalg.eigh(0.5 * (m + m.conj().swapaxes(-1, -2)))
    w = np.clip(w, 0.0, None)
    # eigenvalues ascend, so the kept ones are the last `rank` of each row
    top = w[:, 3:]
    ranks = (w > TOL.rank_cut * np.where(1e-300 > top, 1e-300, top)).sum(axis=-1)
    groups = set(ranks.tolist())
    if 0 in groups:
        raise ShapeError("matrix has zero trace, not a state")
    lam = np.zeros((len(m), 4))
    for r in groups:
        rows = slice(None) if len(groups) == 1 else np.flatnonzero(ranks == r)
        fac = v[rows, :, 4 - r:] * np.sqrt(w[rows, None, 4 - r:])
        lam[rows, :r] = np.linalg.svd(fac.swapaxes(-1, -2) @ _YY @ fac, compute_uv=False)
    c = lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]
    c = np.where(c > 0.0, c, 0.0)
    return c.reshape(lead) if lead else float(c[0])


def _hyperdet_tangle(v: np.ndarray) -> float:
    """Residual tripartite tangle via the degree-4 polynomial invariant."""
    a = {format(i, "03b"): v[i] for i in range(8)}
    d1 = (a["000"] ** 2 * a["111"] ** 2 + a["001"] ** 2 * a["110"] ** 2
          + a["010"] ** 2 * a["101"] ** 2 + a["100"] ** 2 * a["011"] ** 2)
    d2 = (a["000"] * a["111"] * a["011"] * a["100"]
          + a["000"] * a["111"] * a["101"] * a["010"]
          + a["000"] * a["111"] * a["110"] * a["001"]
          + a["011"] * a["100"] * a["101"] * a["010"]
          + a["011"] * a["100"] * a["110"] * a["001"]
          + a["101"] * a["010"] * a["110"] * a["001"])
    d3 = (a["000"] * a["110"] * a["101"] * a["011"]
          + a["111"] * a["001"] * a["010"] * a["100"])
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def three_tangle(psi) -> float:
    """Genuinely tripartite tangle of a three-qubit pure state.

    Evaluated through the polynomial invariant and cross-checked against
    the monogamy residual (one-vs-rest tangle minus the two pairwise
    tangles) for every pivot; disagreement beyond tolerance raises
    NumericalError.
    """
    if isinstance(psi, PureState) and psi.n_qubits != 3:
        raise ShapeError("three_tangle needs three qubits")
    state = psi if isinstance(psi, PureState) else PureState(_SAC, psi)
    led = ledger(state)
    t3 = led.c_genuine
    for pivot in state.register:
        x, y = [q for q in state.register if q != pivot]
        residual = led.bipartite_of(pivot) - (led.pair(pivot, x) + led.pair(pivot, y))
        if abs(residual - t3) > TOL.tangle_consistency:
            raise NumericalError(
                f"tangle routes disagree at pivot {pivot}: {residual!r} vs {t3!r}"
            )
    return t3


def _tangles(amplitudes, register, q: str) -> np.ndarray:
    """One-vs-rest tangle of qubit q, 4 det of its reduced state, in each
    row of a stack of state vectors on register."""
    det = np.linalg.det(reduce_stack(amplitudes, register, [q])).real
    return 4.0 * np.where(0.0 > det, 0.0, det)


@dataclass(frozen=True)
class CoherenceLedger:
    """Complete tangle accounting of a three-qubit pure state.

    c_total is the common value of the three monogamy sums (one-vs-rest
    tangle of a pivot plus the pairwise tangle of the other two);
    c_bipartite maps "X:YZ" keys to one-vs-rest tangles, c_pairwise maps
    "X:Y" keys to squared concurrences, and c_genuine is the tripartite
    remainder. monogamy_residual records how far the three sums actually
    spread. Every individual tangle lies in [0, 1]; the common sum can
    legitimately exceed 1 (it reaches 4/3 on W-type states), so only a
    loose upper bound of 2 is enforced on it.
    """

    register: tuple
    c_total: float
    c_bipartite: dict
    c_pairwise: dict
    c_genuine: float
    monogamy_residual: float

    def pair(self, x: str, y: str) -> float:
        for key, val in self.c_pairwise.items():
            a, b = key.split(":")
            if {a, b} == {x, y}:
                return val
        raise KeyError(f"no pair {x},{y} in {tuple(self.c_pairwise)}")

    def bipartite_of(self, pivot: str) -> float:
        for key, val in self.c_bipartite.items():
            if key.split(":")[0] == pivot:
                return val
        raise KeyError(f"no pivot {pivot} in {tuple(self.c_bipartite)}")

    def __post_init__(self):
        lo, hi = -1e-10, 1.0 + 1e-10
        entries = [self.c_genuine, *self.c_bipartite.values(),
                   *self.c_pairwise.values()]
        if any(not (lo <= e <= hi) for e in entries):
            raise NumericalError(f"ledger entry outside [0, 1]: {entries}")
        if not (lo <= self.c_total <= 2.0 + 1e-10):
            raise NumericalError(f"total coherence out of range: {self.c_total!r}")
        if self.monogamy_residual > TOL.monogamy:
            raise NumericalError(
                f"monogamy sums spread by {self.monogamy_residual:.3e}"
            )
        gap = abs(self.c_genuine - (self.c_total - sum(self.c_pairwise.values())))
        if gap > TOL.tangle_consistency:
            raise NumericalError(f"genuine tangle off by {gap:.3e} from the sums")


def ledger(psi):
    """Tangle ledger of one three-qubit PureState, which gives a
    CoherenceLedger, or of each row of an (N, 8) amplitude stack on
    ("S", "A", "C"), which gives a tuple of them; one state is a stack of
    one. The one-vs-rest tangles are batched determinants, the pairwise
    ones a stacked wootters_concurrence, and the genuine entry the
    polynomial invariant of each row.
    """
    if isinstance(psi, PureState):
        reg, amps = psi.register, psi.amplitudes.reshape(1, -1)
    else:
        reg, amps = _SAC, np.asarray(psi)
    if amps.shape[1:] != (8,) or amps.dtype.kind not in "biufc":
        raise ShapeError("ledger needs a three-qubit PureState or an (N, 8) stack, "
                         f"got {amps.dtype} of shape {amps.shape}")
    amps = amps.astype(complex)
    tau = np.array([_tangles(amps, reg, q) for q in reg])
    pairs = list(combinations(reg, 2))
    c = wootters_concurrence(np.concatenate([reduce_stack(amps, reg, p) for p in pairs]))
    c2 = (c * c).reshape(3, -1)
    # the pair left over by pivot reg[i] is pairs[2 - i]
    sums = tau + c2[::-1]
    total = np.mean(sums, axis=0)
    residual = sums.max(axis=0) - sums.min(axis=0)
    bipartite_keys = [f"{q}:{''.join(x for x in reg if x != q)}" for q in reg]
    pairwise_keys = [f"{x}:{y}" for x, y in pairs]
    leds = tuple(
        CoherenceLedger(
            register=reg,
            c_total=t,
            c_bipartite=dict(zip(bipartite_keys, b)),
            c_pairwise=dict(zip(pairwise_keys, p)),
            c_genuine=_hyperdet_tangle(v),
            monogamy_residual=r,
        )
        for v, t, b, p, r in zip(amps, total.tolist(), tau.T.tolist(),
                                 c2.T.tolist(), residual.tolist()))
    return leds[0] if isinstance(psi, PureState) else leds


# ---------------------------------------------------------------------------
# closed forms for the discrimination protocol

def _total(rp, rm, aa, ac) -> tuple:
    """The prefactor 4 r+ r- (1 - |alpha_c|^2) of the closed forms, and
    the total coherence, the prefactor times 1 - |alpha|^2."""
    pref = 4.0 * rp * rm * (1.0 - ac * ac)
    # (1-aa)(1+aa) stays accurate for aa near 1, unlike 1-aa**2
    return pref, pref * (1.0 - aa) * (1.0 + aa)


def initial_coherence(inst) -> float:
    """Total coherence carried into the protocol by the system-environment
    state: 4 r+ r- (1 - |alpha_c|^2)(1 - |alpha|^2). Exact for every
    admissible instance."""
    return float(_total(inst.r_plus, inst.r_minus, abs(inst.alpha), abs(inst.alpha_c))[1])


def closed_form_coherences(inst, strat=None) -> tuple:
    """Closed-form coherence triple (total, ancilla-vs-rest, genuine).

    inst is a UssdInstance with its strategy, which gives three floats,
    or a SeparablePoints stack (strat omitted), which gives three arrays,
    one entry per row; one instance is a stack of one.

    The genuine (three-way) entry is an identity over the whole strategy
    family. The total and the ancilla-vs-rest entries reproduce the
    numeric ledger only at the optimal radii together with the failure
    angles that make the system-ancilla pair separable; elsewhere they
    are just reference values. Callers comparing against a ledger must
    evaluate at that point.
    """
    if strat is not None:
        from .ussd import SeparablePoints

        return tuple(float(c[0]) for c in
                     closed_form_coherences(SeparablePoints.of(inst, strat)))
    pts = inst
    aa = np.hypot(pts.alpha.real, pts.alpha.imag)
    ac = np.hypot(pts.alpha_c.real, pts.alpha_c.imag)
    mp = np.hypot(pts.alpha_plus.real, pts.alpha_plus.imag)
    mm = np.hypot(pts.alpha_minus.real, pts.alpha_minus.imag)
    pref, c_total = _total(pts.r_plus, pts.r_minus, aa, ac)
    # rewritten, as c_total is, to avoid cancellation as |alpha| -> 1,
    # with the pair constraint |a+||a-| = |alpha|
    c_ancilla = pref * ((mp - mm) ** 2 + 2.0 * aa * (1.0 - aa))
    bp, bm = (np.sqrt(np.where(0.0 > x, 0.0, x)) for x in (1.0 - mp * mp, 1.0 - mm * mm))
    amp = (bp * pts.alpha_minus * np.sin(pts.beta) * np.exp(1j * pts.delta)
           + bm * pts.alpha_plus * np.cos(pts.beta))
    # float_power is pow(): the square of one instance's formula, to the bit
    c_genuine = pref * np.float_power(np.hypot(amp.real, amp.imag), 2)
    return c_total, c_ancilla, c_genuine


@dataclass(frozen=True)
class BandScan:
    """Extremes of the environment-ancilla coherence share over the
    relative phase gamma at fixed magnitudes.

    The profile is symmetric under gamma -> 2 pi - gamma, so extremes
    come in mirror pairs; argmax is reported as the representative in
    [0, pi] and argmin as the full set of scan minima. For a flat
    profile (|alpha_c| = 0 makes the share constant) the reported
    argmax falls back to the stationary-phase solution of
    cos(gamma) = -|alpha_c|, i.e. pi/2.
    """

    minimum: float
    maximum: float
    argmin: tuple
    argmax: float
    scan_points: int


def coherence_band(p_plus: float, abs_alpha, abs_alpha_c: float,
                   scan_points: int = 720):
    """Scan the environment-ancilla share of the total coherence over the
    relative phase.

    abs_alpha is one magnitude, which gives a BandScan, or a 1-D stack
    of them, which gives a tuple of BandScan, one per entry; one
    magnitude is a stack of one, and every field is bit-equal to a call
    on that entry alone.

    For each gamma the instance is evaluated at its optimal radii and
    separable failure angles, where the total coherence reduces to the
    environment one-vs-rest tangle; the share is then the pairwise
    environment-ancilla tangle divided by that total. The scan covers
    [0, pi] (mirror symmetry supplies the rest) as one array pass over
    every entry: the scan_points // 2 + 1 phases of each go through
    separable_points, coupled_amplitudes, reduce_stack and a
    (N, 4, 4) wootters_concurrence together. The peaks are then refined
    by one golden-section search over all entries in lockstep, each step
    the same pass on one phase per entry still searching, so the
    reported argmax rests on the numeric ledger route and not on any
    closed-form expectation.

    The share is undefined where the total coherence vanishes: at an
    extreme prior (p_plus not in (0, 1), RangeError) and at
    |alpha_c| = 1 (DegenerateOverlap). An entry of abs_alpha that is
    not finite (RangeError) or not below 1 in magnitude
    (DegenerateOverlap) is named by its index.
    """
    scan_points = _count(scan_points, "scan_points")
    if scan_points < 8:
        raise ShapeError("scan_points too small to bracket a peak")
    if not 0.0 < p_plus < 1.0:
        raise RangeError(f"p_plus must lie in (0, 1) for a phase band, got {p_plus!r}; "
                         "an extreme prior carries no coherence to share")
    given = np.asarray(abs_alpha, dtype=float)
    if given.ndim > 1:
        raise ShapeError(f"abs_alpha must be one magnitude or a 1-D stack, got {given.shape}")
    aa = given.reshape(-1)
    for i, v in enumerate(aa.tolist()):
        name = f"abs_alpha[{i}]" if given.ndim else "abs_alpha"
        if not math.isfinite(v):
            raise RangeError(f"{name} must be finite, got {v!r}")
        if abs(v) >= 1.0:
            raise DegenerateOverlap(f"{name} = {v!r} leaves nothing to discriminate")
    if aa.size == 0:
        return ()

    half = scan_points // 2 + 1
    gammas = np.linspace(0.0, math.pi, half)
    vals = _band_share(p_plus, aa[:, None], abs_alpha_c, gammas)
    vmin, vmax = vals.min(axis=1), vals.max(axis=1)
    # flat profile: every gamma is extremal, report the stationary point
    flat = vmax - vmin < 1e-12 * np.where(vmax > 1.0, vmax, 1.0)
    arg = np.full(aa.size, math.acos(max(-1.0, min(1.0, -abs_alpha_c))))

    live = np.flatnonzero(~flat)
    if live.size:
        k = np.argmax(vals[live], axis=1)
        peak, neg_peak = _golden_min(
            lambda rows, g: -_band_share(p_plus, aa[live[rows]], abs_alpha_c, g),
            gammas[np.maximum(k - 1, 0)], gammas[np.minimum(k + 1, half - 1)])
        arg[live] = peak
        vmax[live] = np.where(-neg_peak > vmax[live], -neg_peak, vmax[live])

    tol_min = vmin + 1e-9 * np.where(vmax > 1.0, vmax, 1.0)
    scans = tuple(
        BandScan(float(vmin[r]), float(vmax[r]),
                 (0.0, math.pi) if flat[r] else
                 tuple(gammas[vals[r] <= tol_min[r]].tolist()),
                 float(arg[r]), scan_points)
        for r in range(aa.size))
    return scans if given.ndim else scans[0]


def _band_share(p_plus, abs_alpha, abs_alpha_c, gammas) -> np.ndarray:
    """Environment-ancilla share at each phase, on the numeric route;
    abs_alpha broadcasts against gammas."""
    from .ussd import coupled_amplitudes, separable_points

    alpha = abs_alpha * np.exp(1j * np.asarray(gammas, dtype=float))
    pts = separable_points(p_plus, alpha, abs_alpha_c)
    if abs(abs_alpha_c) >= 1.0:
        raise DegenerateOverlap(
            f"|alpha_c| = {abs_alpha_c!r}: identical environment states carry "
            "no coherence, so the band share is undefined")
    amps = coupled_amplitudes(pts)
    total = _tangles(amps, _SAC, "C")
    vanished = total < 1e-30
    if vanished.any():
        i = int(np.argmax(vanished))
        aa, g = (float(np.broadcast_to(x, np.shape(alpha)).flat[i]) for x in (abs_alpha, gammas))
        raise NumericalError(
            f"total coherence vanished at p_plus = {float(p_plus)!r}, |alpha| = {aa!r}, "
            f"|alpha_c| = {float(abs_alpha_c)!r}, gamma = {g!r}; share undefined")
    c_ca = wootters_concurrence(reduce_stack(amps, _SAC, ["C", "A"]))
    share = c_ca * c_ca / total
    # bounded by the pivot sum, so out-of-range values are pure noise
    share = np.where(0.0 > share, 0.0, share)
    return np.where(1.0 < share, 1.0, share).reshape(np.shape(alpha))


def _golden_min(f, lo, hi, tol: float = 1e-10) -> tuple:
    """Golden-section minima of unimodal functions, one per bracket.

    lo and hi are 1-D stacks of brackets, and f(rows, x) returns, for
    each j, the value at x[j] of the function of bracket rows[j]. All
    brackets step in lockstep, one call of f per step, and each stops
    once its own b - a <= tol, so brackets finish at different steps and
    each visits exactly the points, in order, of a search on it alone.
    Returns the stacks of midpoints of the final brackets and of f there.

    With scalar lo and hi, f is a function of one float and the result
    is a pair of floats: a stack of one.
    """
    if np.ndim(lo) == 0:
        x, fx = _golden_min(lambda rows, g: np.array([f(v) for v in g.tolist()]),
                            np.array([lo], dtype=float), np.array([hi], dtype=float), tol)
        return float(x[0]), float(fx[0])
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    every = np.arange(a.size)
    both = f(np.concatenate([every, every]), np.concatenate([c, d]))
    fc, fd = both[:a.size], both[a.size:]
    while (rows := np.flatnonzero(b - a > tol)).size:
        left = fc[rows] < fd[rows]
        r, s = rows[left], rows[~left]
        b[r], d[r], fd[r] = d[r], c[r], fc[r]
        c[r] = b[r] - inv * (b[r] - a[r])
        a[s], c[s], fc[s] = c[s], d[s], fd[s]
        d[s] = a[s] + inv * (b[s] - a[s])
        fx = f(rows, np.where(left, c[rows], d[rows]))
        fc[r], fd[s] = fx[left], fx[~left]
    x = 0.5 * (a + b)
    return x, f(every, x)
