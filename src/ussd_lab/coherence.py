"""Concurrence, tangles and the three-qubit coherence ledger.

Entanglement here is always measured in tangle units (squared
concurrence), because for pure three-qubit states the tangles obey an
exact trade-off: the one-vs-rest tangle of any qubit equals the sum of
its two pairwise tangles plus a genuinely tripartite remainder that is
the same for every choice of pivot. That common total is what the rest
of the package calls intrinsic coherence.
"""

from __future__ import annotations

import functools
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
from .qcore import PureState, unit_rows

_SAC = ("S", "A", "C")
_TANGLE_CONSISTENCY = 1e-9      # polynomial invariant vs the residual route
_SY = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_SY, _SY).real.astype(complex)  # spin-flip kernel, real, cast once


def wootters_concurrence(factor):
    """Concurrence of a two-qubit mixed state, or of each in a stack,
    from a factor V of the state, rho = V V^dag.

    factor is one 4 x r matrix, which gives a float, or a (..., 4, r)
    stack, which gives an array of the leading shape; one matrix is a
    stack of one. The singular values of V^T (sy x sy) V are the
    square-rooted eigenvalues of rho rho~ (Uhlmann, PRA 62, 032307), and
    the concurrence is the largest minus the sum of the rest, clipped at
    0 (Wootters, PRL 80, 2245). They do not change when V is multiplied
    on the right by a unitary, so any factor serves: the amplitudes of a
    pure state, reshaped to kept x traced labels, are one. A rank-r
    state needs no eigendecomposition and no rank cut, and no digits
    are lost to a square root.
    """
    v = np.asarray(factor, dtype=complex)
    if v.ndim < 2 or v.shape[-2] != 4 or v.shape[-1] == 0:
        raise ShapeError(f"expected a 4 x r factor or a stack of them, got {v.shape}")
    lam = np.linalg.svd(v.swapaxes(-1, -2) @ _YY @ v, compute_uv=False)
    c = lam[..., 0] - (lam[..., 1] if lam.shape[-1] == 2 else lam[..., 1:].sum(axis=-1))
    c = np.where(c > 0.0, c, 0.0)
    return c if v.ndim > 2 else float(c)


def _hyperdet_tangle(v) -> float:
    """Residual tripartite tangle via the degree-4 polynomial invariant
    of the eight amplitudes v, which ledger passes as Python complex
    numbers (cheaper to multiply than numpy scalars, with the same bits)."""
    a000, a001, a010, a011, a100, a101, a110, a111 = v
    d1 = (a000 ** 2 * a111 ** 2 + a001 ** 2 * a110 ** 2
          + a010 ** 2 * a101 ** 2 + a100 ** 2 * a011 ** 2)
    d2 = (a000 * a111 * a011 * a100 + a000 * a111 * a101 * a010
          + a000 * a111 * a110 * a001 + a011 * a100 * a101 * a010
          + a011 * a100 * a110 * a001 + a101 * a010 * a110 * a001)
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
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
        if abs(residual - t3) > _TANGLE_CONSISTENCY:
            raise NumericalError(
                f"tangle routes disagree at pivot {pivot}: {residual!r} vs {t3!r}"
            )
    return t3


def _factor(amplitudes, register, keep) -> np.ndarray:
    """Each row of an (N, 2**n) stack of state vectors on register,
    reshaped to its kept labels (in register order) x the traced ones:
    the (N, 2**k, 2**(n-k)) stack of factors V of the reduced states
    rho = V V^dag."""
    kept = [i for i, q in enumerate(register) if q in keep]
    traced = [i for i, q in enumerate(register) if q not in keep]
    t = amplitudes.reshape((-1,) + (2,) * len(register))
    return t.transpose([0] + [1 + i for i in kept + traced]).reshape(
        len(t), 2 ** len(kept), 2 ** len(traced))


@functools.cache
def _minor_index(register, qubits) -> np.ndarray:
    """Flat positions of W0j, W1k, W0k, W1j (rows) for each of qubits
    (columns) over j < k, W the factor of that qubit in a state vector
    on register: one (4, len(qubits), C(2**(n-1), 2)) index, built once
    per register and qubits, read-only."""
    flat = np.arange(2 ** len(register))[None]
    rows = []
    for q in qubits:
        w = _factor(flat, register, [q])[0]
        j, k = np.triu_indices(w.shape[-1], 1)
        rows.append(np.stack([w[0, j], w[1, k], w[0, k], w[1, j]]))
    index = np.stack(rows, axis=1)
    index.flags.writeable = False
    return index


def _tangles(amplitudes, register, qubits) -> np.ndarray:
    """One-vs-rest tangle of each of qubits, 4 det of its reduced state,
    in each row of an (N, 2**n) stack of state vectors on register, as a
    (len(qubits), N) array from one gather of every qubit's minors. With
    W the 2 x 2**(n-1) factor of that state, det(W W^dag) is the sum of
    |W0j W1k - W0k W1j|^2 over j < k (Cauchy-Binet), so it cannot go
    negative."""
    g = amplitudes[:, _minor_index(tuple(register), tuple(qubits))]
    minor = g[:, 0] * g[:, 1] - g[:, 2] * g[:, 3]
    return 4.0 * (minor.real * minor.real + minor.imag * minor.imag).sum(axis=-1).T


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
        """The pair tangle of x and y, in either order."""
        val = self.c_pairwise.get(f"{x}:{y}", self.c_pairwise.get(f"{y}:{x}"))
        if val is None:
            raise KeyError(f"no pair {x},{y} in {tuple(self.c_pairwise)}")
        return val

    def bipartite_of(self, pivot: str) -> float:
        rest = "".join(q for q in self.register if q != pivot)
        val = self.c_bipartite.get(f"{pivot}:{rest}")
        if val is None:
            raise KeyError(f"no pivot {pivot} in {tuple(self.c_bipartite)}")
        return val

    def __post_init__(self):
        lo, hi = -1e-10, 1.0 + 1e-10
        entries = [self.c_genuine, *self.c_bipartite.values(),
                   *self.c_pairwise.values()]
        if any(not (lo <= e <= hi) for e in entries):
            raise NumericalError(f"ledger entry outside [0, 1]: {entries}")
        if not (lo <= self.c_total <= 2.0 + 1e-10):
            raise NumericalError(f"total coherence out of range: {self.c_total!r}")
        if self.monogamy_residual > 1e-9:
            raise NumericalError(
                f"monogamy sums spread by {self.monogamy_residual:.3e}"
            )
        gap = abs(self.c_genuine - (self.c_total - sum(self.c_pairwise.values())))
        if gap > _TANGLE_CONSISTENCY:
            raise NumericalError(f"genuine tangle off by {gap:.3e} from the sums")


def ledger(psi):
    """Tangle ledger of one three-qubit PureState, which gives a
    CoherenceLedger, or of each row of an (N, 8) amplitude stack on
    ("S", "A", "C"), which gives a tuple of them; one state is a stack of
    one. The one-vs-rest tangles are sums of squared 2 x 2 minors of each
    row's factors, the pairwise ones one stacked wootters_concurrence of
    its (kept pair) x (traced qubit) factors, and the genuine entry the
    polynomial invariant of each row. A row that is not finite or not
    normalized is named by its stack index.
    """
    if isinstance(psi, PureState):
        reg, amps = psi.register, psi.amplitudes.reshape(1, -1)
    else:
        reg, amps = _SAC, np.asarray(psi)
    if amps.shape[1:] != (8,) or amps.dtype.kind not in "biufc":
        raise ShapeError("ledger needs a three-qubit PureState or an (N, 8) stack, "
                         f"got {amps.dtype} of shape {amps.shape}")
    amps = amps.astype(complex)
    unit_rows(amps, lambda i: f" at stack index {i}")
    leds = _ledger_pass(amps, reg)[0]
    return leds[0] if isinstance(psi, PureState) else leds


@functools.cache
def _keys(reg) -> tuple:
    """The pairs combinations(reg, 2), the ledger's "X:YZ" keys of the
    pivots of reg and its "X:Y" keys of those pairs, built once per
    register."""
    pairs = tuple(combinations(reg, 2))
    return (pairs, tuple(f"{q}:{''.join(x for x in reg if x != q)}" for q in reg),
            tuple(f"{x}:{y}" for x, y in pairs))


def _ledger_pass(amps, reg=_SAC) -> tuple:
    """The ledgers of the rows of an (N, 8) complex stack on reg, as a
    tuple, without ledger's shape and norm checks (the checks on the
    computed entries stay); the (3N,) concurrences of its one stacked
    wootters_concurrence call, the pair combinations(reg, 2)[k] of row i
    at k N + i; and the arrays the ledgers hold: the (N,) totals, the
    (3, N) one-vs-rest tangles of the pivots of reg and the (3, N) pair
    tangles, pair k in row k."""
    tau = _tangles(amps, reg, reg)
    pairs, bipartite_keys, pairwise_keys = _keys(tuple(reg))
    c = wootters_concurrence(np.concatenate([_factor(amps, reg, p) for p in pairs]))
    c2 = (c * c).reshape(3, -1)
    # the pair left over by pivot reg[i] is pairs[2 - i]
    sums = tau + c2[::-1]
    # np.mean's order of summation over the pivots, without its overhead
    total = (sums[0] + sums[1] + sums[2]) / 3.0
    residual = sums.max(axis=0) - sums.min(axis=0)
    leds = tuple(
        CoherenceLedger(
            register=reg,
            c_total=t,
            c_bipartite=dict(zip(bipartite_keys, b)),
            c_pairwise=dict(zip(pairwise_keys, p)),
            c_genuine=_hyperdet_tangle(v),
            monogamy_residual=r,
        )
        for v, t, b, p, r in zip(amps.tolist(), total.tolist(), tau.T.tolist(),
                                 c2.T.tolist(), residual.tolist()))
    return leds, c, total, tau, c2


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
    one entry per row, read unchecked; one pair is SeparablePoints.of
    it, which runs check_pair.

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
    aa, mp, mm = pts.abs_alpha, pts.abs_plus, pts.abs_minus
    pref, c_total = _total(pts.r_plus, pts.r_minus, aa, pts.abs_alpha_c)
    # rewritten, as c_total is, to avoid cancellation as |alpha| -> 1,
    # with the pair constraint |a+||a-| = |alpha|
    c_ancilla = pref * ((mp - mm) ** 2 + 2.0 * aa * (1.0 - aa))
    amp = (pts.b_plus * pts.alpha_minus * np.sin(pts.beta) * np.exp(1j * pts.delta)
           + pts.b_minus * pts.alpha_plus * np.cos(pts.beta))
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
    separable_points, coupled_amplitudes and an (N, 4, 2) factor
    wootters_concurrence together. The peaks are then refined
    by one golden-section search over all entries in lockstep, each call
    the same pass, without the checks on p_plus and |alpha_c| the scan
    has made, on every phase the next steps of each entry still
    searching could need (_golden_min), so the reported argmax rests on
    the numeric ledger route and not on any closed-form expectation.

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
    # (a share lies in [0, 1], and _band_share has refused |alpha_c| >= 1)
    flat = vmax - vmin < 1e-12
    arg = np.full(aa.size, math.acos(-abs_alpha_c))

    live = np.flatnonzero(~flat)
    if live.size:
        # p_plus and abs_alpha_c are the scan's, which has checked them;
        # the overlaps change with gamma, so _overlaps checks them again
        from .ussd import _overlaps, _swap

        p, ac = float(p_plus), complex(abs_alpha_c)

        def neg_share(rows, g):
            aa_rows = aa[live[rows]]
            canon = _swap(np.full(g.size, p), aa_rows * np.exp(1j * g), np.full(g.size, ac))
            return -_band_core(*canon, _overlaps(*canon), lambda i: (
                p, float(aa_rows[i]), float(abs_alpha_c), float(g[i])))

        k = np.argmax(vals[live], axis=1)
        peak, neg_peak = _golden_min(neg_share, gammas[np.maximum(k - 1, 0)],
                                     gammas[np.minimum(k + 1, half - 1)])
        arg[live] = peak
        vmax[live] = np.where(-neg_peak > vmax[live], -neg_peak, vmax[live])

    tol_min = vmin + 1e-9
    scans = tuple(
        BandScan(float(vmin[r]), float(vmax[r]),
                 (0.0, math.pi) if flat[r] else
                 tuple(gammas[vals[r] <= tol_min[r]].tolist()),
                 float(arg[r]), scan_points)
        for r in range(aa.size))
    return scans if given.ndim else scans[0]


def _band_share(p_plus, abs_alpha, abs_alpha_c, gammas) -> np.ndarray:
    """Environment-ancilla share at each phase, on the numeric route;
    p_plus, abs_alpha, abs_alpha_c and gammas broadcast together. The
    inputs are checked as separable_points checks them, and |alpha_c|
    below 1, before _band_core; the entry that fails is named by its
    inputs."""
    from .ussd import _canonical, _overlaps

    alpha = abs_alpha * np.exp(1j * np.asarray(gammas, dtype=float))
    shape = np.broadcast(p_plus, alpha, abs_alpha_c).shape

    def at(i) -> tuple:
        return tuple(float(np.broadcast_to(x, shape).flat[i])
                     for x in (p_plus, abs_alpha, abs_alpha_c, gammas))

    p, a, ac = _canonical(p_plus, alpha, abs_alpha_c)
    polar = _overlaps(p, a, ac)
    unit = np.abs(abs_alpha_c) >= 1.0
    if np.count_nonzero(unit):
        raise DegenerateOverlap(
            f"|alpha_c| = {at(int(np.argmax(np.broadcast_to(unit, shape))))[2]!r}: "
            "identical environment states carry no coherence, so the band share is undefined")
    return _band_core(p, a, ac, polar, at).reshape(shape)


def _band_core(p, a, ac, polar, at) -> np.ndarray:
    """The share of each canonical instance, p, a and ac flat arrays as
    _canonical returns them and polar their _overlaps, without the checks
    on p and on |alpha_c| below 1. The checks on computed values stay:
    unit_rows on the coupled amplitudes, and a vanished total, each
    naming the entry at(i) by its inputs."""
    from .ussd import _separable, coupled_amplitudes

    def named(i) -> str:
        return " at p_plus = {!r}, |alpha| = {!r}, |alpha_c| = {!r}, gamma = {!r}".format(*at(i))

    amps = coupled_amplitudes(_separable(p, a, ac, *polar), named)
    total = _tangles(amps, _SAC, ("C",))[0]
    vanished = total < 1e-30
    if np.count_nonzero(vanished):
        raise NumericalError(
            f"total coherence vanished{named(int(np.argmax(vanished)))}; share undefined")
    c_ca = wootters_concurrence(_factor(amps, _SAC, ["C", "A"]))
    share = c_ca * c_ca / total
    # at most 1 by the pivot sum, so a larger value is noise; c_ca >= 0
    # and total > 0, so share >= 0
    return np.where(1.0 < share, 1.0, share)


# rows per call of _golden_min's objective: four steps of one bracket,
# three of two, two (the least) of three or more
_ROW_BUDGET = 16


def _golden_min(f, lo, hi, tol: float = 1e-10) -> tuple:
    """Golden-section minima of unimodal functions, one per bracket.

    lo and hi are 1-D stacks of brackets, and f(rows, x) returns, for
    each j, the value at x[j] of the function of bracket rows[j]. All
    brackets step in lockstep, k steps per call of f, and each stops
    once its own b - a <= tol, so brackets finish at different steps and
    each makes exactly the decisions of a search on it alone, and
    returns the same point and value. Returns the stacks of midpoints of
    the final brackets and of f there.

    A step's comparison is known before its call, so its new point is
    fixed; each later step's point waits on the value before it, so f
    takes, in the same call, every point the next k - 1 steps could
    need: a tree of up to 2**k - 1 rows per bracket, the known step's
    point and the two candidates below each node (first the one taken
    where f(c) < f(d)), with none below a node whose bracket has reached
    tol. k is the most steps that keep a call within _ROW_BUDGET rows,
    and at least 2. Each candidate is computed by the expression of its
    step, and the walk down each tree takes the steps again on the
    values f returned, so every decision rests on computed values. The
    speculative points lie inside the current bracket, and an error f
    raises at one the search does not take still propagates. A bracket
    is kept as a list [a, b, c, d, f(c), f(d)] of floats.
    """
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c, d = b - inv * (b - a), a + inv * (b - a)
    every = np.arange(a.size)
    both = f(np.concatenate([every, every]), np.concatenate([c, d])).tolist()
    br = [list(t) for t in zip(a.tolist(), b.tolist(), c.tolist(), d.tolist(),
                               both[:a.size], both[a.size:])]

    def step(t) -> int:
        """Step bracket t by its known comparison; 4 if its new point is c, 5 if d."""
        a, b, c, d, fc, fd = t
        if fc < fd:
            t[1], t[2], t[3], t[5] = d, d - inv * (d - a), c, fc
            return 4
        t[0], t[2], t[3], t[4] = c, d, c + inv * (b - c), fd
        return 5

    live = [i for i, t in enumerate(br) if t[1] - t[0] > tol]
    while live:
        n, k = len(live), 2
        while n * (2 ** (k + 1) - 1) <= _ROW_BUDGET:
            k += 1
        # level j of the trees holds 2**j nodes per bracket, the children
        # of the node at position p of level j - 1 at 2p and 2p + 1
        starts = [n * (2 ** j - 1) for j in range(1, k)]
        owner = np.concatenate([np.repeat(live, 2 ** j) for j in range(k)])
        while len(live) == n:
            slots = [step(br[i]) for i in live]
            pts = [br[i][s - 2] for i, s in zip(live, slots)]
            # each node as [a, b, c, d] after its step; None, and no
            # point, below a node whose bracket has reached tol
            level = [br[i] for i in live]
            for j in range(1, k):
                new = [x for t in level for x in (
                    (t[3] - inv * (t[3] - t[0]), t[2] + inv * (t[1] - t[2]))
                    if t is not None and t[1] - t[0] > tol else (None, None))]
                pts += new
                if j < k - 1:
                    level = [x for t, lc, rd in zip(level, new[::2], new[1::2]) for x in (
                        ((t[0], t[3], lc, t[2]), (t[2], t[1], t[3], rd))
                        if lc is not None else (None, None))]
            # all() is the cheap test for a None; a point at 0.0 takes the
            # filtering branch too, which serves every list
            if all(pts):
                fx = f(owner, np.array(pts)).tolist()
            else:
                rows = [p for p, x in enumerate(pts) if x is not None]
                fx = [None] * len(pts)
                for p, v in zip(rows, f(owner[rows], np.array([pts[p] for p in rows])).tolist()):
                    fx[p] = v
            # each bracket's walk down its tree takes the steps again, on
            # the values f returned: a step whose new point is c goes to
            # position 2p of the next level, one whose new point is d to 2p + 1
            for i, s, v, p in zip(live, slots, fx, range(n)):
                t = br[i]
                t[s] = v
                for start in starts:
                    if t[1] - t[0] <= tol:
                        break
                    s = step(t)
                    p = 2 * p + s - 4
                    t[s] = fx[start + p]
            live = [i for i in live if br[i][1] - br[i][0] > tol]
    a, b = np.array([t[:2] for t in br], dtype=float).reshape(-1, 2).T
    x = 0.5 * (a + b)
    return x, f(every, x)
