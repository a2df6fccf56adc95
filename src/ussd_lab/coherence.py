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
    PartitionError,
    RangeError,
    ShapeError,
)
from .qcore import DensityMatrix, PureState, partial_trace, reduce_stack
from .tolerances import DEFAULT as TOL

_SY = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_SY, _SY).real  # spin-flip kernel, real in this basis


def _as_vector(psi, dim: int) -> np.ndarray:
    if isinstance(psi, PureState):
        v = psi.amplitudes
    else:
        v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.size != dim:
        raise ShapeError(f"expected a length-{dim} vector, got {v.size}")
    return v


def wootters_concurrence(rho):
    """Concurrence of a two-qubit mixed state, or of each in a stack.

    rho is one 4x4 matrix (or DensityMatrix), which gives a float, or a
    (..., 4, 4) stack, which gives an array of the leading shape; one
    matrix is a stack of one. Works from a rank-revealing factorization
    rho = V V^dag and takes the singular values of V^T (sy x sy) V.
    These equal the conventional square-rooted eigenvalues of rho rho~
    but remain accurate for the rank-2 states this package produces,
    where the textbook sqrt(rho) route loses half the available digits.
    Matrices are grouped by rank, so each factor has the shape it would
    have on its own and every value is bit-equal to a call on that
    matrix alone.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
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


def pure_concurrence(psi, part=None) -> float:
    """Concurrence of a pure state across a bipartition.

    With part=None, psi must be a two-qubit vector (subnormalized vectors
    are accepted; the value then scales with the squared norm, which is
    the convention used for heralded branches). Otherwise part names one
    qubit of a PureState and the cut is that qubit against the rest.
    """
    if part is None:
        v = _as_vector(psi, 4)
        return float(2.0 * abs(v[0] * v[3] - v[1] * v[2]))
    labels = [part] if isinstance(part, str) else list(part)
    if not isinstance(psi, PureState):
        raise ShapeError("a labeled partition needs a PureState")
    if len(labels) == 0 or len(labels) >= psi.n_qubits:
        raise PartitionError("partition must be nonempty and proper")
    if len(labels) != 1:
        raise PartitionError("only single-qubit cuts are supported")
    if labels[0] not in psi.register:
        raise PartitionError(
            f"part {labels[0]!r} is not a register label of {psi.register}")
    rho = partial_trace(psi, labels).matrix
    det = float(np.linalg.det(rho).real)
    return float(2.0 * math.sqrt(max(det, 0.0)))


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
    v = _as_vector(psi, 8)
    t3 = _hyperdet_tangle(v)
    reg = psi.register if isinstance(psi, PureState) else ("S", "A", "C")
    state = psi if isinstance(psi, PureState) else PureState(reg, v)
    for pivot in reg:
        residual = _pivot_residual(state, pivot)
        if abs(residual - t3) > TOL.tangle_consistency:
            raise NumericalError(
                f"tangle routes disagree at pivot {pivot}: {residual!r} vs {t3!r}"
            )
    return t3


def _tangle(psi: PureState, q: str) -> float:
    """One-vs-rest tangle of qubit q: 4 det of its reduced state."""
    return 4.0 * max(float(np.linalg.det(partial_trace(psi, [q]).matrix).real), 0.0)


def _pivot_residual(state: PureState, pivot: str) -> float:
    rest = [q for q in state.register if q != pivot]
    tau = _tangle(state, pivot)
    c2 = sum(
        wootters_concurrence(partial_trace(state, [pivot, other]).matrix) ** 2
        for other in rest
    )
    return tau - c2


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


def ledger(psi: PureState) -> CoherenceLedger:
    """Tangle ledger of a three-qubit pure state."""
    if not isinstance(psi, PureState) or psi.n_qubits != 3:
        raise ShapeError("ledger needs a three-qubit PureState")
    reg = psi.register
    bipartite = {}
    for q in reg:
        rest = "".join(x for x in reg if x != q)
        bipartite[f"{q}:{rest}"] = _tangle(psi, q)
    pairwise = {}
    for x, y in combinations(reg, 2):
        c = wootters_concurrence(partial_trace(psi, [x, y]).matrix)
        pairwise[f"{x}:{y}"] = c * c

    def other_pair(pivot):
        x, y = [q for q in reg if q != pivot]
        return pairwise[f"{x}:{y}"]

    sums = [bipartite[f"{q}:{''.join(x for x in reg if x != q)}"] + other_pair(q)
            for q in reg]
    total = float(np.mean(sums))
    residual = float(max(sums) - min(sums))
    genuine = _hyperdet_tangle(psi.amplitudes)
    return CoherenceLedger(
        register=reg,
        c_total=total,
        c_bipartite=bipartite,
        c_pairwise=pairwise,
        c_genuine=genuine,
        monogamy_residual=residual,
    )


# ---------------------------------------------------------------------------
# closed forms for the discrimination protocol

def initial_coherence(inst) -> float:
    """Total coherence carried into the protocol by the system-environment
    state: 4 r+ r- (1 - |alpha_c|^2)(1 - |alpha|^2). Exact for every
    admissible instance."""
    aa = abs(inst.alpha)
    ac = abs(inst.alpha_c)
    # (1-aa)(1+aa) stays accurate for aa near 1, unlike 1-aa**2
    return float(
        4.0 * inst.r_plus * inst.r_minus
        * (1.0 - ac * ac) * (1.0 - aa) * (1.0 + aa)
    )


def closed_form_coherences(inst, strat) -> tuple:
    """Closed-form coherence triple (total, ancilla-vs-rest, genuine).

    The genuine (three-way) entry is an identity over the whole strategy
    family. The total and the ancilla-vs-rest entries reproduce the
    numeric ledger only at the optimal radii together with the failure
    angles that make the system-ancilla pair separable; elsewhere they
    are just reference values. Callers comparing against a ledger must
    evaluate at that point.
    """
    aa = abs(inst.alpha)
    ac = abs(inst.alpha_c)
    mp = abs(strat.alpha_plus)
    mm = abs(strat.alpha_minus)
    pref = 4.0 * inst.r_plus * inst.r_minus * (1.0 - ac * ac)
    # both brackets are rewritten to avoid cancellation as |alpha| -> 1;
    # the second uses the pair constraint |a+||a-| = |alpha|
    c_total = pref * (1.0 - aa) * (1.0 + aa)
    c_ancilla = pref * ((mp - mm) ** 2 + 2.0 * aa * (1.0 - aa))
    bp = math.sqrt(max(1.0 - mp * mp, 0.0))
    bm = math.sqrt(max(1.0 - mm * mm, 0.0))
    amp = (bp * strat.alpha_minus * math.sin(strat.beta) * np.exp(1j * strat.delta)
           + bm * strat.alpha_plus * math.cos(strat.beta))
    c_genuine = pref * float(abs(amp) ** 2)
    return (float(c_total), float(c_ancilla), float(c_genuine))


def closed_form_total_converted(pts) -> tuple:
    """The total and ancilla-vs-rest entries of closed_form_coherences
    over a SeparablePoints stack, as two arrays, each entry bit-equal to
    the scalar triple at the same separable strategy."""
    aa = np.hypot(pts.alpha.real, pts.alpha.imag)
    ac = np.hypot(pts.alpha_c.real, pts.alpha_c.imag)
    mp = np.hypot(pts.alpha_plus.real, pts.alpha_plus.imag)
    mm = np.hypot(pts.alpha_minus.real, pts.alpha_minus.imag)
    pref = 4.0 * pts.r_plus * pts.r_minus * (1.0 - ac * ac)
    c_total = pref * (1.0 - aa) * (1.0 + aa)
    # a scalar x ** 2 calls pow, which an array square can miss by an ulp
    c_ancilla = pref * (np.float_power(mp - mm, 2) + 2.0 * aa * (1.0 - aa))
    return c_total, c_ancilla


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


def coherence_band(p_plus: float, abs_alpha: float, abs_alpha_c: float,
                   scan_points: int = 720) -> BandScan:
    """Scan the environment-ancilla share of the total coherence over the
    relative phase.

    For each gamma the instance is evaluated at its optimal radii and
    separable failure angles, where the total coherence reduces to the
    environment one-vs-rest tangle; the share is then the pairwise
    environment-ancilla tangle divided by that total. The scan covers
    [0, pi] (mirror symmetry supplies the rest) as one array pass: the
    scan_points // 2 + 1 phases go through separable_points,
    coupled_amplitudes, reduce_stack and a (N, 4, 4) wootters_concurrence
    together. The peak is then refined by golden-section search, each
    step the same pass on a single phase, so the reported argmax rests on
    the numeric ledger route and not on any closed-form expectation.

    The share is undefined where the total coherence vanishes: at an
    extreme prior (p_plus not in (0, 1), RangeError) and at
    |alpha_c| = 1 (DegenerateOverlap).
    """
    if scan_points < 8:
        raise ShapeError("scan_points too small to bracket a peak")
    if not 0.0 < p_plus < 1.0:
        raise RangeError(f"p_plus must lie in (0, 1) for a phase band, got {p_plus!r}; "
                         "an extreme prior carries no coherence to share")

    half = scan_points // 2 + 1
    gammas = np.linspace(0.0, math.pi, half)
    vals = _band_share(p_plus, abs_alpha, abs_alpha_c, gammas)
    vmin, vmax = float(vals.min()), float(vals.max())

    if vmax - vmin < 1e-12 * max(1.0, vmax):
        # flat profile: every gamma is extremal, report the stationary point
        arg = float(math.acos(max(-1.0, min(1.0, -abs_alpha_c))))
        return BandScan(vmin, vmax, (0.0, math.pi), arg, scan_points)

    k = int(np.argmax(vals))
    lo = gammas[max(k - 1, 0)]
    hi = gammas[min(k + 1, half - 1)]
    arg, neg_peak = _golden_min(
        lambda g: -float(_band_share(p_plus, abs_alpha, abs_alpha_c, [g])[0]),
        float(lo), float(hi))
    vmax = max(vmax, -neg_peak)

    tol_min = vmin + 1e-9 * max(1.0, vmax)
    argmin = tuple(float(g) for g, v in zip(gammas, vals) if v <= tol_min)
    return BandScan(vmin, float(vmax), argmin, float(arg), scan_points)


def _band_share(p_plus, abs_alpha, abs_alpha_c, gammas) -> np.ndarray:
    """Environment-ancilla share at each phase, on the numeric route."""
    from .ussd import coupled_amplitudes, separable_points

    pts = separable_points(p_plus, abs_alpha * np.exp(1j * np.asarray(gammas, dtype=float)),
                           abs_alpha_c)
    if abs(abs_alpha_c) >= 1.0:
        raise DegenerateOverlap(
            f"|alpha_c| = {abs_alpha_c!r}: identical environment states carry "
            "no coherence, so the band share is undefined")
    amps = coupled_amplitudes(pts)
    det = np.linalg.det(reduce_stack(amps, ("S", "A", "C"), ["C"])).real
    total = 4.0 * np.where(0.0 > det, 0.0, det)
    if (total < 1e-30).any():
        raise NumericalError("total coherence vanished; share undefined")
    c_ca = wootters_concurrence(reduce_stack(amps, ("S", "A", "C"), ["C", "A"]))
    share = c_ca * c_ca / total
    # bounded by the pivot sum, so out-of-range values are pure noise
    share = np.where(0.0 > share, 0.0, share)
    return np.where(1.0 < share, 1.0, share)


def _golden_min(f, lo: float, hi: float, tol: float = 1e-10) -> tuple:
    """Golden-section minimum of a unimodal scalar function on [lo, hi]."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)
