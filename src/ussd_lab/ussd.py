"""Unambiguous discrimination of two sub-states entangled with an
environment qubit, assisted by a single ancilla.

The preparation is a two-qubit pure state on system S and environment C:
a mixture weight p_plus puts the system in a reference state with the
environment in its partner state, and 1 - p_plus pairs the alternative
system state with the alternative environment state. Both overlaps are
complex numbers fixed by the instance: alpha between the system
sub-states and alpha_c between the environment ones. A coupling unitary
on system and ancilla, followed by a projective ancilla measurement,
either identifies the sub-state without error (ancilla outcome 0) or
declares failure (outcome 1).

The instance is canonicalized so that p_plus <= 1/2; an input with
p_plus > 1/2 is mapped to the equivalent instance with the roles of the
two sub-states exchanged, which conjugates both overlaps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    DegenerateOverlap,
    EmbeddingError,
    NumericalError,
    RangeError,
    ShapeError,
    UndefinedPhase,
    _check,
    _entries,
    _naming,
    _nowhere,
)
from .qcore import (
    PureState,
    Unitary,
    measure_rows,
    norm_rows,
    unit_rows,
    vdot_rows,
)
from .coherence import _factor, _ledger_pass, _tangles, _total, closed_form_coherences

_TWO_PI = 2.0 * math.pi

# The instance arithmetic, one helper per formula, elementwise over arrays;
# the scalar entry points call each on one instance or a stack of one.
# np.abs of a complex array differs from np.hypot of its parts in the last
# bit on about 35 % of draws (numpy 2.4.6, x86-64). The printed digits of
# eval, fig3 and selftest follow np.hypot: with np.abs, nine of the goldens
# under tests/golden move. _abs keeps it.

_E0 = np.array([1.0, 0.0], dtype=complex)
_E1 = np.array([0.0, 1.0], dtype=complex)
_E00, _E10 = np.kron(_E0, _E0), np.kron(_E1, _E0)


def _abs(z: np.ndarray) -> np.ndarray:
    return np.hypot(z.real, z.imag)


def _polar(z) -> tuple:
    """_abs(z) and np.angle(z) of a complex value or array."""
    return np.hypot(z.real, z.imag), np.arctan2(z.imag, z.real)


def _modulus(z: complex) -> float:
    """abs(z), or inf where abs raises OverflowError: np.hypot, the
    modulus of the stacked route, returns inf there."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _pymax(a, b):
    """Python's max(a, b) elementwise: b only where b > a."""
    return np.where(b > a, b, a)


def _denominator(p, aa, ga, acm, gc):
    """The r+- denominator 1 + 2 sqrt(pq) |alpha| |alpha_c| cos(gamma) of
    canonical instances, from _polar of both overlaps. It is positive
    wherever |alpha_c| <= 1; above 1 it can reach 0 or below."""
    return 1.0 + 2.0 * np.sqrt(p * (1.0 - p)) * aa * acm * np.cos(ga + gc)


def _weights(p, aa, ga, acm, gc) -> tuple:
    """Branch weights r+-, the prior-ratio threshold tilde_alpha and the
    interior-regime flag of canonical instances (p <= 1/2), from _read or _overlaps."""
    q = 1.0 - p
    den = _denominator(p, aa, ga, acm, gc)
    tilde = np.sqrt(p / q)
    return p / den, q / den, tilde, aa < tilde


def _combination(rp, rm, ap, am, acm, gc) -> tuple:
    """Combination amplitudes of the two pure pieces of the system-ancilla
    state (see separability_params); acm, gc: _polar of alpha_c."""
    t_p, t_m = np.sqrt(rp) * ap, np.sqrt(rm) * am
    return t_p + t_m * acm * np.exp(-1j * gc), t_m + t_p * acm * np.exp(+1j * gc)


def _eta(beta, delta) -> np.ndarray:
    """(N, 2) failure directions cos(beta) |0> + sin(beta) e^{i delta} |1>."""
    eta = np.empty((beta.size, 2), dtype=complex)
    eta[:, 0] = np.cos(beta)
    eta[:, 1] = np.sin(beta) * np.exp(1j * delta)
    return eta


def _zeta(pts) -> tuple:
    """(N, 4) stacks of the images of the two sub-states (with ancilla
    attached) under the coupling, on register (S, A), one per entry of
    a SeparablePoints stack. Success lands the ancilla on |0> with the
    system pointing at its flag state; failure funnels both sub-states
    onto the shared failure direction with the ancilla on |1>."""
    n = pts.beta.size
    eta = _eta(pts.beta, pts.delta)
    ap, am = pts.alpha_plus[:, None], pts.alpha_minus[:, None]
    bp, bm = pts.b_plus[:, None], pts.b_minus[:, None]
    eta_a1 = (eta[:, :, None] * _E1).reshape(n, 4)       # np.kron(eta, e1)
    return bp * _E00 + ap * eta_a1, bm * _E10 + am * eta_a1


def _gap(mod) -> np.ndarray:
    """sqrt(max(0, 1 - mod^2)) of moduli, Python's max elementwise."""
    return np.sqrt(_pymax(0.0, 1.0 - mod ** 2))


def _partner(ov, gap) -> np.ndarray:
    """The partner vectors v with <v|0> = ov, one per entry of ov, on a
    last axis of 2: ov conjugated on |0>, and gap, the _gap of |ov|, on
    |1>, real and nonnegative."""
    out = np.empty(ov.shape + (2,), dtype=complex)
    out[..., 0] = ov.conj()
    out[..., 1] = gap
    return out


@dataclass(frozen=True)
class UssdInstance:
    """One discrimination problem, already canonicalized.

    p_plus is the prior weight of the reference sub-state, alpha the
    complex overlap between the system sub-states, alpha_c the complex
    overlap between the environment partner states. swapped records
    whether canonicalization exchanged the two sub-states.
    """

    p_plus: float
    alpha: complex
    alpha_c: complex
    swapped: bool = False

    def __post_init__(self):
        if not 0.0 <= self.p_plus <= 1.0:
            raise RangeError(f"p_plus must lie in [0, 1], got {self.p_plus!r}")
        if self.p_plus > 0.5 + 1e-15:
            raise RangeError("instances must be canonicalized to p_plus <= 1/2; "
                             "use make_instance")
        for name, value in (("alpha", self.alpha), ("alpha_c", self.alpha_c)):
            if not cmath.isfinite(value):
                raise RangeError(f"{name} must be finite, got {value!r}")
        aa, acm = _modulus(self.alpha), _modulus(self.alpha_c)
        if aa >= 1.0:
            raise DegenerateOverlap(f"|alpha| = {aa!r} leaves nothing to discriminate")
        if acm > 1.0 + 1e-15:
            raise RangeError(f"|alpha_c| = {acm!r} exceeds 1")
        if acm > 1.0 and not _denominator(self.p_plus, *_polar(self.alpha),
                                          *_polar(self.alpha_c)) > 0.0:
            raise RangeError(f"|alpha_c| = {acm!r} exceeds 1 and leaves no positive r+- "
                             f"denominator with p_plus = {self.p_plus!r}, "
                             f"alpha = {self.alpha!r}, alpha_c = {self.alpha_c!r}")

    @property
    def gamma(self) -> float:
        """Total relative phase of the two overlaps."""
        return float(np.angle(self.alpha) + np.angle(self.alpha_c))

    @cached_property
    def _branch_weights(self) -> tuple:
        """r_plus, r_minus, tilde_alpha and the interior flag, from
        _weights once per instance."""
        rp, rm, tilde, interior = _weights(self.p_plus, *_polar(self.alpha), *_polar(self.alpha_c))
        return float(rp), float(rm), float(tilde), bool(interior)

    @property
    def r_plus(self) -> float:
        """Effective weight of the reference branch in the joint state."""
        return self._branch_weights[0]

    @property
    def r_minus(self) -> float:
        return self._branch_weights[1]

    @property
    def tilde_alpha(self) -> float:
        """Prior-ratio threshold separating the two optimal regimes."""
        return self._branch_weights[2]

    @property
    def case(self) -> str:
        """Optimal-strategy regime: "interior" when both failure overlaps
        can stay below 1, "saturated" when one of them pins at 1."""
        return "interior" if self._branch_weights[3] else "saturated"


def make_instance(p_plus: float, alpha, alpha_c) -> UssdInstance:
    """Validate, canonicalize and build a discrimination instance.

    alpha and alpha_c may be complex or real. Instances with
    p_plus > 1/2 are converted to the swapped equivalent (priors
    exchanged, both overlaps conjugated).
    """
    p = float(p_plus)
    a = complex(alpha)
    ac = complex(alpha_c)
    if not 0.0 <= p <= 1.0:
        raise RangeError(f"p_plus must lie in [0, 1], got {p!r}")
    if p > 0.5:
        return UssdInstance(1.0 - p, a.conjugate(), ac.conjugate(), swapped=True)
    return UssdInstance(p, a, ac, swapped=False)


# ---------------------------------------------------------------------------
# embeddings and state assembly

@dataclass(frozen=True)
class Embedding:
    """Concrete single-qubit vectors realizing the instance overlaps."""

    xi: np.ndarray
    xi_bar: np.ndarray
    phi: np.ndarray
    phi_bar: np.ndarray

    def validate(self, inst: UssdInstance) -> None:
        """_check_embeddings on a stack of one."""
        _check_embeddings(*self.rows(), *_read([inst])[1:3])

    def rows(self) -> tuple:
        """(xi, xi_bar, phi, phi_bar) as stacks of one, the (1, 2) rows
        the stacked kernels read."""
        return tuple(np.asarray(v, dtype=complex).reshape(1, -1)
                     for v in (self.xi, self.xi_bar, self.phi, self.phi_bar))


def _check_embeddings(xi, xi_bar, phi, phi_bar, alpha, alpha_c, where=_nowhere) -> None:
    """Each row of the (N, 2) vector stacks must be a unit vector, and
    each pair must reproduce its instance overlap, within 1e-11;
    the first row to fail raises EmbeddingError, named by where(i). The
    six inner products of every row are one vdot_rows call, so a row's
    values are those of np.vdot on its vectors."""
    n = len(xi)
    dots = vdot_rows(np.concatenate((xi_bar, xi, phi_bar, phi, xi_bar, phi_bar)),
                     np.concatenate((xi_bar, xi, phi_bar, phi, xi, phi))).reshape(6, n)
    dev = dots - 1.0
    dev[4], dev[5] = dots[4] - alpha, dots[5] - alpha_c
    bad = np.abs(dev) > 1e-11
    if not bad.any():
        return
    for k, name in enumerate(("system", "environment")):
        for v in (2 * k, 2 * k + 1):
            _check(bad[v], EmbeddingError, lambda i: f"{name} vector not normalized{where(i)}")
        _check(bad[4 + k], EmbeddingError,
               lambda i: f"{name} overlap {complex(dots[4 + k, i])!r} does not match "
                         f"instance {complex((alpha, alpha_c)[k][i])!r}{where(i)}")


def canonical_embedding(inst: UssdInstance) -> Embedding:
    """Reference embedding: each plain vector is |0> and its partner
    carries the overlap in the |0> component with a real, nonnegative
    |1> component: _canonical_rows on a stack of one."""
    _, a, ac, aa, _, acm, _ = _read([inst])
    xi_bar, phi_bar = _partner(np.array([a, ac]), _gap(np.array([aa, acm])))
    return Embedding(*(v[0] for v in _canonical_rows(xi_bar, phi_bar)))


def _canonical_rows(xi_bar, phi_bar) -> tuple:
    """canonical_embedding's (xi, xi_bar, phi, phi_bar) as (N, 2) stacks,
    one row per pair of partner rows."""
    e0 = np.zeros((2, len(xi_bar), 2), dtype=complex)
    e0[:, :, 0] = 1.0
    return e0[0], xi_bar, e0[1], phi_bar


def _kron_rows(a, b) -> np.ndarray:
    """np.kron of each row pair of two vector stacks."""
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), a.shape[1] * b.shape[1])


def _chi_rows(r_plus, r_minus, xi, xi_bar, phi, phi_bar) -> tuple:
    """(N, 4) preparations on (S, C), one per row of the (N, 2) vector
    stacks, sqrt(r+) xi phi + sqrt(r-) xi_bar phi_bar, unchecked, between
    the two products they weigh: (xi phi, preparations, xi_bar phi_bar),
    the three vertices of bargmann_phase's loop."""
    ends = _kron_rows(xi, phi), _kron_rows(xi_bar, phi_bar)
    chi = np.sqrt(r_plus)[:, None] * ends[0] + np.sqrt(r_minus)[:, None] * ends[1]
    return ends[0], chi, ends[1]


def build_chi(inst: UssdInstance, embedding: Optional[Embedding] = None) -> PureState:
    """Joint system-environment preparation on register (S, C):
    _preparations on a stack of one."""
    return PureState(("S", "C"), _preparations(
        SeparablePoints.of(inst), None if embedding is None else embedding.rows())[1][1][0])


def _preparations(pts, vecs=None, where=_nowhere) -> tuple:
    """The embeddings of the entries of a SeparablePoints stack and the
    three (N, 4) stacks _chi_rows builds on them, the preparations in the
    middle, their norms unchecked. Given vecs, four (N, 2) stacks, pass
    _check_embeddings; the canonical rows are not checked, since |0> and
    (conj(ov), _gap(|ov|)) give <v|0> = ov exactly and unit norm."""
    if vecs is None:
        vecs = _canonical_rows(pts.xi_bar, pts.phi_bar)
    else:
        _check_embeddings(*vecs, pts.alpha, pts.alpha_c, where)
    return vecs, _chi_rows(pts.r_plus, pts.r_minus, *vecs)


# ---------------------------------------------------------------------------
# strategies

@dataclass(frozen=True)
class UssdStrategy:
    """Coupling-unitary parameters.

    alpha_plus and alpha_minus are the complex failure overlaps left on
    the two sub-states (their product with the second conjugated must
    reproduce the instance overlap; that pairing is checked wherever an
    instance and a strategy meet). beta and delta parameterize the
    single-qubit failure direction, and ancilla_init is the known pure
    state the ancilla starts in.
    """

    alpha_plus: complex
    alpha_minus: complex
    beta: float = 0.0
    delta: float = 0.0
    ancilla_init: np.ndarray = None

    def __post_init__(self):
        for name in ("alpha_plus", "alpha_minus"):
            if not cmath.isfinite(getattr(self, name)):
                raise RangeError(f"{name} must be finite, got {getattr(self, name)!r}")
        if abs(self.alpha_plus) > 1.0 + 1e-12 or abs(self.alpha_minus) > 1.0 + 1e-12:
            raise RangeError("failure overlaps cannot exceed unit modulus")
        if not 0.0 <= self.beta <= math.pi / 2.0 + 1e-12:
            raise RangeError(f"beta must lie in [0, pi/2], got {self.beta!r}")
        if not 0.0 <= self.delta < _TWO_PI + 1e-12:
            raise RangeError(f"delta must lie in [0, 2 pi), got {self.delta!r}")
        k = self.ancilla_init
        if k is None:
            k = np.array([1.0, 0.0], dtype=complex)
        else:
            if isinstance(k, PureState):
                k = k.amplitudes
            k = np.asarray(k, dtype=complex).reshape(-1)
            if k.size != 2:
                raise ShapeError("ancilla_init must be a single-qubit vector")
            try:
                unit_rows(k[None])      # the state-norm rule of every stack
            except ShapeError:
                raise RangeError("ancilla_init must be normalized") from None
        arr = np.array(k, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "ancilla_init", arr)

    def failure_direction(self) -> np.ndarray:
        """_eta on a stack of one."""
        return _eta(np.array([self.beta]), np.array([self.delta]))[0]


def check_pair(inst: UssdInstance, strat: UssdStrategy) -> None:
    """The two failure overlaps must multiply back to the instance overlap."""
    _check_product(strat.alpha_plus, strat.alpha_minus, inst.alpha)


def _check_product(alpha_plus, alpha_minus, alpha, named="") -> None:
    """check_pair on the three overlaps of one pair, as scalars: a complex
    array product may round another way (numpy fuses its multiply-adds).
    named is the suffix that names the entry of a stack."""
    prod = alpha_plus * np.conj(alpha_minus)
    if not abs(prod - alpha) <= 1e-12:
        raise RangeError(f"strategy overlaps give {complex(prod)!r}, "
                         f"instance needs {complex(alpha)!r}{named}")


def optimal_strategy(inst, beta=0.0, delta=0.0, ancilla_init=None):
    """Failure overlaps minimizing the failure probability: the radii of
    separable_strategy, with beta and delta passed through untouched
    (they do not affect the success probability).

    In the interior regime both moduli sit strictly inside (0, 1) at the
    geometric-mean split; in the saturated regime the reference overlap
    pins at 1 and the alternative carries all of |alpha|. The overall
    phase is placed on the reference side, leaving the alternative
    overlap real and nonnegative.

    One instance gives a UssdStrategy. A sequence of instances gives a
    tuple of them from one stack, with beta and delta one angle each or
    one per instance; each equals a call on that instance alone.
    """
    return _strategies(inst, ancilla_init, (beta, delta))


def success_probability(inst: UssdInstance, strat: UssdStrategy) -> float:
    """Heralded success probability of a strategy on an instance."""
    check_pair(inst, strat)
    mp2 = abs(strat.alpha_plus) ** 2
    mm2 = abs(strat.alpha_minus) ** 2
    return float(inst.r_plus * (1.0 - mp2) + inst.r_minus * (1.0 - mm2))


def _p_suc(rp, rm, aa, interior) -> np.ndarray:
    """Optimal success probability of each instance: the interior and
    the saturated closed form, picked by the regime flag."""
    return np.where(interior, rp + rm - 2.0 * np.sqrt(rp * rm) * aa, rm * (1.0 - aa * aa))


def p_suc_max(inst: UssdInstance) -> float:
    """Optimal success probability in closed form."""
    rp, rm, _, interior = inst._branch_weights
    return float(_p_suc(rp, rm, abs(inst.alpha), interior))


# ---------------------------------------------------------------------------
# post-coupling states

def coupled_state(inst: UssdInstance, strat: UssdStrategy) -> PureState:
    """Joint state on (S, A, C) after the coupling, assembled directly.

    This is the closed-form image of the preparation: each sub-state
    branch maps to its coupled image while the environment partner
    states ride along unchanged (canonical embedding). It is
    coupled_amplitudes on SeparablePoints.of the pair, for any strategy.
    """
    return PureState(("S", "A", "C"), coupled_amplitudes(SeparablePoints.of(inst, strat))[0])


def _flip(v) -> np.ndarray:
    """(-conj(v1), conj(v0)) of each row of an (N, 2) stack: orthogonal to
    the row, with its norm."""
    out = np.empty_like(v)
    out[:, 0] = -v[:, 1].conj()
    out[:, 1] = v[:, 0].conj()
    return out


def _coupling(pts, xi, xi_bar, k) -> tuple:
    """Couplings on (S, A), one per entry of the stack pts, with (N, 2)
    stacks of the system vectors xi, xi_bar and the ancilla's initial
    state k: the (N, 4, 4) unitaries U with U xi k = zeta+ and
    U xi_bar k = zeta- (Chefles, Phys. Lett. A 239, 1998), and each row's
    larger miss |U x k - zeta| of the two, unchecked.

    U sends the orthonormal frame (xi k, xi' k, xi k', xi' k'), where x'
    is _flip(x/|x|), to the frame (zeta+, w, c, eta' (x) |1>). Both are
    written in closed form, so nothing near-parallel is subtracted as
    |alpha| -> 1. In the orthonormal coordinates (|00>, |10>,
    eta (x) |1>), v = zeta- - s zeta+ with s = <zeta+|zeta-> reads
    (-s b+, b-, a- b+^2), since a- - s a+ = a- b+^2; w is v/|v| with the
    phase that makes U xi_bar k = s zeta+ + <xi'|xi_bar> w reproduce
    zeta-, and c is the conjugated cross product of zeta+ and w.

    Each row equals the kernel on that row alone. Norms and inner
    products are norm_rows and vdot_rows, and the one product of two
    complex entries, conj(a+) a-, is written in real arithmetic: numpy
    rounds a complex array product with fused multiply-adds, a product of
    complex scalars without."""
    n = pts.beta.size
    ap, am, bp, bm = pts.alpha_plus, pts.alpha_minus, pts.b_plus, pts.b_minus
    zp, zm = _zeta(pts)
    eta = _eta(pts.beta, pts.delta)
    # x' = _flip(x / |x|); xi and k are normalized first, so their primes
    # divide by the norm of the normalized vector
    nx, nk, ne = norm_rows(np.concatenate([xi, k, eta])).reshape(3, n, 1)
    xi_n, k_n = xi / nx, k / nk
    nxn, nkn = norm_rows(np.concatenate([xi_n, k_n])).reshape(2, n, 1)
    zeta_p = np.zeros((n, 3), dtype=complex)
    zeta_p[:, 0], zeta_p[:, 2] = bp, ap
    v = np.empty((n, 3), dtype=complex)
    v[:, 0].real = (-ap.real * am.real - ap.imag * am.imag) * bp      # -conj(a+) a- b+
    v[:, 0].imag = (-ap.real * am.imag + ap.imag * am.real) * bp
    v[:, 1], v[:, 2] = bm, am * bp * bp
    y = vdot_rows(_flip(xi_n), xi_bar)
    w = v / norm_rows(v)[:, None] * (np.conj(y) / _abs(y))[:, None]
    frame = np.zeros((n, 4, 3), dtype=complex)      # columns |00>, |10>, eta (x) |1>
    frame[:, 0, 0] = frame[:, 2, 1] = 1.0
    frame[:, :, 2] = _kron_rows(eta, _E1[None])
    coords = np.empty((n, 3, 3), dtype=complex)
    coords[:, :, 0], coords[:, :, 1] = zeta_p, w
    for r, p, q in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):     # conj(zeta+ x w), as np.cross
        coords[:, r, 2] = (zeta_p[:, p] * w[:, q] - zeta_p[:, q] * w[:, p]).conj()
    outs = np.empty((n, 4, 4), dtype=complex)
    outs[:, :, :3] = frame @ coords
    outs[:, :, 3] = _kron_rows(_flip(eta / ne), _E1[None])
    ins = np.empty((n, 4, 4), dtype=complex)
    for c, (a, b) in enumerate((a, b) for b in (k_n, _flip(k_n / nkn))
                               for a in (xi_n, _flip(xi_n / nxn))):
        ins[:, :, c] = _kron_rows(a, b)
    u = outs @ ins.conj().swapaxes(1, 2)
    miss = norm_rows(np.concatenate([(u @ _kron_rows(x, k)[:, :, None])[:, :, 0] - z
                                     for x, z in ((xi, zp), (xi_bar, zm))])).reshape(2, n)
    return u, np.maximum(miss[0], miss[1])


def _check_mapping(miss, where=_nowhere) -> None:
    _check(~(miss <= 1e-10), NumericalError,
           lambda i: f"coupling unitary misses a constraint by {miss[i]:.3e}{where(i)}")


def _pairs(inst, strat, embedding) -> tuple:
    """One instance, strategy and embedding (None for the canonical one),
    or equal-length sequences of instances and strategies, which take
    the canonical embeddings: (single, instances, strategies, their
    _given stack, _preparations of it, where) by _entries' rule."""
    single, insts, strats, where = _entries(inst, (strat, "strategies"))
    if not single and embedding is not None:
        raise ShapeError("a sequence of instances takes the canonical embeddings")
    pts = _given(insts, strats, where)
    return (single, insts, strats, pts,
            _preparations(pts, None if embedding is None else embedding.rows(), where), where)


def coupling_unitary(inst, strat, embedding=None):
    """Two-qubit coupling on (S, A) that maps xi (x) k to zeta+ and
    xi_bar (x) k to zeta-, k the ancilla's initial state: _coupling on
    the stack and embeddings _pairs checks. A miss of either constraint
    beyond the mapping tolerance raises NumericalError.

    One instance and strategy give a Unitary; equal-length sequences
    (with the canonical embeddings) give a tuple of them from one stack,
    each equal to a call on that pair alone."""
    single, insts, strats, pts, ((xi, xi_bar, _, _), _), where = _pairs(inst, strat, embedding)
    if not insts:
        return ()
    u, miss = _coupling(pts, xi, xi_bar, np.array([st.ancilla_init for st in strats]))
    _check_mapping(miss, where)
    us = tuple(Unitary(("S", "A"), m) for m in u)
    return us[0] if single else us


@dataclass(frozen=True)
class OutcomeRecord:
    outcome: int
    probability: float
    state: Optional[PureState]


@dataclass(frozen=True)
class ProtocolResult:
    """Everything the protocol produces on one instance/strategy pair."""

    instance: UssdInstance
    strategy: UssdStrategy
    unitary: Unitary
    state: PureState          # joint (S, A, C) state after the coupling
    outcomes: tuple           # ancilla measurement branches

    @property
    def success_probability(self) -> float:
        return self.outcomes[0].probability


def run_protocol(inst, strat, embedding=None):
    """Simulate the protocol end to end through the coupling unitary.

    The preparation is embedded, the ancilla attached in its initial
    state, the coupling applied, and the ancilla measured in the
    computational basis. Outcome 0 heralds success.

    inst and strat are one instance and its strategy, which gives a
    ProtocolResult, or equal-length sequences of them, which give a tuple
    of results with the canonical embeddings. The stack runs in
    one pass: the checks of _pairs, the preparations (_chi_rows), the
    couplings (_coupling) on the ready states UssdStrategy has checked,
    one batched matmul and one measure_rows, each check naming the entry
    at fault; each result equals a call on that pair alone. The Born
    statistics never read coupled_amplitudes.
    """
    single, insts, strats, pts, ((xi, xi_bar, _, _), (_, chi, _)), where = _pairs(
        inst, strat, embedding)
    if not insts:
        return ()
    n = len(insts)
    k = np.array([st.ancilla_init for st in strats])
    unit_rows(chi, where)
    # (S, A, C) = chi (x) k with the ancilla moved between S and C
    psi0 = (chi[:, :, None] * k[:, None, :]).reshape(n, 2, 2, 2).transpose(0, 1, 3, 2)
    unit_rows(psi0, where)
    u, miss = _coupling(pts, xi, xi_bar, k)
    _check_mapping(miss, where)
    psi = (u @ psi0.reshape(n, 4, 2)).reshape(n, 2, 2, 2)
    unit_rows(psi, where)
    probs, live, post = measure_rows(psi, 2, True, where)
    sac = ("S", "A", "C")
    results = tuple(ProtocolResult(
        instance=insts[i], strategy=strats[i], unitary=Unitary(("S", "A"), u[i]),
        state=PureState(sac, psi[i].reshape(-1)),
        outcomes=tuple(OutcomeRecord(outcome=o, probability=float(probs[o, i]),
                                     state=PureState(sac, post[o, i].reshape(-1))
                                     if live[o, i] else None) for o in (0, 1)))
        for i in range(n))
    return results[0] if single else results


# ---------------------------------------------------------------------------
# failure-branch separability

@dataclass(frozen=True)
class SeparabilityParams:
    """Two-term decomposition of the system-ancilla state.

    The post-coupling system-ancilla density operator always splits into
    exactly two (subnormalized) pure pieces built on the coupled images
    of the sub-states; the combination weights q_plus/q_minus and phases
    omega_plus/omega_minus are functions of the instance and the strategy
    radii only. The failure angles at which the system-ancilla
    concurrence vanishes are separable_strategy's beta and delta.
    """

    q_plus: float             # squared moduli of the combination amplitudes
    q_minus: float
    omega_plus: float         # arguments of the combination amplitudes
    omega_minus: float
    q1_plus: float            # first piece: coefficients on the two images
    q1_minus: float
    gamma1: float
    q2_plus: float            # second piece
    q2_minus: float
    gamma2: float


def separability_params(inst: UssdInstance, strat: UssdStrategy) -> SeparabilityParams:
    """Decompose the system-ancilla state into its two pure pieces.

    The pieces are evaluated at the strategy's current failure angles;
    the decomposition holds for any of them.
    """
    check_pair(inst, strat)
    rp, rm = inst.r_plus, inst.r_minus
    ap, am = strat.alpha_plus, strat.alpha_minus
    amp_p, amp_m = _combination(rp, rm, ap, am, *_polar(inst.alpha_c))
    qp, qm = float(abs(amp_p) ** 2), float(abs(amp_m) ** 2)
    wp, wm = float(np.angle(amp_p)), float(np.angle(amp_m))
    g2 = (float(np.angle(inst.alpha)) - math.pi) % _TWO_PI

    fail = 1.0 - success_probability(inst, strat)
    if fail < 1e-15:
        # no failure branch: the ancilla never flags, the system-ancilla
        # state is already a product, and every angle choice is separable
        return SeparabilityParams(
            q_plus=qp, q_minus=qm, omega_plus=wp, omega_minus=wm,
            q1_plus=0.0, q1_minus=0.0, gamma1=0.0,
            q2_plus=0.0, q2_minus=0.0, gamma2=g2,
        )

    c1p = math.sqrt(rp * qp / fail)
    c1m = math.sqrt(rm * qm / fail)
    acm = abs(inst.alpha_c)
    env_gap = math.sqrt(max(0.0, 1.0 - acm * acm))
    c2p = abs(am) * env_gap * math.sqrt(rp * rm / fail)
    c2m = abs(ap) * env_gap * math.sqrt(rp * rm / fail)
    return SeparabilityParams(
        q_plus=qp, q_minus=qm, omega_plus=wp, omega_minus=wm,
        q1_plus=c1p, q1_minus=c1m, gamma1=wp - wm,
        q2_plus=c2p, q2_minus=c2m, gamma2=g2,
    )


def separable_strategy(inst, ancilla_init=None):
    """Optimal strategy with the failure angles set to the separable point:
    the kernel of separable_points, taking each canonical instance as it
    is. One instance gives a UssdStrategy (a stack of one), a sequence of
    them a tuple from one stack."""
    return _strategies(inst, ancilla_init)


def _strategies(inst, ancilla_init, angles=None):
    """The strategies of one _separable pass over one instance or a
    sequence of them, at the separable angles or at angles = (beta,
    delta), each one value or one per instance."""
    single, insts, _ = _entries(inst)
    pts = SeparablePoints.of(insts)
    if angles is not None:
        n = len(insts)
        beta, delta = (np.asarray(x, dtype=float) for x in angles)
        if not {beta.shape, delta.shape} <= {(), (n,)}:
            raise ShapeError(f"{n} instances need one beta and delta each, or one for all")
        pts = replace(pts, beta=np.broadcast_to(beta, (n,)), delta=np.broadcast_to(delta, (n,)))
    strats = tuple(pts.strategy(i, ancilla_init) for i in range(len(insts)))
    return strats[0] if single else strats


# ---------------------------------------------------------------------------
# the separable point over arrays

def _flat(value, shape, dtype) -> np.ndarray:
    out = np.empty(shape, dtype=dtype)
    out[...] = value
    return out.reshape(-1)


@dataclass(frozen=True)
class SeparablePoints:
    """Canonical instances with a strategy each, one array entry per
    instance: what coupled_amplitudes, closed_form_coherences and
    eval_report read. p_plus is the canonical prior, alpha and alpha_c
    the canonical overlaps, r_plus/r_minus the branch weights, interior
    the optimal-strategy regime (UssdInstance.case == "interior"),
    alpha_plus/alpha_minus the failure overlaps and beta/delta the
    failure angles. A stack is valid where it is built, by
    separable_points or of(), so its readers check no caller input again.

    _stack fills what the readers would otherwise compute again:
    abs_/arg_alpha and abs_/arg_alpha_c, the _polar of both overlaps;
    abs_plus/abs_minus, the moduli |alpha_+-|, and b_plus/b_minus, their
    _gap, the success components of the coupled images (_zeta); and
    xi_bar/phi_bar, the (N, 2) _partner rows of alpha and alpha_c, the
    canonical embedding's partner vectors."""

    p_plus: np.ndarray
    alpha: np.ndarray
    alpha_c: np.ndarray
    r_plus: np.ndarray
    r_minus: np.ndarray
    interior: np.ndarray
    alpha_plus: np.ndarray
    alpha_minus: np.ndarray
    beta: np.ndarray
    delta: np.ndarray
    abs_alpha: np.ndarray
    arg_alpha: np.ndarray
    abs_alpha_c: np.ndarray
    arg_alpha_c: np.ndarray
    abs_plus: np.ndarray
    abs_minus: np.ndarray
    b_plus: np.ndarray
    b_minus: np.ndarray
    xi_bar: np.ndarray
    phi_bar: np.ndarray

    @staticmethod
    def of(inst, strat=None) -> "SeparablePoints":
        """Instances with their strategies as given: one pair, which is a
        stack of one, or equal-length sequences of each, one entry per
        pair, by _entries' rule, each pair checked by check_pair (_given);
        with strat None, at their separable strategies (_separable)."""
        if strat is None:
            return _separable(*_read(_entries(inst)[1]))
        return _given(*_entries(inst, (strat, "strategies"))[1:])

    def strategy(self, i: int, ancilla_init=None) -> UssdStrategy:
        """The strategy of entry i, as a UssdStrategy."""
        return UssdStrategy(alpha_plus=complex(self.alpha_plus[i]),
                            alpha_minus=complex(self.alpha_minus[i]),
                            beta=float(self.beta[i]), delta=float(self.delta[i]),
                            ancilla_init=ancilla_init)


def separable_points(p_plus, alpha, alpha_c) -> SeparablePoints:
    """make_instance and separable_strategy over broadcast arrays of
    priors and complex overlaps, with make_instance's prior check and
    UssdInstance's overlap checks applied to the whole array; the first
    entry to fail names the fault. The strategy built from entries that
    pass is not checked again: |alpha_+-| <= 1, alpha_+ conj(alpha_-) =
    alpha, beta in [0, pi/2] (an arctan2 of two nonnegative numbers) and
    delta in [0, 2 pi] (np.remainder) hold by construction, and
    strategy(i) still hands out a validated UssdStrategy."""
    p, a, ac = _canonical(p_plus, alpha, alpha_c)
    return _separable(p, a, ac, *_overlaps(p, a, ac))


def _canonical(p_plus, alpha, alpha_c) -> tuple:
    """make_instance's swap over broadcast arrays: flat arrays of
    canonical priors (p <= 1/2) and overlaps, in C order. One test passes
    every admissible prior; where it fails, make_instance rejects the
    first entry that fails it."""
    shape = np.broadcast(p_plus, alpha, alpha_c).shape
    p = _flat(p_plus, shape, float)
    a, ac = _flat(alpha, shape, complex), _flat(alpha_c, shape, complex)
    ok = (0.0 <= p) & (p <= 1.0)
    if np.count_nonzero(ok) < p.size:
        i = int(np.argmin(ok))
        make_instance(p[i], a[i], ac[i])
    return _swap(p, a, ac)


def _swap(p, a, ac) -> tuple:
    """make_instance's swap on flat arrays of checked priors and
    overlaps: where p > 1/2, the prior 1 - p and both overlaps
    conjugated. The arrays themselves when no prior exceeds 1/2."""
    swapped = p > 0.5
    if not np.count_nonzero(swapped):
        return p, a, ac
    return (np.where(swapped, 1.0 - p, p), np.where(swapped, a.conj(), a),
            np.where(swapped, ac.conj(), ac))


def _read(insts) -> tuple:
    """p_plus, alpha and alpha_c of a sequence of instances as arrays, then
    _polar of each overlap, unchecked: UssdInstance has checked them."""
    p = np.array([i.p_plus for i in insts], dtype=float)
    a = np.array([i.alpha for i in insts], dtype=complex)
    ac = np.array([i.alpha_c for i in insts], dtype=complex)
    return (p, a, ac, *_polar(a), *_polar(ac))


def _overlaps(p, a, ac) -> tuple:
    """_polar of alpha, then of alpha_c, of canonical instances with
    priors p. A modulus is inf or NaN where its overlap is not finite, so
    one test passes every admissible array; where it fails, UssdInstance
    rejects the first entry that fails it. Only entries with |alpha_c|
    above 1 can leave no positive _denominator, and only those entries
    are tested for it."""
    (aa, ga), (acm, gc) = _polar(a), _polar(ac)
    ok = (aa < 1.0) & (acm <= 1.0 + 1e-15)
    over = ok & (acm > 1.0)
    if np.count_nonzero(over):
        ok[over] = _denominator(p[over], aa[over], ga[over], acm[over], gc[over]) > 0.0
    if np.count_nonzero(ok) < aa.size:
        i = int(np.argmin(ok))
        UssdInstance(float(p[i]), complex(a[i]), complex(ac[i]))
    return aa, ga, acm, gc


def fig2_cells(p_plus, alpha, alpha_c) -> tuple:
    """make_instance over broadcast arrays, then the total coherence and
    the optimal success probability of each instance, flat in C order:
    the pass that fig2 prints and the battery's fig2 check reads."""
    p, a, ac = _canonical(p_plus, alpha, alpha_c)
    aa, ga, acm, gc = _overlaps(p, a, ac)
    rp, rm, _, interior = _weights(p, aa, ga, acm, gc)
    return _total(rp, rm, aa, acm)[1], _p_suc(rp, rm, aa, interior)


def _given(insts, strats, where) -> SeparablePoints:
    """The stack of equal-length lists of instances and strategies: the
    one place that runs check_pair on a stack, each pair in turn, the
    first to fail named by where(i)."""
    p, a, ac, *polar = _read(insts)
    ap, am, beta, delta = (np.array([getattr(s, k) for s in strats], dtype=t) for k, t in (
        ("alpha_plus", complex), ("alpha_minus", complex), ("beta", float), ("delta", float)))
    for i, pair in enumerate(zip(ap.tolist(), am.tolist(), a.tolist())):
        _check_product(*pair, where(i))
    return _stack(p, a, ac, polar, _weights(p, *polar), ap, am, _abs(ap), _abs(am), beta, delta)


def _stack(p, a, ac, polar, weights, ap, am, mp, mm, beta, delta) -> SeparablePoints:
    """The SeparablePoints record of canonical instances p, a, ac, with
    polar (aa, ga, acm, gc), the _polar of both overlaps, and weights,
    their _weights, at failure overlaps ap, am of moduli mp, mm and
    angles beta, delta: the one place that fills the carried moduli,
    their _gap b+- and the _partner rows of alpha and alpha_c."""
    b = _gap(np.array([polar[0], polar[2], mp, mm]))
    return SeparablePoints(p, a, ac, *weights[:2], weights[3], ap, am, beta, delta, *polar,
                           mp, mm, b[2], b[3], *_partner(np.array([a, ac]), b[:2]))


def _separable(p, a, ac, aa, ga, acm, gc) -> SeparablePoints:
    """The separable point of each canonical instance (p <= 1/2 up to the
    1e-15 UssdInstance allows), without the swap, from _polar of its
    overlaps: _overlaps where they still need checking."""
    rp, rm, tilde, interior = _weights(p, aa, ga, acm, gc)
    # optimal_strategy, with the phase of alpha on the reference side
    mp = np.where(interior, np.sqrt(aa / np.where(interior, tilde, 1.0)), 1.0)
    mm = np.where(interior, np.sqrt(aa * tilde), aa)
    ap, am = mp * np.exp(1j * ga), mm.astype(complex)

    # the angles that make the system-ancilla pair separable (both 0
    # where no failure branch is left); |alpha_-| is mm, real and >= 0
    (abs_p, wp), (abs_m, wm) = (_polar(x) for x in _combination(rp, rm, ap, am, acm, gc))
    mp = _abs(ap)
    gp, gm = 1.0 - np.array([mp, mm]) ** 2
    fail = 1.0 - (rp * gp + rm * gm)
    num = np.sqrt(_pymax(rm * abs_m ** 2 * gm, 0.0))
    dnm = np.sqrt(_pymax(rp * abs_p ** 2 * gp, 0.0))
    beta = np.arctan2(num, dnm)
    delta = np.remainder(wp - wm, _TWO_PI)
    flat = fail < 1e-15
    if np.count_nonzero(flat):
        beta, delta = np.where(flat, 0.0, beta), np.where(flat, 0.0, delta)
    return _stack(p, a, ac, (aa, ga, acm, gc), (rp, rm, tilde, interior), ap, am, mp, mm,
                  beta, delta)


def coupled_amplitudes(pts: SeparablePoints, where=_nowhere) -> np.ndarray:
    """The (N, 8) amplitudes on (S, A, C) after the coupling, one row per
    stack entry, checked for unit norm as PureState checks them; the
    first row to fail is named by where(i)."""
    n = pts.beta.size
    zp, zm = _zeta(pts)
    vec = (np.sqrt(pts.r_plus)[:, None] * (zp[:, :, None] * _E0).reshape(n, 8)
           + np.sqrt(pts.r_minus)[:, None]
           * (zm[:, :, None] * pts.phi_bar[:, None, :]).reshape(n, 8))
    unit_rows(vec, where)
    return vec


def system_ancilla_factor(coupled: PureState) -> np.ndarray:
    """The 4 x 2 factor V of the system-ancilla state rho_SA = V V^dag of
    a coupled (S, A, C) state, such as coupled_state's: its amplitudes
    with the (S, A) pair as the row and the environment as the column
    index. Column 0 is sqrt(r+) zeta+ + sqrt(r-) conj(alpha_c) zeta-,
    column 1 sqrt(r-) sqrt(1 - |alpha_c|^2) zeta-."""
    return _factor(coupled.amplitudes[None], coupled.register, ("S", "A"))[0]


# ---------------------------------------------------------------------------
# conservation and geometric phase

@dataclass(frozen=True)
class ConservationReport:
    before: float     # system-vs-environment tangle of the preparation
    after: float      # environment-vs-rest tangle after the coupling
    residual: float


def total_coherence_conservation(inst: UssdInstance,
                                 coupled: PureState) -> ConservationReport:
    """The environment's tangle with everything else cannot change under
    a coupling that never touches the environment. coupled is the
    (S, A, C) state after a coupling of inst, such as coupled_state's."""
    before = float(_environment_tangles(build_chi(inst).amplitudes[None])[0])
    after = float(_tangles(coupled.amplitudes[None], coupled.register, ("C",))[0, 0])
    return ConservationReport(before=before, after=after,
                              residual=float(abs(before - after)))


def _environment_tangles(chi) -> np.ndarray:
    """The environment's one-vs-rest tangle in each row of an (N, 4)
    stack of preparations on (S, C), as an (N,) array from one _tangles
    call. Each preparation enters with the ancilla attached in |0>, which
    adds only exact zeros to its Cauchy-Binet sum, so its tangle is the
    two-qubit one bit for bit."""
    n = len(chi)
    prep = np.zeros((n, 2, 2, 2), dtype=complex)      # (S, A, C)
    prep[:, :, 0] = chi.reshape(n, 2, 2)
    return _tangles(prep.reshape(n, 8), ("S", "A", "C"), ("C",))[0]


def bargmann_loop(psi1, psi2, psi3):
    """Geometric phase of the loop through three states, with the middle
    state expanded in the dual frame of the outer two.

    The first and third states span a two-dimensional frame; the middle
    state's components in the biorthogonal dual frame supply two edge
    phases, and the closing edge is the direct overlap from third to
    first. The combination is invariant under independent phase changes
    of all three inputs. A zero overlap contributes zero phase.

    Each argument is one state (a PureState or a vector), which gives a
    float, or an (N, d) stack of vectors, which gives an array of N
    phases; one loop is a stack of one. Outer states that are linearly
    dependent raise UndefinedPhase, naming the first such row of a
    stack.
    """
    vecs = [p.amplitudes if isinstance(p, PureState) else np.asarray(p, dtype=complex)
            for p in (psi1, psi2, psi3)]
    single = all(v.ndim == 1 for v in vecs)
    if not (single or all(v.ndim == 2 for v in vecs)):
        raise ShapeError("loop states must be three vectors or three (N, d) stacks")
    if not vecs[0].shape == vecs[1].shape == vecs[2].shape:
        raise ShapeError("loop states must share a dimension")
    phase = _loop_rows(*(v[None] if single else v for v in vecs),
                       _nowhere if single else (lambda i: f" (row {i})"))
    return float(phase[0]) if single else phase


def _loop_rows(v1, v2, v3, where) -> np.ndarray:
    """bargmann_loop of each row of three (N, d) stacks: the Gram matrix of
    v1, v3 and the right-hand side <v1|v2>, <v3|v2> from one vdot_rows
    call, one batched solve and the three edge phases, each row as
    np.vdot and np.linalg.solve give it alone."""
    n = len(v1)
    dots = vdot_rows(np.concatenate((v1, v1, v3, v3, v1, v3)),
                     np.concatenate((v1, v3, v1, v3, v2, v2))).reshape(6, n)
    gram = dots[:4].T.reshape(n, 2, 2)
    rhs = dots[4:].T[:, :, None]
    try:
        coeff = np.linalg.solve(gram, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        for i in range(n):
            try:
                np.linalg.solve(gram[i], rhs[i])
            except np.linalg.LinAlgError as exc:
                raise UndefinedPhase(f"outer loop states are linearly dependent{where(i)}") from exc
        raise
    phase = np.angle(coeff[:, 0]) - np.angle(coeff[:, 1]) + np.angle(dots[2])
    return (phase + math.pi) % _TWO_PI - math.pi


def bargmann_phase(inst):
    """Geometric phase of the preparation against its two extreme-prior
    siblings (all weight on one sub-state or the other).

    Equals the total relative phase of the two overlaps, wrapped to
    (-pi, pi]. Undefined when the instance itself sits at an extreme
    prior.

    One instance gives a float. A sequence of instances gives a tuple
    of them from one stack: the prior test, _loop_states and one
    _loop_rows pass, each check naming the instance at fault; each phase
    equals a call on that instance alone.
    """
    single, insts, where = _entries(inst)
    if not insts:
        return ()
    pts = SeparablePoints.of(insts)
    _check((pts.p_plus <= 0.0) | (1.0 <= pts.p_plus), UndefinedPhase,
           lambda i: f"extreme prior collapses the loop{where(i)}")
    phase = _loop_rows(*_loop_states(pts, where), where)
    return float(phase[0]) if single else tuple(phase.tolist())


def _loop_states(pts, where=_nowhere) -> tuple:
    """The three (N, 4) stacks of bargmann_phase's loops on (S, C): xi phi,
    the preparation, with run_protocol's norm check, and xi_bar phi_bar,
    on the canonical embedding of each entry of a SeparablePoints stack:
    the stacks _chi_rows has built."""
    loop = _preparations(pts, where=where)[1]
    unit_rows(loop[1], where)
    return loop


# ---------------------------------------------------------------------------
# eval's report

EVAL_QUANTITIES = (
    "r_plus", "r_minus", "gamma", "case", "abs_alpha_plus_opt", "abs_alpha_minus_opt",
    "p_suc_max", "beta_star", "delta_star", "c_total_closed", "c_total_ledger",
    "c_converted_closed", "c_converted_ledger", "c_retained_closed", "c_retained_ledger",
    "c_genuine_closed", "c_genuine_ledger", "c_env_ancilla_ledger", "max_ledger_deviation",
    "conservation_residual", "separability_concurrence", "loop_phase")


def eval_report(pts: SeparablePoints) -> dict:
    """Every quantity ussd-lab eval prints, for each entry of the stack: a
    dict from EVAL_QUANTITIES, in that order, to lists of one value per
    entry. The loop phase is None where it is undefined: at an extreme
    prior, and where the outer loop states are linearly dependent.

    One pass per route over a stack whose pairs passed check_pair where
    it was built, on the stacked kernels that the chain of public calls
    wraps (coupled_state, ledger, closed_form_coherences,
    total_coherence_conservation, system_ancilla_factor, bargmann_phase),
    every check in that chain's order and named as _entries names it.
    Left out are only second runs of one rule on the same bits: the norm
    checks of PureState and ledger on the rows coupled_amplitudes has
    checked, the branch weights, the loop's second preparation, the
    environment's tangle of the coupled state (the ledger's pivot C) and
    the (S, A) concurrence (the ledger's wootters_concurrence call).
    Moduli and phases are the stack's; ledger entries _ledger_pass's."""
    n = pts.beta.size
    where = _naming(n == 1)
    psi = coupled_amplitudes(pts, where)
    leds, conc, lt, tau, c2 = _ledger_pass(psi)
    ct, ca, cg = closed_form_coherences(pts)
    loops = _loop_states(pts, where)
    before = _environment_tangles(loops[1])
    loop = [None] * n
    live = np.flatnonzero((0.0 < pts.p_plus) & (pts.p_plus < 1.0))
    if live.size:
        for i, phase in zip(live.tolist(), _phases(loops, live)):
            loop[i] = phase
    # the ledgers' converted (A:SC), retained (S:C), environment-ancilla
    # (A:C) and genuine entries: tau holds the pivots S, A, C and c2 the
    # pairs S:A, S:C, A:C, on the register of psi
    lc, lr, le = tau[1], c2[1], c2[2]
    lg = np.array([x.c_genuine for x in leds], dtype=float)
    dev = np.maximum.reduce([np.abs(ct - lt), np.abs(ca - lc), np.abs(cg - lg),
                             np.abs((ct - ca) - lr)])
    columns = (pts.r_plus, pts.r_minus, pts.arg_alpha + pts.arg_alpha_c,
               np.where(pts.interior, "interior", "saturated"), pts.abs_plus, pts.abs_minus,
               _p_suc(pts.r_plus, pts.r_minus, pts.abs_alpha, pts.interior),
               pts.beta, pts.delta, ct, lt, ca, lc, ct - ca, lr, cg, lg, le, dev,
               np.abs(before - tau[2]), conc[:n])
    return dict(zip(EVAL_QUANTITIES, [*(c.tolist() for c in columns), loop]))


def _phases(loops, rows) -> list:
    """_loop_rows of the given rows of the three loop stacks, None for a
    row whose outer states are linearly dependent: one pass, or one per
    row where a row of the pass is."""
    try:
        return _loop_rows(*(v[rows] for v in loops), _nowhere).tolist()
    except UndefinedPhase:
        return [p for i in rows for p in _phases(loops, [i])] if len(rows) > 1 else [None]
