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
)
from .qcore import (
    PureState,
    Unitary,
    apply,
    projective_measure,
    reorder,
    tensor,
    unit_rows,
)
from .coherence import _tangles
from .tolerances import DEFAULT as TOL

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


def _pymax(a, b):
    """Python's max(a, b) elementwise: b only where b > a."""
    return np.where(b > a, b, a)


def _weights(p, a, ac) -> tuple:
    """Branch weights r+-, the prior-ratio threshold tilde_alpha and the
    interior-regime flag of canonical instances (p <= 1/2)."""
    aa = _abs(a)
    den = 1.0 + 2.0 * np.sqrt(p * (1.0 - p)) * aa * _abs(ac) * np.cos(np.angle(a) + np.angle(ac))
    tilde = np.sqrt(p / (1.0 - p))
    return p / den, (1.0 - p) / den, tilde, aa < tilde


def _combination(rp, rm, ap, am, ac) -> tuple:
    """Combination amplitudes of the two pure pieces of the
    system-ancilla state (see separability_params)."""
    acm, gc = _abs(ac), np.angle(ac)
    t_p, t_m = np.sqrt(rp) * ap, np.sqrt(rm) * am
    return t_p + t_m * acm * np.exp(-1j * gc), t_m + t_p * acm * np.exp(+1j * gc)


def _zeta(ap, am, beta, delta) -> tuple:
    """(N, 4) stacks of the images of the two sub-states (with ancilla
    attached) under the coupling, on register (S, A). Success lands the
    ancilla on |0> with the system pointing at its flag state; failure
    funnels both sub-states onto the shared failure direction with the
    ancilla on |1>."""
    n = beta.size
    eta = np.empty((n, 2), dtype=complex)                # failure_direction
    eta[:, 0] = np.cos(beta)
    eta[:, 1] = np.sin(beta) * np.exp(1j * delta)
    ap, am = ap[:, None], am[:, None]
    bp = np.sqrt(_pymax(0.0, 1.0 - _abs(ap) ** 2))
    bm = np.sqrt(_pymax(0.0, 1.0 - _abs(am) ** 2))
    eta_a1 = (eta[:, :, None] * _E1).reshape(n, 4)       # np.kron(eta, e1)
    return bp * _E00 + ap * eta_a1, bm * _E10 + am * eta_a1


def _partner(ov) -> np.ndarray:
    """(N, 2) stack of the partner vectors v with <v|0> = ov: ov
    conjugated on |0>, a real nonnegative |1> component."""
    out = np.empty((ov.size, 2), dtype=complex)
    out[:, 0] = ov.conj()
    out[:, 1] = np.sqrt(_pymax(0.0, 1.0 - _abs(ov) ** 2))
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
        if abs(self.alpha) >= 1.0:
            raise DegenerateOverlap(
                f"|alpha| = {abs(self.alpha)!r} leaves nothing to discriminate"
            )
        if abs(self.alpha_c) > 1.0 + 1e-15:
            raise RangeError(f"|alpha_c| = {abs(self.alpha_c)!r} exceeds 1")

    @property
    def gamma(self) -> float:
        """Total relative phase of the two overlaps."""
        return float(np.angle(self.alpha) + np.angle(self.alpha_c))

    @cached_property
    def _branch_weights(self) -> tuple:
        """r_plus, r_minus, tilde_alpha and the interior flag, from
        _weights once per instance."""
        rp, rm, tilde, interior = _weights(self.p_plus, self.alpha, self.alpha_c)
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
        pairs = (
            ("system", self.xi_bar, self.xi, inst.alpha),
            ("environment", self.phi_bar, self.phi, inst.alpha_c),
        )
        for name, bar, plain, target in pairs:
            for v in (bar, plain):
                if abs(np.vdot(v, v) - 1.0) > TOL.overlap * 10:
                    raise EmbeddingError(f"{name} vector not normalized")
            got = complex(np.vdot(bar, plain))
            if abs(got - target) > TOL.overlap * 10:
                raise EmbeddingError(
                    f"{name} overlap {got!r} does not match instance {target!r}"
                )


def canonical_embedding(inst: UssdInstance) -> Embedding:
    """Reference embedding: each plain vector is |0> and its partner
    carries the overlap in the |0> component with a real, nonnegative
    |1> component: _partner on the stack (alpha, alpha_c)."""
    xi_bar, phi_bar = _partner(np.array([inst.alpha, inst.alpha_c], dtype=complex))
    return Embedding(xi=_E0.copy(), xi_bar=xi_bar, phi=_E0.copy(), phi_bar=phi_bar)


def build_chi(inst: UssdInstance, embedding: Optional[Embedding] = None) -> PureState:
    """Joint system-environment preparation on register (S, C)."""
    emb = embedding if embedding is not None else canonical_embedding(inst)
    emb.validate(inst)
    vec = (math.sqrt(inst.r_plus) * (emb.xi[:, None] * emb.phi).reshape(-1)
           + math.sqrt(inst.r_minus) * (emb.xi_bar[:, None] * emb.phi_bar).reshape(-1))
    return PureState(("S", "C"), vec)


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
            nrm = float(np.linalg.norm(k))
            if not abs(nrm - 1.0) <= 1e-10:
                raise RangeError("ancilla_init must be normalized")
        arr = np.array(k, dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(self, "ancilla_init", arr)

    def failure_direction(self) -> np.ndarray:
        return np.array(
            [math.cos(self.beta), math.sin(self.beta) * np.exp(1j * self.delta)],
            dtype=complex,
        )


def check_pair(inst: UssdInstance, strat: UssdStrategy) -> None:
    """The two failure overlaps must multiply back to the instance overlap."""
    prod = strat.alpha_plus * np.conj(strat.alpha_minus)
    if not abs(prod - inst.alpha) <= 1e-12:
        raise RangeError(
            f"strategy overlaps give {prod!r}, instance needs {inst.alpha!r}"
        )


def optimal_strategy(inst: UssdInstance, beta: float = 0.0, delta: float = 0.0,
                     ancilla_init=None) -> UssdStrategy:
    """Failure overlaps minimizing the failure probability: the radii of
    separable_strategy, with beta and delta passed through untouched
    (they do not affect the success probability).

    In the interior regime both moduli sit strictly inside (0, 1) at the
    geometric-mean split; in the saturated regime the reference overlap
    pins at 1 and the alternative carries all of |alpha|. The overall
    phase is placed on the reference side, leaving the alternative
    overlap real and nonnegative.
    """
    return replace(separable_strategy(inst, ancilla_init), beta=beta, delta=delta)


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
    coupled_amplitudes on a stack of one, for any strategy.
    """
    check_pair(inst, strat)
    return PureState(("S", "A", "C"), coupled_amplitudes(SeparablePoints.of(inst, strat))[0])


def _perp(v) -> np.ndarray:
    """The unit vector (-conj(v1), conj(v0)) orthogonal to v/|v|."""
    v = v / np.linalg.norm(v)
    return np.array([-np.conj(v[1]), np.conj(v[0])])


def coupling_unitary(inst: UssdInstance, strat: UssdStrategy,
                     embedding: Optional[Embedding] = None) -> Unitary:
    """Two-qubit coupling on (S, A) that maps xi (x) k to zeta+ and
    xi_bar (x) k to zeta- (Chefles, Phys. Lett. A 239, 1998), k the
    ancilla's initial state.

    U sends the orthonormal frame (xi k, xi' k, xi k', xi' k'), where x'
    is _perp(x), to the frame (zeta+, w, c, eta' (x) |1>). Both are
    written in closed form, so nothing near-parallel is subtracted as
    |alpha| -> 1. In the orthonormal coordinates (|00>, |10>,
    eta (x) |1>), v = zeta- - s zeta+ with s = <zeta+|zeta-> reads
    (-s b+, b-, a- b+^2), since a- - s a+ = a- b+^2; w is v/|v| with the
    phase that makes U xi_bar k = s zeta+ + <xi'|xi_bar> w reproduce
    zeta-, and c is the conjugated cross product of zeta+ and w. A miss
    of either constraint beyond the mapping tolerance raises
    NumericalError.
    """
    check_pair(inst, strat)
    emb = embedding if embedding is not None else canonical_embedding(inst)
    emb.validate(inst)
    ap, am = strat.alpha_plus, strat.alpha_minus
    pts = SeparablePoints.of(inst, strat)
    (zp,), (zm,) = _zeta(pts.alpha_plus, pts.alpha_minus, pts.beta, pts.delta)
    bp, bm = zp[0].real, zm[2].real
    eta = strat.failure_direction()
    zeta_p = np.array([bp, 0.0, ap])
    v = np.array([-np.conj(ap) * am * bp, bm, am * bp * bp])
    y = np.vdot(_perp(emb.xi), emb.xi_bar)
    w = v / np.linalg.norm(v) * (np.conj(y) / abs(y))
    coords = np.stack([zeta_p, w, np.cross(zeta_p, w).conj()], axis=1)
    frame = np.stack([_E00, _E10, (eta[:, None] * _E1).reshape(-1)], axis=1)
    outs = np.column_stack([frame @ coords, (_perp(eta)[:, None] * _E1).reshape(-1)])
    xi, k = (x / np.linalg.norm(x) for x in (emb.xi, strat.ancilla_init))
    ins = np.stack([(a[:, None] * b).reshape(-1)
                    for b in (k, _perp(k)) for a in (xi, _perp(xi))], axis=1)
    u = outs @ ins.conj().T
    worst = max(float(np.linalg.norm(u @ (x[:, None] * strat.ancilla_init).reshape(-1) - z))
                for x, z in ((emb.xi, zp), (emb.xi_bar, zm)))
    if not worst <= TOL.mapping:
        raise NumericalError(f"coupling unitary misses a constraint by {worst:.3e}")
    return Unitary(("S", "A"), u)


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


def run_protocol(inst: UssdInstance, strat: UssdStrategy,
                 embedding: Optional[Embedding] = None) -> ProtocolResult:
    """Simulate the protocol end to end through the coupling unitary.

    The preparation is embedded, the ancilla attached in its initial
    state, the coupling applied, and the ancilla measured in the
    computational basis. Outcome 0 heralds success.
    """
    emb = embedding if embedding is not None else canonical_embedding(inst)
    chi = build_chi(inst, emb)
    psi0 = reorder(
        tensor(chi, PureState(("A",), strat.ancilla_init)), ("S", "A", "C")
    )
    u = coupling_unitary(inst, strat, embedding=emb)
    psi = apply(u, psi0, targets=("S", "A"))
    branches = tuple(
        OutcomeRecord(outcome=k, probability=p, state=post)
        for k, p, post in projective_measure(psi, "A")
    )
    return ProtocolResult(instance=inst, strategy=strat, unitary=u,
                          state=psi, outcomes=branches)


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
    amp_p, amp_m = _combination(rp, rm, ap, am, inst.alpha_c)
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


def separable_strategy(inst: UssdInstance, ancilla_init=None) -> UssdStrategy:
    """Optimal strategy with the failure angles set to the separable point:
    the kernel of separable_points on a stack of one, taking the
    canonical instance as it is."""
    return _separable(np.array([inst.p_plus]), np.array([inst.alpha], dtype=complex),
                      np.array([inst.alpha_c], dtype=complex)).strategy(0, ancilla_init)


# ---------------------------------------------------------------------------
# the separable point over arrays

def _flat(value, shape, dtype) -> np.ndarray:
    out = np.empty(shape, dtype=dtype)
    out[...] = value
    return out.reshape(-1)


@dataclass(frozen=True)
class SeparablePoints:
    """Canonical instances with a strategy each, one array entry per
    instance: what coupled_amplitudes and closed_form_coherences read.
    alpha and alpha_c are the canonical overlaps, r_plus/r_minus the
    branch weights, alpha_plus/alpha_minus the failure overlaps and
    beta/delta the failure angles. separable_points fills it with the
    optimal radii and separable angles; of() holds one instance with any
    strategy."""

    alpha: np.ndarray
    alpha_c: np.ndarray
    r_plus: np.ndarray
    r_minus: np.ndarray
    alpha_plus: np.ndarray
    alpha_minus: np.ndarray
    beta: np.ndarray
    delta: np.ndarray

    @classmethod
    def of(cls, inst: UssdInstance, strat: UssdStrategy) -> "SeparablePoints":
        """A stack of one: the instance with the strategy as given."""
        return cls(*(np.array([v], dtype=t) for v, t in (
            (inst.alpha, complex), (inst.alpha_c, complex),
            (inst.r_plus, float), (inst.r_minus, float),
            (strat.alpha_plus, complex), (strat.alpha_minus, complex),
            (strat.beta, float), (strat.delta, float))))

    def strategy(self, i: int, ancilla_init=None) -> UssdStrategy:
        """The strategy of entry i, as a UssdStrategy."""
        return UssdStrategy(alpha_plus=complex(self.alpha_plus[i]),
                            alpha_minus=complex(self.alpha_minus[i]),
                            beta=float(self.beta[i]), delta=float(self.delta[i]),
                            ancilla_init=ancilla_init)


def separable_points(p_plus, alpha, alpha_c) -> SeparablePoints:
    """make_instance and separable_strategy over broadcast arrays of
    priors and complex overlaps, with every check of UssdInstance,
    UssdStrategy and check_pair applied to the whole array; the first
    entry to fail names the fault."""
    return _separable(*_canonical(p_plus, alpha, alpha_c))


def _canonical(p_plus, alpha, alpha_c) -> tuple:
    """make_instance's prior check and swap over broadcast arrays: flat
    arrays of canonical priors (p <= 1/2) and overlaps, in C order."""
    shape = np.broadcast(p_plus, alpha, alpha_c).shape
    p = _flat(p_plus, shape, float)
    a, ac = _flat(alpha, shape, complex), _flat(alpha_c, shape, complex)
    _check(~((0.0 <= p) & (p <= 1.0)), RangeError,
           lambda i: f"p_plus must lie in [0, 1], got {float(p[i])!r}")
    swapped = p > 0.5
    return (np.where(swapped, 1.0 - p, p), np.where(swapped, a.conj(), a),
            np.where(swapped, ac.conj(), ac))


def _overlap_moduli(a, ac) -> tuple:
    """|alpha| and |alpha_c| of each instance, after UssdInstance's
    overlap checks on the whole array."""
    for name, z in (("alpha", a), ("alpha_c", ac)):
        _check(~np.isfinite(z), RangeError,
               lambda i: f"{name} must be finite, got {complex(z[i])!r}")
    aa, acm = _abs(a), _abs(ac)
    _check(aa >= 1.0, DegenerateOverlap,
           lambda i: f"|alpha| = {float(aa[i])!r} leaves nothing to discriminate")
    _check(acm > 1.0 + 1e-15, RangeError,
           lambda i: f"|alpha_c| = {float(acm[i])!r} exceeds 1")
    return aa, acm


def _separable(p, a, ac) -> SeparablePoints:
    """The separable point of each canonical instance (p <= 1/2 up to the
    1e-15 UssdInstance allows), without the swap."""
    aa, _ = _overlap_moduli(a, ac)
    rp, rm, tilde, interior = _weights(p, a, ac)
    # optimal_strategy, with the phase of alpha on the reference side
    mp = np.where(interior, np.sqrt(aa / np.where(interior, tilde, 1.0)), 1.0)
    mm = np.where(interior, np.sqrt(aa * tilde), aa)
    ap, am = mp * np.exp(1j * np.angle(a)), mm.astype(complex)
    abs_p, abs_m = _abs(ap), _abs(am)
    _check((abs_p > 1.0 + 1e-12) | (abs_m > 1.0 + 1e-12), RangeError,
           lambda i: "failure overlaps cannot exceed unit modulus")
    prod = ap * am.conj()                             # check_pair
    _check(~(_abs(prod - a) <= 1e-12), RangeError,
           lambda i: f"strategy overlaps give {complex(prod[i])!r}, "
                     f"instance needs {complex(a[i])!r}")

    # the angles that make the system-ancilla pair separable (both 0
    # where no failure branch is left)
    amp_p, amp_m = _combination(rp, rm, ap, am, ac)
    mp2, mm2 = abs_p ** 2, abs_m ** 2
    qp, qm = _abs(amp_p) ** 2, _abs(amp_m) ** 2
    fail = 1.0 - (rp * (1.0 - mp2) + rm * (1.0 - mm2))
    num = np.sqrt(_pymax(rm * qm * (1.0 - mm2), 0.0))
    dnm = np.sqrt(_pymax(rp * qp * (1.0 - mp2), 0.0))
    beta = np.arctan2(num, dnm)
    delta = np.remainder(np.angle(amp_p) - np.angle(amp_m), _TWO_PI)
    flat = fail < 1e-15
    beta, delta = np.where(flat, 0.0, beta), np.where(flat, 0.0, delta)
    _check(~((0.0 <= beta) & (beta <= math.pi / 2.0 + 1e-12)), RangeError,
           lambda i: f"beta must lie in [0, pi/2], got {float(beta[i])!r}")
    _check(~((0.0 <= delta) & (delta < _TWO_PI + 1e-12)), RangeError,
           lambda i: f"delta must lie in [0, 2 pi), got {float(delta[i])!r}")
    return SeparablePoints(alpha=a, alpha_c=ac, r_plus=rp, r_minus=rm,
                           alpha_plus=ap, alpha_minus=am, beta=beta, delta=delta)


def coupled_amplitudes(pts: SeparablePoints) -> np.ndarray:
    """The (N, 8) amplitudes on (S, A, C) after the coupling, one row per
    stack entry, checked for unit norm as PureState checks them."""
    n = pts.beta.size
    zp, zm = _zeta(pts.alpha_plus, pts.alpha_minus, pts.beta, pts.delta)
    phi_bar = _partner(pts.alpha_c)
    vec = (np.sqrt(pts.r_plus)[:, None] * (zp[:, :, None] * _E0).reshape(n, 8)
           + np.sqrt(pts.r_minus)[:, None] * (zm[:, :, None] * phi_bar[:, None, :]).reshape(n, 8))
    unit_rows(vec, np.ones(n, dtype=bool))
    return vec


def system_ancilla_density(inst: UssdInstance, strat: UssdStrategy) -> np.ndarray:
    """Post-coupling reduced density operator of the system-ancilla pair,
    assembled in closed form on register (S, A)."""
    check_pair(inst, strat)
    pts = SeparablePoints.of(inst, strat)
    (zp,), (zm,) = _zeta(pts.alpha_plus, pts.alpha_minus, pts.beta, pts.delta)
    rp, rm, ac = inst.r_plus, inst.r_minus, inst.alpha_c
    cross = math.sqrt(rp * rm)
    return (rp * np.outer(zp, zp.conj()) + rm * np.outer(zm, zm.conj())
            + cross * (ac * np.outer(zp, zm.conj())
                       + np.conj(ac) * np.outer(zm, zp.conj())))


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
    before, after = (float(_tangles(psi.amplitudes, psi.register, "C")[0])
                     for psi in (build_chi(inst), coupled))
    return ConservationReport(before=before, after=after,
                              residual=float(abs(before - after)))


def bargmann_loop(psi1, psi2, psi3) -> float:
    """Geometric phase of the loop through three states, with the middle
    state expanded in the dual frame of the outer two.

    The first and third states span a two-dimensional frame; the middle
    state's components in the biorthogonal dual frame supply two edge
    phases, and the closing edge is the direct overlap from third to
    first. The combination is invariant under independent phase changes
    of all three inputs. A zero overlap contributes zero phase.
    """
    vecs = []
    for p in (psi1, psi2, psi3):
        v = p.amplitudes if isinstance(p, PureState) else np.asarray(p, dtype=complex)
        vecs.append(v.reshape(-1))
    v1, v2, v3 = vecs
    if not (v1.size == v2.size == v3.size):
        raise ShapeError("loop states must share a dimension")
    gram = np.array([[np.vdot(v1, v1), np.vdot(v1, v3)],
                     [np.vdot(v3, v1), np.vdot(v3, v3)]])
    rhs = np.array([np.vdot(v1, v2), np.vdot(v3, v2)])
    try:
        coeff = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise UndefinedPhase("outer loop states are linearly dependent") from exc
    phase = (np.angle(coeff[0]) - np.angle(coeff[1]) + np.angle(np.vdot(v3, v1)))
    return float((phase + math.pi) % _TWO_PI - math.pi)


def bargmann_phase(inst: UssdInstance) -> float:
    """Geometric phase of the preparation against its two extreme-prior
    siblings (all weight on one sub-state or the other).

    Equals the total relative phase of the two overlaps, wrapped to
    (-pi, pi]. Undefined when the instance itself sits at an extreme
    prior.
    """
    if inst.p_plus <= 0.0 or inst.p_plus >= 1.0:
        raise UndefinedPhase("extreme prior collapses the loop")
    emb = canonical_embedding(inst)
    v1 = (emb.xi[:, None] * emb.phi).reshape(-1)
    v3 = (emb.xi_bar[:, None] * emb.phi_bar).reshape(-1)
    v2 = build_chi(inst, emb).amplitudes
    return bargmann_loop(v1, v2, v3)
