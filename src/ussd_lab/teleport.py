"""Probabilistic teleportation through a partially entangled channel,
implemented as a two-branch reduction to the discrimination protocol.

Alice holds the qubit to send (S) and the channel carrier (B); Bob holds
the environment qubit (C). The channel is a Schmidt-diagonal two-qubit
state whose imbalance is set by one angle. After Alice's controlled-NOT
and Hadamard, measuring B leaves a system-environment state that is
exactly a discrimination instance with equal priors, overlap +/- sin(2
channel_angle) and environment overlap cos(mu). Discrimination success
plus a system measurement tells Bob which Pauli correction recovers the
sent state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DegenerateOverlap, NumericalError, RangeError, _count
from .qcore import (
    CNOT,
    HADAMARD,
    PAULI,
    PureState,
    Unitary,
    apply,
    factor_out,
    partial_trace,
    projective_measure,
    reorder,
    tensor,
)
from .ussd import (
    Embedding,
    UssdInstance,
    build_chi,
    coupling_unitary,
    make_instance,
    p_suc_max,
    separable_points,
    separable_strategy,
)
from .coherence import closed_form_coherences

_E0 = np.array([1.0, 0.0], dtype=complex)
_E1 = np.array([0.0, 1.0], dtype=complex)
_QUARTER_PI = math.pi / 4.0

# Bob's correction for (carrier outcome, system outcome). The minus-branch
# system outcome 1 leaves C in sigma_x sigma_z |phi>, whose inverse is
# sigma_z sigma_x = i sigma_y.
_CORRECTIONS = {
    (0, 0): ("identity", PAULI["I"]),
    (0, 1): ("pauli_z", PAULI["Z"]),
    (1, 0): ("pauli_x", PAULI["X"]),
    (1, 1): ("pauli_iy", 1j * PAULI["Y"]),
}


def _check_angle(channel_angle) -> None:
    if not 0.0 <= channel_angle <= _QUARTER_PI + 1e-12:
        raise RangeError(f"channel_angle must lie in [0, pi/4], got {channel_angle!r}")


def _degenerate(channel_angle) -> bool:
    """True at channel_angle = pi/4, where the two branch sub-states
    coincide and discrimination is impossible."""
    return abs(channel_angle - _QUARTER_PI) < 1e-12


def _branch_terms(sign, s2, cos_mu) -> tuple:
    """Probability and overlaps (alpha, alpha_c) of the carrier branch of
    the given sign (+1 for outcome 0, -1 for outcome 1), from sin 2 rho
    and cos mu; arrays broadcast."""
    alpha = sign * s2
    return 0.5 * (1.0 + alpha * cos_mu), alpha, cos_mu


@dataclass(frozen=True)
class TeleportInstance:
    """Channel angle plus Bloch angles of the state to send.

    channel_angle runs over [0, pi/4]: 0 is a maximally entangled channel
    (tangle 1), pi/4 a product channel (tangle 0). mu, nu are the polar
    and azimuthal Bloch angles of the input qubit.
    """

    channel_angle: float
    mu: float
    nu: float

    def __post_init__(self):
        _check_angle(self.channel_angle)
        if not 0.0 <= self.mu <= math.pi + 1e-12:
            raise RangeError(f"mu must lie in [0, pi], got {self.mu!r}")
        if not 0.0 <= self.nu < 2.0 * math.pi + 1e-12:
            raise RangeError(f"nu must lie in [0, 2 pi), got {self.nu!r}")

    @property
    def channel_tangle(self) -> float:
        return float(math.cos(2.0 * self.channel_angle) ** 2)

    @property
    def degenerate(self) -> bool:
        return _degenerate(self.channel_angle)

    def input_state(self) -> np.ndarray:
        return np.array(
            [math.cos(self.mu / 2.0),
             math.sin(self.mu / 2.0) * np.exp(1j * self.nu)],
            dtype=complex,
        )


def channel_state(channel_angle: float, local_b=None, local_c=None) -> PureState:
    """Channel resource on (B, C): a Schmidt pair with weights set by the
    angle. Optional single-qubit unitaries dress the two sides; the
    paper-facing quantities (tangle, success probabilities) are invariant
    under them, which tests assert.
    """
    _check_angle(channel_angle)
    c, s = math.cos(channel_angle), math.sin(channel_angle)
    vec = np.zeros(4, dtype=complex)
    vec[0] = (c + s) / math.sqrt(2.0)
    vec[3] = (c - s) / math.sqrt(2.0)
    psi = PureState(("B", "C"), vec)
    if local_b is not None:
        psi = apply(Unitary(("B",), np.asarray(local_b, dtype=complex)), psi)
    if local_c is not None:
        psi = apply(Unitary(("C",), np.asarray(local_c, dtype=complex)), psi)
    return psi


def alice_circuit(inst: TeleportInstance, channel_lu=None) -> PureState:
    """State on (S, B, C) after Alice's controlled-NOT (S controls B) and
    Hadamard on S, ready for the carrier measurement. channel_lu, if given,
    is the (B, C) pair of unitaries dressing the channel; Alice undoes B's."""
    u_b, u_c = (None, None) if channel_lu is None else channel_lu
    psi = tensor(PureState(("S",), inst.input_state()),
                 channel_state(inst.channel_angle, local_b=u_b, local_c=u_c))
    if u_b is not None:
        u_b = np.asarray(u_b, dtype=complex).conj().T
        psi = apply(Unitary(("B",), u_b), psi, targets=("B",))
    psi = apply(Unitary(("S", "B"), CNOT), psi, targets=("S", "B"))
    psi = apply(Unitary(("S",), HADAMARD), psi, targets=("S",))
    return psi


def branch_probability(inst: TeleportInstance, b_outcome: int) -> float:
    sign = 1.0 if b_outcome == 0 else -1.0
    return _branch_terms(sign, math.sin(2.0 * inst.channel_angle), math.cos(inst.mu))[0]


def branch_embedding(inst: TeleportInstance, b_outcome: int) -> Embedding:
    """Concrete sub-states left on (S, C) by carrier outcome b.

    The system pair is a tilted qubit and its spin-flip; the environment
    pair is the sent state and its phase-flipped copy, both conjugated by
    a bit flip on the minus branch.
    """
    rho = inst.channel_angle
    sign = 1.0 if b_outcome == 0 else -1.0
    xi = np.array([math.cos(rho), sign * math.sin(rho)], dtype=complex)
    xi_bar = PAULI["X"] @ xi
    phi = inst.input_state()
    if b_outcome == 0:
        c_plain, c_bar = phi, PAULI["Z"] @ phi
    else:
        c_plain, c_bar = PAULI["X"] @ phi, PAULI["X"] @ PAULI["Z"] @ phi
    return Embedding(xi=xi, xi_bar=xi_bar, phi=c_plain, phi_bar=c_bar)


@dataclass(frozen=True)
class BranchRecord:
    """Everything the carrier outcome determines about the rest of the run."""

    b_outcome: int
    probability: float
    ussd_instance: UssdInstance
    success_probability: float


def branch_to_ussd(inst: TeleportInstance, b_outcome: int) -> BranchRecord:
    """Reduce a carrier outcome to its discrimination instance.

    Equal priors always; the overlap signs make the minus branch carry a
    relative phase of pi. Raises DegenerateOverlap at channel_angle =
    pi/4 where the sub-states coincide.
    """
    if b_outcome not in (0, 1):
        raise RangeError(f"b_outcome must be 0 or 1, got {b_outcome!r}")
    if inst.degenerate:
        raise DegenerateOverlap(
            "channel_angle pi/4 gives |overlap| = 1; discrimination degenerate"
        )
    sign = 1.0 if b_outcome == 0 else -1.0
    prob, alpha, alpha_c = _branch_terms(sign, math.sin(2.0 * inst.channel_angle),
                                         math.cos(inst.mu))
    ui = make_instance(0.5, alpha, alpha_c)
    return BranchRecord(b_outcome=b_outcome, probability=prob, ussd_instance=ui,
                        success_probability=p_suc_max(ui))


def total_success_probability(channel_angle: float) -> float:
    """Probability that the whole pipeline delivers the state, averaged
    over carrier outcomes. Independent of the sent state: the branch
    weights and the per-branch success probabilities conspire so that mu
    and nu drop out.
    """
    _check_angle(channel_angle)
    if _degenerate(channel_angle):
        return 0.0
    # evaluated at mu = pi/2 where the branches are symmetric; tests sweep
    # the full (mu, nu) grid to confirm the value never moves
    probe = TeleportInstance(channel_angle, math.pi / 2.0, 0.0)
    total = 0.0
    for b in (0, 1):
        rec = branch_to_ussd(probe, b)
        total += rec.probability * rec.success_probability
    return float(total)


@dataclass(frozen=True)
class TeleportRun:
    """One fully resolved outcome path of the pipeline."""

    b_outcome: int
    s_outcome: Optional[int]   # None marks the discrimination-failure path
    probability: float         # joint probability of this path
    success: bool
    final_c: Optional[np.ndarray]
    correction: Optional[str]
    fidelity: float


def _branch_runs(inst: TeleportInstance, branches, channel_lu=None) -> list:
    """Every outcome path of the given carrier branches, in enumeration
    order. Alice's circuit and the carrier measurement run once; each live
    branch gets one coupling, one ancilla and one system measurement. A
    degenerate channel has only failure paths; a dead branch, zero runs."""
    u_c = None if channel_lu is None else np.asarray(channel_lu[1], dtype=complex)
    target = inst.input_state() if u_c is None else u_c @ inst.input_state()

    def path(b, s, prob, final, name=None):
        fid = float(abs(np.vdot(target, final)) ** 2)
        return TeleportRun(b, s, float(prob), s is not None, final, name, fid)

    def dead(b, s):
        return TeleportRun(b, s, 0.0, False, None, None, 0.0)

    paths = (None,) if inst.degenerate else (None, 0, 1)
    carrier = projective_measure(alice_circuit(inst, channel_lu), "B", (_E0, _E1))
    runs = []
    for b in branches:
        _, p_b, post_b = carrier[b]
        if post_b is None:
            runs += [dead(b, s) for s in paths]
            continue
        psi_sc = factor_out(post_b, "B", _E1 if b else _E0)
        if inst.degenerate:
            # product branch state: C never became entangled with S
            w, v = np.linalg.eigh(partial_trace(psi_sc, ["C"]).matrix)
            if w[-1] < 1.0 - 1e-9:
                raise NumericalError("degenerate branch state unexpectedly mixed")
            runs.append(path(b, None, p_b, v[:, -1]))
            continue
        emb = branch_embedding(inst, b)
        ui = branch_to_ussd(inst, b).ussd_instance
        if u_c is not None:
            emb = replace(emb, phi=u_c @ emb.phi, phi_bar=u_c @ emb.phi_bar)
        agreement = abs(np.vdot(build_chi(ui, emb).amplitudes, psi_sc.amplitudes))
        if agreement < 1.0 - 1e-9:
            raise NumericalError(
                f"branch state disagrees with its closed form (|overlap| = {agreement!r})"
            )

        strat = separable_strategy(ui)
        psi3 = reorder(tensor(psi_sc, PureState(("A",), strat.ancilla_init)),
                       ("S", "A", "C"))
        psi3 = apply(coupling_unitary(ui, strat, embedding=emb), psi3, targets=("S", "A"))
        (_, p_suc, post_suc), (_, p_fail, post_fail) = \
            projective_measure(psi3, "A", (_E0, _E1))
        if post_fail is None:
            runs.append(dead(b, None))
        else:
            rest = factor_out(post_fail, "A", _E1)
            final = factor_out(rest, "S", strat.failure_direction()).amplitudes
            runs.append(path(b, None, p_b * p_fail, final))
        if post_suc is None:
            runs += [dead(b, 0), dead(b, 1)]
            continue
        for s, p_s, post_s in projective_measure(post_suc, "S", (_E0, _E1)):
            if post_s is None:
                runs.append(dead(b, s))
                continue
            rest = factor_out(post_s, "A", _E0)
            c_vec = factor_out(rest, "S", _E1 if s else _E0).amplitudes
            name, mat = _CORRECTIONS[(b, s)]
            if u_c is not None:
                mat = u_c @ mat @ u_c.conj().T
            runs.append(path(b, s, p_b * p_suc * p_s, mat @ c_vec, name))
    return runs


def run_teleport(inst: TeleportInstance, b_outcome: int,
                 s_outcome: Optional[int] = None,
                 channel_lu=None) -> TeleportRun:
    """Simulate one outcome path by full state-vector evolution.

    s_outcome selects the system measurement result on the success path;
    None follows the discrimination-failure path instead. channel_lu, if
    given, is a pair of single-qubit unitaries dressing the channel's two
    sides; Alice undoes hers before the circuit and Bob's correction is
    conjugated, so the delivered state is his unitary applied to the sent
    state (the success probabilities do not move). Only branch b_outcome
    is evolved. Bad outcomes, and success paths of a degenerate channel on
    either branch, raise before any evolution.
    """
    if b_outcome not in (0, 1):
        raise RangeError(f"b_outcome must be 0 or 1, got {b_outcome!r}")
    if s_outcome not in (None, 0, 1):
        raise RangeError(f"s_outcome must be None, 0 or 1, got {s_outcome!r}")
    if inst.degenerate and s_outcome is not None:
        raise DegenerateOverlap(
            "channel_angle pi/4: discrimination never succeeds; "
            "only the failure path (s_outcome=None) exists"
        )
    return next(r for r in _branch_runs(inst, (b_outcome,), channel_lu)
                if r.s_outcome == s_outcome)


def enumerate_runs(inst: TeleportInstance) -> list:
    """All outcome paths with their joint probabilities (per carrier branch
    failure, then s = 0, 1; failure only when degenerate), from one
    evolution per carrier branch."""
    return _branch_runs(inst, (0, 1))


# ---------------------------------------------------------------------------
# averaged coherence bookkeeping

@functools.cache
def _gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per count
    and returned read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def square_mean_root(channel_angle: float, nodes: int = 64) -> tuple:
    """Squares of the branch-averaged root coherences, integrated over the
    Bloch sphere of sent states, as (total, converted, retained).

    "total" is the full amount, "converted" the part moved onto the
    ancilla cut (the ancilla-vs-rest share) and "retained" the
    system-environment remainder. The azimuthal integral is trivial
    (integrands are azimuth-free), leaving one polar integral evaluated
    by Gauss-Legendre; the integrand is analytic in the polar angle, so
    64 nodes already reach machine precision. The branch coherences of
    all nodes x both carrier outcomes come from one array pass, a
    (nodes, 2) stack through separable_points and
    closed_form_coherences; each is closed_form_coherences of the
    node's branch instance at its separable strategy, and the weighted
    terms are summed node by node in node order.
    """
    _check_angle(channel_angle)
    nodes = _count(nodes, "nodes")
    if nodes < 2:
        raise RangeError("need at least 2 quadrature nodes")
    if _degenerate(channel_angle):
        # degenerate channel: no branch carries coherence
        return (0.0, 0.0, 0.0)
    x, w = _gauss_legendre(nodes)
    mus = 0.5 * math.pi * (x + 1.0)
    # (nodes, 2) branch terms, broadcast by the kernel
    prob, alpha, alpha_c = _branch_terms(np.array([1.0, -1.0]), math.sin(2.0 * channel_angle),
                                         np.cos(mus)[:, None])
    pts = separable_points(0.5, alpha, alpha_c)
    total, converted, _ = (c.reshape(nodes, 2) for c in closed_form_coherences(pts))
    roots = np.sqrt(np.maximum(np.stack([total, converted, total - converted], -1), 0.0))
    val = np.zeros((nodes, 3))
    for b in (0, 1):
        val += prob[:, b, None] * roots[:, b]
    terms = w[:, None] * 0.5 * val * np.sin(mus)[:, None]
    acc = np.zeros(3)
    for term in terms:
        acc += term
    acc *= 0.5 * math.pi
    return tuple(float(a) for a in acc * acc)


@dataclass(frozen=True)
class Fig4Row:
    tangle: float
    smr_total: float
    smr_retained: float
    smr_converted: float
    converted_share: float


def fig4_sweep(tangles, nodes: int = 64) -> list:
    """Square-mean-root coherences as a function of channel tangle.

    converted_share is the converted-to-total ratio; at tangle 0 every
    quantity vanishes and the share is filled in by its continuity limit
    (the ratio depends only on the channel angle).
    """
    rows = []
    for t in tangles:
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise RangeError(f"tangle must lie in [0, 1], got {t!r}")
        s = math.sqrt(max(0.0, 1.0 - t))
        angle = 0.5 * math.asin(min(1.0, s))
        smr_t, smr_c, smr_r = square_mean_root(angle, nodes)
        if smr_t > 1e-14:
            share = smr_c / smr_t
        else:
            share = 2.0 * s / (1.0 + s)
        rows.append(Fig4Row(tangle=t, smr_total=smr_t, smr_retained=smr_r,
                            smr_converted=smr_c, converted_share=float(share)))
    return rows


@dataclass(frozen=True)
class SampleReport:
    n: int
    seed: int
    successes: int
    empirical_rate: float
    analytic_rate: float
    binomial_sigma: float


def sample_teleport(inst: TeleportInstance, n: int, seed: int) -> SampleReport:
    """Draw n pipeline runs pseudo-randomly and tally successes.

    Carrier outcomes are drawn from their exact branch probabilities and
    success from the per-branch discrimination probability, so this
    samples the same distribution the deterministic enumeration reports.
    """
    n = _count(n, "n")
    if n < 1:
        raise RangeError(f"sample count must be positive, got {n!r}")
    rng = np.random.default_rng(seed)
    p_minus = branch_probability(inst, 1)
    if inst.degenerate:
        succ = 0
    else:
        p_succ = np.array([branch_to_ussd(inst, b).success_probability
                           for b in (0, 1)])
        branches = (rng.random(n) < p_minus).astype(int)
        succ = int(np.count_nonzero(rng.random(n) < p_succ[branches]))
    analytic = total_success_probability(inst.channel_angle)
    sigma = math.sqrt(max(analytic * (1.0 - analytic) / n, 0.0))
    return SampleReport(n=n, seed=seed, successes=succ,
                        empirical_rate=succ / n, analytic_rate=analytic,
                        binomial_sigma=sigma)
