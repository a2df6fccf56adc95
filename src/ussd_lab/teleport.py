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
    factor_rows,
    measure_rows,
    projective_measure,
    reduce_stack,
    tensor,
    unit_rows,
)
from .ussd import (
    Embedding,
    UssdInstance,
    build_chi,
    coupling_unitary,
    make_instance,
    p_suc_max,
    separable_points,
)
from .coherence import closed_form_coherences
from .oracle import _gauss_legendre

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


def _sign(b_outcome) -> float:
    """+1 for carrier outcome 0, -1 for outcome 1; any other outcome
    raises RangeError."""
    if b_outcome not in (0, 1):
        raise RangeError(f"b_outcome must be 0 or 1, got {b_outcome!r}")
    return 1.0 if b_outcome == 0 else -1.0


def _nodes(nodes) -> int:
    """A quadrature node count: an integer of at least 2."""
    nodes = _count(nodes, "nodes")
    if nodes < 2:
        raise RangeError("need at least 2 quadrature nodes")
    return nodes


def _degenerate(channel_angle) -> bool:
    """True where sin 2 channel_angle rounds to 1: at pi/4 the two
    branch sub-states coincide and discrimination is impossible, and
    within about 5.3e-9 of it the branch overlap +/- sin 2 rho is 1 in
    floating point, which no discrimination instance admits."""
    return math.sin(2.0 * channel_angle) >= 1.0


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
    return _branch_terms(_sign(b_outcome), math.sin(2.0 * inst.channel_angle),
                         math.cos(inst.mu))[0]


def branch_embedding(inst: TeleportInstance, b_outcome: int) -> Embedding:
    """Concrete sub-states left on (S, C) by carrier outcome b.

    The system pair is a tilted qubit and its spin-flip; the environment
    pair is the sent state and its phase-flipped copy, both conjugated by
    a bit flip on the minus branch.
    """
    rho = inst.channel_angle
    sign = _sign(b_outcome)
    xi = np.array([math.cos(rho), sign * math.sin(rho)], dtype=complex)
    xi_bar = PAULI["X"] @ xi
    phi = inst.input_state()
    if sign > 0:
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
    sign = _sign(b_outcome)
    if inst.degenerate:
        raise DegenerateOverlap(
            "channel_angle pi/4 gives |overlap| = 1; discrimination degenerate"
        )
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
    order. Alice's circuit and the carrier measurement run once, then
    the live branches evolve together in _live_runs. A degenerate
    channel has only failure paths; a dead branch or outcome gives
    zero-probability runs."""
    carrier = projective_measure(alice_circuit(inst, channel_lu), "B")
    live = [b for b in branches if carrier[b][2] is not None]
    runs = _live_runs(inst, live, carrier, channel_lu) if live else {}
    paths = (None,) if inst.degenerate else (None, 0, 1)
    return [runs[(b, s)] if (b, s) in runs else TeleportRun(b, s, 0.0, False, None, None, 0.0)
            for b in branches for s in paths]


def _live_runs(inst: TeleportInstance, live, carrier, channel_lu) -> dict:
    """The runs of the live carrier branches, keyed by (b, s), from one
    pass over their stack: one separable_points call, each branch's own
    closed-form coupling unitary applied by one batched matmul, the ancilla
    measurement, both factor-outs and the system measurement by qcore's
    stacked kernel (measure_rows, factor_rows) on the (n, 2, 2, 2) tensor
    on (S, A, C), and Bob's corrections as array expressions. Dead
    outcomes are masked per row and get no run; a failed check names its
    carrier branch.

    Each run is bit-equal to the per-path chain of per-state measurements
    and factor-outs on one branch (tests/test_teleport.py keeps it as
    reference_run_teleport): the slices and products here are exact, the
    batched matmuls hand BLAS each row as the chain hands it one state,
    and each np.vdot and np.linalg.norm runs per row, on the array shape
    the chain gives it, so it sums in the same order."""
    u_c = None if channel_lu is None else np.asarray(channel_lu[1], dtype=complex)
    target = inst.input_state() if u_c is None else u_c @ inst.input_state()
    runs = {}

    def path(b, s, prob, final, name=None):
        fid = float(abs(np.vdot(target, final)) ** 2)
        runs[(b, s)] = TeleportRun(b, s, float(prob), s is not None, final, name, fid)

    n = len(live)
    every = np.ones(n, dtype=bool)
    p_b = [carrier[b][1] for b in live]

    def where(i):
        return f" on carrier branch {live[i]}"

    # (n, 2, 2) on (S, C): each branch's slice of its own carrier outcome
    psi_sc = factor_rows(np.array([carrier[b][2].as_tensor()[:, b, :] for b in live]),
                         every, "B", where)
    if inst.degenerate:
        for i, b in enumerate(live):
            # product branch state: C never became entangled with S
            w, v = np.linalg.eigh(reduce_stack(psi_sc[i][None], ("S", "C"), ["C"])[0])
            if w[-1] < 1.0 - 1e-9:
                raise NumericalError(f"degenerate branch state unexpectedly mixed "
                                     f"on carrier branch {b}")
            path(b, None, p_b[i], v[:, -1])
        return runs

    _, alpha, alpha_c = _branch_terms(np.array([_sign(b) for b in live]),
                                      math.sin(2.0 * inst.channel_angle), math.cos(inst.mu))
    pts = separable_points(0.5, alpha, alpha_c)
    us, etas = [], []
    for i, b in enumerate(live):
        ui, strat = make_instance(0.5, alpha[i], alpha_c), pts.strategy(i)
        emb = branch_embedding(inst, b)
        if u_c is not None:
            emb = replace(emb, phi=u_c @ emb.phi, phi_bar=u_c @ emb.phi_bar)
        agreement = abs(np.vdot(build_chi(ui, emb).amplitudes, psi_sc[i]))
        if agreement < 1.0 - 1e-9:
            raise NumericalError(
                f"branch state disagrees with its closed form on carrier branch {b} "
                f"(|overlap| = {agreement!r})"
            )
        us.append(coupling_unitary(ui, strat, embedding=emb).matrix)
        etas.append(strat.failure_direction())

    psi3 = np.zeros((n, 2, 2, 2), dtype=complex)      # (S, A, C), ancilla in |0>
    psi3[:, :, 0] = psi_sc
    psi3 = (np.stack(us) @ psi3.reshape(n, 4, 2)).reshape(n, 2, 2, 2)
    unit_rows(psi3, every, where)
    p_a, ok_a, (post_suc, post_fail) = measure_rows(psi3, 2, every, where)

    # failure: drop the ancilla, then the system along the failure direction
    rest = factor_rows(post_fail[:, :, 1], ok_a[1], "A", where)
    along = (np.stack(etas).conj()[:, None, :] @ rest)[:, 0, :]
    final = factor_rows(along, ok_a[1], "S", where)
    for i in np.flatnonzero(ok_a[1]):
        path(live[i], None, p_b[i] * p_a[1, i], final[i])

    # success: measure the system, drop the ancilla and the system, correct
    p_s, ok_s, post_s = measure_rows(post_suc, 1, ok_a[0], where)
    for s in (0, 1):
        rest = factor_rows(post_s[s][:, :, 0], ok_s[s], "A", where)
        c_vec = factor_rows(rest[:, s], ok_s[s], "S", where)
        mats = np.stack([_CORRECTIONS[(b, s)][1] for b in live])
        if u_c is not None:
            mats = u_c @ mats @ u_c.conj().T
        final = (mats @ c_vec[:, :, None])[:, :, 0]
        for i in np.flatnonzero(ok_s[s]):
            b = live[i]
            path(b, s, p_b[i] * p_a[0, i] * p_s[s, i], final[i], _CORRECTIONS[(b, s)][0])
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
    _sign(b_outcome)
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
    pass over the stack of both carrier branches."""
    return _branch_runs(inst, (0, 1))


# ---------------------------------------------------------------------------
# averaged coherence bookkeeping

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
    nodes = _nodes(nodes)
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
    nodes = _nodes(nodes)
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
    n is a positive integer and seed a non-negative one.
    """
    n = _count(n, "n")
    if n < 1:
        raise RangeError(f"sample count must be positive, got {n!r}")
    seed = _count(seed, "seed")
    if seed < 0:
        raise RangeError(f"seed must be non-negative, got {seed!r}")
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
