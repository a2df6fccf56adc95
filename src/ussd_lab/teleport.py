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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateOverlap,
    NumericalError,
    RangeError,
    ShapeError,
    _check,
    _count,
    _entries,
    _integer,
    _nowhere,
)
from .qcore import (
    CNOT,
    HADAMARD,
    PAULI,
    PureState,
    Unitary,
    apply_rows,
    factor_rows,
    measure_rows,
    unit_rows,
    unitary_rows,
    vdot_rows,
)
from .ussd import (
    Embedding,
    UssdInstance,
    _E0,
    _abs,
    _check_mapping,
    _coupling,
    _eta,
    _p_suc,
    _polar,
    _preparations,
    _weights,
    make_instance,
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


def _check_angle(channel_angle, name: str = "channel_angle") -> None:
    if not 0.0 <= channel_angle <= _QUARTER_PI + 1e-12:
        raise RangeError(f"{name} must lie in [0, pi/4], got {channel_angle!r}")


def _sign(b_outcome, suffix: str = "") -> float:
    """+1 for carrier outcome 0, -1 for outcome 1; any other outcome
    raises RangeError, its message ending in suffix."""
    if b_outcome not in (0, 1):
        raise RangeError(f"b_outcome must be 0 or 1, got {b_outcome!r}{suffix}")
    return 1.0 if b_outcome == 0 else -1.0


def _angles(channel_angle) -> tuple:
    """One channel angle, or a 1-D stack of them (any iterable, by
    _entries' rule), each checked and named by its index: (True for one
    angle, the angles as a list of floats)."""
    single, angles, _ = _entries(channel_angle)
    if single:
        _check_angle(channel_angle)
        return True, [float(channel_angle)]
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 1:
        raise ShapeError("channel_angle must be one angle or a 1-D stack, "
                         f"got shape {angles.shape}")
    angles = angles.tolist()
    for i, angle in enumerate(angles):
        _check_angle(angle, f"channel_angle[{i}]")
    return False, angles


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
        """The state to send: _inputs on a stack of one."""
        return _inputs([self])[0]


def _dressings(local_b, local_c) -> tuple:
    """The two optional single-qubit dressings as checked 2 x 2 matrices
    (None stays None)."""
    return tuple(None if u is None else Unitary((q,), np.asarray(u, dtype=complex)).matrix
                 for q, u in (("B", local_b), ("C", local_c)))


def _channel_rows(angles, u_b, u_c, where) -> np.ndarray:
    """(n, 2, 2) channel states on (B, C), one per angle, each dressed by
    the checked matrices u_b and u_c where given."""
    c, s = np.cos(angles), np.sin(angles)
    ch = np.zeros((angles.size, 2, 2), dtype=complex)
    ch[:, 0, 0] = (c + s) / math.sqrt(2.0)
    ch[:, 1, 1] = (c - s) / math.sqrt(2.0)
    unit_rows(ch, where)
    for axis, u in ((1, u_b), (2, u_c)):
        if u is not None:
            ch = apply_rows(u, ch, (axis,), where)
    return ch


def channel_state(channel_angle: float, local_b=None, local_c=None) -> PureState:
    """Channel resource on (B, C): a Schmidt pair with weights set by the
    angle. Optional single-qubit unitaries dress the two sides; the
    paper-facing quantities (tangle, success probabilities) are invariant
    under them, which tests assert.
    """
    _check_angle(channel_angle)
    ch = _channel_rows(np.array([float(channel_angle)]), *_dressings(local_b, local_c),
                       _nowhere)
    return PureState(("B", "C"), ch[0].reshape(-1))


def _inputs(insts) -> np.ndarray:
    """(n, 2) stack of the states to send."""
    mu = np.array([i.mu for i in insts])
    nu = np.array([i.nu for i in insts])
    return np.stack([np.cos(mu / 2.0) + 0j, np.sin(mu / 2.0) * np.exp(1j * nu)], axis=1)


def _alice(insts, channel_lu, where) -> np.ndarray:
    """(n, 2, 2, 2) states on (S, B, C) after Alice's circuit, one per
    instance: the sent state times the (dressed) channel, Alice's undoing
    of B's dressing, the controlled-NOT (S controls B) and the Hadamard on
    S, each gate checked by unit_rows."""
    u_b, u_c = _dressings(*((None, None) if channel_lu is None else channel_lu))
    n = len(insts)
    ch = _channel_rows(np.array([i.channel_angle for i in insts]), u_b, u_c, where)
    psi = (_inputs(insts)[:, :, None] * ch.reshape(n, 1, 4)).reshape(n, 2, 2, 2)
    unit_rows(psi, where)
    if u_b is not None:
        psi = apply_rows(u_b.conj().T, psi, (2,), where)
    psi = apply_rows(CNOT, psi, (1, 2), where)
    return apply_rows(HADAMARD, psi, (1,), where)


def alice_circuit(inst: TeleportInstance, channel_lu=None) -> PureState:
    """State on (S, B, C) after Alice's controlled-NOT (S controls B) and
    Hadamard on S, ready for the carrier measurement. channel_lu, if given,
    is the (B, C) pair of unitaries dressing the channel; Alice undoes B's.
    The stacked circuit on a stack of one."""
    return PureState(("S", "B", "C"), _alice([inst], channel_lu, _nowhere)[0].reshape(-1))


def branch_probability(inst: TeleportInstance, b_outcome: int) -> float:
    return _branch_terms(_sign(b_outcome), math.sin(2.0 * inst.channel_angle),
                         math.cos(inst.mu))[0]


def _matvec(m, v) -> np.ndarray:
    """m @ v[i] for each row of the (n, 2) stack v (m one matrix or a
    stack of them)."""
    return (m @ v[:, :, None])[:, :, 0]


def _branch_vectors(rho, sign, phi) -> tuple:
    """The four embedding vectors (xi, xi_bar, phi, phi_bar) of
    branch_embedding as (n, 2) stacks, from arrays of channel angles,
    branch signs and (n, 2) sent states."""
    xi = np.stack([np.cos(rho), sign * np.sin(rho)], axis=1).astype(complex)
    plus = (sign > 0)[:, None]
    x_phi = _matvec(PAULI["X"], phi)
    return (xi, _matvec(PAULI["X"], xi), np.where(plus, phi, x_phi),
            np.where(plus, _matvec(PAULI["Z"], phi), _matvec(PAULI["X"] @ PAULI["Z"], phi)))


def branch_embedding(inst: TeleportInstance, b_outcome: int) -> Embedding:
    """Concrete sub-states left on (S, C) by carrier outcome b.

    The system pair is a tilted qubit and its spin-flip; the environment
    pair is the sent state and its phase-flipped copy, both conjugated by
    a bit flip on the minus branch. _branch_vectors on a stack of one.
    """
    vecs = _branch_vectors(np.array([inst.channel_angle]), np.array([_sign(b_outcome)]),
                           inst.input_state()[None])
    return Embedding(*(v[0] for v in vecs))


@dataclass(frozen=True)
class BranchRecord:
    """Everything the carrier outcome determines about the rest of the run."""

    b_outcome: int
    probability: float
    ussd_instance: UssdInstance
    success_probability: float


def branch_to_ussd(inst, b_outcome):
    """Reduce a carrier outcome to its discrimination instance.

    Equal priors always; the overlap signs make the minus branch carry a
    relative phase of pi. Raises DegenerateOverlap at channel_angle =
    pi/4 where the sub-states coincide.

    One instance and outcome give a BranchRecord. Equal-length sequences
    of instances and outcomes give a tuple of them from one pass: the
    outcome and degeneracy checks, one _branch_success pass over the
    stack and make_instance on each entry, each check naming the entry
    at fault; each record equals a call on that pair alone.
    """
    single, insts, outs, where = _entries(inst, b_outcome)
    if len(insts) != len(outs):
        raise ShapeError(f"{len(insts)} instances but {len(outs)} carrier outcomes")
    if not insts:
        return ()
    signs = [_sign(b, where(i)) for i, b in enumerate(outs)]
    _check(np.array([i.degenerate for i in insts]), DegenerateOverlap,
           lambda i: f"channel_angle pi/4 gives |overlap| = 1; discrimination degenerate{where(i)}")
    prob, alpha, alpha_c, p_suc = _branch_success(
        np.array(signs), np.array([math.sin(2.0 * i.channel_angle) for i in insts]),
        np.array([math.cos(i.mu) for i in insts]))
    records = tuple(BranchRecord(b_outcome=b, probability=pb,
                                 ussd_instance=make_instance(0.5, a, ac), success_probability=ps)
                    for b, pb, a, ac, ps in zip(outs, prob.tolist(), alpha.tolist(),
                                                alpha_c.tolist(), p_suc.tolist()))
    return records[0] if single else records


def _branch_success(sign, s2, cos_mu) -> tuple:
    """_branch_terms of carrier branches of non-degenerate channels (so
    that every branch instance is admissible) and each branch's
    p_suc_max, from one _weights and _p_suc pass; arrays broadcast."""
    prob, alpha, alpha_c = _branch_terms(sign, s2, cos_mu)
    (aa, ga), (acm, gc) = _polar(alpha), _polar(alpha_c)
    rp, rm, _, interior = _weights(0.5, aa, ga, acm, gc)
    return prob, alpha, alpha_c, _p_suc(rp, rm, aa, interior)


def total_success_probability(channel_angle):
    """Probability that the whole pipeline delivers the state, averaged
    over carrier outcomes. Independent of the sent state: the branch
    weights and the per-branch success probabilities conspire so that mu
    and nu drop out.

    channel_angle is one angle, which gives a float, or a 1-D stack,
    which gives a tuple of them from one _branch_success pass over both
    branches of every angle; each equals a call on that angle alone.
    """
    single, angles = _angles(channel_angle)
    out = [0.0] * len(angles)
    live = [i for i, angle in enumerate(angles) if not _degenerate(angle)]
    # evaluated at mu = pi/2 where the branches are symmetric; tests sweep
    # the full (mu, nu) grid to confirm the value never moves
    prob, _, _, p_suc = _branch_success(
        np.array([1.0, -1.0]), np.array([math.sin(2.0 * angles[i]) for i in live])[:, None],
        math.cos(math.pi / 2.0))
    terms = prob * p_suc
    for i, total in zip(live, (terms[:, 0] + terms[:, 1]).tolist()):
        out[i] = total
    return out[0] if single else tuple(out)


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


def _branch_runs(insts, branches, channel_lu=None, tag=_nowhere) -> list:
    """Every outcome path of the given carrier branches of each instance,
    as one list per instance in enumeration order, from one pass over the
    (instances x branches) stack.

    Alice's circuit and the carrier measurement run on the stack of
    instances; the live carrier branches of all of them then evolve
    together in _live_runs. A degenerate channel has only failure paths;
    a dead branch or outcome gives zero-probability runs. A failed check
    names its carrier branch, and its instance j by the suffix tag(j)
    (none by default)."""
    p_b, live_b, post_b = measure_rows(_alice(insts, channel_lu, tag), 2, True, tag)
    rows = [(j, b) for j in range(len(insts)) for b in branches if live_b[b, j]]
    runs = _live_runs(insts, rows, p_b, post_b, channel_lu, tag) if rows else {}
    return [[runs.get((j, b, s), TeleportRun(b, s, 0.0, False, None, None, 0.0))
             for b in branches for s in ((None,) if inst.degenerate else (None, 0, 1))]
            for j, inst in enumerate(insts)]


def _live_runs(insts, rows, p_b, post_b, channel_lu, tag) -> dict:
    """The runs of the live carrier branches rows, (instance, branch)
    pairs, keyed by (instance, b, s), from one pass over their stack.
    Rows of degenerate instances give their failure path from one
    batched eigh of rho_C. The others take one separable_points call
    and one _coupling, the coupling applied by one batched matmul, the
    ancilla measurement, both factor-outs and the system measurement by
    qcore's stacked kernel (measure_rows, factor_rows) on the
    (n, 2, 2, 2) tensor on (S, A, C), and Bob's corrections as array
    expressions. Dead outcomes are masked per row and get no run.

    Each run is bit-equal to the per-path chain of per-state measurements
    and factor-outs on one branch (tests/test_teleport.py keeps it as
    reference_run_teleport): the slices and products here are exact, the
    batched matmuls hand BLAS each row as the chain hands it one state,
    and vdot_rows and norm_rows give each row np.vdot's and
    np.linalg.norm's bits."""
    jj = np.array([j for j, _ in rows])
    bb = np.array([b for _, b in rows])
    n = len(rows)

    def where(i):
        return f" on carrier branch {bb[i]}{tag(jj[i])}"

    u_c = None if channel_lu is None else np.asarray(channel_lu[1], dtype=complex)
    phi = _inputs(insts)
    target = phi if u_c is None else _matvec(u_c, phi)
    runs = {}

    def add(idx, s, prob, final, names=None):
        """The runs of path s on the rows idx, with their probabilities
        and delivered states (aligned with idx) and correction names."""
        fid = np.float_power(_abs(vdot_rows(target[jj[idx]], final)), 2)
        for r, i in enumerate(idx.tolist()):
            runs[(int(jj[i]), int(bb[i]), s)] = TeleportRun(
                int(bb[i]), s, float(prob[r]), s is not None, final[r],
                None if names is None else names[r], float(fid[r]))

    # (n, 2, 2) on (S, C): each row's slice of its own carrier outcome
    psi_sc = factor_rows(post_b[bb, jj][np.arange(n), :, bb, :], True, "B", where)
    prob_b = p_b[bb, jj]
    degenerate = np.array([insts[j].degenerate for j in jj.tolist()])
    # product branch state: C never became entangled with S; rho_C of
    # the (S, C) amplitudes m is m^T conj(m)
    deg = np.flatnonzero(degenerate)
    if deg.size:
        w, v = np.linalg.eigh(psi_sc[deg].swapaxes(1, 2) @ psi_sc[deg].conj())
        _check(w[:, -1] < 1.0 - 1e-9, NumericalError,
               lambda i: f"degenerate branch state unexpectedly mixed{where(deg[i])}")
        add(deg, None, prob_b[deg], v[:, :, -1])
    live = np.flatnonzero(~degenerate)
    if not live.size:
        return runs
    jj, bb, psi_sc, prob_b = jj[live], bb[live], psi_sc[live], prob_b[live]
    n = live.size

    rho = np.array([insts[j].channel_angle for j in jj.tolist()])
    sign = np.where(bb == 0, 1.0, -1.0)
    _, alpha, alpha_c = _branch_terms(sign, np.sin(2.0 * rho),
                                      np.cos(np.array([insts[j].mu for j in jj.tolist()])))
    pts = separable_points(0.5, alpha, alpha_c)
    xi, xi_bar, phi_c, phi_bar = _branch_vectors(rho, sign, phi[jj])
    if u_c is not None:
        phi_c, phi_bar = _matvec(u_c, phi_c), _matvec(u_c, phi_bar)
    _, chi = _preparations(pts, (xi, xi_bar, phi_c, phi_bar), where)
    agreement = _abs(vdot_rows(chi, psi_sc.reshape(n, 4)))
    us, miss = _coupling(pts, xi, xi_bar, np.broadcast_to(_E0, (n, 2)))
    # each row's checks in the order the per-branch chain meets them
    for i in range(n):
        PureState(("S", "C"), chi[i])
        if agreement[i] < 1.0 - 1e-9:
            raise NumericalError(f"branch state disagrees with its closed form{where(i)} "
                                 f"(|overlap| = {agreement[i]!r})")
        _check_mapping(miss[i:i + 1], lambda _: tag(jj[i]))
    unitary_rows(us, where)

    psi3 = np.zeros((n, 2, 2, 2), dtype=complex)      # (S, A, C), ancilla in |0>
    psi3[:, :, 0] = psi_sc
    psi3 = (us @ psi3.reshape(n, 4, 2)).reshape(n, 2, 2, 2)
    unit_rows(psi3, where)
    p_a, ok_a, (post_suc, post_fail) = measure_rows(psi3, 2, True, where)

    # failure: drop the ancilla, then the system along the failure direction
    rest = factor_rows(post_fail[:, :, 1], ok_a[1], "A", where)
    along = (_eta(pts.beta, pts.delta).conj()[:, None, :] @ rest)[:, 0, :]
    final = factor_rows(along, ok_a[1], "S", where)
    idx = np.flatnonzero(ok_a[1])
    add(idx, None, (prob_b * p_a[1])[idx], final[idx])

    # success: measure the system, drop the ancilla and the system, correct
    p_s, ok_s, post_s = measure_rows(post_suc, 1, ok_a[0], where)
    for s in (0, 1):
        rest = factor_rows(post_s[s][:, :, 0], ok_s[s], "A", where)
        c_vec = factor_rows(rest[:, s], ok_s[s], "S", where)
        mats = np.stack([_CORRECTIONS[(b, s)][1] for b in bb.tolist()])
        if u_c is not None:
            mats = u_c @ mats @ u_c.conj().T
        final = (mats @ c_vec[:, :, None])[:, :, 0]
        idx = np.flatnonzero(ok_s[s])
        add(idx, s, (prob_b * p_a[0] * p_s[s])[idx], final[idx],
            [_CORRECTIONS[(b, s)][0] for b in bb[idx].tolist()])
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
    return next(r for r in _branch_runs([inst], (b_outcome,), channel_lu)[0]
                if r.s_outcome == s_outcome)


def enumerate_runs(inst):
    """All outcome paths with their joint probabilities (per carrier branch
    failure, then s = 0, 1; failure only when degenerate), from one
    pass over the stack of both carrier branches.

    inst is one TeleportInstance, which gives a list of runs, or a
    sequence of them, which gives a tuple of such lists from one pass
    over the (instances x branches) stack; each list equals a call on
    that instance alone."""
    single, insts, where = _entries(inst)
    if not insts:
        return ()
    runs = _branch_runs(insts, (0, 1), tag=where)
    return runs[0] if single else tuple(runs)


# ---------------------------------------------------------------------------
# averaged coherence bookkeeping

def square_mean_root(channel_angle, nodes: int = 64) -> tuple:
    """Squares of the branch-averaged root coherences, integrated over the
    Bloch sphere of sent states, as (total, converted, retained).

    "total" is the full amount, "converted" the part moved onto the
    ancilla cut (the ancilla-vs-rest share) and "retained" the
    system-environment remainder. The azimuthal integral is trivial
    (integrands are azimuth-free), leaving one polar integral evaluated
    by Gauss-Legendre; the integrand is analytic in the polar angle, so
    64 nodes already reach machine precision.

    channel_angle is one angle, which gives one triple, or a 1-D stack,
    which gives a tuple of triples. The branch coherences of all angles
    x nodes x both carrier outcomes come from one array pass, an
    (angles, nodes, 2) stack through separable_points and
    closed_form_coherences; each is closed_form_coherences of the
    node's branch instance at its separable strategy, and each angle's
    weighted terms are summed node by node in node order, so each
    triple equals a call on that angle alone.
    """
    single, angles = _angles(channel_angle)
    nodes = _nodes(nodes)
    # a degenerate channel carries no coherence on either branch
    live = [i for i, angle in enumerate(angles) if not _degenerate(angle)]
    out = [(0.0, 0.0, 0.0)] * len(angles)
    if not live:
        return out[0] if single else tuple(out)
    x, w = _gauss_legendre(nodes)
    mus = 0.5 * math.pi * (x + 1.0)
    s2 = np.array([math.sin(2.0 * angles[i]) for i in live])
    # (angles, nodes, 2) branch terms, broadcast by the kernel
    prob, alpha, alpha_c = _branch_terms(np.array([1.0, -1.0]), s2[:, None, None],
                                         np.cos(mus)[:, None])
    pts = separable_points(0.5, alpha, alpha_c)
    total, converted, _ = (c.reshape(prob.shape) for c in closed_form_coherences(pts))
    roots = np.sqrt(np.maximum(np.stack([total, converted, total - converted], -1), 0.0))
    val = np.zeros((len(live), nodes, 3))
    for b in (0, 1):
        val += prob[..., b, None] * roots[..., b, :]
    terms = w[:, None] * 0.5 * val * np.sin(mus)[:, None]
    acc = np.zeros((len(live), 3))
    for k in range(nodes):
        acc += terms[:, k]
    acc *= 0.5 * math.pi
    for i, triple in zip(live, (acc * acc).tolist()):
        out[i] = tuple(triple)
    return out[0] if single else tuple(out)


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
    (the ratio depends only on the channel angle). Every tangle is
    checked, in order, before the one square_mean_root call over the
    whole sweep.
    """
    nodes = _nodes(nodes)
    ts, ss, angles = [], [], []
    for t in tangles:
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise RangeError(f"tangle must lie in [0, 1], got {t!r}")
        s = math.sqrt(1.0 - t)
        ts.append(t)
        ss.append(s)
        angles.append(0.5 * math.asin(s))
    rows = []
    for t, s, (smr_t, smr_c, smr_r) in zip(ts, ss, square_mean_root(np.array(angles), nodes)):
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
    seed = _integer(seed, "seed")
    if seed < 0:
        raise RangeError(f"seed must be non-negative, got {seed!r}")
    rng = np.random.default_rng(seed)
    if inst.degenerate:
        succ = 0
    else:
        prob, _, _, p_succ = _branch_success(np.array([1.0, -1.0]),
                                             math.sin(2.0 * inst.channel_angle),
                                             math.cos(inst.mu))
        branches = (rng.random(n) < prob[1]).astype(int)
        succ = int(np.count_nonzero(rng.random(n) < p_succ[branches]))
    analytic = total_success_probability(inst.channel_angle)
    sigma = math.sqrt(max(analytic * (1.0 - analytic) / n, 0.0))
    return SampleReport(n=n, seed=seed, successes=succ,
                        empirical_rate=succ / n, analytic_rate=analytic,
                        binomial_sigma=sigma)
