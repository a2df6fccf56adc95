"""Teleportation application: channel, branches, corrections, averages.

The pipeline evolves both carrier branches in one stacked pass and reads
all outcome paths off it. reference_run_teleport keeps the per-path
simulation it replaced, built on reference_projective_measure and
reference_factor_out, the measurement in a supplied basis and the
factor-out that qcore's stacked kernel replaced; TestSharedEvolution
holds every run to it field for field, with ==, and TestMeasurementKernel
holds the kernel to the two references. reference_branch_coherences is
the scalar branch triple that square_mean_root's array pass replaced,
and reference_branch_probability the scalar branch weight.
"""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ussd_lab import teleport
from ussd_lab.coherence import closed_form_coherences, ledger, wootters_concurrence
from ussd_lab.errors import NumericalError, ShapeError, UssdLabError, _entries
from ussd_lab.qcore import (
    CNOT,
    HADAMARD,
    PureState,
    Unitary,
    factor_rows,
    measure_rows,
    unit_rows,
)
from ussd_lab.ussd import (
    Embedding,
    build_chi,
    coupled_state,
    coupling_unitary,
    make_instance,
    separable_strategy,
)
from ussd_lab.teleport import (
    _CORRECTIONS,
    TeleportInstance,
    TeleportRun,
    alice_circuit,
    branch_embedding,
    branch_probability,
    branch_to_ussd,
    channel_state,
    enumerate_runs,
    fig4_sweep,
    run_teleport,
    sample_teleport,
    square_mean_root,
    total_success_probability,
)
from ussd_lab.errors import DegenerateOverlap, RangeError
from test_qcore import (
    factor_one,
    reference_apply as apply,
    reference_reorder as reorder,
    reference_tensor as tensor,
)

QP = math.pi / 4
_E0 = np.array([1.0, 0.0], dtype=complex)
_E1 = np.array([0.0, 1.0], dtype=complex)


def haar(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def reference_branch_probability(inst, b_outcome):
    sign = 1.0 if b_outcome == 0 else -1.0
    return 0.5 * (1.0 + sign * math.sin(2.0 * inst.channel_angle) * math.cos(inst.mu))


def reference_branch_instance(inst, b_outcome):
    sign = 1.0 if b_outcome == 0 else -1.0
    return make_instance(0.5, sign * math.sin(2.0 * inst.channel_angle), math.cos(inst.mu))


def reference_branch_coherences(inst, b_outcome):
    """Coherence triple (total, ancilla-vs-rest, genuine) of the branch at
    its optimal separable strategy, one instance at a time. Degenerate
    channels (angle pi/4) give exact zeros."""
    if inst.degenerate:
        return (0.0, 0.0, 0.0)
    ui = reference_branch_instance(inst, b_outcome)
    return closed_form_coherences(ui, separable_strategy(ui))


def reference_projective_measure(psi: PureState, target: str, basis) -> list:
    """Measure one qubit in a supplied orthonormal basis.

    basis is a pair of length-2 vectors (or single-qubit PureStates).
    Returns a list of (outcome, probability, post_state) with outcome 0, 1
    in basis order. A zero-probability outcome carries post_state None.

    (projective_measure before it became measure_rows on a stack of one.
    The basis checks raise ValueError here: the package has no basis
    error type any more.)
    """
    vecs = []
    for b in basis:
        v = b.amplitudes if isinstance(b, PureState) else np.asarray(b, dtype=complex)
        v = v.reshape(-1)
        if v.size != 2:
            raise ValueError("measurement basis vectors must be single qubit")
        vecs.append(v)
    if len(vecs) != 2:
        raise ValueError("need exactly two basis vectors")
    g00 = abs(np.vdot(vecs[0], vecs[0]) - 1.0)
    g11 = abs(np.vdot(vecs[1], vecs[1]) - 1.0)
    g01 = abs(np.vdot(vecs[0], vecs[1]))
    if max(g00, g11, g01) > 1e-12:
        raise ValueError("measurement basis is not orthonormal")

    axis = psi.axis_of(target)
    t = psi.as_tensor()
    results = []
    for k, v in enumerate(vecs):
        # amplitude of outcome k, then re-insert the collapsed qubit
        comp = np.tensordot(v.conj(), t, axes=([0], [axis]))
        prob = float(np.vdot(comp, comp).real)
        if prob < 1e-15:
            results.append((k, prob, None))
            continue
        post = np.tensordot(v, comp / np.sqrt(prob), axes=0)
        post = np.moveaxis(post, 0, axis)
        results.append((k, prob, PureState(psi.register, post.reshape(-1))))
    total = sum(p for _, p, _ in results)
    if abs(total - 1.0) > 1e-10:
        raise NumericalError(f"outcome probabilities sum to {total!r}")
    return results


def measure_one(psi: PureState, target: str) -> list:
    """measure_rows on a stack of one, as (outcome, probability,
    post_state) for outcomes 0 and 1, post_state None for a dead outcome
    (the list qcore.projective_measure returned)."""
    probs, live, post = measure_rows(psi.as_tensor()[None], 1 + psi.axis_of(target),
                                     np.ones(1, dtype=bool))
    return [(k, float(probs[k, 0]),
             PureState(psi.register, post[k, 0].reshape(-1)) if live[k, 0] else None)
            for k in (0, 1)]


def reference_factor_out(psi: PureState, label: str, outcome_vec) -> PureState:
    """Remove a qubit known to sit in a product state outcome_vec.

    Used after a projective collapse to drop the measured qubit. Raises
    ShapeError if the qubit is actually entangled with the rest.

    (The one-state factor_out before qcore's factor_rows replaced it.)
    """
    v = np.asarray(outcome_vec, dtype=complex).reshape(-1)
    axis = psi.axis_of(label)
    rest = np.tensordot(v.conj(), psi.as_tensor(), axes=([0], [axis]))
    nrm = np.linalg.norm(rest)
    if abs(nrm - 1.0) > 1e-9:
        raise ShapeError(f"qubit {label!r} is not in the stated product state")
    new_reg = tuple(q for q in psi.register if q != label)
    return PureState(new_reg, rest.reshape(-1) / nrm)


def reference_run_teleport(inst, b_outcome, s_outcome=None, channel_lu=None):
    """The per-path simulation the shared branch evolution replaced:
    Alice's circuit, the carrier measurement, the coupling and the
    ancilla measurement all run again for every path."""
    if b_outcome not in (0, 1):
        raise RangeError(f"b_outcome must be 0 or 1, got {b_outcome!r}")
    if s_outcome not in (None, 0, 1):
        raise RangeError(f"s_outcome must be None, 0 or 1, got {s_outcome!r}")
    u_b = u_c = None
    if channel_lu is not None:
        u_b = np.asarray(channel_lu[0], dtype=complex)
        u_c = np.asarray(channel_lu[1], dtype=complex)

    phi = inst.input_state()
    target = phi if u_c is None else u_c @ phi

    psi = tensor(PureState(("S",), phi),
                 channel_state(inst.channel_angle, local_b=u_b, local_c=u_c))
    if u_b is not None:
        psi = apply(Unitary(("B",), u_b.conj().T), psi, targets=("B",))
    psi = apply(Unitary(("S", "B"), CNOT), psi, targets=("S", "B"))
    psi = apply(Unitary(("S",), HADAMARD), psi, targets=("S",))

    _, p_b, post_b = reference_projective_measure(psi, "B", (_E0, _E1))[b_outcome]
    if post_b is None:
        return TeleportRun(b_outcome, s_outcome, 0.0, False, None, None, 0.0)
    psi_sc = reference_factor_out(post_b, "B", _E1 if b_outcome else _E0)

    if inst.degenerate:
        if s_outcome is not None:
            raise DegenerateOverlap(
                "channel_angle pi/4: discrimination never succeeds; "
                "only the failure path (s_outcome=None) exists"
            )
        # rho_C of the (S, C) amplitudes m is m^T conj(m)
        m = psi_sc.as_tensor()
        w, v = np.linalg.eigh(m.T @ m.conj())
        if w[-1] < 1.0 - 1e-9:
            raise NumericalError("degenerate branch state unexpectedly mixed")
        final = v[:, -1]
        fid = float(abs(np.vdot(target, final)) ** 2)
        return TeleportRun(b_outcome, None, float(p_b), False, final, None, fid)

    emb = branch_embedding(inst, b_outcome)
    ui = reference_branch_instance(inst, b_outcome)
    if u_c is not None:
        emb = Embedding(xi=emb.xi, xi_bar=emb.xi_bar,
                        phi=u_c @ emb.phi, phi_bar=u_c @ emb.phi_bar)
    agreement = abs(np.vdot(build_chi(ui, emb).amplitudes, psi_sc.amplitudes))
    if agreement < 1.0 - 1e-9:
        raise NumericalError(
            f"branch state disagrees with its closed form (|overlap| = {agreement!r})"
        )

    strat = separable_strategy(ui)
    psi3 = reorder(tensor(psi_sc, PureState(("A",), strat.ancilla_init)),
                   ("S", "A", "C"))
    u_sa = coupling_unitary(ui, strat, embedding=emb)
    psi3 = apply(u_sa, psi3, targets=("S", "A"))
    outcomes_a = reference_projective_measure(psi3, "A", (_E0, _E1))

    if s_outcome is None:
        _, p_fail, post_fail = outcomes_a[1]
        if post_fail is None:
            return TeleportRun(b_outcome, None, 0.0, False, None, None, 0.0)
        rest = reference_factor_out(post_fail, "A", _E1)
        final = reference_factor_out(rest, "S", strat.failure_direction()).amplitudes
        fid = float(abs(np.vdot(target, final)) ** 2)
        return TeleportRun(b_outcome, None, float(p_b * p_fail), False,
                           final, None, fid)

    _, p_suc, post_suc = outcomes_a[0]
    if post_suc is None:
        return TeleportRun(b_outcome, s_outcome, 0.0, False, None, None, 0.0)
    _, p_s, post_s = reference_projective_measure(post_suc, "S", (_E0, _E1))[s_outcome]
    if post_s is None:
        return TeleportRun(b_outcome, s_outcome, 0.0, False, None, None, 0.0)
    rest = reference_factor_out(post_s, "A", _E0)
    c_vec = reference_factor_out(rest, "S", _E1 if s_outcome else _E0).amplitudes

    name, mat = _CORRECTIONS[(b_outcome, s_outcome)]
    if u_c is not None:
        mat = u_c @ mat @ u_c.conj().T
    final = mat @ c_vec
    fid = float(abs(np.vdot(target, final)) ** 2)
    return TeleportRun(b_outcome, s_outcome, float(p_b * p_suc * p_s), True,
                       final, name, fid)


def reference_enumerate_runs(inst):
    runs = []
    for b in (0, 1):
        runs.append(reference_run_teleport(inst, b, None))
        if not inst.degenerate:
            for s in (0, 1):
                runs.append(reference_run_teleport(inst, b, s))
    return runs


def assert_same_run(got, want):
    """Every field with ==, the delivered state with np.array_equal."""
    for field in ("b_outcome", "s_outcome", "probability", "success",
                  "correction", "fidelity"):
        assert getattr(got, field) == getattr(want, field), field
        assert type(getattr(got, field)) is type(getattr(want, field)), field
    if want.final_c is None:
        assert got.final_c is None
    else:
        assert np.array_equal(got.final_c, want.final_c)


def outcome_of(fn, *args, **kwargs):
    """fn's result, or the type and message of the UssdLabError it raised."""
    try:
        return fn(*args, **kwargs)
    except UssdLabError as exc:
        return (type(exc), str(exc))


def assert_matches_reference(inst, lu):
    """enumerate_runs and every existing run_teleport path, plain and
    dressed by lu, against the per-path reference."""
    want, got = (outcome_of(f, inst) for f in (reference_enumerate_runs, enumerate_runs))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_run(g, w)
    paths = (None,) if inst.degenerate else (None, 0, 1)
    for b, s, dressing in itertools.product((0, 1), paths, (None, lu)):
        want = outcome_of(reference_run_teleport, inst, b, s, channel_lu=dressing)
        got = outcome_of(run_teleport, inst, b, s, channel_lu=dressing)
        if isinstance(want, tuple):
            assert got == want, (b, s)
        else:
            assert_same_run(got, want)


class TestInstanceAndChannel:
    def test_ranges(self):
        with pytest.raises(RangeError):
            TeleportInstance(1.0, 0.5, 0.5)
        with pytest.raises(RangeError):
            TeleportInstance(0.3, 4.0, 0.5)
        with pytest.raises(RangeError):
            TeleportInstance(0.3, 0.5, 7.0)

    @pytest.mark.parametrize("angle", [-0.1, QP + 1e-9, math.nan])
    def test_one_channel_angle_check(self, angle):
        calls = (lambda: TeleportInstance(angle, 0.5, 0.5), lambda: channel_state(angle),
                 lambda: total_success_probability(angle), lambda: square_mean_root(angle))
        for call in calls:
            with pytest.raises(RangeError, match=re.escape(
                    f"channel_angle must lie in [0, pi/4], got {angle!r}")):
                call()

    @pytest.mark.parametrize("angle", [QP, QP - 5e-13, QP + 5e-13])
    def test_one_degeneracy_test(self, angle):
        assert TeleportInstance(angle, 0.5, 0.5).degenerate
        assert total_success_probability(angle) == 0.0
        assert square_mean_root(angle) == (0.0, 0.0, 0.0)
        # degenerate wherever sin 2 rho rounds to 1, the overlap no
        # discrimination instance admits
        assert TeleportInstance(QP - 2e-12, 0.5, 0.5).degenerate
        assert TeleportInstance(QP - 1e-9, 0.5, 0.5).degenerate
        assert not TeleportInstance(QP - 1e-7, 0.5, 0.5).degenerate

    @pytest.mark.parametrize("d", [2e-12, 1e-11, 1e-9])
    @pytest.mark.parametrize("mu", [0.0, 0.3, math.pi])
    def test_near_pole_lists_failure_paths_only(self, d, mu):
        runs = enumerate_runs(TeleportInstance(QP - d, mu, 0.0))
        assert [(r.b_outcome, r.s_outcome, r.success) for r in runs] \
            == [(0, None, False), (1, None, False)]
        assert abs(sum(r.probability for r in runs) - 1.0) < 1e-12

    def test_channel_tangle(self):
        for rho in (0.0, 0.2, 0.6, QP):
            ch = channel_state(rho)
            assert abs(np.linalg.norm(ch.amplitudes) - 1) < 1e-12
            tangle = wootters_concurrence(ch.amplitudes[:, None]) ** 2
            assert abs(tangle - math.cos(2 * rho) ** 2) < 1e-12

    def test_local_dressing_keeps_the_tangle(self):
        rng = np.random.default_rng(31)
        ch = channel_state(0.3, local_b=haar(rng), local_c=haar(rng))
        assert abs(wootters_concurrence(ch.amplitudes[:, None]) - math.cos(0.6)) < 1e-12

    def test_circuit_register(self):
        psi = alice_circuit(TeleportInstance(0.3, 1.0, 2.0))
        assert psi.register == ("S", "B", "C")
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12


class TestBranches:
    def test_probabilities_sum_to_one(self):
        inst = TeleportInstance(0.25, 1.3, 0.4)
        assert abs(branch_probability(inst, 0) + branch_probability(inst, 1) - 1) < 1e-15

    def test_branch_terms_are_the_scalar_forms(self):
        rng = np.random.default_rng(12)
        angles = [0.0, QP, *rng.uniform(0.0, QP, 1500)]
        mus = [0.0, math.pi, *rng.uniform(0.0, math.pi, 1500)]
        for rho, mu in zip(angles, mus):
            inst = TeleportInstance(rho, mu, 0.0)
            for b in (0, 1):
                assert branch_probability(inst, b) == reference_branch_probability(inst, b)
                if not inst.degenerate:
                    rec = branch_to_ussd(inst, b)
                    assert rec.probability == reference_branch_probability(inst, b)
                    assert rec.ussd_instance == reference_branch_instance(inst, b)

    @pytest.mark.parametrize("b", (7, 2, -1))
    def test_bad_outcome_rejected_by_every_branch_function(self, b):
        inst = TeleportInstance(0.3, 1.0, 0.0)
        for fn in (branch_probability, branch_embedding, branch_to_ussd, run_teleport):
            with pytest.raises(RangeError, match=r"^b_outcome must be 0 or 1"):
                fn(inst, b)

    def test_reduction_weights(self):
        # the equal-prior reduction puts weight 1/(4 P_b) on each sub-state
        inst = TeleportInstance(0.3, 0.9, 2.2)
        for b in (0, 1):
            rec = branch_to_ussd(inst, b)
            ui = rec.ussd_instance
            assert abs(ui.p_plus - 0.5) < 1e-15
            assert abs(ui.r_plus - 1 / (4 * rec.probability)) < 1e-12
            assert abs(ui.r_minus - ui.r_plus) < 1e-12

    def test_branch_overlaps(self):
        inst = TeleportInstance(0.3, 0.9, 2.2)
        assert abs(branch_to_ussd(inst, 0).ussd_instance.alpha - math.sin(0.6)) < 1e-15
        assert abs(branch_to_ussd(inst, 1).ussd_instance.alpha + math.sin(0.6)) < 1e-15
        assert abs(branch_to_ussd(inst, 0).ussd_instance.alpha_c - math.cos(0.9)) < 1e-15

    def test_embedding_is_consistent(self):
        inst = TeleportInstance(0.35, 1.1, 0.8)
        for b in (0, 1):
            branch_embedding(inst, b).validate(branch_to_ussd(inst, b).ussd_instance)

    def test_degenerate_channel_rejected(self):
        with pytest.raises(DegenerateOverlap):
            branch_to_ussd(TeleportInstance(QP, 1.0, 0.0), 0)

    def test_branch_coherences_match_ledger(self):
        inst = TeleportInstance(0.4, 1.2, 0.7)
        for b in (0, 1):
            ui = branch_to_ussd(inst, b).ussd_instance
            led = ledger(coupled_state(ui, separable_strategy(ui)))
            ct, ca, cg = reference_branch_coherences(inst, b)
            assert abs(ct - led.c_total) < 1e-12
            assert abs(ca - led.bipartite_of("A")) < 1e-12
            assert abs(cg - led.c_genuine) < 1e-12
            assert led.pair("C", "A") < 1e-12

    def test_pole_and_degenerate_coherences_vanish(self):
        assert reference_branch_coherences(TeleportInstance(QP, 1.0, 0.0), 0) == (0.0, 0.0, 0.0)
        for v in reference_branch_coherences(TeleportInstance(0.3, 0.0, 0.0), 0):
            assert abs(v) < 1e-15
        # square_mean_root's array pass agrees at the two ends of the channel
        assert square_mean_root(QP) == (0.0, 0.0, 0.0)


class TestRuns:
    def test_success_paths_deliver_exactly(self):
        inst = TeleportInstance(0.3, 1.1, 0.7)
        names = set()
        for b in (0, 1):
            for s in (0, 1):
                r = run_teleport(inst, b, s)
                assert r.success
                assert abs(r.fidelity - 1.0) < 1e-10
                names.add(r.correction)
        assert names == {"identity", "pauli_z", "pauli_x", "pauli_iy"}

    def test_failure_path_is_lossy_but_normalized(self):
        r = run_teleport(TeleportInstance(0.3, 1.1, 0.7), 1, None)
        assert not r.success and r.correction is None
        assert r.fidelity < 0.999
        assert abs(np.linalg.norm(r.final_c) - 1.0) < 1e-10

    def test_failure_path_delivers_the_closed_form_state(self):
        """The failure path's C state, derived without _live_runs: the
        coupling sends xi|0> and xi_bar|0> to b+|00> + a+ eta|1> and
        b-|10> + a- eta|1>, so ancilla outcome 1 leaves the system on eta
        and C in sqrt(r+) a+ phi + sqrt(r-) a- phi_bar, read off the
        branch embedding, the branch instance and its separable strategy.
        It must match every failure run up to a global phase, on a plain
        and on a dressed channel."""
        rng = np.random.default_rng(71)
        for _ in range(40):
            inst = TeleportInstance(rng.uniform(0.0, 0.75), rng.uniform(0.0, math.pi),
                                    rng.uniform(0.0, 2 * math.pi))
            lu = (haar(rng), haar(rng))
            runs = enumerate_runs(inst)
            for b in (0, 1):
                ui = branch_to_ussd(inst, b).ussd_instance
                strat = separable_strategy(ui)
                emb = branch_embedding(inst, b)
                for u_c, run in ((np.eye(2), runs[3 * b]),
                                 (lu[1], run_teleport(inst, b, None, channel_lu=lu))):
                    assert run.s_outcome is None and run.b_outcome == b
                    want = (math.sqrt(ui.r_plus) * strat.alpha_plus * (u_c @ emb.phi)
                            + math.sqrt(ui.r_minus) * strat.alpha_minus * (u_c @ emb.phi_bar))
                    want /= np.linalg.norm(want)
                    phase = np.vdot(want, run.final_c)
                    assert np.abs(run.final_c - phase / abs(phase) * want).max() < 1e-11

    def test_enumeration_covers_probability_one(self):
        runs = enumerate_runs(TeleportInstance(0.45, 2.0, 1.0))
        assert abs(sum(r.probability for r in runs) - 1.0) < 1e-10

    def test_total_success_closed_form(self):
        for rho in (0.0, 0.15, 0.4, 0.7):
            runs = enumerate_runs(TeleportInstance(rho, 0.8, 3.0))
            tot = sum(r.probability for r in runs if r.success)
            assert abs(tot - (1 - math.sin(2 * rho))) < 1e-12

    @pytest.mark.parametrize("mu", [0.3, 1.5])
    def test_near_pole_sweep(self, mu):
        """d = pi/4 - rho over 400 log-spaced points in [1e-10, 10^-1.5]:
        no coupling fails its unitarity check. The 73 typed mapping misses
        left, at d from 5.3e-9 to 4.6e-7, come from the branch embedding
        and the branch instance disagreeing in floating point."""
        missed = []
        for d in np.logspace(-10, -1.5, 400):
            try:
                runs = enumerate_runs(TeleportInstance(QP - d, mu, 0.0))
            except NumericalError as exc:
                assert str(exc).startswith("coupling unitary misses a constraint by ")
                missed.append(d)
                continue
            assert abs(sum(r.probability for r in runs) - 1.0) < 1e-10
        assert len(missed) == 73
        assert 5.3e-9 < min(missed) and max(missed) < 4.7e-7

    def test_half_tangle_landmark(self):
        # channel tangle 1/2 succeeds with probability 1 - sqrt(2)/2
        angle = 0.5 * math.asin(math.sqrt(0.5))
        assert abs(total_success_probability(angle)
                   - (1 - math.sqrt(2) / 2)) < 1e-12

    def test_degenerate_channel_runs(self):
        inst = TeleportInstance(QP, 1.2, 0.3)
        runs = enumerate_runs(inst)
        assert all(not r.success for r in runs)
        assert abs(sum(r.probability for r in runs) - 1.0) < 1e-12
        with pytest.raises(DegenerateOverlap):
            run_teleport(inst, 0, 0)

    def test_dressed_channel_invariance(self):
        rng = np.random.default_rng(33)
        inst = TeleportInstance(0.3, 1.9, 4.2)
        lu = (haar(rng), haar(rng))
        for b in (0, 1):
            for s in (0, 1):
                plain = run_teleport(inst, b, s)
                dressed = run_teleport(inst, b, s, channel_lu=lu)
                assert abs(plain.probability - dressed.probability) < 1e-12
                assert abs(dressed.fidelity - 1.0) < 1e-10
        pf = run_teleport(inst, 0, None)
        df = run_teleport(inst, 0, None, channel_lu=lu)
        assert abs(pf.probability - df.probability) < 1e-12
        assert abs(pf.fidelity - df.fidelity) < 1e-10

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_dressing_is_not_unitary(self, bad):
        inst = TeleportInstance(0.3, 1.0, 1.0)
        u = np.array([[bad, 0.0], [0.0, 1.0]])
        for lu in ((u, np.eye(2)), (np.eye(2), u)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ShapeError, match="^matrix is not unitary$"):
                    run_teleport(inst, 0, 0, channel_lu=lu)

    def test_outcome_validation(self):
        inst = TeleportInstance(0.3, 1.0, 1.0)
        with pytest.raises(RangeError):
            run_teleport(inst, 2)
        with pytest.raises(RangeError):
            run_teleport(inst, 0, 3)


def teleport_instance(draw):
    """A channel angle with weight on the degenerate end (pi/4 and within
    the 5.3e-9 window where sin 2 rho rounds to 1) and on the poles
    mu = 0, pi, where one carrier branch is dead."""
    rho = draw(st.one_of(st.floats(0.0, QP), st.sampled_from([QP, QP - 1e-12, QP - 4e-9, 0.0])))
    mu = draw(st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, math.pi])))
    return TeleportInstance(rho, mu, draw(st.floats(0.0, 2 * math.pi, exclude_max=True)))


class TestStacks:
    """enumerate_runs, and the stacked pass with a channel dressing, on
    sequences of instances: each entry equals the call on its instance
    alone, run for run with ==."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.lists(st.composite(teleport_instance)(), min_size=1, max_size=6))
    def test_enumerate_runs_sequence_matches_instances(self, insts):
        alone = [outcome_of(enumerate_runs, i) for i in insts]
        if any(isinstance(r, tuple) for r in alone):
            with pytest.raises(UssdLabError):
                enumerate_runs(insts)
            return
        together = enumerate_runs(insts)
        assert isinstance(together, tuple) and len(together) == len(insts)
        for got, want in zip(together, alone):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_same_run(g, w)

    @settings(max_examples=30, deadline=None, database=None)
    @given(st.lists(st.composite(teleport_instance)(), min_size=1, max_size=4),
           st.integers(0, 2 ** 32 - 1))
    def test_dressed_stack_matches_run_teleport(self, insts, seed):
        rng = np.random.default_rng(seed)
        lu = (haar(rng), haar(rng))
        alone = [outcome_of(teleport._branch_runs, [i], (0, 1), lu) for i in insts]
        where = _entries(insts)[-1]
        if any(isinstance(r, tuple) for r in alone):
            with pytest.raises(UssdLabError):
                teleport._branch_runs(insts, (0, 1), lu, tag=where)
            return
        for runs, inst in zip(teleport._branch_runs(insts, (0, 1), lu, tag=where), insts):
            paths = (None,) if inst.degenerate else (None, 0, 1)
            assert len(runs) == 2 * len(paths)
            for r in runs:
                assert_same_run(r, run_teleport(inst, r.b_outcome, r.s_outcome, channel_lu=lu))

    def test_empty_and_named(self):
        assert enumerate_runs([]) == ()
        # a mapping miss of the near-pole sweep, named by its entry
        near = TeleportInstance(QP - 5.3157421898741785e-09, 0.3, 0.0)
        with pytest.raises(NumericalError, match=r"^coupling unitary misses a constraint by "
                                                 r"1\.044e-08$"):
            enumerate_runs(near)
        with pytest.raises(NumericalError, match=r" by 1\.044e-08 \(inst\[1\]\)$"):
            enumerate_runs([TeleportInstance(0.3, 0.3, 0.0), near])


class TestDegenerateBranch:
    """At rho = pi/4 the channel is |00> on (B, C) (its dressed version
    u_b (x) u_c |00>): C never meets the sent state, so the only path,
    failure, delivers |0> (u_c |0>) up to phase, with fidelity
    cos^2(mu/2), on each carrier branch with probability cos^2(mu/2)
    and sin^2(mu/2). Checked from this closed form, not from the
    per-path reference."""

    @pytest.mark.parametrize("rho", [QP, QP - 1e-12, QP - 4e-9])
    def test_failure_delivers_the_carrier_free_state(self, rho):
        rng = np.random.default_rng(61)
        for mu in (0.0, 0.4, 1.3, math.pi / 2, 2.2, 3.0, math.pi):
            inst = TeleportInstance(rho, mu, rng.uniform(0.0, 2 * math.pi))
            assert inst.degenerate
            c2, s2 = math.cos(mu / 2) ** 2, math.sin(mu / 2) ** 2
            for lu in (None, (haar(rng), haar(rng))):
                home = _E0 if lu is None else lu[1][:, 0]
                runs = (enumerate_runs(inst) if lu is None else
                        [run_teleport(inst, b, None, channel_lu=lu) for b in (0, 1)])
                assert [(r.b_outcome, r.s_outcome, r.success) for r in runs] \
                    == [(0, None, False), (1, None, False)]
                for r, p in zip(runs, (c2, s2)):
                    assert abs(r.probability - p) < 1e-12
                    if r.final_c is None:
                        assert p < 1e-15
                        continue
                    assert abs(abs(np.vdot(home, r.final_c)) - 1.0) < 1e-12
                    assert abs(r.fidelity - c2) < 1e-12


class TestSharedEvolution:
    LU = (haar(np.random.default_rng(41)), haar(np.random.default_rng(42)))

    @pytest.mark.parametrize("rho,mu,nu", itertools.product(
        (0.0, 0.3, 0.7, QP), (0.0, 1.1, math.pi), (0.0, 2.2)))
    def test_grid_matches_per_path_reference(self, rho, mu, nu):
        assert_matches_reference(TeleportInstance(rho, mu, nu), self.LU)

    @settings(max_examples=30, deadline=None, database=None)
    @given(rho=st.floats(0.0, QP), mu=st.floats(0.0, math.pi),
           nu=st.floats(0.0, 2 * math.pi, exclude_max=True),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_any_instance_matches_per_path_reference(self, rho, mu, nu, seed):
        rng = np.random.default_rng(seed)
        assert_matches_reference(TeleportInstance(rho, mu, nu), (haar(rng), haar(rng)))

    @pytest.mark.parametrize("mu", (0.0, math.pi))
    @pytest.mark.parametrize("b", (0, 1))
    def test_degenerate_pole_success_paths_raise_on_both_branches(self, mu, b):
        # one carrier branch is dead at each pole; its success paths must
        # raise like the live branch's, not come back as zero runs
        inst = TeleportInstance(QP, mu, 0.0)
        for s in (0, 1):
            with pytest.raises(DegenerateOverlap, match="only the failure path"):
                run_teleport(inst, b, s)
        fail = run_teleport(inst, b, None)
        assert (fail.s_outcome, fail.success) == (None, False)
        assert abs(fail.probability - (1.0 if (b == 0) == (mu == 0.0) else 0.0)) < 1e-12

    def test_degenerate_pole_lists_one_run_per_branch(self):
        for mu in (0.0, math.pi):
            runs = enumerate_runs(TeleportInstance(QP, mu, 0.0))
            assert [(r.b_outcome, r.s_outcome) for r in runs] == [(0, None), (1, None)]

    @pytest.mark.parametrize("rho,couplings", ((0.3, 2), (0.0, 2), (QP, 0)))
    def test_one_evolution_per_carrier_branch(self, monkeypatch, rho, couplings):
        # one pass over the stack of branches, and over a stack of
        # instances: one circuit, one separable_points call and one
        # _coupling call over every coupled branch (none when
        # degenerate), and three measure_rows calls (carrier, ancilla,
        # system; the carrier's alone when degenerate)
        calls = dict.fromkeys(("circuit", "coupling", "rows", "points", "measure"), 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "coupling":
                    calls["rows"] += args[0].beta.size
                return fn(*args, **kwargs)
            return wrapper

        for name, attr in (("circuit", "_alice"), ("coupling", "_coupling"),
                           ("points", "separable_points"), ("measure", "measure_rows")):
            monkeypatch.setattr(teleport, attr, counted(name, getattr(teleport, attr)))
        points = 1 if couplings else 0
        measures = 3 if couplings else 1
        for copies in (1, 3):
            calls.update(dict.fromkeys(calls, 0))
            insts = [TeleportInstance(rho, 1.1, 2.2)] * copies
            enumerate_runs(insts if copies > 1 else insts[0])
            assert calls == {"circuit": 1, "coupling": points, "rows": couplings * copies,
                             "points": points, "measure": measures}
        calls.update(dict.fromkeys(calls, 0))
        run_teleport(TeleportInstance(rho, 1.1, 2.2), 1, None)
        assert calls == {"circuit": 1, "coupling": points, "rows": couplings // 2,
                         "points": points, "measure": measures}


def kernel_draws(rng, n_qubits, count):
    """Normalized amplitude vectors on n_qubits: complex Gaussian, real
    with either sign, sparse (exact zeros, so zero-probability outcomes),
    signed basis states, and one amplitude shrunk to 1e-9 (an outcome
    below the 1e-15 cut that is not exactly zero)."""
    d = 2 ** n_qubits
    out = []
    for i in range(count):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        kind = i % 5
        if kind == 1:
            z = rng.standard_normal(d) * rng.choice([1.0, -1.0, 1j, -1j]) + 0.0
        elif kind == 2:
            z = z * (rng.random(d) < 0.5)
            z[rng.integers(d)] += 1.0
        elif kind == 3:
            z = np.zeros(d, dtype=complex)
            z[rng.integers(d)] = rng.choice([1.0, -1.0, 1j, -1j, complex(-1.0, -0.0)])
        elif kind == 4:
            z[rng.integers(d)] *= 1e-9
        out.append(z / np.linalg.norm(z))
    return out


def same_bytes(a, b) -> bool:
    """Equal dtype, shape and bytes: signs of zero count."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMeasurementKernel:
    """qcore's stacked computational-basis kernel against the per-state
    references it replaced, and stacks against stacks of one.

    test_projective_measure_matches_reference holds measure_rows on a
    stack of one (measure_one, the former qcore.projective_measure) to
    the reference. Probabilities, factor-outs and stacks are held byte
    for byte. A post-state of measure_one is held by value: the reference
    builds it as a BLAS outer product with its basis vector, which
    leaves -0.0 in the collapsed slot for some 2-qubit states and turns
    -0.0 into +0.0 in the kept slot, where the kernel writes +0.0 and
    copies the kept amplitudes. No value differs."""

    LABELS = ("S", "A", "C")

    @pytest.mark.parametrize("n_qubits", (1, 2, 3))
    def test_projective_measure_matches_reference(self, n_qubits):
        rng = np.random.default_rng(140 + n_qubits)
        dead = 0
        for z in kernel_draws(rng, n_qubits, 400):
            psi = PureState(self.LABELS[:n_qubits], z)
            for target in psi.register:
                got = measure_one(psi, target)
                want = reference_projective_measure(psi, target, (_E0, _E1))
                assert [k for k, _, _ in got] == [k for k, _, _ in want] == [0, 1]
                for (k, p, post), (_, p_ref, post_ref) in zip(got, want):
                    assert type(p) is float and same_bytes(p, p_ref)
                    if post_ref is None:
                        assert post is None
                        dead += 1
                        continue
                    assert post.register == post_ref.register
                    assert np.array_equal(post.amplitudes, post_ref.amplitudes)
                    collapsed = np.moveaxis(post.as_tensor(), psi.axis_of(target), 0)[1 - k]
                    assert same_bytes(collapsed, np.zeros_like(collapsed))
        assert dead > 100

    @pytest.mark.parametrize("n_qubits", (2, 3))
    def test_factor_out_matches_reference(self, n_qubits):
        rng = np.random.default_rng(150 + n_qubits)
        reg = self.LABELS[:n_qubits]
        for z in kernel_draws(rng, n_qubits, 300):
            psi = PureState(reg, z)
            for target in reg:
                # the collapsed posts of both outcomes, dropped along them
                for k, _, post in measure_one(psi, target):
                    if post is not None:
                        got = factor_one(post, target, (_E0, _E1)[k])
                        want = reference_factor_out(post, target, (_E0, _E1)[k])
                        assert got.register == want.register
                        assert same_bytes(got.amplitudes, want.amplitudes)
                # along a random vector: a product state, and psi itself,
                # whose qubit is in general entangled with the rest
                u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                u /= np.linalg.norm(u)
                rest = kernel_draws(rng, n_qubits - 1, 5)[rng.integers(5)]
                prod = reorder(tensor(PureState((target,), u),
                                      PureState(tuple(q for q in reg if q != target), rest)), reg)
                for state in (prod, psi):
                    got = outcome_of(factor_one, state, target, u)
                    want = outcome_of(reference_factor_out, state, target, u)
                    if isinstance(want, tuple):
                        assert got == want
                    else:
                        assert got.register == want.register
                        assert same_bytes(got.amplitudes, want.amplitudes)

    def test_stacks_match_rows(self):
        rng = np.random.default_rng(160)
        for n_rows in (1, 2, 5, 9):
            t = np.array(kernel_draws(rng, 3, n_rows)).reshape(n_rows, 2, 2, 2)
            mask = rng.random(n_rows) < 0.7
            for axis in (1, 2, 3):
                probs, live, post = measure_rows(t, axis, mask)
                for i in range(n_rows):
                    p1, l1, q1 = measure_rows(t[i:i + 1], axis, mask[i:i + 1])
                    assert same_bytes(probs[:, i:i + 1], p1)
                    assert same_bytes(live[:, i:i + 1], l1)
                    assert same_bytes(post[:, i:i + 1], q1)
                for k in (0, 1):
                    # each live row, contracted along its outcome, factors out
                    rest = np.moveaxis(post[k], axis, 0)[k]
                    out = factor_rows(rest, live[k], "S")
                    for i in range(n_rows):
                        assert same_bytes(out[i:i + 1],
                                          factor_rows(rest[i:i + 1], live[k, i:i + 1], "S"))

    def test_empty_stacks(self):
        none = np.zeros(0, dtype=bool)
        probs, live, post = measure_rows(np.zeros((0, 2, 2), dtype=complex), 2, none)
        assert probs.shape == live.shape == (2, 0)
        assert post.shape == (2, 0, 2, 2)
        assert factor_rows(np.zeros((0, 2, 2), dtype=complex), none, "A").shape == (0, 2, 2)
        unit_rows(np.zeros((0, 8), dtype=complex))

    def test_messages(self):
        # no suffix: PureState's own message; a suffix names the row
        stack = np.zeros((3, 4), dtype=complex)
        stack[:, 0] = 1.0
        stack[1, 1] = stack[2, 1] = 0.5
        with pytest.raises(ShapeError, match=re.escape(
                "state vector not normalized: ||psi||^2 = 1.25")) as exc:
            unit_rows(stack)
        with pytest.raises(ShapeError) as ref:
            PureState(("S", "A"), stack[1])
        assert str(exc.value) == str(ref.value)
        with pytest.raises(ShapeError, match=re.escape(
                "state vector not normalized on row 1: ||psi||^2 = 1.25")):
            unit_rows(stack, lambda i: f" on row {i}")
        with pytest.raises(NumericalError, match=re.escape(
                "outcome probabilities sum to 1.25 on row 1")):
            measure_rows(stack.reshape(3, 2, 2), 1, np.ones(3, dtype=bool),
                         lambda i: f" on row {i}")
        stack[2, 1] = math.nan
        with pytest.raises(NumericalError, match=re.escape(
                "outcome probabilities sum to nan on row 2")):
            measure_rows(stack.reshape(3, 2, 2), 1, np.array([True, False, True]),
                         lambda i: f" on row {i}")
        with pytest.raises(ShapeError, match=re.escape(
                "qubit 'A' is not in the stated product state on row 1")):
            factor_rows(stack[:, :2], np.ones(3, dtype=bool), "A", lambda i: f" on row {i}")


class TestAverages:
    def test_maximally_entangled_landmark(self):
        assert abs(square_mean_root(0.0)[0] - math.pi ** 2 / 16) < 1e-12

    def test_closed_forms_at_generic_angle(self):
        for rho in (0.2, 0.55):
            s = math.sin(2 * rho)
            scale = math.pi ** 2 / 16
            total, converted, retained = square_mean_root(rho)
            assert abs(total - scale * (1 - s * s)) < 1e-12
            assert abs(converted - scale * 2 * (s - s * s)) < 1e-12
            assert abs(retained - scale * (1 - s) ** 2) < 1e-12

    def test_product_channel_is_silent(self):
        assert square_mean_root(QP) == (0.0, 0.0, 0.0)

    def test_argument_validation(self):
        with pytest.raises(RangeError):
            square_mean_root(QP + 0.1)
        for tangles in ([0.5], []):
            with pytest.raises(RangeError, match=r"^need at least 2 quadrature nodes"):
                fig4_sweep(tangles, nodes=1)
        with pytest.raises(RangeError, match=r"^need at least 2 quadrature nodes"):
            square_mean_root(0.3, nodes=1)

    @pytest.mark.parametrize("nodes", [2.5, 64.0, "64", None, True, np.True_])
    def test_non_integer_node_count(self, nodes):
        with pytest.raises(RangeError, match=r"^nodes must be an integer"):
            square_mean_root(0.3, nodes=nodes)
        # checked before the loop, so an empty sweep rejects it too
        for tangles in ([0.5], []):
            with pytest.raises(RangeError, match=r"^nodes must be an integer"):
                fig4_sweep(tangles, nodes=nodes)

    def test_integer_types_are_counts(self):
        assert square_mean_root(0.3, nodes=np.int64(32)) == square_mean_root(0.3, nodes=32)

    def test_quadrature_already_converged(self):
        a = square_mean_root(0.3, nodes=48)
        b = square_mean_root(0.3, nodes=96)
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-13

    def test_fig4_profile(self):
        rows = fig4_sweep(np.linspace(0.0, 1.0, 11), nodes=32)
        shares = [r.converted_share for r in rows]
        assert abs(shares[0] - 1.0) < 1e-12
        assert abs(shares[-1]) < 1e-12
        assert all(b <= a + 1e-12 for a, b in zip(shares, shares[1:]))
        mid = rows[5]
        assert abs(mid.tangle - 0.5) < 1e-15
        assert abs(mid.converted_share - (2 * math.sqrt(2) - 2)) < 1e-12
        assert abs(rows[-1].smr_total - math.pi ** 2 / 16) < 1e-12
        scale = math.pi ** 2 / 16
        for r in rows:
            s = math.sqrt(1 - r.tangle)
            assert abs(r.smr_total - scale * (1 - s * s)) < 1e-12
            assert abs(r.smr_converted - scale * 2 * (s - s * s)) < 1e-12
            assert abs(r.smr_retained - scale * (1 - s) ** 2) < 1e-12

    def test_fig4_rejects_bad_tangle(self):
        with pytest.raises(RangeError):
            fig4_sweep([1.5])


class TestNodeCache:
    def test_tables_are_read_only(self):
        x, w = teleport._gauss_legendre(64)
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_one_build_per_node_count(self, monkeypatch):
        built = []
        leggauss = np.polynomial.legendre.leggauss

        def counting(n):
            built.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        teleport._gauss_legendre.cache_clear()
        try:
            for _ in range(2):
                square_mean_root(0.3, nodes=32)
                square_mean_root(0.2, nodes=64)
                fig4_sweep([0.0, 0.4, 1.0], nodes=32)
            assert sorted(built) == [32, 64]
        finally:
            teleport._gauss_legendre.cache_clear()

    def test_cached_tables_give_the_uncached_results(self, monkeypatch):
        angles, tangles = (0.0, 0.1, 0.3, 0.6), np.linspace(0.0, 1.0, 6)
        cached = ([square_mean_root(a, n) for a in angles for n in (7, 64)],
                  fig4_sweep(tangles))
        monkeypatch.setattr(teleport, "_gauss_legendre",
                            lambda n: np.polynomial.legendre.leggauss(n))
        assert cached == ([square_mean_root(a, n) for a in angles for n in (7, 64)],
                          fig4_sweep(tangles))


class TestSampling:
    def test_reproducible(self):
        inst = TeleportInstance(0.3, 1.2, 0.5)
        a = sample_teleport(inst, 500, seed=42)
        b = sample_teleport(inst, 500, seed=42)
        assert a.successes == b.successes

    def test_within_binomial_window(self):
        inst = TeleportInstance(0.3, 1.2, 0.5)
        rep = sample_teleport(inst, 4000, seed=7)
        assert abs(rep.empirical_rate - rep.analytic_rate) < 4 * rep.binomial_sigma

    def test_degenerate_channel_never_succeeds(self):
        rep = sample_teleport(TeleportInstance(QP, 1.0, 0.0), 200, seed=1)
        assert rep.successes == 0 and rep.analytic_rate == 0.0

    def test_count_validation(self):
        with pytest.raises(RangeError):
            sample_teleport(TeleportInstance(0.3, 1.0, 1.0), 0, seed=1)
        for n in (2.5, 100.0, True, np.True_):
            with pytest.raises(RangeError, match=r"^n must be an integer"):
                sample_teleport(TeleportInstance(0.3, 1.0, 1.0), n, seed=0)
        # beyond numpy's index range, refused before any allocation
        for n in (10 ** 20, 2 ** 63):
            with pytest.raises(RangeError, match=rf"^n must be at most {np.iinfo(np.intp).max}, "):
                sample_teleport(TeleportInstance(0.3, 1.0, 1.0), n, seed=0)

    @pytest.mark.parametrize("seed,message", [
        (2.5, r"^seed must be an integer"), ("7", r"^seed must be an integer"),
        (None, r"^seed must be an integer"), (-1, r"^seed must be non-negative"),
        (True, r"^seed must be an integer"), (False, r"^seed must be an integer"),
        (np.False_, r"^seed must be an integer")])
    def test_seed_validation(self, seed, message):
        with pytest.raises(RangeError, match=message):
            sample_teleport(TeleportInstance(0.3, 1.0, 1.0), 10, seed=seed)

    def test_integer_types_are_seeds(self):
        inst = TeleportInstance(0.3, 1.2, 0.5)
        assert sample_teleport(inst, 300, seed=np.int64(5)) == sample_teleport(inst, 300, seed=5)

    def test_a_seed_is_not_a_count(self):
        """A seed sizes nothing, so it has no upper bound."""
        rep = sample_teleport(TeleportInstance(0.3, 1.2, 0.5), 300, seed=10 ** 20)
        assert rep.seed == 10 ** 20
