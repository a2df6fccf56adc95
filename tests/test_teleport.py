"""Teleportation application: channel, branches, corrections, averages."""

import math

import numpy as np
import pytest

from ussd_lab.coherence import ledger, pure_concurrence
from ussd_lab.ussd import coupled_state, separable_strategy
from ussd_lab.teleport import (
    TeleportInstance,
    alice_circuit,
    branch_coherences,
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

QP = math.pi / 4


def haar(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestInstanceAndChannel:
    def test_ranges(self):
        with pytest.raises(RangeError):
            TeleportInstance(1.0, 0.5, 0.5)
        with pytest.raises(RangeError):
            TeleportInstance(0.3, 4.0, 0.5)
        with pytest.raises(RangeError):
            TeleportInstance(0.3, 0.5, 7.0)

    def test_channel_tangle(self):
        for rho in (0.0, 0.2, 0.6, QP):
            ch = channel_state(rho)
            assert abs(np.linalg.norm(ch.amplitudes) - 1) < 1e-12
            tangle = pure_concurrence(ch) ** 2
            assert abs(tangle - math.cos(2 * rho) ** 2) < 1e-12

    def test_local_dressing_keeps_the_tangle(self):
        rng = np.random.default_rng(31)
        ch = channel_state(0.3, local_b=haar(rng), local_c=haar(rng))
        assert abs(pure_concurrence(ch) - math.cos(0.6)) < 1e-12

    def test_circuit_register(self):
        psi = alice_circuit(TeleportInstance(0.3, 1.0, 2.0))
        assert psi.register == ("S", "B", "C")
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12


class TestBranches:
    def test_probabilities_sum_to_one(self):
        inst = TeleportInstance(0.25, 1.3, 0.4)
        assert abs(branch_probability(inst, 0) + branch_probability(inst, 1) - 1) < 1e-15

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
            ct, ca, cg = branch_coherences(inst, b)
            assert abs(ct - led.c_total) < 1e-12
            assert abs(ca - led.bipartite_of("A")) < 1e-12
            assert abs(cg - led.c_genuine) < 1e-12
            assert led.pair("C", "A") < 1e-12

    def test_pole_and_degenerate_coherences_vanish(self):
        assert branch_coherences(TeleportInstance(QP, 1.0, 0.0), 0) == (0.0, 0.0, 0.0)
        for v in branch_coherences(TeleportInstance(0.3, 0.0, 0.0), 0):
            assert abs(v) < 1e-15


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

    def test_enumeration_covers_probability_one(self):
        runs = enumerate_runs(TeleportInstance(0.45, 2.0, 1.0))
        assert abs(sum(r.probability for r in runs) - 1.0) < 1e-10

    def test_total_success_closed_form(self):
        for rho in (0.0, 0.15, 0.4, 0.7):
            runs = enumerate_runs(TeleportInstance(rho, 0.8, 3.0))
            tot = sum(r.probability for r in runs if r.success)
            assert abs(tot - (1 - math.sin(2 * rho))) < 1e-12

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

    def test_outcome_validation(self):
        inst = TeleportInstance(0.3, 1.0, 1.0)
        with pytest.raises(RangeError):
            run_teleport(inst, 2)
        with pytest.raises(RangeError):
            run_teleport(inst, 0, 3)


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
        with pytest.raises(RangeError):
            square_mean_root(0.3, nodes=1)

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
