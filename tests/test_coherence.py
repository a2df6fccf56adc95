"""Tangle accounting: concurrences, the three-qubit ledger, closed forms."""

import math

import numpy as np
import pytest

from ussd_lab.qcore import PureState, apply_rows
from ussd_lab.coherence import (
    BandScan,
    CoherenceLedger,
    closed_form_coherences,
    coherence_band,
    initial_coherence,
    ledger,
    three_tangle,
    wootters_concurrence,
)
from ussd_lab.selftest import _edge_box
from ussd_lab.ussd import (
    coupled_amplitudes,
    coupled_state,
    make_instance,
    separable_points,
    separable_strategy,
)
from ussd_lab.errors import (
    DegenerateOverlap,
    NumericalError,
    RangeError,
    ShapeError,
)
from test_qcore import basis_state, reference_tensor


def ghz() -> PureState:
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / math.sqrt(2)
    return PureState(("S", "A", "C"), v)


def w_state() -> PureState:
    v = np.zeros(8, dtype=complex)
    v[1] = v[2] = v[4] = 1 / math.sqrt(3)
    return PureState(("S", "A", "C"), v)


class TestWootters:
    """Mixed states given by a 4 x r factor V, rho = V V^dag."""

    def test_bell_is_maximal(self):
        v = np.array([1, 0, 0, 1]) / math.sqrt(2)
        assert abs(wootters_concurrence(v[:, None]) - 1.0) < 1e-12

    def test_product_is_zero(self):
        assert wootters_concurrence(np.eye(4)[:, :1]) < 1e-12

    def test_isotropic_mixture(self):
        # concurrence (3p - 1)/2 for a Bell state mixed with white noise:
        # the isotropic state of Phi+ and the Werner state of the singlet
        for bell in (np.array([1, 0, 0, 1]), np.array([0, 1, -1, 0])):
            for p, expect in ((0.9, 0.85), (0.5, 0.25), (0.2, 0.0)):
                fac = np.hstack([math.sqrt(p / 2) * bell[:, None],
                                 math.sqrt((1 - p) / 4) * np.eye(4)])
                assert abs(wootters_concurrence(fac) - expect) < 1e-12

    def test_rank_deficient_mixture_is_clean(self):
        # rank-2 mixture, where a square-root route loses half the digits
        a = np.array([1, 0, 0, 1]) / math.sqrt(2)
        b = np.array([0, 1, 1, 0]) / math.sqrt(2)
        fac = np.stack([math.sqrt(0.7) * a, math.sqrt(0.3) * b], axis=-1)
        assert abs(wootters_concurrence(fac) - 0.4) < 1e-12


class TestPureConcurrence:
    """Concurrence of pure states, through wootters_concurrence of the
    state vector as a 4 x 1 factor and through the tangle ledger."""

    def test_matches_mixed_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v /= np.linalg.norm(v)
            # Wootters' formula on a pure state: 2 |ad - bc|
            pure = 2.0 * abs(v[0] * v[3] - v[1] * v[2])
            assert abs(wootters_concurrence(v[:, None]) - pure) < 1e-10

    def test_single_label_cut(self):
        assert abs(ledger(ghz()).bipartite_of("S") - 1.0) < 1e-12


class TestThreeTangle:
    def test_ghz_unity(self):
        assert abs(three_tangle(ghz()) - 1.0) < 1e-12

    def test_w_zero(self):
        assert three_tangle(w_state()) < 1e-12

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = PureState(("S", "A", "C"), v / np.linalg.norm(v))
        t0 = three_tangle(psi)
        t = psi.as_tensor()[None]
        for axis in (1, 2, 3):
            z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, r = np.linalg.qr(z)
            q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            t = apply_rows(q, t, (axis,))
        assert abs(three_tangle(PureState(psi.register, t.reshape(-1))) - t0) < 1e-10


class TestLedger:
    def test_keys_and_accessors(self):
        led = ledger(ghz())
        assert set(led.c_bipartite) == {"S:AC", "A:SC", "C:SA"}
        assert set(led.c_pairwise) == {"S:A", "S:C", "A:C"}
        assert led.pair("C", "A") == led.c_pairwise["A:C"]
        assert led.bipartite_of("A") == led.c_bipartite["A:SC"]
        with pytest.raises(KeyError):
            led.pair("S", "B")

    def test_ghz_numbers(self):
        led = ledger(ghz())
        assert abs(led.c_total - 1.0) < 1e-12
        assert abs(led.c_genuine - 1.0) < 1e-12
        assert all(v < 1e-12 for v in led.c_pairwise.values())

    def test_w_numbers(self):
        led = ledger(w_state())
        assert abs(led.c_total - 4.0 / 3.0) < 1e-12
        assert led.c_genuine < 1e-12
        assert all(abs(v - 4.0 / 9.0) < 1e-12 for v in led.c_pairwise.values())

    def test_product_state_is_empty(self):
        psi = reference_tensor(basis_state(("S",), (0,)),
                               reference_tensor(basis_state(("A",), (1,)), basis_state(("C",), (0,))))
        led = ledger(psi)
        assert led.c_total < 1e-12 and led.c_genuine < 1e-12

    def test_needs_three_qubits(self):
        with pytest.raises(ShapeError):
            ledger(basis_state(("S", "C"), (0, 0)))

    def test_invariants_enforced(self):
        with pytest.raises(NumericalError):
            CoherenceLedger(register=("S", "A", "C"), c_total=0.5,
                            c_bipartite={"S:AC": 1.4}, c_pairwise={},
                            c_genuine=0.0, monogamy_residual=0.0)
        with pytest.raises(NumericalError):
            CoherenceLedger(register=("S", "A", "C"), c_total=0.5,
                            c_bipartite={}, c_pairwise={}, c_genuine=0.0,
                            monogamy_residual=1e-3)


class TestClosedForms:
    def test_initial_coherence_landmark(self):
        # 4 * 0.2 * 0.8 * 1 * 0.84
        inst = make_instance(0.2, 0.4, 0.0)
        assert abs(initial_coherence(inst) - 0.5376) < 1e-15

    def test_exact_fractions_on_symmetric_instance(self):
        # p = 1/2, overlap 0.4 at phase pi, environment overlap 0.8:
        # the posterior weights are 12.5/17 each and the ledger entries
        # reduce to fractions with denominator 289
        inst = make_instance(0.5, 0.4 * np.exp(1j * math.pi), 0.8)
        assert abs(inst.r_plus - 12.5 / 17) < 1e-15
        strat = separable_strategy(inst)
        ct, ca, cg = closed_form_coherences(inst, strat)
        assert abs(ct - 189.0 / 289.0) < 1e-13
        assert abs(ca - 108.0 / 289.0) < 1e-13
        led = ledger(coupled_state(inst, strat))
        assert abs(led.c_total - ct) < 1e-12
        assert abs(led.bipartite_of("A") - ca) < 1e-12
        assert abs(led.c_genuine - cg) < 1e-12
        assert abs(led.pair("S", "C") - 81.0 / 289.0) < 1e-12
        assert led.pair("C", "A") < 1e-12

    def test_total_equals_environment_tangle_everywhere(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            p = rng.uniform(0.05, 0.5)
            inst = make_instance(p, rng.uniform(0.05, 0.9) * np.exp(1j * rng.uniform(0, 6.28)),
                                 rng.uniform(0, 0.95))
            strat = separable_strategy(inst)
            led = ledger(coupled_state(inst, strat))
            assert abs(closed_form_coherences(inst, strat)[0] - led.c_total) < 1e-12

    def test_genuine_holds_off_the_separable_point(self):
        # the three-way entry is an identity in beta and delta
        import dataclasses
        inst = make_instance(0.3, 0.5 * np.exp(0.4j), 0.6)
        strat = dataclasses.replace(separable_strategy(inst), beta=0.9, delta=2.7)
        led = ledger(coupled_state(inst, strat))
        assert abs(closed_form_coherences(inst, strat)[2] - led.c_genuine) < 1e-12


class TestBand:
    def test_peak_at_stationary_phase(self):
        scan = coherence_band(0.4, 0.5, 0.8, scan_points=720)
        assert isinstance(scan, BandScan)
        assert abs(math.cos(scan.argmax) + 0.8) < 1e-3
        assert 0.0 <= scan.minimum <= scan.maximum <= 1.0

    def test_minimum_sits_at_the_phase_edges(self):
        scan = coherence_band(0.35, 0.45, 0.7, scan_points=360)
        edges = {round(g, 6) for g in scan.argmin}
        assert edges <= {0.0, round(math.pi, 6)}

    def test_flat_profile_when_environment_decouples(self):
        scan = coherence_band(0.3, 0.5, 0.0, scan_points=240)
        assert scan.maximum - scan.minimum < 1e-10
        assert abs(scan.argmax - math.pi / 2) < 1e-12

    def test_saturated_case_share_is_one(self):
        # above the saturation overlap the whole coherence sits on the
        # environment-ancilla pair for every phase
        scan = coherence_band(0.4, 0.9, 0.6, scan_points=120)
        assert abs(scan.minimum - 1.0) < 1e-10
        assert abs(scan.maximum - 1.0) < 1e-10

    def test_scan_needs_points(self):
        with pytest.raises(ShapeError):
            coherence_band(0.4, 0.5, 0.8, scan_points=4)

    @pytest.mark.parametrize("scan_points", [8.5, 16.0, None, True, np.True_])
    def test_scan_points_must_be_an_integer(self, scan_points):
        with pytest.raises(RangeError, match=r"^scan_points must be an integer"):
            coherence_band(0.4, 0.5, 0.8, scan_points=scan_points)

    @pytest.mark.parametrize("p_plus", [0.0, 1.0, -0.1, 1.5])
    def test_extreme_prior_is_named(self, p_plus):
        # no total coherence at an extreme prior, so no share to scan
        with pytest.raises(RangeError, match="p_plus"):
            coherence_band(p_plus, 0.5, 0.8, scan_points=16)

    def test_unit_environment_overlap_is_named(self):
        with pytest.raises(DegenerateOverlap, match="alpha_c"):
            coherence_band(0.4, 0.5, 1.0, scan_points=16)

    @pytest.mark.parametrize("abs_alpha, error, name", [
        ([0.2, float("nan"), 0.4], RangeError, r"abs_alpha\[1\] must be finite"),
        ([float("inf")], RangeError, r"abs_alpha\[0\] must be finite"),
        ([0.2, 0.4, 1.0], DegenerateOverlap, r"abs_alpha\[2\] = 1\.0"),
        ([0.3, -1.5], DegenerateOverlap, r"abs_alpha\[1\] = -1\.5"),
        (float("nan"), RangeError, r"abs_alpha must be finite"),
        (1.0, DegenerateOverlap, r"abs_alpha = 1\.0"),
    ])
    def test_bad_overlap_entry_is_named(self, abs_alpha, error, name):
        with pytest.raises(error, match=name):
            coherence_band(0.4, abs_alpha, 0.8, scan_points=16)

    def test_empty_stack_gives_no_scans(self):
        assert coherence_band(0.4, [], 0.8, scan_points=16) == ()


class TestEdgeBox:
    """The ledger at the separable point of band_share_closed's edge box,
    where p_plus, |alpha| and |alpha_c| sit 1e-9 inside their ends."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_ledger_total_is_the_initial_coherence(self, seed):
        p, aa, ac, g = _edge_box(np.random.default_rng(seed), 2000)
        alpha = aa * np.exp(1j * g)
        leds = ledger(coupled_amplitudes(separable_points(p, alpha, ac)))
        for led, args in zip(leds, zip(p.tolist(), alpha.tolist(), ac.tolist())):
            want = initial_coherence(make_instance(*args))
            # 1e-7, plus what the coupled amplitudes lose as |alpha| -> 1:
            # their overlap holds about a unit roundoff against
            # 1 - |alpha|^2 (1.1e-7 measured at |alpha| = 1 - 1e-9)
            bound = 1e-7 + 2.3e-16 / (1.0 - abs(args[1]))
            assert abs(led.c_total - want) <= bound * want
            for share in (led.bipartite_of("A"), led.pair("S", "C")):
                assert share <= (1.0 + 1e-9) * led.c_total
