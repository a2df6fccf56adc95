"""Discrimination protocol: instances, strategies, optima, separability,
conservation, and the loop phase."""

import dataclasses
import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ussd_lab.coherence import closed_form_coherences, initial_coherence, wootters_concurrence
from ussd_lab.ussd import (
    EVAL_QUANTITIES,
    SeparablePoints,
    UssdInstance,
    UssdStrategy,
    bargmann_loop,
    bargmann_phase,
    build_chi,
    canonical_embedding,
    check_pair,
    coupled_state,
    coupling_unitary,
    eval_report,
    make_instance,
    optimal_strategy,
    p_suc_max,
    run_protocol,
    separability_params,
    separable_points,
    separable_strategy,
    success_probability,
    system_ancilla_factor,
    total_coherence_conservation,
)
from ussd_lab.qcore import unit_rows
from ussd_lab.errors import (
    DegenerateOverlap,
    EmbeddingError,
    NumericalError,
    RangeError,
    ShapeError,
    UndefinedPhase,
    UssdLabError,
)
from ussd_lab.selftest import _edge_box
from test_array_chain import reference_partial_trace
from test_qcore import reduce_one


def random_instance(rng, saturated=None):
    while True:
        inst = make_instance(rng.uniform(0.05, 0.5),
                             rng.uniform(0.05, 0.95) * np.exp(1j * rng.uniform(0, 2 * math.pi)),
                             rng.uniform(0.0, 0.95) * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        if saturated is None or (inst.case == "saturated") == saturated:
            return inst


class TestInstance:
    def test_prior_range(self):
        with pytest.raises(RangeError):
            make_instance(1.2, 0.3, 0.0)
        with pytest.raises(RangeError):
            make_instance(-0.1, 0.3, 0.0)

    def test_overlap_must_be_subunit(self):
        with pytest.raises(DegenerateOverlap):
            make_instance(0.3, 1.0, 0.0)
        with pytest.raises(RangeError):
            make_instance(0.3, 0.5, 1.2)
        # abs(nan) >= 1 is false, so non-finite overlaps need their own check
        for bad in (math.nan, math.inf, complex(0.0, math.nan)):
            with pytest.raises(RangeError, match=r"^alpha must be finite"):
                make_instance(0.3, bad, 0.0)
            with pytest.raises(RangeError, match=r"^alpha_c must be finite"):
                make_instance(0.7, 0.5, bad)

    def test_overlap_bounds_are_exact(self):
        """|alpha| < 1 and |alpha_c| <= 1 + 1e-15 to the last bit, on one
        instance and on a stack, either side of the prior's swap."""
        edge = 1.0 + 1e-15
        for p in (0.3, 0.7):
            make_instance(p, math.nextafter(1.0, 0.0), edge)
            separable_points(p, [0.5, math.nextafter(1.0, 0.0)], [edge, edge])
            for call in (lambda: make_instance(p, 1.0j, 0.2),
                         lambda: separable_points(p, [0.5, 1.0j], 0.2)):
                with pytest.raises(DegenerateOverlap, match=r"^\|alpha\| = 1\.0 leaves"):
                    call()
            beyond = math.nextafter(edge, 2.0)
            for call in (lambda: make_instance(p, 0.5, beyond),
                         lambda: separable_points(p, 0.5, [0.2, beyond])):
                with pytest.raises(RangeError, match=rf"^\|alpha_c\| = {beyond!r} exceeds 1$"):
                    call()

    @pytest.mark.filterwarnings("error")
    def test_nonpositive_denominator_is_refused(self):
        """Within the 1e-15 slack above |alpha_c| = 1, the r+- denominator
        1 + 2 sqrt(pq) |alpha| |alpha_c| cos(gamma) can reach 0 or go
        negative; that instance is refused naming alpha_c, on its own and
        as a stack entry, and the slack stays wherever it is positive."""
        below, one_up = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
        for p, alpha, alpha_c in ((0.5, -below, 1.0 + 1e-15), (0.5, -below, one_up),
                                  (math.nextafter(0.5, 1.0), -below, 1.0 + 1e-15)):
            with pytest.raises(RangeError, match=r"^\|alpha_c\| = \S+ exceeds 1 and leaves "
                                                 r"no positive r\+- denominator") as one:
                make_instance(p, alpha, alpha_c)
            with pytest.raises(RangeError) as stack:
                separable_points(p, [0.3, alpha], [0.2, alpha_c])
            assert str(stack.value) == str(one.value)
        for p, alpha, alpha_c in ((0.5, below, 1.0 + 1e-15), (0.5, -below, 1.0),
                                  (0.4, -below, 1.0 + 1e-15), (0.5, -0.5, 1.0 + 1e-15)):
            assert make_instance(p, alpha, alpha_c).r_plus > 0.0
            assert separable_points(p, [0.3, alpha], [0.2, alpha_c]).r_plus[1] > 0.0

    def test_overflowing_modulus_is_out_of_range(self):
        """abs() of a finite complex can overflow; the instance then
        reports the modulus inf, as a stack's np.hypot does."""
        huge = complex(1.5e308, 1.5e308)
        for alpha, alpha_c, error, message in (
                (huge, 0.4, DegenerateOverlap, "|alpha| = inf leaves nothing to discriminate"),
                (0.3, huge, RangeError, "|alpha_c| = inf exceeds 1")):
            with pytest.raises(error) as info:
                make_instance(0.2, alpha, alpha_c)
            assert str(info.value) == message
            with np.errstate(over="ignore"), pytest.raises(error) as info:
                separable_points(0.2, [0.5, alpha], alpha_c)
            assert str(info.value) == message

    def test_majority_prior_is_canonicalized(self):
        inst = make_instance(0.7, 0.4 * np.exp(0.5j), 0.6 * np.exp(0.2j))
        assert inst.swapped
        assert abs(inst.p_plus - 0.3) < 1e-15
        # swapping the labels conjugates both overlaps
        assert abs(inst.alpha - 0.4 * np.exp(-0.5j)) < 1e-15
        assert abs(inst.alpha_c - 0.6 * np.exp(-0.2j)) < 1e-15

    def test_posterior_weights_normalization(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            inst = random_instance(rng)
            s = (inst.r_plus + inst.r_minus
                 + 2 * math.sqrt(inst.r_plus * inst.r_minus)
                 * abs(inst.alpha) * abs(inst.alpha_c) * math.cos(inst.gamma))
            assert abs(s - 1.0) < 1e-12

    def test_case_split_at_prior_ratio(self):
        tilde = math.sqrt(0.2 / 0.8)
        assert make_instance(0.2, tilde - 1e-6, 0.3).case == "interior"
        assert make_instance(0.2, tilde + 1e-6, 0.3).case == "saturated"

    def test_landmark_weights(self):
        inst = make_instance(0.5, 0.4 * np.exp(1j * math.pi), 0.8)
        # the r+- denominator, read through the public weights
        assert abs(inst.p_plus / inst.r_plus - 0.68) < 1e-15
        assert abs(inst.r_plus - 0.5 / 0.68) < 1e-14


class TestEmbedding:
    def test_canonical_overlaps(self):
        inst = make_instance(0.3, 0.5 * np.exp(0.7j), 0.6 * np.exp(1.1j))
        emb = canonical_embedding(inst)
        # overlap convention: the barred vector is the bra side
        assert abs(np.vdot(emb.xi_bar, emb.xi) - inst.alpha) < 1e-12
        assert abs(np.vdot(emb.phi_bar, emb.phi) - inst.alpha_c) < 1e-12
        emb.validate(inst)

    def test_wrong_embedding_rejected(self):
        inst = make_instance(0.3, 0.5, 0.6)
        other = canonical_embedding(make_instance(0.3, 0.2, 0.6))
        with pytest.raises(EmbeddingError):
            other.validate(inst)

    def test_chi_reduces_to_initial_coherence(self):
        inst = make_instance(0.35, 0.45 * np.exp(0.3j), 0.7 * np.exp(2.0j))
        chi = build_chi(inst)
        det = np.linalg.det(reduce_one(chi, ["C"])).real
        assert abs(4 * det - initial_coherence(inst)) < 1e-12


class TestStrategy:
    def test_constraint_enforced(self):
        inst = make_instance(0.3, 0.5, 0.0)
        good = optimal_strategy(inst)
        check_pair(inst, good)
        bad = dataclasses.replace(good, alpha_minus=good.alpha_minus * 0.5)
        with pytest.raises(RangeError):
            check_pair(inst, bad)

    def test_angle_ranges(self):
        with pytest.raises(RangeError):
            UssdStrategy(0.5, 0.5, beta=2.0)
        with pytest.raises(RangeError):
            UssdStrategy(0.5, 0.5, delta=-0.1)
        with pytest.raises(RangeError):
            UssdStrategy(1.2, 0.5)

    @pytest.mark.parametrize("field", ["alpha_plus", "alpha_minus"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan),
                                     complex(-math.inf, 0.5)])
    def test_non_finite_overlap_is_named(self, field, bad):
        # abs(nan) > 1 is false, so the modulus check alone lets it through
        with pytest.raises(RangeError, match=rf"^{field} must be finite"):
            UssdStrategy(**{"alpha_plus": 0.5, "alpha_minus": 0.5, field: bad})

    def test_non_finite_ancilla_rejected(self):
        for bad in ([math.nan, 0.0], [1.0, complex(0.0, math.inf)]):
            with pytest.raises(RangeError, match="ancilla_init must be normalized"):
                UssdStrategy(0.5, 0.5, ancilla_init=bad)

    def test_ancilla_held_to_the_protocols_norm_bound(self):
        inst = make_instance(0.3, 0.5, 0.4)
        with pytest.raises(RangeError, match="^ancilla_init must be normalized$"):
            optimal_strategy(inst, ancilla_init=[1 + 2e-11, 0])
        strat = optimal_strategy(inst, ancilla_init=[1 + 2e-13, 0])
        assert abs(run_protocol(inst, strat).success_probability - p_suc_max(inst)) < 1e-12

    def test_ready_state_checked_as_run_protocol_checks_it(self):
        """The strategy checks k with run_protocol's unit_rows, so no k
        builds a strategy that run_protocol then refuses. For this k the
        two sums differ by one ulp and the 1e-12 bound falls between
        them: ||k||^2 - 1 is 9.9987e-13 by np.vdot, 1.00009e-12 by
        einsum."""
        inst = make_instance(0.3, 0.5, 0.4)
        k = [0.9427531687011531 + 0j, -0.28667615285847353 + 0.17039145015874552j]
        with pytest.raises(RangeError, match="^ancilla_init must be normalized$"):
            optimal_strategy(inst, ancilla_init=k)
        # ready states at the bound: each verdict is the stacked check's
        rng = np.random.default_rng(25)
        ks = rng.normal(size=(300, 2)) + 1j * rng.normal(size=(300, 2))
        ks *= np.sqrt((1.0 + rng.uniform(-2e-12, 2e-12, 300))
                      / np.einsum("ij,ij->i", ks.conj(), ks).real)[:, None]
        built = []
        for i, row in enumerate(ks):
            try:
                built.append(optimal_strategy(inst, ancilla_init=row))
            except RangeError:
                with pytest.raises(ShapeError, match="not normalized"):
                    unit_rows(ks[i:i + 1])
            else:
                unit_rows(ks[i:i + 1])
        assert 0 < len(built) < len(ks)
        assert len(run_protocol([inst] * len(built), built)) == len(built)

    def test_check_pair_fails_a_nan_product(self):
        inst = make_instance(0.3, 0.25, 0.0)
        for ap, am in ((math.nan, 0.5), (0.5, complex(math.nan, 0.0))):
            with pytest.raises(RangeError, match="strategy overlaps give"):
                check_pair(inst, types.SimpleNamespace(alpha_plus=ap, alpha_minus=am))

    def test_interior_optimum_landmark(self):
        strat = optimal_strategy(make_instance(0.2, 0.4, 0.0))
        assert abs(abs(strat.alpha_plus) - math.sqrt(0.8)) < 1e-15
        assert abs(abs(strat.alpha_minus) - math.sqrt(0.2)) < 1e-15

    def test_saturated_optimum_pins_the_first_amplitude(self):
        strat = optimal_strategy(make_instance(0.4, 0.9, 0.0))
        assert abs(abs(strat.alpha_plus) - 1.0) < 1e-15
        assert abs(abs(strat.alpha_minus) - 0.9) < 1e-15

    def test_phases_carry_the_overlap_phase(self):
        inst = make_instance(0.3, 0.5 * np.exp(0.9j), 0.0)
        strat = optimal_strategy(inst)
        assert abs(strat.alpha_plus * np.conj(strat.alpha_minus) - inst.alpha) < 1e-14


class TestSuccess:
    def test_landmarks(self):
        assert abs(p_suc_max(make_instance(0.2, 0.4, 0.0)) - 0.68) < 1e-12
        assert abs(p_suc_max(make_instance(0.4, 0.9, 0.0)) - 0.114) < 1e-12

    def test_interior_closed_form(self):
        inst = make_instance(0.3, 0.25 * np.exp(0.4j), 0.5 * np.exp(1.3j))
        rp, rm = inst.r_plus, inst.r_minus
        expect = rp + rm - 2 * math.sqrt(rp * rm) * 0.25
        assert abs(p_suc_max(inst) - expect) < 1e-14

    def test_saturated_closed_form(self):
        inst = make_instance(0.35, 0.85, 0.4)
        assert inst.case == "saturated"
        assert abs(p_suc_max(inst) - inst.r_minus * (1 - 0.85 ** 2)) < 1e-14

    def test_success_probability_of_any_strategy(self):
        inst = make_instance(0.3, 0.5, 0.2)
        strat = UssdStrategy(0.9, 0.5 / 0.9)
        expect = inst.r_plus * (1 - 0.81) + inst.r_minus * (1 - (0.5 / 0.9) ** 2)
        assert abs(success_probability(inst, strat) - expect) < 1e-14
        assert success_probability(inst, strat) <= p_suc_max(inst) + 1e-14


class TestProtocol:
    def test_born_statistics_match_closed_form(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            inst = random_instance(rng)
            res = run_protocol(inst, optimal_strategy(inst))
            assert abs(res.success_probability - p_suc_max(inst)) < 1e-10
            assert abs(sum(o.probability for o in res.outcomes) - 1.0) < 1e-12

    def test_failure_leaves_system_along_the_chosen_direction(self):
        inst = make_instance(0.3, 0.5, 0.4)
        strat = optimal_strategy(inst, beta=0.8, delta=1.9)
        res = run_protocol(inst, strat)
        fail_state = res.outcomes[1].state
        red = reduce_one(fail_state, ["S"])
        eta = strat.failure_direction()
        assert abs(float(np.real(eta.conj() @ red @ eta)) - 1.0) < 1e-10

    def test_coupled_state_matches_protocol_state(self):
        inst = make_instance(0.25, 0.45 * np.exp(0.6j), 0.7 * np.exp(0.9j))
        strat = separable_strategy(inst)
        direct = coupled_state(inst, strat)
        res = run_protocol(inst, strat)
        assert abs(abs(np.vdot(direct.amplitudes, res.state.amplitudes)) - 1) < 1e-12

    def test_coupling_gram_preserved(self):
        inst = make_instance(0.3, 0.5 * np.exp(0.3j), 0.2)
        strat = optimal_strategy(inst, beta=0.4, delta=2.2)
        u = coupling_unitary(inst, strat)
        m = u.matrix
        assert np.max(np.abs(m.conj().T @ m - np.eye(4))) < 1e-10

    def test_observables_ignore_the_completion(self, monkeypatch):
        """The coupling is fixed on P = span(xi k, xi_bar k) only: U (P + W Q),
        with W a random unitary on the range of Q = 1 - P, is as good a
        coupling and gives the same outcome probabilities."""
        from ussd_lab import ussd
        kernel = ussd._coupling
        rng = np.random.default_rng(8)
        for _ in range(6):
            inst = random_instance(rng)
            anc = np.exp(1j * rng.uniform(0, 2 * math.pi, 2)) * [math.cos(0.7), math.sin(0.7)]
            strat = optimal_strategy(inst, beta=rng.uniform(0, math.pi / 2),
                                     delta=rng.uniform(0, 2 * math.pi), ancilla_init=anc)
            emb = canonical_embedding(inst)
            pair = np.stack([np.kron(emb.xi, anc), np.kron(emb.xi_bar, anc)], axis=1)
            basis = np.linalg.qr(pair, mode="complete")[0]
            p = basis[:, :2] @ basis[:, :2].conj().T
            w = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
            rest = basis[:, 2:] @ w @ basis[:, 2:].conj().T
            plain = run_protocol(inst, strat)
            monkeypatch.setattr(ussd, "_coupling", lambda *a: (
                lambda u, miss: (u @ (p + rest), miss))(*kernel(*a)))
            other = run_protocol(inst, strat)
            monkeypatch.undo()
            assert np.max(np.abs(other.unitary.matrix - plain.unitary.matrix)) > 1e-3
            for o1, o2 in zip(plain.outcomes, other.outcomes):
                assert abs(o1.probability - o2.probability) < 1e-12

    def test_nearly_identical_states(self):
        """1 - |alpha| = 10^U(-12, -3): the coupling is unitary on every
        draw, and the Born route meets p_suc_max. Below 1 - |alpha| = 5e-12
        the constraint data themselves can disagree by more than the
        mapping tolerance: the parts of zeta- and xi_bar orthogonal to
        zeta+ and xi, both of norm about sqrt(1 - |alpha|^2) as floats,
        differ in norm by up to 1.6e-10, and no unitary maps both pairs
        closer than half that. Such a draw raises the mapping check's
        typed error."""
        rng = np.random.default_rng(3)
        missed = []
        for _ in range(600):
            gap = 10.0 ** rng.uniform(-12, -3)
            p = 0.5 if rng.random() < 0.5 else rng.uniform(0.05, 0.95)
            inst = make_instance(p, (1.0 - gap) * np.exp(1j * rng.uniform(-math.pi, math.pi)),
                                 rng.uniform(-0.95, 0.95))
            strat = separable_strategy(inst)
            try:
                res = run_protocol(inst, strat)
            except NumericalError as exc:
                assert str(exc).startswith("coupling unitary misses a constraint by ")
                missed.append(gap)
                continue
            m = res.unitary.matrix
            assert np.max(np.abs(m.conj().T @ m - np.eye(4))) <= 1e-12
            assert abs(res.success_probability - p_suc_max(inst)) < 1e-10
        assert len(missed) <= 2 and all(g < 5e-12 for g in missed)


def protocol_pair(draw):
    """One (instance, strategy) pair: any prior, |alpha| up to 1 - 1e-9,
    any phases, and a strategy at the optimal radii with any failure
    angles and, half the time, a random ancilla ready state."""
    inst = make_instance(draw(st.floats(0.0, 1.0)),
                         draw(st.floats(0.0, 1.0 - 1e-9)) * np.exp(1j * draw(st.floats(0.0, 6.3))),
                         draw(st.floats(0.0, 1.0)) * np.exp(1j * draw(st.floats(0.0, 6.3))))
    anc = None
    if draw(st.booleans()):
        theta, ph0, ph1 = (draw(st.floats(0.0, 6.3)) for _ in range(3))
        anc = np.array([math.cos(theta) * np.exp(1j * ph0), math.sin(theta) * np.exp(1j * ph1)])
    return inst, optimal_strategy(inst, beta=draw(st.floats(0.0, math.pi / 2)),
                                  delta=draw(st.floats(0.0, 2 * math.pi, exclude_max=True)),
                                  ancilla_init=anc)


def outcome(fn, *args):
    try:
        return fn(*args)
    except UssdLabError as exc:
        return (type(exc), str(exc))


class TestStacks:
    """run_protocol and coupling_unitary on sequences: each entry equals
    the call on its pair alone, with ==."""

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.lists(st.composite(protocol_pair)(), min_size=1, max_size=5))
    def test_run_protocol_sequence_matches_pairs(self, pairs):
        insts, strats = (list(x) for x in zip(*pairs))
        alone = [outcome(run_protocol, i, s) for i, s in pairs]
        if any(isinstance(r, tuple) for r in alone):
            with pytest.raises(UssdLabError):
                run_protocol(insts, strats)
            return
        together = run_protocol(insts, strats)
        assert isinstance(together, tuple) and len(together) == len(alone)
        for got, want in zip(together, alone):
            assert got.instance == want.instance and got.strategy is want.strategy
            assert np.array_equal(got.unitary.matrix, want.unitary.matrix)
            assert np.array_equal(got.state.amplitudes, want.state.amplitudes)
            for g, w in zip(got.outcomes, want.outcomes):
                assert (g.outcome, g.probability) == (w.outcome, w.probability)
                assert (g.state is None) == (w.state is None)
                if w.state is not None:
                    assert np.array_equal(g.state.amplitudes, w.state.amplitudes)
        for got, (i, s) in zip(coupling_unitary(insts, strats), pairs):
            assert np.array_equal(got.matrix, coupling_unitary(i, s).matrix)

    def test_sequences_name_the_entry(self):
        inst = make_instance(0.3, 0.5, 0.4)
        good = optimal_strategy(inst)
        bad = dataclasses.replace(good, alpha_minus=0.9 * good.alpha_minus)
        assert run_protocol([], []) == ()
        with pytest.raises(ShapeError, match="2 instances but 1 strategies"):
            run_protocol([inst, inst], [good])
        with pytest.raises(RangeError, match="^strategy overlaps give"):
            run_protocol([inst, inst], [good, bad])
        # a mapping miss of test_nearly_identical_states, named by its entry
        near = make_instance(0.5, (1.0 - 2.3313544596923562e-12) * np.exp(-0.8924824311519712j),
                             0.14043918621836649)
        for fn in (coupling_unitary, run_protocol):
            with pytest.raises(NumericalError, match=r"misses a constraint by 1\.028e-10$"):
                fn(near, separable_strategy(near))
            with pytest.raises(NumericalError, match=r" by 1\.028e-10 \(inst\[1\]\)$"):
                fn([inst, near], [good, separable_strategy(near)])
        emb = canonical_embedding(inst)
        off = dataclasses.replace(emb, xi_bar=np.array([0.6, 0.8], dtype=complex))
        with pytest.raises(EmbeddingError, match=r"does not match instance \(0\.5\+0j\)$"):
            run_protocol(inst, good, off)
        with pytest.raises(ShapeError, match="takes the canonical embeddings"):
            run_protocol([inst], [good], [emb])


class TestSeparability:
    def test_concurrence_vanishes_at_the_tuned_direction(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            inst = random_instance(rng)
            fac = system_ancilla_factor(coupled_state(inst, separable_strategy(inst)))
            assert wootters_concurrence(fac) < 1e-10

    def test_generic_direction_stays_entangled(self):
        inst = make_instance(0.3, 0.5 * np.exp(0.8j), 0.6)
        strat = separable_strategy(inst)
        off = dataclasses.replace(strat, beta=max(strat.beta - 0.4, 0.0))
        assert wootters_concurrence(system_ancilla_factor(coupled_state(inst, off))) > 1e-3

    def test_landmark_angles(self):
        # q+- = 0.16 each, so tan(beta*) = sqrt(0.8*0.16*0.8 / (0.2*0.16*0.2))
        strat = separable_strategy(make_instance(0.2, 0.4, 0.0))
        assert abs(strat.beta - math.atan(4.0)) < 1e-14
        assert abs(strat.delta) < 1e-14

    def test_weight_partition_is_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(6):
            inst = random_instance(rng)
            par = separability_params(inst, separable_strategy(inst))
            assert abs(par.q1_plus ** 2 + par.q2_plus ** 2 - inst.r_plus) < 1e-13
            assert abs(par.q1_minus ** 2 + par.q2_minus ** 2 - inst.r_minus) < 1e-13

    def test_saturated_case_flags_along_the_equator(self):
        strat = separable_strategy(make_instance(0.4, 0.9, 0.5))
        assert abs(strat.beta - math.pi / 2) < 1e-12

    def test_vanishing_overlap_has_no_failure_branch(self):
        inst = make_instance(0.3, 0.0, 0.6)
        strat = separable_strategy(inst)
        par = separability_params(inst, strat)
        assert par.q1_plus == 0.0 and par.q2_plus == 0.0
        assert strat.beta == 0.0 and strat.delta == 0.0

    def test_prior_just_above_one_half_is_not_swapped(self):
        # UssdInstance admits p_plus up to 1/2 + 1e-15; the strategy must
        # fit that instance, not its swapped twin
        inst = UssdInstance(np.nextafter(0.5, 1.0), 0.4 * np.exp(0.7j),
                            0.6 * np.exp(0.2j))
        strat = separable_strategy(inst)
        check_pair(inst, strat)
        psi = coupled_state(inst, strat)
        assert total_coherence_conservation(inst, psi).residual < 1e-10
        assert wootters_concurrence(system_ancilla_factor(psi)) < 1e-10

    def test_density_assembly_matches_partial_trace(self):
        inst = make_instance(0.35, 0.5 * np.exp(0.2j), 0.6 * np.exp(1.4j))
        strat = separable_strategy(inst)
        psi = coupled_state(inst, strat)
        v = system_ancilla_factor(psi)
        assert v.shape == (4, 2)
        # rows on (S, A), columns on C: the tensordot partial trace
        assert np.max(np.abs(v @ v.conj().T - reference_partial_trace(psi, ["S", "A"]))) < 1e-12


class TestConservation:
    def test_residual_is_machine_zero(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            inst = random_instance(rng)
            strat = optimal_strategy(inst, beta=rng.uniform(0, math.pi / 2),
                                     delta=rng.uniform(0, 2 * math.pi))
            rep = total_coherence_conservation(inst, coupled_state(inst, strat))
            assert rep.residual < 1e-10
            assert abs(rep.before - initial_coherence(inst)) < 1e-12


class TestLoopPhase:
    def test_equals_total_overlap_phase(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            inst = random_instance(rng)
            target = (inst.gamma + math.pi) % (2 * math.pi) - math.pi
            d = abs(bargmann_phase(inst) - target) % (2 * math.pi)
            assert min(d, 2 * math.pi - d) < 1e-10

    def test_gauge_invariance(self):
        inst = make_instance(0.3, 0.5 * np.exp(0.7j), 0.6 * np.exp(1.9j))
        emb = canonical_embedding(inst)
        v1 = np.kron(emb.xi, emb.phi)
        v3 = np.kron(emb.xi_bar, emb.phi_bar)
        v2 = build_chi(inst, emb).amplitudes
        base = bargmann_loop(v1, v2, v3)
        moved = bargmann_loop(np.exp(0.4j) * v1, np.exp(1.8j) * v2,
                              np.exp(5.1j) * v3)
        assert abs(base - moved) < 1e-12

    def test_extreme_priors_are_undefined(self):
        with pytest.raises(UndefinedPhase):
            bargmann_phase(make_instance(1.0, 0.3, 0.2))

    def test_decoupled_environment_collapses_loop(self):
        # alpha_c = 0 zeroes the closing overlap; by the documented
        # convention a vanishing edge contributes no phase, so the system
        # phase is not recoverable from this loop
        inst = make_instance(0.3, 0.5 * np.exp(0.7j), 0.0)
        assert bargmann_phase(inst) == 0.0


class TestEvalReport:
    """ussd.eval_report, eval's composition, on a stack."""

    # canonical instances whose outer loop states are linearly dependent
    DEPENDENT = [(0.048957202029340396, 0.5089852856342428 + 0.8607752197919198j,
                  -0.3755632983931541 + 0.9267967462718333j),
                 (0.24607516653834108, 0.3505155842466413 - 0.9365568990724672j,
                  0.7727656756672951 - 0.6346914293658542j)]

    def test_stack_is_its_entries(self):
        """Each entry of a stack's report is the report of that entry
        alone, bit for bit, the undefined loop phases included: at an
        extreme prior, and on a row whose loop pass fails amid others."""
        p, aa, ac, g = _edge_box(np.random.default_rng(5), 30)
        points = [*zip(p.tolist(), (aa * np.exp(1j * g)).tolist(), ac.tolist()),
                  self.DEPENDENT[0], (0.0, 0.4, 0.3), (1.0, 0.4j, 0.3), self.DEPENDENT[1],
                  (0.7, 0.3 * np.exp(2.1j), 0.9 * np.exp(1.3j))]
        stack = eval_report(separable_points(*(np.array(c) for c in zip(*points))))
        assert tuple(stack) == EVAL_QUANTITIES
        assert all(len(v) == len(points) for v in stack.values())
        for i, point in enumerate(points):
            alone = eval_report(separable_points(*point))
            assert repr({k: v[i] for k, v in stack.items()}) == repr(
                {k: v[0] for k, v in alone.items()}), point
        loop = stack["loop_phase"]
        assert [k for k, v in enumerate(loop) if v is None] == [30, 31, 32, 33]

    def test_stack_names_the_failing_entry(self):
        """A computed row that fails its check is named as _entries names
        an entry of a sequence; a stack of one keeps the plain message."""
        args = [np.array([0.3, 0.5, 0.2]), np.array([0.4, 0.999999 * np.exp(1j * np.pi), 0.1]),
                np.array([0.2, 1.0, 0.5])]
        norm = "||psi||^2 = 0.9999999998889777"
        with pytest.raises(ShapeError, match=re.escape(
                f"state vector not normalized (inst[1]): {norm}")):
            eval_report(separable_points(*args))
        with pytest.raises(ShapeError, match=re.escape(f"state vector not normalized: {norm}")):
            eval_report(separable_points(*(a[1] for a in args)))


class TestPairedStacks:
    """A paired stack is checked where it is built: errors._entries holds
    the shape and length rule of the strategies, and a pair whose
    overlaps do not multiply back fails check_pair named by its entry,
    with the product as a plain complex."""

    I1 = make_instance(0.3, 0.4, 0.2)
    I2 = make_instance(0.2, 0.6j, 0.5)
    S1 = separable_strategy(I1)

    def test_unequal_lengths_are_refused(self):
        """Unequal lengths, and one entry against a sequence either way."""
        i1, i2, s1 = self.I1, self.I2, self.S1
        for call, message in (
                (lambda: closed_form_coherences(SeparablePoints.of([i1, i2], [s1])),
                 "2 instances but 1 strategies"),
                (lambda: SeparablePoints.of([i1], [s1, s1]), "1 instances but 2 strategies"),
                (lambda: SeparablePoints.of(i1, [s1, s1]),
                 "one instance but a sequence of 2 strategies"),
                (lambda: SeparablePoints.of(i1, [s1]), "one instance but a sequence of 1 strategies"),
                (lambda: run_protocol(i1, [s1, s1]), "one instance but a sequence of 2 strategies"),
                (lambda: SeparablePoints.of([i1, i1], s1), "2 instances but no sequence of strategies"),
                (lambda: coupling_unitary([i1], s1), "1 instances but no sequence of strategies"),
                (lambda: closed_form_coherences([i1, i1], s1),
                 "2 instances but no sequence of strategies")):
            with pytest.raises(ShapeError, match="^" + re.escape(message) + "$"):
                call()

    MESSAGE = "strategy overlaps give (0.39999999999999997+0j), instance needs 0.6j"

    def test_run_protocol_names_the_pair(self):
        with pytest.raises(RangeError, match=re.escape(self.MESSAGE + " (inst[1])") + "$"):
            run_protocol([self.I1, self.I2], [self.S1, self.S1])

    def test_eval_report_names_the_pair(self):
        with pytest.raises(RangeError, match=re.escape(self.MESSAGE + " (inst[1])") + "$"):
            eval_report(SeparablePoints.of([self.I1, self.I2], [self.S1, self.S1]))

    def test_one_pair_names_no_entry(self):
        """closed_form_coherences refuses the pair coupled_state refuses."""
        for call in (lambda: check_pair(self.I2, self.S1),
                     lambda: run_protocol(self.I2, self.S1),
                     lambda: eval_report(SeparablePoints.of(self.I2, self.S1)),
                     lambda: coupled_state(self.I2, self.S1),
                     lambda: closed_form_coherences(self.I2, self.S1)):
            with pytest.raises(RangeError, match=re.escape(self.MESSAGE) + "$"):
                call()
