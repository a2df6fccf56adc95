"""Register algebra and simulation primitives."""

import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import ussd_lab
from ussd_lab.coherence import ledger
from ussd_lab.qcore import (
    CNOT,
    HADAMARD,
    PAULI,
    DensityMatrix,
    PureState,
    Unitary,
    apply,
    basis_state,
    complete_unitary,
    factor_out,
    factor_rows,
    partial_trace,
    projective_measure,
    reduce_stack,
    reorder,
    tensor,
)
from ussd_lab.errors import (
    NotIsometric,
    PartitionError,
    RegisterClash,
    ShapeError,
    UnknownQubit,
)
from ussd_lab.tolerances import Tolerances


def bell() -> PureState:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / math.sqrt(2)
    return PureState(("S", "C"), v)


class TestPureState:
    def test_norm_enforced(self):
        with pytest.raises(ShapeError):
            PureState(("S",), np.array([1.0, 1.0]))

    def test_register_must_match_dimension(self):
        with pytest.raises(ShapeError):
            PureState(("S", "C"), np.array([1.0, 0.0]))

    def test_axis_lookup(self):
        psi = bell()
        assert psi.axis_of("C") == 1
        with pytest.raises(UnknownQubit):
            psi.axis_of("B")

    def test_density_is_projector(self):
        rho = bell().density().matrix
        assert np.allclose(rho @ rho, rho)
        assert abs(np.trace(rho) - 1.0) < 1e-12

    def test_overlap(self):
        z = basis_state(("S", "C"), (0, 0))
        assert abs(bell().overlap(z) - 1 / math.sqrt(2)) < 1e-12


class TestTensorReorder:
    def test_register_clash(self):
        with pytest.raises(RegisterClash):
            tensor(basis_state(("S",), (0,)), basis_state(("S",), (1,)))

    def test_reorder_roundtrip(self):
        psi = tensor(bell(), basis_state(("A",), (1,)))
        flipped = reorder(psi, ("A", "C", "S"))
        back = reorder(flipped, ("S", "C", "A"))
        assert flipped.register == ("A", "C", "S")
        assert np.allclose(back.amplitudes, psi.amplitudes)

    def test_reorder_moves_amplitudes(self):
        psi = basis_state(("S", "C"), (0, 1))
        assert np.argmax(np.abs(reorder(psi, ("C", "S")).amplitudes)) == 2


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        red = partial_trace(bell(), ["S"])
        assert red.register == ("S",)
        assert np.allclose(red.matrix, np.eye(2) / 2)

    def test_product_marginal_is_pure(self):
        psi = tensor(basis_state(("A",), (1,)), bell())
        red = partial_trace(psi, ["A"]).matrix
        assert np.allclose(red, np.diag([0.0, 1.0]))

    def test_keep_order_follows_register(self):
        # kept labels come back in register order, not caller order
        psi = tensor(bell(), basis_state(("A",), (0,)))
        red = partial_trace(psi, ["A", "S"])
        assert red.register == ("S", "A")
        assert np.allclose(red.matrix, np.kron(np.eye(2) / 2, np.diag([1.0, 0.0])))

    def test_proper_keeps_of_pure_states_only(self):
        # keeping everything traces nothing, so it is not a reduction
        with pytest.raises(PartitionError):
            partial_trace(bell(), ["S", "C"])
        with pytest.raises(PartitionError):
            partial_trace(basis_state(("S",), (0,)), ["S"])
        with pytest.raises(ShapeError, match="^partial_trace expects a PureState$"):
            partial_trace(bell().density(), ["C"])


class TestApply:
    def test_hadamard_on_named_target(self):
        psi = basis_state(("S", "C"), (0, 0))
        out = apply(Unitary(("S",), HADAMARD), psi)
        expect = np.array([1, 0, 1, 0]) / math.sqrt(2)
        assert np.allclose(out.amplitudes, expect)

    def test_bell_from_circuit(self):
        psi = basis_state(("S", "C"), (0, 0))
        psi = apply(Unitary(("S",), HADAMARD), psi)
        psi = apply(Unitary(("S", "C"), CNOT), psi)
        assert abs(abs(psi.overlap(bell())) - 1.0) < 1e-12

    def test_control_is_first_label(self):
        # CNOT with control C: |01> on (S, C) must flip S
        psi = basis_state(("S", "C"), (0, 1))
        out = apply(Unitary(("C", "S"), CNOT), psi, targets=("C", "S"))
        assert abs(abs(out.overlap(basis_state(("S", "C"), (1, 1)))) - 1) < 1e-12

    def test_unitarity_checked(self):
        with pytest.raises(ShapeError):
            Unitary(("S",), np.array([[1.0, 1.0], [0.0, 1.0]]))

    # an entry past the unit disc would overflow the product test
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan),
                                     1e200, -1e155j])
    def test_non_finite_matrix_is_not_unitary(self, bad):
        for reg, m in ((("S",), np.array([[bad, 0.0], [0.0, 1.0]])),
                       (("S", "A"), np.full((4, 4), bad))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ShapeError, match="^matrix is not unitary$"):
                    Unitary(reg, m)


class TestMeasurement:
    def test_probabilities_and_posts(self):
        out = projective_measure(bell(), "S")
        assert [k for k, _, _ in out] == [0, 1]
        for _, p, post in out:
            assert abs(p - 0.5) < 1e-12
            assert post.register == ("S", "C")
        # post state of outcome 0 is |00>
        assert abs(abs(out[0][2].overlap(basis_state(("S", "C"), (0, 0)))) - 1) < 1e-12

    def test_impossible_outcome_has_no_post(self):
        psi = basis_state(("S",), (0,))
        out = projective_measure(psi, "S")
        assert out[1][1] == 0.0 and out[1][2] is None


class TestFactorOut:
    def test_drops_product_qubit(self):
        psi = tensor(basis_state(("A",), (1,)), bell())
        rest = factor_out(psi, "A", np.array([0.0, 1.0]))
        assert rest.register == ("S", "C")
        assert abs(abs(rest.overlap(bell())) - 1) < 1e-12

    def test_phase_travels_to_remainder(self):
        vec = np.exp(0.7j) * np.array([0.0, 1.0])
        psi = tensor(PureState(("A",), vec), basis_state(("S",), (0,)))
        rest = factor_out(psi, "A", np.array([0.0, 1.0]))
        assert abs(rest.amplitudes[0] - np.exp(0.7j)) < 1e-12

    def test_entangled_qubit_refuses(self):
        with pytest.raises(ShapeError):
            factor_out(bell(), "S", np.array([1.0, 0.0]))

    @pytest.mark.parametrize("vec", [[1.0, 0.0, 0.0], [1.0], [[1.0, 0.0], [0.0, 1.0]]])
    def test_outcome_vector_must_be_single_qubit(self, vec):
        psi = tensor(basis_state(("A",), (1,)), bell())
        with pytest.raises(ShapeError, match=re.escape(
                f"outcome vector of qubit 'A' must hold 2 amplitudes, got {np.size(vec)}")):
            factor_out(psi, "A", np.array(vec))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_outcome_vector(self, bad):
        psi = tensor(basis_state(("A",), (1,)), bell())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="^outcome vector of qubit 'A' is not finite$"):
                factor_out(psi, "A", np.array([bad, 1.0]))
            # a contracted row that is not finite fails the product test
            # before the division
            rows = np.array([[1.0, 0.0], [bad, 0.0]], dtype=complex)
            with pytest.raises(ShapeError, match="^qubit 'A' is not in the stated product state$"):
                factor_rows(rows, np.ones(2, dtype=bool), "A")


class TestCompleteUnitary:
    def test_exact_mapping_and_unitarity(self):
        a = np.array([1, 0, 0, 0], dtype=complex)
        b = np.array([0, 0, 1, 0], dtype=complex)
        ta = np.array([0.6, 0.8j, 0, 0], dtype=complex)
        tb = np.array([0, 0, 0.8, -0.6j], dtype=complex)
        u = complete_unitary(("S", "A"), [(a, ta), (b, tb)])
        m = u.matrix
        assert np.max(np.abs(m.conj().T @ m - np.eye(4))) < 1e-10
        assert np.max(np.abs(m @ a - ta)) < 1e-10
        assert np.max(np.abs(m @ b - tb)) < 1e-10

    def test_gram_mismatch_rejected(self):
        a = np.array([1, 0], dtype=complex)
        b = np.array([0, 1], dtype=complex)
        t = np.array([1, 0], dtype=complex)
        with pytest.raises(NotIsometric):
            complete_unitary(("S",), [(a, t), (b, t)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_constraint_named(self, bad):
        a, b = np.eye(4, dtype=complex)[:2]
        for pairs in ([(a, a), (b, np.array([bad, 0, 0, 0]))],
                      [(a, a), (np.array([0, bad, 0, 0]), b)]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ShapeError, match="^constraint pair 1 is not finite$"):
                    complete_unitary(("S", "A"), pairs)

    def test_overflow_named(self):
        a, b = np.eye(4, dtype=complex)[:2]
        big = np.array([0, 0, 1e200, 0], dtype=complex)
        for reg, pairs in ((("S",), [(np.array([1e200, 0]), np.array([1e200, 0]))]),
                           (("S", "A"), [(a, a), (b, big)]),
                           (("S", "A"), [(a, a), (big, b)])):
            k = len(pairs) - 1
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ShapeError, match=f"^constraint pair {k} overflows: "):
                    complete_unitary(reg, pairs)

    def test_register_sets_the_dimension(self):
        a = np.array([1, 0, 0, 0], dtype=complex)
        u = complete_unitary(("C", "S"), [(a, a[::-1])])
        assert u.register == ("C", "S")
        with pytest.raises(ShapeError, match="^constraint pair 0 does not hold 2-amplitude"):
            complete_unitary(("S",), [(a, a)])
        with pytest.raises(UnknownQubit):
            complete_unitary(("S", "X"), [(a, a)])

    def test_completion_seed_does_not_move_constraints(self):
        rng = np.random.default_rng(5)
        a = np.array([1, 0, 0, 0], dtype=complex)
        ta = np.array([0, 1, 0, 0], dtype=complex)
        u1 = complete_unitary(("S", "A"), [(a, ta)])
        seed = [np.array([0, 0, 1j, 0], dtype=complex)]
        u2 = complete_unitary(("S", "A"), [(a, ta)], seed_basis=seed)
        assert np.max(np.abs(u1.matrix @ a - u2.matrix @ a)) < 1e-10
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        z /= np.linalg.norm(z)
        # both completions are unitary even though they differ elsewhere
        for u in (u1, u2):
            assert abs(np.linalg.norm(u.matrix @ z) - 1) < 1e-10


def test_pauli_algebra():
    assert np.allclose(PAULI["Z"] @ PAULI["X"], 1j * PAULI["Y"])
    assert np.allclose(HADAMARD @ HADAMARD, np.eye(2))


def test_density_matrix_validation():
    with pytest.raises(ShapeError):
        DensityMatrix(("S",), np.array([[0.5, 0.5], [0.2, 0.5]]))
    with pytest.raises(ShapeError):
        DensityMatrix(("S",), np.array([[0.9, 0.0], [0.0, 0.5]]))


class TestNonFinite:
    """A non-finite amplitude fails the norm and trace tests by name,
    before numpy's linear algebra sees it."""

    SAC = ("S", "A", "C")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_pure_state(self, bad):
        v = np.zeros(8, dtype=complex)
        v[0], v[5] = 1.0, bad
        with pytest.raises(ShapeError, match="not normalized"):
            PureState(self.SAC, v)
        with pytest.raises(ShapeError, match="not normalized"):
            PureState(self.SAC, [bad] * 8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_stack_names_the_first_bad_row(self, bad):
        amps = np.zeros((5, 8), dtype=complex)
        amps[:, 0] = 1.0
        amps[2, 3] = amps[4, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for keep in (["C"], ["C", "A"]):
                with pytest.raises(ShapeError, match="stack index 2$"):
                    reduce_stack(amps, self.SAC, keep)
            with pytest.raises(ShapeError, match="stack index 2$"):
                ledger(amps)
        amps[2:] = amps[0]
        amps[3] *= 1.2
        with pytest.raises(ShapeError, match="trace .* != 1 at stack index 3$"):
            ledger(amps)

    def test_density_matrix(self):
        with pytest.raises(ShapeError, match="trace"):
            DensityMatrix(("S",), np.array([[math.nan, 0.0], [0.0, 0.5]]))


def test_every_tolerance_is_read():
    """Each Tolerances field is read as TOL.<field> somewhere in the
    package, so no knob sits in the record without a guard behind it."""
    src = "\n".join(f.read_text() for f in Path(ussd_lab.__file__).parent.glob("*.py"))
    unread = [f.name for f in dataclasses.fields(Tolerances)
              if not re.search(rf"\bTOL\.{f.name}\b", src)]
    assert unread == []
