"""Register algebra and simulation primitives."""

import ast
import dataclasses
import math
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
    PureState,
    Unitary,
    _check_density,
    apply,
    factor_rows,
    projective_measure,
    reduce_stack,
    reorder,
    tensor,
)
from ussd_lab.errors import (
    PartitionError,
    RegisterClash,
    ShapeError,
    UnknownQubit,
)
from ussd_lab.tolerances import Tolerances


def basis_state(register, bits) -> PureState:
    """The computational basis state |bits> on register; bits is a
    string like "01" or a sequence of ints."""
    reg = tuple(register)
    return PureState(reg, np.eye(2 ** len(reg))[int("".join(map(str, bits)), 2)])


def factor_one(psi: PureState, label: str, outcome_vec) -> PureState:
    """Drop qubit label, known to sit in outcome_vec, from one state:
    the contraction with the outcome vector, then factor_rows on a stack
    of one."""
    rest = np.tensordot(np.asarray(outcome_vec, dtype=complex).conj(), psi.as_tensor(),
                        axes=([0], [psi.axis_of(label)]))
    (out,) = factor_rows(rest[None], np.ones(1, dtype=bool), label)
    return PureState(tuple(q for q in psi.register if q != label), out.reshape(-1))


def fidelity(a: PureState, b: PureState) -> float:
    return abs(np.vdot(a.amplitudes, b.amplitudes))


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


def reduce_one(psi: PureState, keep) -> np.ndarray:
    """reduce_stack on a stack of one."""
    return reduce_stack(psi.amplitudes[None], psi.register, keep)[0]


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        assert np.allclose(reduce_one(bell(), ["S"]), np.eye(2) / 2)

    def test_product_marginal_is_pure(self):
        psi = tensor(basis_state(("A",), (1,)), bell())
        assert np.allclose(reduce_one(psi, ["A"]), np.diag([0.0, 1.0]))

    def test_keep_order_follows_register(self):
        # kept labels come back in register order, not caller order
        psi = tensor(bell(), basis_state(("A",), (0,)))
        red = reduce_one(psi, ["A", "S"])
        assert np.allclose(red, np.kron(np.eye(2) / 2, np.diag([1.0, 0.0])))

    def test_proper_keeps_of_pure_states_only(self):
        # keeping everything traces nothing, so it is not a reduction
        with pytest.raises(PartitionError):
            reduce_one(bell(), ["S", "C"])
        with pytest.raises(PartitionError):
            reduce_one(basis_state(("S",), (0,)), ["S"])


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
        assert abs(fidelity(psi, bell()) - 1.0) < 1e-12

    def test_control_is_first_label(self):
        # CNOT with control C: |01> on (S, C) must flip S
        psi = basis_state(("S", "C"), (0, 1))
        out = apply(Unitary(("C", "S"), CNOT), psi, targets=("C", "S"))
        assert abs(fidelity(out, basis_state(("S", "C"), (1, 1))) - 1) < 1e-12

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
        assert abs(fidelity(out[0][2], basis_state(("S", "C"), (0, 0))) - 1) < 1e-12

    def test_impossible_outcome_has_no_post(self):
        psi = basis_state(("S",), (0,))
        out = projective_measure(psi, "S")
        assert out[1][1] == 0.0 and out[1][2] is None


class TestFactorOut:
    def test_drops_product_qubit(self):
        psi = tensor(basis_state(("A",), (1,)), bell())
        rest = factor_one(psi, "A", np.array([0.0, 1.0]))
        assert rest.register == ("S", "C")
        assert abs(fidelity(rest, bell()) - 1) < 1e-12

    def test_phase_travels_to_remainder(self):
        vec = np.exp(0.7j) * np.array([0.0, 1.0])
        psi = tensor(PureState(("A",), vec), basis_state(("S",), (0,)))
        rest = factor_one(psi, "A", np.array([0.0, 1.0]))
        assert abs(rest.amplitudes[0] - np.exp(0.7j)) < 1e-12

    def test_entangled_qubit_refuses(self):
        with pytest.raises(ShapeError):
            factor_one(bell(), "S", np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_non_finite_outcome_vector(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a contracted row that is not finite fails the product test
            # before the division
            rows = np.array([[1.0, 0.0], [bad, 0.0]], dtype=complex)
            with pytest.raises(ShapeError, match="^qubit 'A' is not in the stated product state$"):
                factor_rows(rows, np.ones(2, dtype=bool), "A")


def test_pauli_algebra():
    assert np.allclose(PAULI["Z"] @ PAULI["X"], 1j * PAULI["Y"])
    assert np.allclose(HADAMARD @ HADAMARD, np.eye(2))


def test_density_matrix_validation():
    with pytest.raises(ShapeError, match=r"^density matrix trace \(1\.4\+0j\) != 1$"):
        _check_density(np.array([[0.9, 0.0], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ShapeError, match="^density matrix has a negative eigenvalue$"):
        _check_density(np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex))


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
            _check_density(np.array([[math.nan, 0.0], [0.0, 0.5]], dtype=complex))


def test_every_tolerance_is_read():
    """Each Tolerances field is read as TOL.<field> somewhere in the
    package, so no knob sits in the record without a guard behind it."""
    read = {node.attr for f in Path(ussd_lab.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(f.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "TOL"}
    assert "unitary" in read
    assert sorted({f.name for f in dataclasses.fields(Tolerances)} - read) == []
