"""Register algebra and simulation primitives.

reference_tensor, reference_reorder and reference_apply keep the
one-state register plumbing that the stacked kernels (apply_rows and
plain array products) replaced; the per-path teleport reference in
tests/test_teleport.py is built on them, and TestTensorReorder holds
them to their definitions.
"""

import math
import warnings

import numpy as np
import pytest

from ussd_lab.coherence import _factor, ledger
from ussd_lab.qcore import (
    CNOT,
    HADAMARD,
    PAULI,
    PureState,
    Unitary,
    apply_rows,
    factor_rows,
    measure_rows,
    unit_rows,
)
from ussd_lab.errors import (
    RegisterClash,
    ShapeError,
    UnknownQubit,
)


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


def reference_tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker product of two PureStates; the left argument supplies
    the more significant bits, and overlapping labels raise RegisterClash.
    (qcore.tensor before the Born route went to stacks.)"""
    shared = set(a.register) & set(b.register)
    if shared:
        raise RegisterClash(f"labels {sorted(shared)} appear on both factors")
    return PureState(a.register + b.register, (a.amplitudes[:, None] * b.amplitudes).reshape(-1))


def reference_reorder(psi: PureState, new_register) -> PureState:
    """Permute the register of a state (qcore.reorder, likewise)."""
    new_reg = tuple(new_register)
    if sorted(new_reg) != sorted(psi.register):
        raise UnknownQubit(f"reorder target {new_reg} is not a permutation of {psi.register}")
    perm = [psi.register.index(q) for q in new_reg]
    return PureState(new_reg, psi.as_tensor().transpose(perm).reshape(-1))


def reference_apply(u: Unitary, psi: PureState, targets=None) -> PureState:
    """Apply a unitary to target labels of one state (qcore.apply,
    likewise): the targets moved to the front, u times the reshaped
    tensor, moved back."""
    tg = tuple(targets) if targets is not None else u.register
    axes = [psi.axis_of(q) for q in tg]
    t = np.moveaxis(psi.as_tensor(), axes, range(len(tg)))
    t = (u.matrix @ t.reshape(2 ** len(tg), -1)).reshape((2,) * psi.n_qubits)
    return PureState(psi.register, np.moveaxis(t, range(len(tg)), axes).reshape(-1))


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

    @pytest.mark.parametrize("excess, passes", [(5e-13, True), (-5e-13, True),
                                                (2e-12, False), (-2e-12, False)])
    def test_unit_rows_has_the_state_bound(self, excess, passes):
        """PureState and the stacked check both hold ||psi||^2 to 1 within 1e-12."""
        v = np.array([math.sqrt(1.0 + excess), 0.0], dtype=complex)
        for check in (lambda: PureState(("S",), v), lambda: unit_rows(v[None])):
            if passes:
                check()
            else:
                with pytest.raises(ShapeError, match="not normalized"):
                    check()

    def test_one_norm_rule_at_the_bound(self):
        """PureState's check is unit_rows on a stack of one: vectors scaled
        to within 1e-15 of the 1e-12 bound, where two ways of summing
        ||psi||^2 can round to opposite verdicts, get one verdict and one
        message from both."""
        rng = np.random.default_rng(28)
        v = rng.normal(size=(2000, 8)) + 1j * rng.normal(size=(2000, 8))
        target = 1.0 + rng.choice([-1e-12, 1e-12], 2000) + rng.uniform(-1e-15, 1e-15, 2000)
        v *= np.sqrt(target / np.einsum("ij,ij->i", v.conj(), v).real)[:, None]
        passed = 0
        for row in v:
            verdicts = []
            for check in (lambda: PureState(("S", "A", "C"), row), lambda: unit_rows(row[None])):
                try:
                    check()
                except ShapeError as exc:
                    verdicts.append(str(exc))
                else:
                    verdicts.append(None)
            assert verdicts[0] == verdicts[1]
            passed += verdicts[0] is None
        assert 0 < passed < len(v)

    def test_axis_lookup(self):
        psi = bell()
        assert psi.axis_of("C") == 1
        with pytest.raises(UnknownQubit):
            psi.axis_of("B")


class TestTensorReorder:
    def test_register_clash(self):
        with pytest.raises(RegisterClash):
            PureState(("S", "S"), [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(RegisterClash):
            reference_tensor(basis_state(("S",), (0,)), basis_state(("S",), (1,)))

    def test_reorder_roundtrip(self):
        psi = reference_tensor(bell(), basis_state(("A",), (1,)))
        flipped = reference_reorder(psi, ("A", "C", "S"))
        back = reference_reorder(flipped, ("S", "C", "A"))
        assert flipped.register == ("A", "C", "S")
        assert np.allclose(back.amplitudes, psi.amplitudes)

    def test_reorder_moves_amplitudes(self):
        psi = basis_state(("S", "C"), (0, 1))
        assert np.argmax(np.abs(reference_reorder(psi, ("C", "S")).amplitudes)) == 2


def reduce_one(psi: PureState, keep) -> np.ndarray:
    """The reduced state V V^dag of the factor V that the tangle kernels
    take (coherence._factor on a stack of one)."""
    v = _factor(psi.amplitudes[None], psi.register, keep)[0]
    return v @ v.conj().T


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        assert np.allclose(reduce_one(bell(), ["S"]), np.eye(2) / 2)

    def test_product_marginal_is_pure(self):
        psi = reference_tensor(basis_state(("A",), (1,)), bell())
        assert np.allclose(reduce_one(psi, ["A"]), np.diag([0.0, 1.0]))

    def test_keep_order_follows_register(self):
        # kept labels come back in register order, not caller order
        psi = reference_tensor(bell(), basis_state(("A",), (0,)))
        red = reduce_one(psi, ["A", "S"])
        assert np.allclose(red, np.kron(np.eye(2) / 2, np.diag([1.0, 0.0])))


def stack_of_one(psi: PureState) -> np.ndarray:
    return psi.as_tensor()[None]


class TestApply:
    """apply_rows on stacks of one, axes counted from the stack axis, and
    a stack against its rows."""

    def test_hadamard_on_named_target(self):
        t = stack_of_one(basis_state(("S", "C"), (0, 0)))
        out = apply_rows(HADAMARD, t, (1,))
        expect = np.array([1, 0, 1, 0]) / math.sqrt(2)
        assert np.allclose(out.reshape(-1), expect)
        assert np.array_equal(out[0].reshape(-1), reference_apply(
            Unitary(("S",), HADAMARD), basis_state(("S", "C"), (0, 0))).amplitudes)

    def test_bell_from_circuit(self):
        t = stack_of_one(basis_state(("S", "C"), (0, 0)))
        t = apply_rows(CNOT, apply_rows(HADAMARD, t, (1,)), (1, 2))
        assert abs(fidelity(PureState(("S", "C"), t.reshape(-1)), bell()) - 1.0) < 1e-12

    def test_control_is_first_label(self):
        # CNOT with control C: |01> on (S, C) must flip S
        out = apply_rows(CNOT, stack_of_one(basis_state(("S", "C"), (0, 1))), (2, 1))
        assert abs(fidelity(PureState(("S", "C"), out.reshape(-1)),
                            basis_state(("S", "C"), (1, 1))) - 1) < 1e-12

    def test_stack_matches_rows_and_reference(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal((7, 8)) + 1j * rng.standard_normal((7, 8))
        t = (v / np.linalg.norm(v, axis=1)[:, None]).reshape(7, 2, 2, 2)
        us = np.linalg.qr(rng.standard_normal((7, 4, 4)) + 1j * rng.standard_normal((7, 4, 4)))[0]
        reg = ("S", "A", "C")
        for axes in ((1, 2), (3, 1), (2, 3)):
            out = apply_rows(us, t, axes)
            for i in range(7):
                assert np.array_equal(out[i:i + 1], apply_rows(us[i], t[i:i + 1], axes))
                want = reference_apply(Unitary(tuple(reg[a - 1] for a in axes), us[i]),
                                       PureState(reg, t[i].reshape(-1)),
                                       tuple(reg[a - 1] for a in axes))
                assert np.array_equal(out[i].reshape(-1), want.amplitudes)

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
    """measure_rows on stacks of one."""

    def test_probabilities_and_posts(self):
        probs, live, post = measure_rows(stack_of_one(bell()), 1, np.ones(1, dtype=bool))
        assert live.tolist() == [[True], [True]]
        assert np.allclose(probs, 0.5, rtol=0.0, atol=1e-12)
        assert post.shape == (2, 1, 2, 2)
        # post state of outcome 0 is |00>
        assert abs(fidelity(PureState(("S", "C"), post[0, 0].reshape(-1)),
                            basis_state(("S", "C"), (0, 0))) - 1) < 1e-12

    def test_impossible_outcome_has_no_post(self):
        probs, live, post = measure_rows(stack_of_one(basis_state(("S",), (0,))), 1,
                                         np.ones(1, dtype=bool))
        assert probs[1, 0] == 0.0 and not live[1, 0]
        assert not post[1].any()


class TestFactorOut:
    def test_drops_product_qubit(self):
        psi = reference_tensor(basis_state(("A",), (1,)), bell())
        rest = factor_one(psi, "A", np.array([0.0, 1.0]))
        assert rest.register == ("S", "C")
        assert abs(fidelity(rest, bell()) - 1) < 1e-12

    def test_phase_travels_to_remainder(self):
        vec = np.exp(0.7j) * np.array([0.0, 1.0])
        psi = reference_tensor(PureState(("A",), vec), basis_state(("S",), (0,)))
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


class TestNonFinite:
    """A non-finite amplitude fails the norm tests by name, before
    numpy's linear algebra sees it."""

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
            with pytest.raises(ShapeError, match="not normalized at stack index 2: "):
                ledger(amps)
        amps[2:] = amps[0]
        amps[3] *= 1.2
        with pytest.raises(ShapeError, match=r"not normalized at stack index 3: \|\|psi\|\|\^2 = 1\.44"):
            ledger(amps)

