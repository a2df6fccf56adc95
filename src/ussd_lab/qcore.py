"""Labeled few-qubit states, operators and measurements.

Registers are tuples of unique labels drawn from {"S", "C", "A", "B"}
(system, environment, ancilla, channel carrier). Amplitude indexing
follows the usual binary convention with the leftmost label as the most
significant bit, so for register ("S", "A") the component of |1>_S |0>_A
sits at index 2. Nothing here goes beyond three qubits, so all linear
algebra is dense and eager.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NumericalError,
    RegisterClash,
    ShapeError,
    UnknownQubit,
    _check,
)
from .tolerances import DEFAULT as TOL

KNOWN_LABELS = ("S", "C", "A", "B")


def _checked_register(register) -> tuple:
    reg = tuple(register)
    if not 1 <= len(reg) <= 3:
        raise ShapeError(f"registers hold 1 to 3 qubits, got {len(reg)}")
    for q in reg:
        if q not in KNOWN_LABELS:
            raise UnknownQubit(f"unknown qubit label {q!r}")
    if len(set(reg)) != len(reg):
        raise RegisterClash(f"duplicate label in register {reg}")
    return reg


def _frozen_array(a, shape) -> np.ndarray:
    arr = np.array(a, dtype=complex).reshape(shape)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized state vector on a labeled register."""

    register: tuple
    amplitudes: np.ndarray

    def __post_init__(self):
        reg = _checked_register(self.register)
        object.__setattr__(self, "register", reg)
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size != 2 ** len(reg):
            raise ShapeError(
                f"register {reg} needs {2 ** len(reg)} amplitudes, got {amp.size}"
            )
        nrm2 = float(np.vdot(amp, amp).real)
        if not abs(nrm2 - 1.0) <= TOL.state_norm:     # NaN fails too
            raise ShapeError(f"state vector not normalized: ||psi||^2 = {nrm2!r}")
        object.__setattr__(self, "amplitudes", _frozen_array(amp, amp.size))

    @property
    def n_qubits(self) -> int:
        return len(self.register)

    def axis_of(self, label: str) -> int:
        if label not in self.register:
            raise UnknownQubit(f"label {label!r} not in register {self.register}")
        return self.register.index(label)

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n_qubits)


@dataclass(frozen=True)
class Unitary:
    """Unitary operator acting on a labeled register."""

    register: tuple
    matrix: np.ndarray

    def __post_init__(self):
        reg = _checked_register(self.register)
        object.__setattr__(self, "register", reg)
        d = 2 ** len(reg)
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (d, d):
            raise ShapeError(f"register {reg} needs a {d}x{d} matrix, got {m.shape}")
        # entries of a unitary lie in the unit disc; a bound before the
        # product keeps NaN and overflow out of it
        if not (np.max(np.abs(m)) <= 1.0 + TOL.unitary
                and np.max(np.abs(m.conj().T @ m - np.eye(d))) <= TOL.unitary):
            raise ShapeError("matrix is not unitary")
        object.__setattr__(self, "matrix", _frozen_array(m, (d, d)))


# ---------------------------------------------------------------------------
# fixed gates

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)

# control on the first (most significant) label of the register
CNOT = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=complex,
)


# ---------------------------------------------------------------------------
# register plumbing

def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker product of two PureStates.

    Registers concatenate left to right, so the left argument supplies the
    more significant bits. Overlapping labels raise RegisterClash.
    """
    if not (isinstance(a, PureState) and isinstance(b, PureState)):
        raise ShapeError("tensor expects two PureStates")
    shared = set(a.register) & set(b.register)
    if shared:
        raise RegisterClash(f"labels {sorted(shared)} appear on both factors")
    # np.kron of two vectors, without its general-shape overhead
    vec = (a.amplitudes[:, None] * b.amplitudes).reshape(-1)
    return PureState(a.register + b.register, vec)


def reorder(psi: PureState, new_register) -> PureState:
    """Permute the register of a state; same physics, new index order."""
    new_reg = tuple(new_register)
    if sorted(new_reg) != sorted(psi.register):
        raise UnknownQubit(
            f"reorder target {new_reg} is not a permutation of {psi.register}"
        )
    perm = [psi.register.index(q) for q in new_reg]
    tens = psi.as_tensor().transpose(perm)
    return PureState(new_reg, tens.reshape(-1))


def apply(u: Unitary, psi: PureState, targets=None) -> PureState:
    """Apply a unitary to the given target labels of a state.

    targets defaults to u.register and must match its size; every target
    must be present in psi.register. The state keeps its register order.
    """
    tg = tuple(targets) if targets is not None else u.register
    if len(set(tg)) != len(tg):
        raise RegisterClash(f"duplicate target label in {tg}")
    if 2 ** len(tg) != u.matrix.shape[0]:
        raise ShapeError(
            f"unitary on {u.register} cannot act on {len(tg)} target qubits"
        )
    axes = [psi.axis_of(q) for q in tg]
    n = psi.n_qubits
    t = psi.as_tensor()
    t = np.moveaxis(t, axes, range(len(tg)))
    t = (u.matrix @ t.reshape(2 ** len(tg), -1)).reshape((2,) * n)
    t = np.moveaxis(t, range(len(tg)), axes)
    return PureState(psi.register, t.reshape(-1))


# ---------------------------------------------------------------------------
# computational-basis measurement, on stacks of states

def _nowhere(i) -> str:
    return ""


def unit_rows(stack, mask, where=_nowhere) -> None:
    """PureState's norm check on the rows of a stack that mask selects.
    The first row to fail is named by where(i), a suffix to the message
    (none by default)."""
    flat = stack.reshape(len(stack), math.prod(stack.shape[1:]))
    nrm2 = np.einsum("ij,ij->i", flat.conj(), flat).real
    _check(mask & ~(np.abs(nrm2 - 1.0) <= TOL.state_norm), ShapeError,
           lambda i: f"state vector not normalized{where(i)}: "
                     f"||psi||^2 = {float(nrm2[i])!r}")


def measure_rows(t, axis, mask, where=_nowhere) -> tuple:
    """Measure, in the computational basis, the qubit at axis of every
    row of the stack t that mask selects. Returns the outcome
    probabilities (2, n), the live outcomes (2, n), those of a selected
    row with probability 1e-15 or more, and the post-states (2, n, ...)
    with the measured qubit collapsed to each live outcome (zero rows
    elsewhere). The probabilities of a selected row must sum to 1 within
    1e-10; where(i) names a failing row as in unit_rows. A non-finite row
    fails that test, and a post-state is its slice over its own norm, so
    its norm is not checked again."""
    comps = np.moveaxis(t, axis, 0)            # (2, n, ...), one slice per outcome
    probs = np.array([[float(np.vdot(c, c).real) for c in comp] for comp in comps])
    total = probs[0] + probs[1]
    _check(mask & ~(np.abs(total - 1.0) <= 1e-10), NumericalError,
           lambda i: f"outcome probabilities sum to {float(total[i])!r}{where(i)}")
    live = mask & (probs >= 1e-15)
    post = np.zeros((2,) + t.shape, dtype=complex)
    for k in (0, 1):
        scale = np.sqrt(np.where(live[k], probs[k], 1.0))
        np.moveaxis(post[k], axis, 0)[k] = comps[k] / scale.reshape((-1,) + (1,) * (t.ndim - 2))
    return probs, live, post


def factor_rows(rest, mask, label, where=_nowhere) -> np.ndarray:
    """Drop a measured qubit from each row of a stack: each row of rest
    holds a state's amplitudes already contracted with the known outcome
    of qubit label, and is divided by its own norm. On the rows mask selects the norm
    must be 1 within 1e-9 (else the qubit was entangled with the rest),
    which a non-finite row fails; the quotient is then a unit vector and
    is not checked again. Other rows carry no meaning. where(i) names a
    failing row as in unit_rows."""
    nrm = np.array([np.linalg.norm(r) for r in rest])
    _check(mask & ~(np.abs(nrm - 1.0) <= 1e-9), ShapeError,
           lambda i: f"qubit {label!r} is not in the stated product state{where(i)}")
    return rest / np.where(mask, nrm, 1.0).reshape((-1,) + (1,) * (rest.ndim - 1))


def projective_measure(psi: PureState, target: str) -> list:
    """Measure one qubit in the computational basis: measure_rows on a
    stack of one. Returns a list of (outcome, probability, post_state)
    for outcomes 0 and 1; a zero-probability outcome carries post_state
    None.
    """
    probs, live, post = measure_rows(psi.as_tensor()[None], 1 + psi.axis_of(target),
                                     np.ones(1, dtype=bool))
    return [(k, float(probs[k, 0]),
             PureState(psi.register, post[k, 0].reshape(-1)) if live[k, 0] else None)
            for k in (0, 1)]
