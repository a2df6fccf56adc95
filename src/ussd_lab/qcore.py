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
        unitary_rows(m[None], np.ones(1, dtype=bool))
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
# computational-basis measurement, on stacks of states

def _nowhere(i) -> str:
    return ""


def vdot_rows(a, b) -> np.ndarray:
    """np.vdot of each row pair of two (n, d) stacks, from one batched
    matmul: numpy hands each (1, d) @ (d, 1) product to the BLAS dot that
    np.vdot calls, so entry i equals np.vdot(a[i], b[i]) bit for bit
    (numpy 2.4.6 with OpenBLAS; a sum in another order would not)."""
    return (a.conj()[:, None, :] @ b[:, :, None])[:, 0, 0]


def norm_rows(x) -> np.ndarray:
    """np.linalg.norm of each row of an (n, ...) stack, read in C order:
    the square root of the dot of the real parts plus that of the
    imaginary parts, each dot a batched matmul as in vdot_rows."""
    flat = x.reshape(len(x), math.prod(x.shape[1:]))
    re, im = flat.real, flat.imag
    return np.sqrt((re[:, None, :] @ re[:, :, None])[:, 0, 0]
                   + (im[:, None, :] @ im[:, :, None])[:, 0, 0])


def unit_rows(stack, mask, where=_nowhere) -> None:
    """PureState's norm check on the rows of a stack that mask, one flag
    per row or True for all, selects. The first row to fail is named by
    where(i), a suffix to the message (none by default)."""
    flat = stack.reshape(len(stack), math.prod(stack.shape[1:]))
    nrm2 = np.einsum("ij,ij->i", flat.conj(), flat).real
    _check(mask & ~(np.abs(nrm2 - 1.0) <= TOL.state_norm), ShapeError,
           lambda i: f"state vector not normalized{where(i)}: "
                     f"||psi||^2 = {float(nrm2[i])!r}")


def apply_rows(u, t, axes, where=_nowhere) -> np.ndarray:
    """Apply the unitary u (one matrix, or a stack of one per row) to the
    qubit axes of every row of the stack t (axis 0 counts rows; axes
    name the qubits in u's order), contracted as on one state vector:
    the axes moved to the front, u times the (2**k, rest) matrix. Each
    result row must be a unit vector (unit_rows); the rows keep their
    axis order."""
    k = len(axes)
    m = np.moveaxis(t, axes, range(1, k + 1))
    shape = m.shape
    m = (u @ m.reshape(len(t), 2 ** k, -1)).reshape(shape)
    out = np.moveaxis(m, range(1, k + 1), axes)
    unit_rows(out, np.ones(len(t), dtype=bool), where)
    return out


def unitary_rows(stack, mask, where=_nowhere) -> None:
    """Unitary's check on the (n, d, d) matrices of a stack that mask
    selects: max |U^dag U - 1| within TOL.unitary. Entries of a unitary
    lie in the unit disc; that bound is tested first, and a row that
    fails it (NaN included) is left out of the product, which keeps NaN
    and overflow out of it. where(i) names a failing row as in
    unit_rows."""
    inside = np.abs(stack).max(axis=(1, 2), initial=0.0) <= 1.0 + TOL.unitary
    m = stack if inside.all() else np.where(inside[:, None, None], stack, 0.0)
    dev = np.abs(m.conj().swapaxes(1, 2) @ m - np.eye(stack.shape[-1])).max(axis=(1, 2), initial=0.0)
    _check(mask & ~(inside & (dev <= TOL.unitary)), ShapeError,
           lambda i: f"matrix is not unitary{where(i)}")


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
    slot = [(slice(None),) * axis + (k,) for k in (0, 1)]
    comps = [t[at] for at in slot]             # (n, ...), one slice per outcome
    probs = np.array([vdot_rows(flat, flat).real
                      for flat in (c.reshape(len(c), math.prod(c.shape[1:])) for c in comps)])
    total = probs[0] + probs[1]
    _check(mask & ~(np.abs(total - 1.0) <= 1e-10), NumericalError,
           lambda i: f"outcome probabilities sum to {float(total[i])!r}{where(i)}")
    live = mask & (probs >= 1e-15)
    post = np.zeros((2,) + t.shape, dtype=complex)
    for k in (0, 1):
        scale = np.sqrt(np.where(live[k], probs[k], 1.0))
        post[k][slot[k]] = comps[k] / scale.reshape((-1,) + (1,) * (t.ndim - 2))
    return probs, live, post


def factor_rows(rest, mask, label, where=_nowhere) -> np.ndarray:
    """Drop a measured qubit from each row of a stack: each row of rest
    holds a state's amplitudes already contracted with the known outcome
    of qubit label, and is divided by its own norm. On the rows mask selects the norm
    must be 1 within 1e-9 (else the qubit was entangled with the rest),
    which a non-finite row fails; the quotient is then a unit vector and
    is not checked again. Other rows carry no meaning. where(i) names a
    failing row as in unit_rows."""
    nrm = norm_rows(rest)
    _check(mask & ~(np.abs(nrm - 1.0) <= 1e-9), ShapeError,
           lambda i: f"qubit {label!r} is not in the stated product state{where(i)}")
    return rest / np.where(mask, nrm, 1.0).reshape((-1,) + (1,) * (rest.ndim - 1))
