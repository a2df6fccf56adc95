"""Labeled few-qubit states, operators and measurements.

Registers are tuples of unique labels drawn from {"S", "C", "A", "B"}
(system, environment, ancilla, channel carrier). Amplitude indexing
follows the usual binary convention with the leftmost label as the most
significant bit, so for register ("S", "A") the component of |1>_S |0>_A
sits at index 2. Nothing here goes beyond three qubits, so all linear
algebra is dense and eager.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BasisError,
    NotIsometric,
    NumericalError,
    PartitionError,
    RegisterClash,
    ShapeError,
    UnknownQubit,
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
        if abs(nrm2 - 1.0) > TOL.state_norm:
            raise ShapeError(f"state vector not normalized: ||psi||^2 = {nrm2!r}")
        object.__setattr__(self, "amplitudes", _frozen_array(amp, amp.size))

    @property
    def n_qubits(self) -> int:
        return len(self.register)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def axis_of(self, label: str) -> int:
        if label not in self.register:
            raise UnknownQubit(f"label {label!r} not in register {self.register}")
        return self.register.index(label)

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n_qubits)

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.register, np.outer(self.amplitudes, self.amplitudes.conj()))

    def overlap(self, other: "PureState") -> complex:
        if self.register != other.register:
            raise ShapeError("overlap needs identical registers")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def _check_density(m: np.ndarray) -> None:
    """Hermitian, unit-trace and positive-semidefinite checks on one
    density matrix or on a (..., d, d) stack of them; the first matrix
    to fail names the fault."""
    if np.max(np.abs(m - m.conj().swapaxes(-1, -2))) > TOL.hermitian:
        raise ShapeError("density matrix is not Hermitian")
    tr = np.trace(m, axis1=-2, axis2=-1)
    bad = np.abs(tr.real - 1.0) > TOL.trace_one
    if bad.any():
        raise ShapeError(f"density matrix trace {tr[bad].flat[0]!r} != 1")
    if np.linalg.eigvalsh(m).min() < -TOL.psd_floor:
        raise ShapeError("density matrix has a negative eigenvalue")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on a register."""

    register: tuple
    matrix: np.ndarray

    def __post_init__(self):
        reg = _checked_register(self.register)
        object.__setattr__(self, "register", reg)
        d = 2 ** len(reg)
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (d, d):
            raise ShapeError(f"register {reg} needs a {d}x{d} matrix, got {m.shape}")
        _check_density(m)
        object.__setattr__(self, "matrix", _frozen_array(m, (d, d)))

    @property
    def n_qubits(self) -> int:
        return len(self.register)

    def axis_of(self, label: str) -> int:
        if label not in self.register:
            raise UnknownQubit(f"label {label!r} not in register {self.register}")
        return self.register.index(label)


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
        if np.max(np.abs(m.conj().T @ m - np.eye(d))) > TOL.unitary:
            raise ShapeError("matrix is not unitary")
        object.__setattr__(self, "matrix", _frozen_array(m, (d, d)))


# ---------------------------------------------------------------------------
# constructors and fixed gates

def basis_state(register, bits) -> PureState:
    """Computational basis state; bits may be a string like "01" or ints."""
    reg = _checked_register(register)
    if isinstance(bits, str):
        bit_list = [int(b) for b in bits]
    else:
        bit_list = [int(b) for b in bits]
    if len(bit_list) != len(reg) or any(b not in (0, 1) for b in bit_list):
        raise ShapeError(f"need one bit per qubit of {reg}, got {bits!r}")
    amp = np.zeros(2 ** len(reg), dtype=complex)
    idx = 0
    for b in bit_list:
        idx = (idx << 1) | b
    amp[idx] = 1.0
    return PureState(reg, amp)


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

def tensor(a, b):
    """Kronecker product of two PureStates or two Unitaries.

    Registers concatenate left to right, so the left argument supplies the
    more significant bits. Overlapping labels raise RegisterClash.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        shared = set(a.register) & set(b.register)
        if shared:
            raise RegisterClash(f"labels {sorted(shared)} appear on both factors")
        return PureState(a.register + b.register, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, Unitary) and isinstance(b, Unitary):
        shared = set(a.register) & set(b.register)
        if shared:
            raise RegisterClash(f"labels {sorted(shared)} appear on both factors")
        return Unitary(a.register + b.register, np.kron(a.matrix, b.matrix))
    raise ShapeError("tensor expects two PureStates or two Unitaries")


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


def _split(reg: tuple, keep) -> tuple:
    """Kept labels in register order, their axes, and the traced axes."""
    keep_set = list(dict.fromkeys(keep))
    for q in keep_set:
        if q not in reg:
            raise UnknownQubit(f"label {q!r} not in register {reg}")
    if not keep_set:
        raise PartitionError("must keep at least one qubit")
    kept = tuple(q for q in reg if q in keep_set)
    kept_axes = [reg.index(q) for q in kept]
    traced_axes = [i for i in range(len(reg)) if i not in kept_axes]
    return kept, kept_axes, traced_axes


def partial_trace(state, keep) -> DensityMatrix:
    """Reduced density matrix on the kept labels, original order preserved.

    Accepts a PureState or a DensityMatrix. keep must be a nonempty subset
    of the register; keeping everything is allowed and simply returns the
    full density matrix.
    """
    reg = state.register
    kept, kept_axes, traced_axes = _split(reg, keep)
    dk = 2 ** len(kept)

    if isinstance(state, PureState):
        t = state.as_tensor()
        rho = np.tensordot(t, t.conj(), axes=(traced_axes, traced_axes))
        rho = rho.reshape(dk, dk)
    elif isinstance(state, DensityMatrix):
        n = len(reg)
        t = state.matrix.reshape((2,) * (2 * n))
        # pair each traced ket axis with its bra partner
        letters = "abcdefgh"
        ket = list(letters[:n])
        bra = list(letters[n:2 * n])
        for ax in traced_axes:
            bra[ax] = ket[ax]
        out = "".join(ket[ax] for ax in kept_axes) + "".join(bra[ax] for ax in kept_axes)
        rho = np.einsum("".join(ket + bra) + "->" + out, t).reshape(dk, dk)
    else:
        raise ShapeError("partial_trace expects a PureState or DensityMatrix")

    rho = 0.5 * (rho + rho.conj().T)  # kill round-off asymmetry
    return DensityMatrix(kept, rho)


def reduce_stack(amplitudes, register, keep) -> np.ndarray:
    """Reduced density matrices of a stack of pure states.

    amplitudes is an (N, 2**n) array of normalized state vectors on
    register; the result is the (N, dk, dk) stack of their reductions to
    the kept labels, in register order, validated as density matrices.
    At least one qubit must be traced out. Each matrix is bit-equal to
    partial_trace of the same PureState: the batched matmul hands BLAS
    every slice with the strides tensordot gives it for one state.
    """
    reg = _checked_register(register)
    kept, kept_axes, traced_axes = _split(reg, keep)
    if not traced_axes:
        raise PartitionError("a reduction must trace out at least one qubit")
    dk, dt = 2 ** len(kept), 2 ** (len(reg) - len(kept))
    t = np.asarray(amplitudes, dtype=complex).reshape((-1,) + (2,) * len(reg))
    ket = t.transpose([0] + [1 + a for a in kept_axes + traced_axes])
    bra = t.conj().transpose([0] + [1 + a for a in traced_axes + kept_axes])
    rho = ket.reshape(-1, dk, dt) @ bra.reshape(-1, dt, dk)
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    _check_density(rho)
    return rho


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


def projective_measure(psi: PureState, target: str, basis) -> list:
    """Measure one qubit in a supplied orthonormal basis.

    basis is a pair of length-2 vectors (or single-qubit PureStates).
    Returns a list of (outcome, probability, post_state) with outcome 0, 1
    in basis order. A zero-probability outcome carries post_state None.
    """
    vecs = []
    for b in basis:
        v = b.amplitudes if isinstance(b, PureState) else np.asarray(b, dtype=complex)
        v = v.reshape(-1)
        if v.size != 2:
            raise BasisError("measurement basis vectors must be single qubit")
        vecs.append(v)
    if len(vecs) != 2:
        raise BasisError("need exactly two basis vectors")
    g00 = abs(np.vdot(vecs[0], vecs[0]) - 1.0)
    g11 = abs(np.vdot(vecs[1], vecs[1]) - 1.0)
    g01 = abs(np.vdot(vecs[0], vecs[1]))
    if max(g00, g11, g01) > 1e-12:
        raise BasisError("measurement basis is not orthonormal")

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


def factor_out(psi: PureState, label: str, outcome_vec) -> PureState:
    """Remove a qubit known to sit in a product state outcome_vec.

    Used after a projective collapse to drop the measured qubit. Raises
    ShapeError if the qubit is actually entangled with the rest.
    """
    v = np.asarray(outcome_vec, dtype=complex).reshape(-1)
    axis = psi.axis_of(label)
    rest = np.tensordot(v.conj(), psi.as_tensor(), axes=([0], [axis]))
    nrm = np.linalg.norm(rest)
    if abs(nrm - 1.0) > 1e-9:
        raise ShapeError(f"qubit {label!r} is not in the stated product state")
    new_reg = tuple(q for q in psi.register if q != label)
    return PureState(new_reg, rest.reshape(-1) / nrm)


# ---------------------------------------------------------------------------
# unitary completion

def _mgs_step(vec, basis):
    """Project vec out of span(basis) with two Gram-Schmidt sweeps."""
    w = vec.copy()
    coeffs = np.zeros(len(basis), dtype=complex)
    for _ in range(2):
        for j, q in enumerate(basis):
            c = np.vdot(q, w)
            coeffs[j] += c
            w = w - c * q
    return w, coeffs


def complete_unitary(constraints, seed_basis=None) -> Unitary:
    """Build a unitary that maps each input vector to its output vector.

    constraints is a sequence of (input, output) pairs of PureStates on a
    common register (plain vectors of matching dimension work too). The two
    Gram matrices must agree within the gram tolerance, otherwise no
    isometry exists and NotIsometric is raised. The rest of the operator is
    fixed deterministically by Gram-Schmidt over seed_basis (canonical
    basis vectors in index order when omitted), so repeated calls return
    the same matrix. Downstream observables must not depend on the
    completion; tests exercise that with alternative seeds.
    """
    if not constraints:
        raise ShapeError("need at least one constraint pair")
    ins, outs, reg = [], [], None
    for pair in constraints:
        if len(pair) != 2:
            raise ShapeError("constraints must be (input, output) pairs")
        vin, vout = pair
        if isinstance(vin, PureState):
            reg = vin.register if reg is None else reg
            if vin.register != reg:
                raise ShapeError("constraint inputs live on different registers")
            vin = vin.amplitudes
        if isinstance(vout, PureState):
            if reg is not None and vout.register != reg:
                raise ShapeError("constraint outputs live on a different register")
            vout = vout.amplitudes
        ins.append(np.asarray(vin, dtype=complex).reshape(-1))
        outs.append(np.asarray(vout, dtype=complex).reshape(-1))
    d = ins[0].size
    if any(v.size != d for v in ins + outs):
        raise ShapeError("constraint vectors have mismatched dimensions")
    if reg is None:
        # fall back to a register of the right width for raw vectors
        n = int(np.log2(d))
        if 2 ** n != d or not 1 <= n <= 3:
            raise ShapeError(f"dimension {d} is not a small qubit register")
        reg = tuple(KNOWN_LABELS[:n])

    gram_in = np.array([[np.vdot(a, b) for b in ins] for a in ins])
    gram_out = np.array([[np.vdot(a, b) for b in outs] for a in outs])
    mism = float(np.max(np.abs(gram_in - gram_out)))
    if mism > TOL.gram:
        raise NotIsometric(
            f"input/output Gram matrices differ by {mism:.3e} (> {TOL.gram:g})"
        )

    q_in, q_out = [], []
    for vin, vout in zip(ins, outs):
        w, coeffs = _mgs_step(vin, q_in)
        nrm = float(np.linalg.norm(w))
        if nrm < TOL.completion_drop:
            # linearly dependent input; its output must follow automatically
            implied = sum(c * qo for c, qo in zip(coeffs, q_out))
            if float(np.linalg.norm(vout - implied)) > 1e-6:
                raise NotIsometric("dependent input mapped to an inconsistent output")
            continue
        wo = vout - sum(c * qo for c, qo in zip(coeffs, q_out))
        nrm_o = float(np.linalg.norm(wo))
        q_in.append(w / nrm)
        q_out.append(wo / nrm_o)

    seeds = []
    if seed_basis is not None:
        for s in seed_basis:
            s = s.amplitudes if isinstance(s, PureState) else np.asarray(s, dtype=complex)
            seeds.append(s.reshape(-1))
    seeds.extend(np.eye(d, dtype=complex)[k] for k in range(d))

    def complete(basis):
        out = list(basis)
        for s in seeds:
            if len(out) == d:
                break
            w, _ = _mgs_step(s, out)
            nrm = float(np.linalg.norm(w))
            if nrm < TOL.completion_drop:
                continue
            out.append(w / nrm)
        if len(out) != d:
            raise NumericalError("could not complete an orthonormal basis")
        return out

    q_in = complete(q_in)
    q_out = complete(q_out)
    u = sum(np.outer(qo, qi.conj()) for qi, qo in zip(q_in, q_out))

    worst = max(
        float(np.linalg.norm(u @ vin - vout)) for vin, vout in zip(ins, outs)
    )
    if worst > TOL.mapping:
        raise NumericalError(f"completed unitary misses a constraint by {worst:.3e}")
    return Unitary(reg, u)
