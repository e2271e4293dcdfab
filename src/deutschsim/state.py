"""Exact complex linear algebra over labeled multi-qubit registers.

Bit convention, used everywhere including JSON dumps: basis labels are
bitstrings written in layout order (first register's high bit first), and
the index of a label is its big-endian integer value.  States are value
semantic: every operation returns a new, immutable ``StateVector``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateStateError, LayoutError, UnitarityError

# Equality of amplitudes and norms.
ATOL_STATE = 1e-12
# Matrix-level checks: unitarity, positive semidefiniteness.
ATOL_MATRIX = 1e-10
# Probabilities below this (amplitude below ATOL_STATE) count as zero.
PROB_EPS = 1e-24


@dataclass(frozen=True)
class RegisterLayout:
    """Named qubit groups with a fixed ordering, e.g. ``(("B", 2), ("A", 1), ("V", 1))``."""

    groups: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        groups = tuple((str(n), int(w)) for n, w in self.groups)
        object.__setattr__(self, "groups", groups)
        names = [n for n, _ in groups]
        if len(set(names)) != len(names):
            raise LayoutError(f"duplicate register names in {names}")
        if not groups or any(w < 1 for _, w in groups):
            raise LayoutError("every register needs width >= 1")

    @property
    def total_qubits(self) -> int:
        return sum(w for _, w in self.groups)

    @property
    def dim(self) -> int:
        return 1 << self.total_qubits

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.groups)

    def width(self, register: str) -> int:
        return len(self.qubit_positions(register))

    def qubit_positions(self, register: str) -> tuple[int, ...]:
        """Global qubit positions of ``register``, most significant bit first."""
        offset = 0
        for n, w in self.groups:
            if n == register:
                return tuple(range(offset, offset + w))
            offset += w
        raise LayoutError(f"unknown register {register!r}; have {self.names}")

    def index_of_label(self, label: str) -> int:
        if len(label) != self.total_qubits or set(label) - {"0", "1"}:
            raise LayoutError(
                f"label {label!r} is not a {self.total_qubits}-bit string"
            )
        return int(label, 2)

    def label_of_index(self, index: int) -> str:
        if not 0 <= index < self.dim:
            raise LayoutError(f"index {index} out of range for dim {self.dim}")
        return format(index, f"0{self.total_qubits}b")

    def register_bits(self, label_or_index: str | int, register: str) -> str:
        """Extract ``register``'s bits from a full basis label."""
        label = (
            self.label_of_index(label_or_index)
            if isinstance(label_or_index, int)
            else label_or_index
        )
        pos = self.qubit_positions(register)
        return "".join(label[p] for p in pos)


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the computational basis of a register layout."""

    layout: RegisterLayout
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.shape != (self.layout.dim,):
            raise LayoutError(
                f"amplitude array has shape {amps.shape}, layout needs ({self.layout.dim},)"
            )
        if not np.all(np.isfinite(amps)):
            raise DegenerateStateError("non-finite amplitude")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def amplitude(self, label: str) -> complex:
        return complex(self.amps[self.layout.index_of_label(label)])

    def nonzero(self) -> dict[str, complex]:
        """Labels with |amplitude| > ATOL_STATE, in index order."""
        return {
            self.layout.label_of_index(i): complex(a)
            for i, a in enumerate(self.amps)
            if abs(a) > ATOL_STATE
        }

    def max_delta(self, other: StateVector) -> float:
        """Largest amplitude difference; layouts must match."""
        _check_same_layout(self, other)
        return float(np.max(np.abs(self.amps - other.amps)))

    def with_phase(self, theta: float) -> StateVector:
        """The same ray multiplied by the unit phase exp(i*theta)."""
        return StateVector(self.layout, np.exp(1j * theta) * self.amps)


@dataclass(frozen=True)
class DensityMatrix:
    """Reduced state of a kept register subset.

    Constructor enforces the invariants: Hermitian within 1e-12, unit trace
    within 1e-12, and positive semidefinite (smallest eigenvalue >= -1e-10).
    """

    layout: RegisterLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128)
        d = self.layout.dim
        if m.shape != (d, d):
            raise LayoutError(f"matrix shape {m.shape} does not match layout dim {d}")
        if np.max(np.abs(m - m.conj().T)) > ATOL_STATE:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m) - 1.0) > ATOL_STATE:
            raise ValueError(f"density matrix trace {np.trace(m)} != 1")
        if np.min(np.linalg.eigvalsh(m)) < -ATOL_MATRIX:
            raise ValueError("density matrix is not positive semidefinite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def diagonal(self) -> np.ndarray:
        return np.real(np.diag(self.matrix))


def _check_same_layout(s1: StateVector, s2: StateVector) -> None:
    if s1.layout != s2.layout:
        raise LayoutError("states live on different register layouts")


def basis_state(layout: RegisterLayout, label: str) -> StateVector:
    """The computational basis vector named by ``label``."""
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[layout.index_of_label(label)] = 1.0
    return StateVector(layout, amps)


def superpose(
    terms: Iterable[tuple[complex, str]], layout: RegisterLayout
) -> StateVector:
    """Normalized superposition of weighted basis labels.

    Weights are relative; repeated labels accumulate.  Raises
    DegenerateStateError when the weights cancel to (numerically) nothing.
    """
    amps = np.zeros(layout.dim, dtype=np.complex128)
    for weight, label in terms:
        amps[layout.index_of_label(label)] += weight
    norm = np.linalg.norm(amps)
    if norm < ATOL_STATE:
        raise DegenerateStateError("superposition weights sum to zero norm")
    return StateVector(layout, amps / norm)


def _validate_targets(targets: Sequence[int], total_qubits: int) -> tuple[int, ...]:
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise LayoutError(f"duplicate target qubits {targets}")
    if any(t < 0 or t >= total_qubits for t in targets):
        raise LayoutError(f"targets {targets} out of range for {total_qubits} qubits")
    return targets


def _validate_unitary(u: np.ndarray, n_targets: int) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    dim = 1 << n_targets
    if u.shape != (dim, dim):
        raise LayoutError(
            f"matrix shape {u.shape} does not match {n_targets} target qubits"
        )
    defect = np.max(np.abs(u.conj().T @ u - np.eye(dim)))
    if defect > ATOL_MATRIX:
        raise UnitarityError(f"matrix is not unitary (defect {defect:.3e})")
    return u


def _on_targets(amps: np.ndarray, targets: tuple[int, ...], n: int, op) -> np.ndarray:
    """Apply ``op`` to the targets' index of an n-qubit amplitude array.

    ``op`` maps a 2^k-row array, whose row index is the targets' basis index
    with the first target as its most significant bit, to one of the same
    shape.  Axes of ``amps`` after the first are a batch: each column is
    transformed alone.
    """
    k = len(targets)
    psi = amps.reshape([2] * n + list(amps.shape[1:]))
    psi = np.moveaxis(psi, targets, range(k))
    rest = psi.shape[k:]
    psi = op(psi.reshape(1 << k, -1))
    psi = np.moveaxis(psi.reshape([2] * k + list(rest)), range(k), targets)
    return psi.reshape(amps.shape)


def _checked_norm(state: StateVector, out: np.ndarray) -> StateVector:
    drift = abs(np.linalg.norm(out) - np.linalg.norm(state.amps))
    if drift > ATOL_STATE:
        raise UnitarityError(f"unitary application drifted the norm by {drift:.3e}")
    return StateVector(state.layout, out)


def apply_unitary(
    state: StateVector, u: np.ndarray, targets: Sequence[int]
) -> StateVector:
    """Apply ``u`` to ``targets``, identity on every other qubit."""
    n = state.layout.total_qubits
    targets = _validate_targets(targets, n)
    u = _validate_unitary(u, len(targets))
    return _checked_norm(state, _on_targets(state.amps, targets, n, lambda m: u @ m))


def _inverse_permutation(perm: np.ndarray, dim: int) -> np.ndarray:
    """The inverse of ``perm``, checked exactly in O(dim) to be a bijection
    of range(dim) held in an integer dtype."""
    perm = np.asarray(perm)
    if perm.shape != (dim,):
        raise LayoutError(f"permutation shape {perm.shape} does not match dim {dim}")
    if perm.dtype.kind not in "iu":
        raise UnitarityError(f"permutation has non-integer dtype {perm.dtype}")
    if dim and (perm.min() < 0 or perm.max() >= dim):
        raise UnitarityError(f"permutation entries out of range({dim})")
    inverse = np.full(dim, -1, dtype=np.intp)
    inverse[perm] = np.arange(dim)
    if (inverse < 0).any():
        raise UnitarityError("permutation is not a bijection")
    return inverse


def apply_permutation(
    state: StateVector, perm: np.ndarray, targets: Sequence[int]
) -> StateVector:
    """Send each basis state |j> of ``targets`` to |perm[j]>, identity on
    every other qubit: ``apply_unitary`` of the 0/1 matrix with
    u[perm[j], j] = 1, done as an exact gather with no matrix."""
    n = state.layout.total_qubits
    targets = _validate_targets(targets, n)
    inverse = _inverse_permutation(perm, 1 << len(targets))
    return _checked_norm(state, _on_targets(state.amps, targets, n, lambda m: m[inverse]))


def expand_unitary(u: np.ndarray, targets: Sequence[int], total_qubits: int) -> np.ndarray:
    """The full 2^n x 2^n matrix of ``u`` on ``targets`` tensored with identity."""
    targets = _validate_targets(targets, total_qubits)
    u = _validate_unitary(u, len(targets))
    identity = np.eye(1 << total_qubits, dtype=np.complex128)
    return _on_targets(identity, targets, total_qubits, lambda m: u @ m)


def inner_product(s1: StateVector, s2: StateVector) -> complex:
    """<s1|s2>, conjugate linear in the first argument."""
    _check_same_layout(s1, s2)
    return complex(np.vdot(s1.amps, s2.amps))


def partial_trace(state: StateVector, keep: str) -> DensityMatrix:
    """Reduced density matrix of register ``keep``, tracing out the rest."""
    layout = state.layout
    pos = layout.qubit_positions(keep)
    n = layout.total_qubits
    k = len(pos)
    psi = np.moveaxis(state.amps.reshape([2] * n), pos, range(k))
    m = psi.reshape(1 << k, -1)
    rho = m @ m.conj().T
    return DensityMatrix(RegisterLayout(((keep, k),)), rho)
