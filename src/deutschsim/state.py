"""Exact complex linear algebra over labeled multi-qubit registers.

Bit convention, used everywhere including JSON dumps: basis labels are
bitstrings written in layout order (first register's high bit first), and
the index of a label is its big-endian integer value.  States are value
semantic: every operation returns a new, immutable ``StateVector``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateStateError, LayoutError, UnitarityError

# Equality of amplitudes and norms.
ATOL_STATE = 1e-12
# Matrix-level checks: unitarity, positive semidefiniteness.
ATOL_MATRIX = 1e-10
# Probabilities below this (amplitude below ATOL_STATE) count as zero.
PROB_EPS = 1e-24


def _is_int(value) -> bool:
    """An ``int`` or numpy integer, never a ``bool``: int() would truncate
    1.5, read True and "2" as numbers, and raise on nan and inf."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class RegisterLayout:
    """Named qubit groups with a fixed ordering, e.g. ``(("B", 2), ("A", 1), ("V", 1))``."""

    groups: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        groups = tuple((str(n), w) for n, w in self.groups)
        if not all(_is_int(w) for _, w in groups):
            raise LayoutError(f"register widths must be integers, got {groups}")
        groups = tuple((n, int(w)) for n, w in groups)
        object.__setattr__(self, "groups", groups)
        names = [n for n, _ in groups]
        if len(set(names)) != len(names):
            raise LayoutError(f"duplicate register names in {names}")
        if not groups or any(w < 1 for _, w in groups):
            raise LayoutError("every register needs width >= 1")

    # Geometry is computed once per instance and kept in its ``__dict__``;
    # equality, hash and repr still read ``groups`` only.
    @cached_property
    def total_qubits(self) -> int:
        return sum(w for _, w in self.groups)

    @cached_property
    def dim(self) -> int:
        return 1 << self.total_qubits

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.groups)

    @cached_property
    def _positions(self) -> dict[str, tuple[int, ...]]:
        positions, offset = {}, 0
        for n, w in self.groups:
            positions[n] = tuple(range(offset, offset + w))
            offset += w
        return positions

    def width(self, register: str) -> int:
        return len(self.qubit_positions(register))

    def qubit_positions(self, register: str) -> tuple[int, ...]:
        """Global qubit positions of ``register``, most significant bit first."""
        try:
            return self._positions[register]
        except (KeyError, TypeError):
            raise LayoutError(
                f"unknown register {register!r}; have {self.names}"
            ) from None

    def index_of_label(self, label: str) -> int:
        if not isinstance(label, str) or len(label) != self.total_qubits or set(label) - {"0", "1"}:
            raise LayoutError(
                f"label {label!r} is not a {self.total_qubits}-bit string"
            )
        return int(label, 2)

    def label_of_index(self, index: int) -> str:
        if not _is_int(index) or not 0 <= index < self.dim:
            raise LayoutError(f"index {index!r} out of range for dim {self.dim}")
        return format(index, f"0{self.total_qubits}b")

    def register_bits(self, label: str, register: str) -> str:
        """Extract ``register``'s bits from a full basis label."""
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
        if not np.isfinite(amps).all():
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

    Constructor enforces the invariants: finite entries, Hermitian within
    1e-12, unit trace within 1e-12, and positive semidefinite (smallest
    eigenvalue >= -1e-10).
    """

    layout: RegisterLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128)
        d = self.layout.dim
        if m.shape != (d, d):
            raise LayoutError(f"matrix shape {m.shape} does not match layout dim {d}")
        if not np.isfinite(m).all():
            raise ValueError("density matrix has a non-finite entry")
        if not np.abs(m - m.conj().T).max() <= ATOL_STATE:
            raise ValueError("density matrix is not Hermitian")
        trace = np.trace(m)
        if not abs(trace - 1.0) <= ATOL_STATE:
            raise ValueError(f"density matrix trace {trace} != 1")
        if not np.linalg.eigvalsh(m).min() >= -ATOL_MATRIX:
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


def _validate_unitary(u: np.ndarray, n_targets: int) -> np.ndarray:
    u = np.array(u, dtype=np.complex128)
    dim = 1 << n_targets
    if u.shape != (dim, dim):
        raise LayoutError(
            f"matrix shape {u.shape} does not match {n_targets} target qubits"
        )
    # A unitary's entries are at most 1 in magnitude, so this one reduction
    # rejects NaN, inf and any entry large enough to overflow U†U.
    peak = np.abs(u).max()
    if not peak <= 1 + ATOL_MATRIX:
        raise UnitarityError(f"matrix is not unitary (entry magnitude {peak:.3e})")
    defect = np.abs(u.conj().T @ u - _identity(dim)).max()
    if not defect <= ATOL_MATRIX:
        raise UnitarityError(f"matrix is not unitary (defect {defect:.3e})")
    u.flags.writeable = False
    return u


@lru_cache(maxsize=16)
def _identity(dim: int) -> np.ndarray:
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


@lru_cache(maxsize=1024)
def _axis_orders(
    batch_rank: int, targets: tuple[int, ...], n: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transpose that brings the targets' axes of a (batch, 2, ..., 2)
    array to the front of the qubit axes, in target order, with the other
    qubits after them in their own order; and its inverse.  This is the
    axis order ``np.moveaxis`` gives, so the views are the same."""
    rest = [q for q in range(n) if q not in targets]
    order = (*range(batch_rank), *(batch_rank + q for q in (*targets, *rest)))
    return order, tuple(sorted(range(len(order)), key=order.__getitem__))


class Op:
    """One gate on fixed targets of an n-qubit register: a unitary matrix,
    or (``permutation=True``) an index array sending |j> to |perm[j]>.

    It is checked once, here: the targets, then U†U against the identity
    within 1e-10, or exactly in O(2^k) that ``perm`` is a bijection of
    range(2^k) in an integer dtype.  The op keeps read-only copies of its
    arrays, and what was checked cannot be rebound, so nothing the caller
    does later changes it.
    """

    _CHECKED = ("targets", "n_qubits", "matrix", "perm", "_gather")

    def __init__(
        self, action, targets: Sequence[int], n_qubits: int, *, permutation: bool = False
    ):
        targets = tuple(targets)
        if not _is_int(n_qubits) or not all(map(_is_int, targets)):
            raise LayoutError(f"targets {targets} and qubit count {n_qubits!r} must be integers")
        targets, n_qubits = tuple(map(int, targets)), int(n_qubits)
        if len(set(targets)) != len(targets):
            raise LayoutError(f"duplicate target qubits {targets}")
        if any(t < 0 or t >= n_qubits for t in targets):
            raise LayoutError(f"targets {targets} out of range for {n_qubits} qubits")
        if not permutation:
            self._bind(targets, n_qubits, _validate_unitary(action, len(targets)), None, None)
            return
        perm = np.array(action)
        dim = 1 << len(targets)
        if perm.shape != (dim,):
            raise LayoutError(f"permutation shape {perm.shape} does not match dim {dim}")
        if perm.dtype.kind not in "iu":
            raise UnitarityError(f"permutation has non-integer dtype {perm.dtype}")
        if perm.min() < 0 or perm.max() >= dim:
            raise UnitarityError(f"permutation entries out of range({dim})")
        # The inverse permutation is the gather index: |j> lands at perm[j].
        gather = np.full(dim, -1, dtype=np.intp)
        gather[perm] = np.arange(dim)
        if (gather < 0).any():
            raise UnitarityError("permutation is not a bijection")
        perm.flags.writeable = gather.flags.writeable = False
        self._bind(targets, n_qubits, None, perm, gather)

    def _bind(self, *values) -> None:
        """Set the checked attributes, in ``_CHECKED`` order, the one time."""
        for name, value in zip(Op._CHECKED, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        if name in Op._CHECKED:
            raise AttributeError(f"Op.{name} was checked when the op was built")
        super().__setattr__(name, value)

    def apply(self, state: StateVector) -> StateVector:
        """The op on ``state``, identity on every other qubit."""
        if state.layout.total_qubits != self.n_qubits:
            raise LayoutError(f"op needs {self.n_qubits} qubits, not {state.layout.total_qubits}")
        return StateVector(state.layout, _evolve(state.amps, (self,)))

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """The op on each row of a (..., 2^n) amplitude array, unchecked.

        Any axes before the last are a batch, and each row is transformed
        alone: the targets' axes go to the front of the qubit axes, so the
        (..., 2^k, r) view has the targets' basis index, first target most
        significant, and ``u @ m`` runs one (2^k, 2^k) by (2^k, r) product
        per row.
        """
        batch = rows.shape[:-1]
        cube = batch + (2,) * self.n_qubits
        order, inverse = _axis_orders(len(batch), self.targets, self.n_qubits)
        psi = rows.reshape(cube).transpose(order)
        psi = psi.reshape(batch + (1 << len(self.targets), -1))
        psi = psi[..., self._gather, :] if self.matrix is None else self.matrix @ psi
        return psi.reshape(cube).transpose(inverse).reshape(rows.shape)

    def inverse(self) -> Op:
        """The conjugate transpose, or the inverse permutation."""
        if self.perm is None:
            return Op(self.matrix.conj().T, self.targets, self.n_qubits)
        return Op(self._gather, self.targets, self.n_qubits, permutation=True)

    def leak(self, positions: Sequence[int]) -> float:
        """Largest amplitude the op moves between basis states that differ on
        the qubits ``positions``; exactly 0 or 1 for a permutation."""
        mask = sum(1 << i for i, t in enumerate(reversed(self.targets)) if t in positions)
        idx = np.arange(1 << len(self.targets)) & mask
        if self.perm is not None:
            return float(((self.perm & mask) != idx).any())
        return float(np.max(np.abs(self.matrix[idx[:, None] != idx[None, :]]), initial=0.0))


def _evolve(rows: np.ndarray, ops: Iterable[Op]) -> np.ndarray:
    """Each op in turn on every row of a (..., 2^n) amplitude array, by
    ``apply_rows``; UnitarityError if an op moves a row's norm past ATOL_STATE."""
    # np.linalg.norm(rows, axis=-1), without its argument handling.
    norms = np.sqrt((rows.conj() * rows).real.sum(-1))
    for op in ops:
        rows = op.apply_rows(rows)
        before, norms = norms, np.sqrt((rows.conj() * rows).real.sum(-1))
        drift = abs(norms - before).max()
        if drift > ATOL_STATE:
            raise UnitarityError(f"unitary application drifted the norm by {drift:.3e}")
    return rows


def apply_unitary(
    state: StateVector, u: np.ndarray, targets: Sequence[int]
) -> StateVector:
    """Apply ``u`` to ``targets``, identity on every other qubit."""
    return Op(u, targets, state.layout.total_qubits).apply(state)


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
    order, _ = _axis_orders(0, pos, n)
    m = state.amps.reshape((2,) * n).transpose(order).reshape(1 << k, -1)
    rho = m @ m.conj().T
    return DensityMatrix(RegisterLayout(((keep, k),)), rho)
