"""Exact complex linear algebra over labeled multi-qubit registers.

Bit convention, used everywhere including JSON dumps: basis labels are
bitstrings written in layout order (first register's high bit first), and
the index of a label is its big-endian integer value.  States are value
semantic: every operation returns a new, immutable ``StateVector``.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateStateError, LayoutError, UnitarityError
from .record import Record

# Equality of amplitudes and norms.
ATOL_STATE = 1e-12
# Matrix-level checks: unitarity, positive semidefiniteness.
ATOL_MATRIX = 1e-10
# Probabilities below this (amplitude below ATOL_STATE) count as zero.
PROB_EPS = 1e-24
# Largest layout: 512 amplitudes, the Deutsch-Jozsa run at 8 argument bits.
_MAX_QUBITS = 9


def _is_int(value) -> bool:
    """An ``int`` or numpy integer, never a ``bool``: int() would truncate
    1.5, read True and "2" as numbers, and raise on nan and inf."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class RegisterLayout(Record):
    """Named qubit groups with a fixed ordering, e.g. ``(("B", 2), ("A", 1), ("V", 1))``."""

    def __init__(self, groups: tuple[tuple[str, int], ...]):
        try:
            pairs = tuple((str(n), w) for n, w in groups)
        except (TypeError, ValueError):
            raise LayoutError(f"registers must be (name, width) pairs: {groups!r}") from None
        if not all(_is_int(w) for _, w in pairs):
            raise LayoutError(f"register widths must be integers, got {pairs}")
        pairs = tuple((n, int(w)) for n, w in pairs)
        names = tuple(n for n, _ in pairs)
        if len(set(names)) != len(names):
            raise LayoutError(f"duplicate register names in {list(names)}")
        if not pairs or any(w < 1 for _, w in pairs):
            raise LayoutError("every register needs width >= 1")
        total = sum(w for _, w in pairs)
        if total > _MAX_QUBITS:
            raise LayoutError(f"layout has {total} > {_MAX_QUBITS} qubits")
        positions, start = {}, 0
        for n, w in pairs:
            positions[n], start = tuple(range(start, start + w)), start + w
        # The geometry is set once, here; equality, hash and repr read ``groups`` only.
        self.__dict__.update(
            groups=pairs, total_qubits=total, dim=1 << total, names=names, _positions=positions
        )

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
        self.index_of_label(label)
        pos = self.qubit_positions(register)
        return "".join(label[p] for p in pos)


class StateVector(Record):
    """A unit vector over a layout's basis: its squared magnitudes sum to 1 within ATOL_STATE."""

    def __init__(self, layout: RegisterLayout, amps: np.ndarray):
        _check_layout(layout)
        amps = _complex_array(amps, DegenerateStateError, "state")
        if amps.shape != (layout.dim,):
            raise LayoutError(
                f"amplitude array has shape {amps.shape}, layout needs ({layout.dim},)"
            )
        # A NaN or inf amplitude makes norm2 NaN or inf and fails it too; vdot never warns.
        norm2 = np.vdot(amps, amps).real
        if not abs(norm2 - 1.0) <= ATOL_STATE:
            raise DegenerateStateError(f"state is not normalized (norm^2 {norm2})")
        amps.flags.writeable = False
        self.__dict__.update(layout=layout, amps=amps)

    def norm(self) -> float:
        return _norms(self.amps)

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
        _check_state(other)
        if other.layout != self.layout:
            raise LayoutError("states live on different register layouts")
        return float(np.max(np.abs(self.amps - other.amps)))

    def with_phase(self, theta: float) -> StateVector:
        """The same ray multiplied by the unit phase exp(i*theta); theta
        must be a finite real number, numpy's included."""
        if not isinstance(theta, numbers.Real) or not abs(theta) < np.inf:
            raise DegenerateStateError(f"phase {theta!r} is not finite or not real")
        try:  # float() keeps a float32 phase from rounding exp() to single precision
            phase = np.exp(1j * float(theta))
        except OverflowError:  # an int or Fraction past float range
            raise DegenerateStateError("phase is not finite as a float") from None
        return StateVector(self.layout, phase * self.amps)


class DensityMatrix(Record):
    """Reduced state of a kept register subset.

    Constructor enforces the invariants: finite entries, Hermitian within
    1e-12, unit trace within 1e-12, and positive semidefinite (smallest
    eigenvalue >= -1e-10).
    """

    def __init__(self, layout: RegisterLayout, matrix: np.ndarray):
        _check_layout(layout)
        m = _complex_array(matrix, ValueError, "density matrix")
        d = layout.dim
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
        self.__dict__.update(layout=layout, matrix=m)

    def diagonal(self) -> np.ndarray:
        return np.real(np.diag(self.matrix))


def _check_layout(value) -> None:
    """LayoutError unless ``value`` is a ``RegisterLayout``."""
    if not isinstance(value, RegisterLayout):
        raise LayoutError(f"layout must be a RegisterLayout, got {value!r}")


def _check_state(value) -> None:
    """LayoutError unless ``value`` is a ``StateVector``, as the records
    raise for a layout of the wrong type."""
    if not isinstance(value, StateVector):
        raise LayoutError(f"expected a StateVector, got {value!r}")


def basis_state(layout: RegisterLayout, label: str) -> StateVector:
    """The computational basis vector named by ``label``."""
    _check_layout(layout)
    amps = np.zeros(layout.dim, dtype=np.complex128)
    amps[layout.index_of_label(label)] = 1.0
    return StateVector(layout, amps)


def superpose(
    terms: Iterable[tuple[complex, str]], layout: RegisterLayout
) -> StateVector:
    """Normalized superposition of weighted basis labels.

    Weights are relative; repeated labels accumulate.  Each weight is first
    divided by the largest real or imaginary part of any weight, so no sum
    overflows and a lone tiny weight names its label.  Raises LayoutError
    if ``terms`` is not iterable, or naming the first term that is no
    (weight, label) pair; DegenerateStateError for a weight that is not a
    finite number, or when the scaled weights cancel to (numerically) nothing.
    """
    _check_layout(layout)
    pairs = []
    try:
        for weight, label in terms:
            pairs.append((weight, label))
    except (TypeError, ValueError):
        if not np.iterable(terms):
            raise LayoutError(f"superposition terms {terms!r} are not iterable") from None
        raise LayoutError(f"superposition term {len(pairs)} is no (weight, label) pair") from None
    if not all(isinstance(weight, numbers.Complex) for weight, _ in pairs):
        raise DegenerateStateError("a superposition weight is not a number")
    parts = [abs(p) for weight, _ in pairs for p in (weight.real, weight.imag)]
    if not all(p < np.inf for p in parts):
        raise DegenerateStateError("a superposition weight is not finite")
    peak = max(parts, default=0.0) or 1.0  # all-zero weights stay zero for the norm test
    amps = np.zeros(layout.dim, dtype=np.complex128)
    for weight, label in pairs:
        amps[layout.index_of_label(label)] += weight / peak
    norm = _norms(amps)
    if not norm >= ATOL_STATE:
        raise DegenerateStateError(f"superposition weights cancel (scaled norm {norm})")
    return StateVector(layout, amps / norm)


def _complex_array(values, error: type[Exception], what: str) -> np.ndarray:
    """``values`` as a new complex128 array; ``error`` names ``what`` if numpy cannot."""
    try:
        return np.array(values, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} is not an array of complex numbers ({exc})") from None


def _validate_unitary(u: np.ndarray, n_targets: int, stack: bool = False) -> np.ndarray:
    """``u`` as a new read-only matrix on ``n_targets`` qubits, or as an (m, d, d) ``stack``."""
    u = _complex_array(u, UnitarityError, "matrix")
    dim = 1 << n_targets
    if u.shape != ((len(u), dim, dim) if stack else (dim, dim)):
        raise LayoutError(
            f"matrix shape {u.shape} does not match {n_targets} target qubits"
        )
    # A unitary's entries are at most 1 in magnitude, so this one reduction
    # rejects NaN, inf and any entry large enough to overflow U†U.
    peak = np.abs(u).max()
    if not peak <= 1 + ATOL_MATRIX:
        raise UnitarityError(f"matrix is not unitary (entry magnitude {peak:.3e})")
    gram = (u.conj().swapaxes(-1, -2) if stack else u.conj().T) @ u
    gram -= _identity(dim)  # in place: for a stack, the largest temporary
    defect = np.abs(gram).max()
    if not defect <= ATOL_MATRIX:
        raise UnitarityError(f"matrix is not unitary (defect {defect:.3e})")
    u.flags.writeable = False
    return u


@lru_cache(maxsize=16)
def _identity(dim: int) -> np.ndarray:
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


@lru_cache(maxsize=256)
def _index_table(n: int, targets: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The one place the bit convention is encoded: a read-only (2^k, 2^n/2^k)
    table whose row v holds the basis indices of n qubits where ``targets``
    read v, first target most significant, in index order; its inverse,
    the place of each basis index in the flattened table; and the place of
    each in the flattened transposed table, where ``_Layer`` leaves it."""
    rest = [q for q in range(n) if q not in targets]
    table = np.arange(1 << n).reshape((2,) * n).transpose((*targets, *rest))
    table = table.reshape(1 << len(targets), -1)
    inverse, rotated = np.argsort(table, axis=None), np.argsort(table.T, axis=None)
    for index in (table, inverse, rotated):
        index.flags.writeable = False
    return table, inverse, rotated


def _outcome_indices(layout: RegisterLayout, register: str) -> np.ndarray:
    """``_index_table`` of ``register``'s qubits: row v is where it reads v."""
    return _index_table(layout.total_qubits, layout.qubit_positions(register))[0]


def _checked_targets(targets: Sequence[int], n_qubits: int) -> tuple[tuple[int, ...], int]:
    """``targets`` as a tuple of distinct ints in range(``n_qubits``), and
    ``n_qubits`` as an int; LayoutError otherwise."""
    targets = tuple(targets) if np.iterable(targets) else targets
    if not isinstance(targets, tuple) or not all(map(_is_int, (*targets, n_qubits))):
        raise LayoutError(f"targets {targets} and qubit count {n_qubits!r} must be integers")
    targets, n_qubits = tuple(map(int, targets)), int(n_qubits)
    if len(set(targets)) != len(targets):
        raise LayoutError(f"duplicate target qubits {targets}")
    if any(t < 0 or t >= n_qubits for t in targets):
        raise LayoutError(f"targets {targets} out of range for {n_qubits} qubits")
    return targets, n_qubits


class Op:
    """One unitary gate on fixed targets of an n-qubit register.

    It is checked once, here: the targets, then U†U against the identity
    within 1e-10.  The op keeps a read-only copy of its matrix, and what was
    checked cannot be rebound, so nothing the caller does later changes it.
    """

    _CHECKED = ("targets", "n_qubits", "matrix")

    def __init__(self, matrix, targets: Sequence[int], n_qubits: int):
        targets, n_qubits = _checked_targets(targets, n_qubits)
        self._bind(targets, n_qubits, _validate_unitary(matrix, len(targets)))

    def _bind(self, *values) -> None:
        """Set the checked attributes, in ``_CHECKED`` order, the one time."""
        for name, value in zip(type(self)._CHECKED, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        if name in type(self)._CHECKED:
            raise AttributeError(f"{type(self).__name__}.{name} was checked when the op was built")
        super().__setattr__(name, value)

    def apply(self, state: StateVector) -> StateVector:
        """The op on ``state``, identity on every other qubit."""
        _check_state(state)
        if state.layout.total_qubits != self.n_qubits:
            raise LayoutError(f"op needs {self.n_qubits} qubits, not {state.layout.total_qubits}")
        return StateVector(state.layout, _evolve(state.amps, (self,)))

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """The op on each row of a (..., 2^n) amplitude array, unchecked.
        Any axes before the last are a batch.

        The targets' index table gathers each row into a (2^k, 2^n/2^k)
        block whose row v reads v on the targets, ``matrix @ block`` runs one
        product per row, and a take through the table's inverse puts each
        amplitude back at its index (numpy's fancy-index scatter is up to
        2.5x slower on a batch).
        """
        table, inverse, _ = _index_table(self.n_qubits, self.targets)
        return (self.matrix @ rows.take(table, -1)).reshape(rows.shape).take(inverse, -1)

    def inverse(self) -> Op:
        """The conjugate transpose."""
        return type(self)(self.matrix.conj().T, self.targets, self.n_qubits)


class _Layer(Op):
    """One 2x2 unitary U on each of several targets, U^(x)k, as a single op.

    Its ``matrix`` is the factor U, checked once; ``inverse()`` is the layer
    of U†.  A layer costs one gather, k products and one scatter, and
    ``_evolve`` checks its norm drift once, as for any op.
    """

    def __init__(self, factor, targets: Sequence[int], n_qubits: int):
        targets, n_qubits = _checked_targets(targets, n_qubits)
        self._bind(targets, n_qubits, _validate_unitary(factor, 1))

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """The layer on each row of a (..., 2^n) amplitude array, unchecked.

        The index table gathers each row into a block whose leading axes
        are the targets, first target first.  Each step multiplies the
        leading axis by U and moves it last; so a Hadamard layer gives the
        one-target ops' amplitudes bit for bit, while a complex U may round
        differently in the last place.  After k steps the block is the
        table's transpose, which the table's rotated inverse scatters back.
        """
        table, _, rotated = _index_table(self.n_qubits, self.targets)
        lead, ut = rows.shape[:-1], self.matrix.T
        block = rows.take(table, -1)
        for _ in self.targets:
            block = block.reshape(*lead, 2, -1).swapaxes(-1, -2) @ ut
        return block.reshape(rows.shape).take(rotated, -1)


def _evolve(rows: np.ndarray, ops: Iterable[Op]) -> np.ndarray:
    """Each op in turn on every row of a (..., 2^n) amplitude array, by
    ``apply_rows``, checked after each op: UnitarityError if the op moved a
    row's norm from its norm before that op by more than ATOL_STATE, or by
    NaN.  A single state (a 1-D array) costs one dot product per op and its
    drift is a float; a batch's drift is per row, with the same bound and
    the same NaN rule.  A row whose norm is not finite is rejected before
    the first op."""
    single = rows.ndim == 1
    norms = _norms(rows)
    # Rejected here, an inf never reaches an op's product, where numpy warns.
    if not (norms if single else norms.max()) < math.inf:
        raise UnitarityError("amplitudes have a non-finite norm before the first op")
    for op in ops:
        rows = op.apply_rows(rows)
        before, norms = norms, _norms(rows)
        drift = abs(norms - before) if single else abs(norms - before).max()
        if not drift <= ATOL_STATE:
            raise UnitarityError(f"unitary application drifted the norm by {drift:.3e}")
    return rows


def _norms(rows: np.ndarray) -> float | np.ndarray:
    """A 1-D state's norm as a float, by one ``vdot``; a batch's row norms,
    by one ``einsum``.  Neither warns on an inf or NaN amplitude."""
    if rows.ndim == 1:
        return math.sqrt(np.vdot(rows, rows).real)
    return np.sqrt(np.einsum("...i,...i->...", rows.conj(), rows).real)


def apply_unitary(
    state: StateVector, u: np.ndarray, targets: Sequence[int]
) -> StateVector:
    """Apply ``u`` to ``targets``, identity on every other qubit."""
    _check_state(state)
    return Op(u, targets, state.layout.total_qubits).apply(state)


def partial_trace(state: StateVector, keep: str) -> DensityMatrix:
    """Reduced density matrix of register ``keep``, tracing out the rest."""
    _check_state(state)
    width = state.layout.width(keep)
    m = state.amps[_outcome_indices(state.layout, keep)]
    return DensityMatrix(RegisterLayout(((keep, width),)), m @ m.conj().T)
