"""Exception types raised by the simulator."""


class SimulatorError(Exception):
    """Base class for all deutschsim errors."""


class LayoutError(SimulatorError):
    """Register layout problem: unknown register, bad label length, bad targets."""


class DegenerateStateError(SimulatorError):
    """A state without unit norm, weights that cancel, or a phase that is not finite and real."""


class UnitarityError(SimulatorError):
    """Matrix that is not unitary, or an operator that drifts the norm."""


class ImpossibleOutcomeError(SimulatorError):
    """Projective measurement conditioned on a zero-probability outcome."""


class BlockDiagonalityError(SimulatorError):
    """Circuit does not preserve the deferred register's basis, so the
    deferred-measurement equivalence claim would be unsound to assert."""


class BlockStructureError(SimulatorError):
    """Readout register is not deterministic within a setting block."""


class PromiseViolationError(SimulatorError):
    """Function is neither constant nor balanced."""


class FunctionFormatError(SimulatorError):
    """Malformed function-table text."""
