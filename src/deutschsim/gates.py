"""Unitaries for oracle problems: Hadamard and black-box function evaluation.

A black box |a,v> -> |a, v xor f(a)> permutes basis indices, so its native
form is one index array, perm[j] = j xor f(j >> 1), that the drivers apply
by gather and check exactly as a self-inverse permutation.
``oracle_fixed`` and ``oracle_with_setting`` scatter that array into the
dense 0/1 matrix for callers that expand or check matrices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import FunctionFormatError, IncompleteOracleError

SQRT2 = np.sqrt(2.0)


def hadamard() -> np.ndarray:
    """2x2 transform sending |0> to (|0>+|1>)/sqrt(2) and |1> to (|0>-|1>)/sqrt(2)."""
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / SQRT2


class Classification(enum.Enum):
    CONSTANT = "constant"
    BALANCED = "balanced"
    NEITHER = "neither"


def _integer(v) -> int | None:
    """``int(v)`` for the text "0" or "1" or a number equal to an integer,
    else None; int(0.9) would truncate, and int(inf) and int(nan) raise.
    Other text raises ValueError: int() would also read "0_1", "+1", "-0"
    and full-width or other non-ASCII digits as 0/1 values."""
    if isinstance(v, str):
        text = v.strip()
        if text not in ("0", "1"):
            raise ValueError(f"function value {text!r} is not 0 or 1")
        return int(text)
    try:
        i = int(v)
    except (OverflowError, ValueError):
        return None
    return i if v == i else None


def _validate_values(values: Sequence[int]) -> tuple[int, ...]:
    vals = tuple(_integer(v) for v in values)
    if None in vals:
        raise ValueError(f"function values must be integers, got {list(values)}")
    if any(v not in (0, 1) for v in vals):
        raise ValueError(f"function values must be 0 or 1, got {vals}")
    m = len(vals)
    if m < 2 or m & (m - 1):
        raise ValueError(f"value list length {m} is not a power of two >= 2")
    return vals


def _classification(vals: tuple[int, ...]) -> Classification:
    ones = sum(vals)
    if ones in (0, len(vals)):
        return Classification.CONSTANT
    if 2 * ones == len(vals):
        return Classification.BALANCED
    return Classification.NEITHER


def classify_function(values: Sequence[int]) -> Classification:
    """Constant if all outputs equal, balanced if exactly half are 1, else neither."""
    return _classification(_validate_values(values))


@dataclass(frozen=True)
class FunctionTable:
    """One boolean function of ``arg_bits`` arguments per setting label.

    ``settings[b][a]`` is the function value f_b(a); every value list has
    length ``2 ** arg_bits``.
    """

    arg_bits: int
    settings: Mapping[str, tuple[int, ...]]

    def __post_init__(self) -> None:
        if self.arg_bits < 1:
            raise ValueError("arg_bits must be >= 1")
        if not self.settings:
            raise FunctionFormatError("function table has no settings")
        settings = {}
        widths = set()
        for label, values in self.settings.items():
            if set(label) - {"0", "1"} or not label:
                raise FunctionFormatError(f"setting label {label!r} is not a bitstring")
            widths.add(len(label))
            vals = _validate_values(values)
            if len(vals) != 1 << self.arg_bits:
                raise FunctionFormatError(
                    f"setting {label!r} lists {len(vals)} values, "
                    f"need {1 << self.arg_bits}"
                )
            settings[label] = vals
        if len(widths) != 1:
            raise FunctionFormatError(f"setting labels mix widths {sorted(widths)}")
        object.__setattr__(self, "settings", settings)

    @property
    def setting_bits(self) -> int:
        return len(next(iter(self.settings)))

    @classmethod
    def canonical(cls) -> FunctionTable:
        """The four one-bit functions: two constant, two balanced."""
        return cls(
            arg_bits=1,
            settings={
                "00": (0, 0),
                "01": (0, 1),
                "10": (1, 0),
                "11": (1, 1),
            },
        )


def parse_function_table(text: str) -> FunctionTable:
    """Parse the text format: one ``<label>: <comma-separated 0/1 values>`` per line.

    The argument width is inferred from the value-list length, which must be
    a power of two.  Blank lines and ``#`` comments are ignored.
    """
    settings: dict[str, tuple[int, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        label, sep, rest = line.partition(":")
        if not sep:
            raise FunctionFormatError(f"line {lineno}: missing ':' in {raw!r}")
        label = label.strip()
        try:
            values = _validate_values(rest.split(","))
        except ValueError as exc:
            raise FunctionFormatError(f"line {lineno}: {exc}") from None
        if label in settings:
            raise FunctionFormatError(f"line {lineno}: duplicate label {label!r}")
        settings[label] = values
    if not settings:
        raise FunctionFormatError("no function definitions found")
    lengths = {len(values) for values in settings.values()}
    if len(lengths) != 1:
        raise FunctionFormatError(f"value lists mix lengths {sorted(lengths)}")
    n = lengths.pop().bit_length() - 1
    return FunctionTable(arg_bits=n, settings=settings)


def _permutation(vals: Sequence[int]) -> np.ndarray:
    """The black box |a,v> -> |a, v xor f(a)> of validated values as an
    index array: basis index j goes to perm[j] = j xor f(j >> 1), with the
    argument bits then the value bit, big endian."""
    vals = np.array(vals, dtype=np.intp)
    cols = np.arange(2 * vals.size)
    return cols ^ vals[cols >> 1]


def _setting_values(table: FunctionTable) -> tuple[int, ...]:
    """The values of g(b||a) = f_b(a): the settings' value lists
    concatenated in label order.  Every label of the width must be set."""
    w = table.setting_bits
    if len(table.settings) != 1 << w:
        missing = sorted(
            set(format(i, f"0{w}b") for i in range(1 << w)) - set(table.settings)
        )
        raise IncompleteOracleError(f"settings missing labels {missing}")
    return tuple(v for b in sorted(table.settings) for v in table.settings[b])


def oracle_fixed(values: Sequence[int]) -> np.ndarray:
    """Black box for one function: permutation matrix of |a,v> -> |a, v xor f(a)>.

    Basis order is argument bits then value bit, big endian.
    """
    perm = _permutation(_validate_values(values))
    u = np.zeros((perm.size, perm.size), dtype=np.complex128)
    u[perm, np.arange(perm.size)] = 1.0
    return u


def oracle_with_setting(table: FunctionTable) -> np.ndarray:
    """Function evaluation keyed by the setting register.

    Permutation matrix on the (setting, argument, value) basis mapping
    |b,a,v> -> |b,a, v xor f_b(a)>; the setting and argument bits pass
    through unaltered.  That is the fixed oracle of g(b||a) = f_b(a).
    """
    return oracle_fixed(_setting_values(table))
