"""Unitaries for oracle problems: Hadamard and black-box function evaluation.

A black box |a,v> -> |a, v xor f(a)> permutes basis indices, so it exists
only as one index array, perm[j] = j xor f(j >> 1), that the drivers apply
by gather and check exactly as a self-inverse permutation.  No dense oracle
matrix is built: ``verify`` reads one off the permutation op it judges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import FunctionFormatError

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
    raw = tuple(values)
    # _integer(v) is v for a plain int, so a list of them skips the per-value pass.
    vals = raw if {*map(type, raw)} == {int} else tuple(map(_integer, raw))
    if None in vals:
        raise ValueError(f"function values must be integers, got {list(raw)}")
    if not {*vals} <= {0, 1}:
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
    """One boolean function per setting label: ``settings[b][a]`` is f_b(a).

    Every value list has the same power-of-two length ``2 ** arg_bits``, and
    every label is a bitstring of the same width.
    """

    settings: Mapping[str, tuple[int, ...]]

    def __post_init__(self) -> None:
        if not self.settings:
            raise FunctionFormatError("no function definitions found")
        settings = {label: _validate_values(v) for label, v in self.settings.items()}
        lengths = {len(values) for values in settings.values()}
        if len(lengths) != 1:
            raise FunctionFormatError(f"value lists mix lengths {sorted(lengths)}")
        for label in settings:
            if not isinstance(label, str) or not label or set(label) - {"0", "1"}:
                raise FunctionFormatError(f"setting label {label!r} is not a bitstring")
        widths = {len(label) for label in settings}
        if len(widths) != 1:
            raise FunctionFormatError(f"setting labels mix widths {sorted(widths)}")
        object.__setattr__(self, "settings", settings)

    @property
    def arg_bits(self) -> int:
        """Argument width: log2 of the common value-list length."""
        return len(next(iter(self.settings.values()))).bit_length() - 1

    @classmethod
    def canonical(cls) -> FunctionTable:
        """The four one-bit functions: two constant, two balanced."""
        return cls(
            settings={
                "00": (0, 0),
                "01": (0, 1),
                "10": (1, 0),
                "11": (1, 1),
            },
        )


def parse_function_table(text: str) -> FunctionTable:
    """Parse the text format: one ``<label>: <comma-separated 0/1 values>`` per line.

    Blank lines and ``#`` comments are ignored.  A line's own faults name its
    number; what makes a whole table valid is ``FunctionTable``'s to judge.
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
    return FunctionTable(settings)


def _permutation(vals: Sequence[int]) -> np.ndarray:
    """The black box |a,v> -> |a, v xor f(a)> of validated values as an
    index array: basis index j goes to perm[j] = j xor f(j >> 1), with the
    argument bits then the value bit, big endian."""
    vals = np.array(vals, dtype=np.intp)
    cols = np.arange(2 * vals.size)
    return cols ^ vals[cols >> 1]
