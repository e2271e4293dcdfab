"""Property-based checks, each judged against a reference made here: the
Deutsch-Jozsa verdict on drawn promise functions against a count of ones,
its stages against a gate-by-gate pipeline, the oracle index array of drawn
function tables against one built bit by bit, the deferred-measurement
precondition on drawn ops against a dense expansion built with np.kron and
int(label, 2) arithmetic, value validation against a per-value pass, and
the exit code of `dj --function-file` on drawn file text.  Last, that a
failing property test is reported as a failure under this suite's settings."""

import contextlib
import io
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from deutschsim import (
    CANONICAL_LAYOUT,
    BlockDiagonalityError,
    Classification,
    CountedOracle,
    FunctionTable,
    RegisterLayout,
    StateVector,
    deferred_equivalence,
    run_deutsch_jozsa,
)
from deutschsim.cli import main
from deutschsim.deutsch import _run_pipeline
from deutschsim.gates import _integer, _permutation, _validate_values

from conftest import brute_oracle, haar_unitary, random_state_vector
from test_deutsch import assert_same_stages, per_gate_stages

# Qubit positions of each canonical register in the 4-bit label (B B A V).
REGISTER_BITS = {"B": (0, 1), "A": (2,), "V": (3,)}


@st.composite
def promise_functions(draw, max_bits: int = 5) -> list[int]:
    """A constant or balanced value list on 1 to ``max_bits`` argument bits."""
    m = 1 << draw(st.integers(min_value=1, max_value=max_bits))
    if draw(st.booleans()):
        return [draw(st.integers(min_value=0, max_value=1))] * m
    ones = set(draw(st.permutations(range(m)))[: m // 2])
    return [int(a in ones) for a in range(m)]


@settings(deadline=None, derandomize=True, database=None)
@given(promise_functions())
def test_deutsch_jozsa_verdict_matches_count_of_ones(values):
    ones = sum(values)
    if ones in (0, len(values)):
        expected, bit = Classification.CONSTANT, 0
    else:
        assert 2 * ones == len(values)
        expected, bit = Classification.BALANCED, 1
    verdict = run_deutsch_jozsa(values)
    assert verdict.classification is expected
    assert verdict.outcome_bit == bit
    assert verdict.evaluations_used == 1


@settings(deadline=None, derandomize=True, database=None, max_examples=40)
@given(promise_functions(max_bits=8))
def test_deutsch_jozsa_stages_equal_gate_by_gate_pipeline(values):
    n = len(values).bit_length() - 1
    layout = RegisterLayout((("A", n), ("V", 1)))
    labels = ["0" * n + "1"]
    assert_same_stages(
        _run_pipeline(layout, labels, CountedOracle(_permutation(values))),
        per_gate_stages(layout, labels, brute_oracle(values)),
    )


def per_value_validation(values) -> tuple[int, ...]:
    """Every value through ``_integer``, then the 0/1 and length checks."""
    vals = tuple(_integer(v) for v in values)
    if None in vals:
        raise ValueError(f"function values must be integers, got {list(values)}")
    if any(v not in (0, 1) for v in vals):
        raise ValueError(f"function values must be 0 or 1, got {vals}")
    m = len(vals)
    if m < 2 or m & (m - 1):
        raise ValueError(f"value list length {m} is not a power of two >= 2")
    return vals


VALUE_KINDS = {
    "int": st.one_of(st.integers(0, 1), st.integers(0, 1), st.sampled_from([-1, 2, 10**30])),
    "bool": st.booleans(),
    "float": st.sampled_from([0.0, 1.0, -0.0, 0.9, 2.0, float("nan"), float("inf"), -float("inf")]),
    "str": st.sampled_from(["0", "1", " 1 ", "2", "x", "0_1", "+1", ""]),
}


@st.composite
def value_sequences(draw):
    """A list, tuple or numpy array of one kind of value or a mix, of a
    power-of-two length or another."""
    kind = draw(st.sampled_from([*VALUE_KINDS, "mixed"]))
    items = st.one_of(*VALUE_KINDS.values()) if kind == "mixed" else VALUE_KINDS[kind]
    length = draw(st.sampled_from([0, 1, 2, 3, 4, 6, 8, 16]))
    values = draw(st.lists(items, min_size=length, max_size=length))
    return draw(st.sampled_from([list, tuple, np.array]))(values)


def outcome(validate, values):
    try:
        return validate(values)
    except Exception as exc:
        return type(exc), str(exc)


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(value_sequences())
def test_value_validation_matches_the_per_value_pass(values):
    got = outcome(_validate_values, values)
    assert got == outcome(per_value_validation, values)
    if not isinstance(got[0], type):
        assert all(type(v) is int for v in got)


@st.composite
def function_tables(draw) -> FunctionTable:
    """A complete table with 1 to 3 setting bits and 1 to 3 argument bits."""
    w = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=3))
    values = st.lists(st.integers(0, 1), min_size=1 << n, max_size=1 << n)
    settings = {format(b, f"0{w}b"): tuple(draw(values)) for b in range(1 << w)}
    table = FunctionTable(settings)
    assert table.arg_bits == n
    return table


@settings(deadline=None, derandomize=True, database=None)
@given(function_tables())
def test_oracle_permutation_is_self_inverse_and_scatters_to_the_matrix(table):
    # The setting-keyed oracle is the fixed oracle of g(b||a) = f_b(a).
    n, w = table.arg_bits, len(next(iter(table.settings)))
    perm = _permutation([v for b in sorted(table.settings) for v in table.settings[b]])
    expected = []
    for i in range(perm.size):
        b, a, v = i >> (n + 1), (i >> 1) & ((1 << n) - 1), i & 1
        f = table.settings[format(b, f"0{w}b")][a]
        expected.append((b << (n + 1)) | (a << 1) | (v ^ f))
    assert perm.tolist() == expected
    assert np.array_equal(perm[perm], np.arange(perm.size))
    oracle = CountedOracle(perm)  # its own exact bijection and involution checks
    # The matrix an op is judged by (its action on each basis state) is
    # the scatter u[perm[j], j] = 1.
    u = np.zeros((perm.size, perm.size))
    u[perm, np.arange(perm.size)] = 1.0
    assert np.array_equal(oracle.apply_rows(np.eye(perm.size)).T, u)


@st.composite
def canonical_ops(draw) -> tuple[np.ndarray, tuple[int, ...]]:
    """One op on 1 to 4 distinct canonical qubits in any order, whose matrix
    is a permutation, a diagonal of phases or a Haar-random unitary."""
    k = draw(st.integers(min_value=1, max_value=4))
    targets = tuple(draw(st.permutations(range(4)))[:k])
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    d = 1 << k
    kind = draw(st.sampled_from(["permutation", "phases", "haar"]))
    if kind == "permutation":
        u = np.eye(d, dtype=np.complex128)[list(draw(st.permutations(range(d))))]
    elif kind == "phases":
        u = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, d)))
    else:
        u = haar_unitary(d, rng)
    return u, targets


def dense_leak(u: np.ndarray, targets: tuple[int, ...], register: str) -> float:
    """Largest entry of the 16x16 expansion of ``u`` linking two basis labels
    whose ``register`` bits differ."""
    rest = tuple(q for q in range(4) if q not in targets)
    kron = np.kron(u, np.eye(1 << len(rest)))
    labels = [format(i, "04b") for i in range(16)]

    def reordered(label: str) -> int:
        return int("".join(label[q] for q in targets + rest), 2)

    def register_value(label: str) -> int:
        return int("".join(label[q] for q in REGISTER_BITS[register]), 2)

    leak = 0.0
    for row, col in itertools.product(labels, labels):
        if register_value(row) != register_value(col):
            leak = max(leak, abs(kron[reordered(row), reordered(col)]))
    return leak


@settings(deadline=None, derandomize=True, database=None)
@given(canonical_ops(), st.sampled_from(["B", "A", "V"]), st.integers(0, 2**32 - 1))
def test_deferred_equivalence_rejects_exactly_the_leaking_ops(op, register, seed):
    amps = random_state_vector(16, np.random.default_rng(seed))
    initial = StateVector(CANONICAL_LAYOUT, amps)
    if dense_leak(*op, register) > 1e-12:
        with pytest.raises(BlockDiagonalityError):
            deferred_equivalence([op], initial, register)
    else:
        assert deferred_equivalence([op], initial, register).equivalent


# Value tokens: the two valid ones, padded ones, and junk that int() or a
# looser parser would read as 0 or 1.
VALUE_TOKENS = ("0", "1", " 0", "1 ", "", "2", "x", "+1", "-0", "0_1", "1.0", "\uff10", "\u0661")


@st.composite
def function_file_texts(draw) -> str:
    """Function-file text, mostly well formed so that every exit code is
    reached: w-bit labels (duplicates included) or junk ones, ':' or other
    separators, value lists of the file's length (512 and 1024 past the
    argument cap) or of another length or of junk tokens, blank lines and
    '#' comments."""
    w = draw(st.integers(min_value=1, max_value=2))
    m = draw(st.sampled_from([2, 2, 4, 4, 8, 8, 512, 1024]))
    bits = st.sampled_from(["0", "1"])
    labels = st.one_of(
        *[st.sampled_from([format(b, f"0{w}b") for b in range(1 << w)])] * 3,
        st.text(max_size=3),
    )
    if m > 8:
        entries = st.sampled_from([["0"] * m, ["1"] * m, ["0", "1"] * (m // 2)])
    else:
        entries = st.lists(bits, min_size=m, max_size=m)
    value_lists = {
        "entry": entries,
        "other_length": st.lists(bits, min_size=1, max_size=9),
        "junk": st.lists(st.sampled_from(VALUE_TOKENS), max_size=9),
    }
    kinds = ["entry"] * 8 + ["other_length", "junk", "blank", "comment"]
    lines = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == "comment":
            lines.append("#" + draw(st.text(max_size=8)))
        else:
            sep = draw(st.sampled_from([":"] * 12 + [": ", " : ", "", "::", ";"]))
            joiner = draw(st.sampled_from([","] * 12 + [", ", " ,", ";", " "]))
            values = joiner.join(draw(value_lists[kind]))
            lines.append(draw(labels) + sep + values)
    return "\n".join(lines)


@settings(deadline=None, derandomize=True, database=None)
@given(function_file_texts())
def test_function_file_exits_0_2_or_3_and_never_raises(text):
    # Hypothesis rejects function-scoped fixtures such as tmp_path, so each
    # drawn text gets its own temporary directory here.
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["dj", "--function-file", path])
    assert code in (0, 2, 3)
    assert bool(err.getvalue()) == (code != 0)


FAILING_AND_PASSING = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_property_is_reported_and_later_tests_run(tmp_path):
    # Hypothesis imports libcst to report a falsifying example, and that
    # import warns; under the suite's warnings-as-errors setting it must not
    # become an INTERNALERROR that ends the run.
    (tmp_path / "test_two.py").write_text(FAILING_AND_PASSING, encoding="utf-8")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in run.stdout and "Falsifying example" in run.stdout
