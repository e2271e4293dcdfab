"""Record contract: each of the twelve immutable records is a plain class that
keeps the fields, construction, immutability, equality, hashing and repr of a
frozen dataclass with the same fields, which the test builds as a reference."""

import dataclasses
import inspect

import numpy as np
import pytest

from deutschsim import (
    CANONICAL_LAYOUT,
    BranchReport,
    DeferredEquivalenceReport,
    DensityMatrix,
    FunctionTable,
    MeasurementRecord,
    OutcomeDistribution,
    RegisterLayout,
    RhoInvarianceReport,
    StageTrace,
    StateVector,
    Verdict,
    deferred_equivalence,
    deutsch_circuit,
    measure,
    outcome_distribution,
    parse_function_table,
    partial_trace,
    rho_B_invariance,
    run_deutsch,
    run_deutsch_superposed,
)
from deutschsim.verify import CheckResult

# Field names in order, as the records declared them when they were frozen
# dataclasses.
FIELDS = {
    RegisterLayout: ("groups",),
    StateVector: ("layout", "amps"),
    DensityMatrix: ("layout", "matrix"),
    FunctionTable: ("settings",),
    OutcomeDistribution: ("register", "probs"),
    MeasurementRecord: ("register", "outcome", "probability", "post_state"),
    BranchReport: (
        "outcome",
        "probability_project_first",
        "probability_project_last",
        "state_project_first",
        "state_project_last",
        "max_deviation",
    ),
    DeferredEquivalenceReport: ("register", "branches", "max_deviation"),
    StageTrace: ("stages",),
    Verdict: ("outcome_bit", "classification", "evaluations_used"),
    RhoInvarianceReport: (
        "basis_state_input",
        "stage_rhos",
        "max_full_deviation",
        "max_diagonal_deviation",
        "off_diagonal_deviation",
    ),
    CheckResult: ("name", "passed", "deviation", "bound", "detail"),
}

parametrize_records = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)


@pytest.fixture(scope="module")
def records():
    """Two records of each class, made by the package from different inputs."""
    trace_01, verdict_01 = run_deutsch("01")
    trace_00, verdict_00 = run_deutsch("00")
    superposed = run_deutsch_superposed()
    report = deferred_equivalence(deutsch_circuit(), superposed.state("input"), "B")
    return {
        RegisterLayout: (CANONICAL_LAYOUT, RegisterLayout((("A", 2), ("V", 1)))),
        StateVector: (trace_01.final, trace_00.final),
        DensityMatrix: (partial_trace(trace_01.final, "B"), partial_trace(superposed.final, "B")),
        FunctionTable: (FunctionTable.canonical(), parse_function_table("0: 0,1\n1: 1,1")),
        OutcomeDistribution: (
            outcome_distribution(trace_01.final, "A"),
            outcome_distribution(superposed.final, "B"),
        ),
        MeasurementRecord: (
            measure(superposed.final, "B", "01"),
            measure(superposed.final, "B", "10"),
        ),
        BranchReport: report.branches[:2],
        DeferredEquivalenceReport: (
            report,
            deferred_equivalence(deutsch_circuit(), trace_01.state("input"), "B"),
        ),
        StageTrace: (trace_01, trace_00),
        Verdict: (verdict_01, verdict_00),
        RhoInvarianceReport: (rho_B_invariance(trace_01), rho_B_invariance(superposed)),
        CheckResult: (
            CheckResult("first", True, 0.0, 1e-12),
            CheckResult("second", False, 1.0, 1e-12, "why"),
        ),
    }


def values_of(record) -> tuple:
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


def outcome(fn):
    """What ``fn()`` gives: its value, or the type of what it raises."""
    try:
        return "value", fn()
    except Exception as exc:  # the type of what it raises is the result
        return "raises", type(exc)


@parametrize_records
def test_signature_names_the_fields_in_order(cls):
    assert tuple(inspect.signature(cls).parameters) == FIELDS[cls]


@parametrize_records
def test_built_by_position_and_by_keyword(records, cls):
    for record in records[cls]:
        values = values_of(record)
        for built in (cls(*values), cls(**dict(zip(FIELDS[cls], values)))):
            assert type(built) is cls
            for got, want in zip(values_of(built), values):
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype and np.array_equal(got, want)
                else:
                    assert got is want or got == want
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(*values, unknown=None)


def test_check_result_detail_defaults_to_empty():
    assert CheckResult("name", True, 0.0, 1.0).detail == ""


@parametrize_records
def test_fields_cannot_be_set_or_deleted(records, cls):
    record = records[cls][0]
    for name, value in zip(FIELDS[cls], values_of(record)):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = None


@parametrize_records
def test_equality_hash_and_repr_as_a_frozen_dataclass(records, cls):
    reference = dataclasses.make_dataclass(cls.__name__, FIELDS[cls], frozen=True)
    first, second = records[cls]
    twin = cls(*values_of(first))
    pairs = [(first, first), (first, twin), (twin, first), (first, second), (second, first)]
    for a, b in pairs:
        ref_a, ref_b = reference(*values_of(a)), reference(*values_of(b))
        assert outcome(lambda: a == b) == outcome(lambda: ref_a == ref_b)
        assert outcome(lambda: a != b) == outcome(lambda: ref_a != ref_b)
    assert first != object() and not first == object()
    got = outcome(lambda: hash(first))
    want = outcome(lambda: hash(reference(*values_of(first))))
    assert got[0] == want[0] and (got[0] == "value" or got == want)
    if got[0] == "value":
        assert hash(twin) == hash(first) and {first: 1}[twin] == 1
    assert repr(first) == repr(reference(*values_of(first)))
