"""Property-based checks of the Deutsch-Jozsa verdict on drawn promise
functions, judged against a count of ones made here."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from deutschsim import Classification, run_deutsch_jozsa


@st.composite
def promise_functions(draw) -> list[int]:
    """A constant or balanced value list on 1 to 5 argument bits."""
    m = 1 << draw(st.integers(min_value=1, max_value=5))
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
