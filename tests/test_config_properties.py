"""Property tests: every numeric GenerationConfig field is validated.

``None``, NaN, non-numeric values and booleans must raise a
``ValueError`` that names the field, at construction and through
``replace``; valid values must construct.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GenerationConfig
from repro.cost import CostWeights

#: Integer fields with the smallest value each accepts.
INT_FIELDS = {
    "k_assignments": 1,
    "max_walk_steps": 1,
    "max_iterations": 0,
    "seed": None,  # any integer
    "final_cap": 1,
}
#: Real-valued fields (``time_budget_s`` also accepts ``inf``).
FLOAT_FIELDS = ("time_budget_s", "exploration_c")
WEIGHT_FIELDS = ("m", "u", "steiner", "effort")

non_numbers = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=5),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    st.just(object()),
    st.complex_numbers(allow_nan=False, allow_infinity=False).filter(lambda z: z.imag != 0),
)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(INT_FIELDS) + list(FLOAT_FIELDS)), value=non_numbers)
def test_non_numeric_values_name_the_field(name, value):
    with pytest.raises(ValueError, match=name):
        GenerationConfig(**{name: value})
    with pytest.raises(ValueError, match=name):
        GenerationConfig().replace(**{name: value})


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(INT_FIELDS)),
    value=st.floats(allow_nan=True, allow_infinity=True),
)
def test_integer_fields_reject_floats(name, value):
    with pytest.raises(ValueError, match=name):
        GenerationConfig(**{name: value})


@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_nan_is_rejected(name):
    with pytest.raises(ValueError, match=name):
        GenerationConfig(**{name: float("nan")})


def test_infinite_budget_means_no_time_stop_but_infinite_c_is_rejected():
    assert GenerationConfig(time_budget_s=math.inf).time_budget_s == math.inf
    with pytest.raises(ValueError, match="exploration_c"):
        GenerationConfig(exploration_c=math.inf)


def test_none_budget_with_iteration_cap_is_a_value_error():
    with pytest.raises(ValueError, match="time_budget_s"):
        GenerationConfig(time_budget_s=None, max_iterations=5)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(WEIGHT_FIELDS),
    value=st.one_of(non_numbers, st.sampled_from([math.nan, math.inf, -math.inf])),
)
def test_weight_fields_are_checked(name, value):
    weights = CostWeights(**{name: value})
    with pytest.raises(ValueError, match=f"weights.{name}"):
        GenerationConfig(weights=weights)


def test_weights_must_be_cost_weights():
    with pytest.raises(ValueError, match="weights"):
        GenerationConfig(weights={"m": 1.0})


@settings(max_examples=60, deadline=None)
@given(
    ints=st.fixed_dictionaries(
        {
            name: st.integers(min_value=low if low is not None else -(2**40), max_value=2**20)
            for name, low in INT_FIELDS.items()
        }
    ),
    budget=st.one_of(
        st.floats(min_value=0, max_value=1e6), st.integers(0, 100), st.just(math.inf)
    ),
    c=st.floats(min_value=0, max_value=100),
)
def test_valid_values_construct(ints, budget, c):
    config = GenerationConfig(time_budget_s=budget, exploration_c=c, **ints)
    for name, value in ints.items():
        assert getattr(config, name) == value
    assert config.time_budget_s == budget
