"""What the closed forms and the w search return for numpy scalars, 0-d arrays and ints,
and that they refuse arrays of two or more values.

Floats are the documented kind; these pins keep every other scalar kind on the float
body it takes today. Each value is pinned bit for bit together with its type, and each
message of a failed range test as it reads.
"""

import numpy as np
import pytest

from mub_eve import (
    DomainError,
    ProtocolSpec,
    admissible_w_interval,
    guess_probability,
    i_ab,
    i_ae,
    i_ae_optimal,
    i_d,
    lambda_d,
    optimal_w,
    phi_d,
    w_bar,
)
from oracles import golden_section_maximize

S2, S33 = ProtocolSpec(3), ProtocolSpec(3, 3)


def peak(w):
    return -(w - 0.3) ** 2


def kind(value):
    """(type name, shape, value as a float's hex), or a tuple of them for a tuple."""
    if isinstance(value, tuple):
        return tuple(kind(v) for v in value)
    return type(value).__name__, np.shape(value), float(value).hex()


def pin(case_id, call, expected):
    return pytest.param(call, expected, id=case_id)


PINNED = [
    pin("i_d-float64", lambda: i_d(np.float64(0.8), 3), ('float64', (), '0x1.ac5e35def4182p-2')),
    pin("i_d-0-d", lambda: i_d(np.array(0.8), 3), ('float64', (), '0x1.ac5e35def4182p-2')),
    pin("phi_d-float64", lambda: phi_d(np.float64(0.1), np.float64(0.85), 3),
        ('float64', (), '0x1.4c8c7e4bb6d42p-1')),
    pin("phi_d-0-d", lambda: phi_d(np.array(0.1), np.array(0.85), 3),
        ('float64', (), '0x1.4c8c7e4bb6d42p-1')),
    pin("lambda_d-float64", lambda: lambda_d(np.float64(0.85), 3), ('float64', (), '0x1.4c8c7e4bb6d42p-1')),
    pin("lambda_d-0-d", lambda: lambda_d(np.array(0.85), 3), ('float64', (), '0x1.4c8c7e4bb6d42p-1')),
    pin("i_ae-float64", lambda: i_ae(S2, np.float64(0.1), np.float64(0.85)),
        ('float64', (), '0x1.83998feca3358p-3')),
    pin("i_ae-0-d", lambda: i_ae(S2, np.array(0.1), np.array(0.85)), ('float64', (), '0x1.83998feca3358p-3')),
    pin("i_ae-three-bases-float64", lambda: i_ae(S33, np.float64(0.1), np.float64(0.5)),
        ('float64', (), '0x1.7a45b802ec37ap-4')),
    pin("i_ae-three-bases-0-d", lambda: i_ae(S33, np.array(0.1), np.array(0.5)),
        ('float64', (), '0x1.7a45b802ec37ap-4')),
    pin("optimal_w-float64", lambda: optimal_w(S2, np.float64(0.1)), ('float64', (), '0x1.b333333333333p-1')),
    pin("optimal_w-0-d", lambda: optimal_w(S2, np.array(0.1)), ('float64', (), '0x1.b333333333333p-1')),
    pin("optimal_w-three-bases-float64", lambda: optimal_w(S33, np.float64(0.1)),
        ('float', (), '-0x1.c0e7afd19515ap-4')),
    pin("optimal_w-three-bases-0-d", lambda: optimal_w(S33, np.array(0.1)),
        ('float', (), '-0x1.c0e7afd19515ap-4')),
    pin("admissible_w_interval-float64", lambda: admissible_w_interval(S2, np.float64(0.1)),
        (('float', (), '-0x1.ffffffeed1f41p-2'), ('float', (), '0x1.fffffff768fa1p-1'))),
    pin("admissible_w_interval-0-d", lambda: admissible_w_interval(S2, np.array(0.1)),
        (('float', (), '-0x1.ffffffeed1f41p-2'), ('float', (), '0x1.fffffff768fa1p-1'))),
    pin("admissible_w_interval-top-float64", lambda: admissible_w_interval(S2, np.float64(0.6)),
        (('float', (), '-0x1.ffffffeed1f41p-2'), ('float64', (), '0x1.ffffffeed1f41p-2'))),
    pin("admissible_w_interval-top-0-d", lambda: admissible_w_interval(S2, np.array(0.6)),
        (('float', (), '-0x1.ffffffeed1f41p-2'), ('float64', (), '0x1.ffffffeed1f41p-2'))),
    pin("admissible_w_interval-three-bases-float64", lambda: admissible_w_interval(S33, np.float64(0.2)),
        (('float', (), '-0x1.ffffffeed1f41p-2'), ('float', (), '0x1.fffffff768fa1p-1'))),
    pin("admissible_w_interval-three-bases-0-d", lambda: admissible_w_interval(S33, np.array(0.2)),
        (('float', (), '-0x1.ffffffeed1f41p-2'), ('float', (), '0x1.fffffff768fa1p-1'))),
    pin("golden_section_maximize-float64", lambda: golden_section_maximize(peak, np.float64(0.0), np.float64(1.0)),
        ('float64', (), '0x1.3333333313f22p-2')),
    pin("golden_section_maximize-0-d", lambda: golden_section_maximize(peak, np.array(0.0), np.array(1.0)),
        ('float64', (), '0x1.3333333313f22p-2')),
    pin("i_d-int", lambda: i_d(1, 3), ('float', (), '0x1.0000000000000p+0')),
    pin("phi_d-int", lambda: phi_d(0, 1, 3), ('float', (), '0x1.5555555555555p-2')),
    pin("lambda_d-int", lambda: lambda_d(1, 3), ('float', (), '0x1.5555555555555p-2')),
    pin("i_ae-int", lambda: i_ae(S2, 0, 1), ('float', (), '0x1.0000000000000p-53')),
    pin("optimal_w-int", lambda: optimal_w(S2, 0), ('float', (), '0x1.fffffff768fa1p-1')),
    pin("admissible_w_interval-int", lambda: admissible_w_interval(S2, 0),
        (('float', (), '-0x1.ffffffeed1f41p-2'), ('float', (), '0x1.fffffff768fa1p-1'))),
    pin("golden_section_maximize-int", lambda: golden_section_maximize(peak, 0, 1),
        ('float', (), '0x1.3333333313f22p-2')),
]


@pytest.mark.parametrize("call, expected", PINNED)
def test_non_float_inputs_keep_their_value_and_type(call, expected):
    assert kind(call()) == expected


MESSAGES = [
    pin("i_d-0-d", lambda: i_d(np.array(1.5), 3), "probability = 1.5 is outside [0, 1]"),
    pin("i_d-float64", lambda: i_d(np.float64(1.5), 3), "probability = 1.5 is outside [0, 1]"),
    pin("i_ab-float64", lambda: i_ab(S2, np.float64(0.9)), "disturbance must lie in [0, 0.6666666666666666], got 0.9"),
    pin("i_ae-0-d", lambda: i_ae(S2, np.array(0.1), np.array(1.5)), "w = 1.5 outside [-0.5, 1]"),
]


@pytest.mark.parametrize("call, expected", MESSAGES)
def test_range_messages_name_the_first_failing_element(call, expected):
    with pytest.raises(DomainError) as raised:
        call()
    assert str(raised.value) == expected


D2, W2 = np.array([0.1, 0.2]), np.array([0.5, 0.6])
ARRAYS = [
    pytest.param(lambda: i_d(W2, 3), id="i_d"),
    pytest.param(lambda: phi_d(D2, 0.5, 3), id="phi_d-disturbances"),
    pytest.param(lambda: phi_d(0.1, W2, 3), id="phi_d-overlaps"),
    pytest.param(lambda: lambda_d(W2, 3), id="lambda_d"),
    pytest.param(lambda: guess_probability(S2, D2, 0.5), id="guess_probability-disturbances"),
    pytest.param(lambda: guess_probability(S33, 0.1, W2), id="guess_probability-overlaps"),
    pytest.param(lambda: i_ae(S2, D2, W2), id="i_ae"),
    pytest.param(lambda: i_ae(S2, 0.1, W2), id="i_ae-overlaps"),
    pytest.param(lambda: i_ae(S33, D2, 0.5), id="i_ae-three-bases"),
    pytest.param(lambda: i_ab(S2, D2), id="i_ab"),
    pytest.param(lambda: w_bar(3, D2), id="w_bar"),
    pytest.param(lambda: admissible_w_interval(S2, D2), id="admissible_w_interval"),
    pytest.param(lambda: optimal_w(S2, D2), id="optimal_w"),
    pytest.param(lambda: optimal_w(S33, D2), id="optimal_w-three-bases"),
    pytest.param(lambda: i_ae_optimal(S33, D2), id="i_ae_optimal"),
    pytest.param(lambda: golden_section_maximize(peak, np.zeros(2), np.ones(2)), id="golden_section_maximize"),
]


@pytest.mark.parametrize("call", ARRAYS)
def test_arrays_are_refused(call):
    # The closed forms take one value at a time: an array of two or more fails the first
    # range test, whose truth value numpy refuses to give.
    with pytest.raises(ValueError):
        call()
