"""What the closed forms and the w search return for numpy scalars, 0-d arrays and ints.

Only floats and arrays of floats are the documented kinds; these pins keep every other
kind on the branch it takes today. Each value is pinned bit for bit together with its
type, and each array message of a failed range test with the index it names.
"""

import math

import numpy as np
import pytest

from mub_eve import (
    DomainError,
    ProtocolSpec,
    admissible_w_interval,
    golden_section_maximize,
    i_ab,
    i_ae,
    i_d,
    lambda_d,
    optimal_w,
    phi_d,
)

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
        ('float', (), '-0x1.c0e7b0e285fc8p-4')),
    pin("optimal_w-three-bases-0-d", lambda: optimal_w(S33, np.array(0.1)),
        ('float64', (), '-0x1.c0e7b0e285fc8p-4')),
    pin("admissible_w_interval-float64", lambda: admissible_w_interval(S2, np.float64(0.1)),
        (('float', (), '-0x1.ffffffeed1f41p-2'), ('float', (), '0x1.fffffff768fa1p-1'))),
    pin("admissible_w_interval-0-d", lambda: admissible_w_interval(S2, np.array(0.1)),
        (('float64', (), '-0x1.ffffffeed1f41p-2'), ('float64', (), '0x1.fffffff768fa1p-1'))),
    pin("admissible_w_interval-top-float64", lambda: admissible_w_interval(S2, np.float64(0.6)),
        (('float', (), '-0x1.ffffffeed1f41p-2'), ('float64', (), '0x1.ffffffeed1f41p-2'))),
    pin("admissible_w_interval-top-0-d", lambda: admissible_w_interval(S2, np.array(0.6)),
        (('float64', (), '-0x1.ffffffeed1f41p-2'), ('float64', (), '0x1.ffffffeed1f41p-2'))),
    pin("admissible_w_interval-three-bases-float64", lambda: admissible_w_interval(S33, np.float64(0.2)),
        (('float', (), '-0x1.ffffffeed1f41p-2'), ('float', (), '0x1.fffffff768fa1p-1'))),
    pin("admissible_w_interval-three-bases-0-d", lambda: admissible_w_interval(S33, np.array(0.2)),
        (('float64', (), '-0x1.ffffffeed1f41p-2'), ('float64', (), '0x1.fffffff768fa1p-1'))),
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
    pin("i_d-array", lambda: i_d(np.array([0.5, 1.5, 2.0]), 3), "probability = 1.5 at index 1 is outside [0, 1]"),
    pin("i_d-0-d", lambda: i_d(np.array(1.5), 3), "probability = 1.5 is outside [0, 1]"),
    pin("i_d-float64", lambda: i_d(np.float64(1.5), 3), "probability = 1.5 is outside [0, 1]"),
    pin("phi_d-2d", lambda: phi_d(np.array([[0.1, 0.2], [0.3, 1.0]]), np.full((2, 2), 0.5), 3),
        "disturbance must be < 1, got 1.0 at index (1, 1)"),
    pin("phi_d-radicand", lambda: phi_d(np.array([0.1, 0.6]), np.array([0.5, 1.0]), 3),
        "radicand D [1 + (d-1) w] {d - D [1 + d + (d-1) w]} = -2.1599999999999984 at index 1 is not >= 0"),
    pin("lambda_d-below", lambda: lambda_d(np.array([0.5, -0.6, -0.7]), 3), "w = -0.6 at index 1 outside [-0.5, 1]"),
    pin("interval-nan", lambda: admissible_w_interval(S2, np.array([0.1, math.nan, 0.7])),
        "disturbance must lie in [0, 0.6666666666666666], got nan at index 1"),
    pin("optimal_w-2d", lambda: optimal_w(S33, np.array([[0.1, 0.2], [0.3, 0.9]])),
        "disturbance must lie in [0, 0.6666666666666666], got 0.9 at index (1, 1)"),
    pin("golden-lo-nan", lambda: golden_section_maximize(peak, np.array([0.0, math.nan]), np.ones(2)),
        "need a finite bracket lo <= hi, got lo=nan at index 1, hi=1.0 at index 1"),
    pin("i_ab-float64", lambda: i_ab(S2, np.float64(0.9)), "disturbance must lie in [0, 0.6666666666666666], got 0.9"),
    pin("i_ae-0-d", lambda: i_ae(S2, np.array(0.1), np.array(1.5)), "w = 1.5 outside [-0.5, 1]"),
]


@pytest.mark.parametrize("call, expected", MESSAGES)
def test_range_messages_name_the_first_failing_element(call, expected):
    with pytest.raises(DomainError) as raised:
        call()
    assert str(raised.value) == expected
