"""The unchecked closed-form bodies in exact rational arithmetic.

Each body is written with int literals, so on ``fractions.Fraction``
arguments it computes the exact rational value, with no rounding to hide
a wrong sign or constant.
"""

from fractions import Fraction as F

import pytest

from contextnet import hardy3, nonlocal4

POINTS = [F(1, 2), F(1, 3), F(9, 25), F(25, 169), F(1, 10**6), F(10**6 - 1, 10**6)]


def test_paradox_maximum_is_one_ninth():
    assert hardy3._paradox(F(1, 2), F(1, 2)) == F(1, 9)


def test_aa_nf_at_one_half_is_one_twelfth():
    assert nonlocal4._aa_nf(F(1, 2)) == F(1, 12)


@pytest.mark.parametrize("a", POINTS)
@pytest.mark.parametrize("b", POINTS)
def test_paradox_is_nf3_times_f3(a, b):
    p = hardy3._paradox(a, b)
    assert type(p) is F
    assert p == hardy3._nf3(a, b) * hardy3._f3(a, b)


@pytest.mark.parametrize("x", POINTS)
def test_aa_nf_is_fnl_nf_times_faa(x):
    p = nonlocal4._aa_nf(x)
    assert type(p) is F
    assert p == nonlocal4._fnl_nf(x) * nonlocal4._faa(x)


@pytest.mark.parametrize("x", POINTS)
def test_fnl_nf_is_the_paradox_on_the_diagonal(x):
    assert nonlocal4._fnl_nf(x) == hardy3._paradox(x, x)
