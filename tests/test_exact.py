"""The unchecked closed-form bodies and the cofactor product in exact arithmetic.

Each body is written with int literals, so on ``fractions.Fraction``
arguments it computes the exact rational value, with no rounding to hide
a wrong sign or constant. ``hilbert.cofactor`` uses only ``+ - *`` and
``.conjugate()``, so on Gaussian rationals it builds the scenarios' derived
vectors exactly, unnormalised, and the relations hold with no tolerance.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from contextnet import hardy3, nonlocal4
from contextnet.hilbert import cofactor

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


class Q:
    """A Gaussian rational re + im i, exact over ``Fraction``.

    It has the ``+ - *`` and ``.conjugate()`` that ``hilbert.cofactor``
    uses, so the shipped code builds exact, unnormalised vectors from it.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re, self.im = F(re), F(im)

    def __add__(self, other):
        other = _q(other)
        return Q(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _q(other)
        return Q(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = _q(other)
        return Q(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    __radd__, __rmul__ = __add__, __mul__

    def __rsub__(self, other):
        return _q(other) - self

    def __neg__(self):
        return Q(-self.re, -self.im)

    def __eq__(self, other):
        other = _q(other)
        return self.re == other.re and self.im == other.im

    def conjugate(self):
        return Q(self.re, -self.im)


def _q(x):
    return x if isinstance(x, Q) else Q(x)


def _inner(u, v):
    return sum((x.conjugate() * y for x, y in zip(u, v)), Q(0))


def _norm2(u):
    """<u|u>, a Fraction."""
    return _inner(u, u).re


def _overlap2(u, v):
    """|<u|v>|^2 / (<u|u> <v|v>), the Born weight of the normalised vectors."""
    z = _inner(u, v)
    return (z.re * z.re + z.im * z.im) / (_norm2(u) * _norm2(v))


def _basis(dim, i):
    return [Q(int(j == i)) for j in range(dim)]


def _det(m):
    """Leibniz determinant of a small square matrix."""
    total = Q(0)
    for perm in itertools.permutations(range(len(m))):
        sign = (-1) ** sum(p > q for i, p in enumerate(perm) for q in perm[i + 1:])
        term = Q(sign)
        for row, col in enumerate(perm):
            term = term * m[row][col]
        total = total + term
    return total


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_cofactor_is_exactly_orthogonal_with_the_gram_determinant_as_norm(dim):
    rng = random.Random(dim)
    for _ in range(20):
        rows = [[Q(F(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-9, 9))
                 for _ in range(dim)] for _ in range(dim - 1)]
        c = cofactor(rows)
        assert all(_inner(row, c) == 0 for row in rows)
        assert _det([[_inner(u, v) for v in rows] for u in rows]) == _norm2(c)


def test_hardy3_relations_hold_exactly_on_cofactor_vectors():
    # alpha = (3/5)^2 and beta = (5/13)^2 with phases (3+4i)/5 and (5+12i)/13:
    # D1 and D2 have Gaussian-rational components and norm exactly 1
    a, b = F(9, 25), F(25, 169)
    k1, k2, k3 = (_basis(3, i) for i in range(3))
    d1 = [Q(0), Q(F(4, 5)), Q(F(3, 5), F(4, 5)) * F(3, 5)]
    d2 = [Q(F(12, 13)), Q(0), Q(F(5, 13), F(12, 13)) * F(5, 13)]
    assert _norm2(d1) == _norm2(d2) == 1
    s1, s2, n_f = cofactor([k1, d1]), cofactor([k2, d2]), cofactor([d1, d2])
    f = cofactor([s1, s2])
    for v, inputs in ((s1, (k1, d1)), (s2, (k2, d2)), (n_f, (d1, d2)), (f, (s1, s2))):
        assert all(_inner(u, v) == 0 for u in inputs)
    assert _inner(d1, k3) * _inner(k3, d2) == _inner(d1, d2)  # eq3
    assert -(_inner(f, k3) * _inner(k3, n_f)) == _inner(f, n_f)  # eq9
    assert _overlap2(k3, n_f) == hardy3._nf3(a, b)  # eq12
    assert _overlap2(f, k3) == hardy3._f3(a, b)  # eq15
    assert _overlap2(f, n_f) == F(648, 9605) == hardy3._paradox(a, b)  # eq16


def test_nonlocal4_relations_hold_exactly_on_cofactor_vectors():
    a2 = F(9, 25)
    k0, k1 = _basis(2, 0), _basis(2, 1)
    ka = [Q(F(3, 5), F(4, 5)) * F(3, 5), Q(F(4, 5))]
    kb = cofactor([ka])
    assert _norm2(ka) == _norm2(kb) == 1 and _inner(ka, kb) == 0

    def tensor(u, v):
        return [x * y for x in u for y in v]

    ka0, k0a, kb0, k0b = tensor(ka, k0), tensor(k0, ka), tensor(kb, k0), tensor(k0, kb)
    k11, kaa = tensor(k1, k1), tensor(ka, ka)
    f_nl, n_f = cofactor([kb0, k0b, k11]), cofactor([ka0, k0a, k11])
    assert all(_inner(u, f_nl) == 0 for u in (kb0, k0b, k11))
    assert all(_inner(u, n_f) == 0 for u in (ka0, k0a, k11))
    assert _overlap2(f_nl, n_f) == nonlocal4._fnl_nf(a2)  # eq17
    assert _overlap2(f_nl, kaa) == nonlocal4._faa(a2)  # eq19
    # eq20 for the unnormalised f_NL: <a,a|f_NL><f_NL|N_f> = <a,a|N_f> <f_NL|f_NL>
    assert _inner(kaa, f_nl) * _inner(f_nl, n_f) == _inner(kaa, n_f) * _norm2(f_nl)
    assert _overlap2(kaa, n_f) == F(648, 10625) == nonlocal4._aa_nf(a2)  # eq21
