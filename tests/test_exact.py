"""The unchecked closed-form bodies and the cofactor product in exact arithmetic.

Each body is written with int literals, so on ``fractions.Fraction``
arguments it computes the exact rational value, with no rounding to hide
a wrong sign or constant. ``hilbert.cofactor`` uses only ``+ - *`` and
``.conjugate()``, so on Gaussian rationals it builds the scenarios' derived
vectors exactly, unnormalised. Every row of both ``verify_all`` tables then
holds with no tolerance (a relation stated for unit vectors after dividing
by <x|x>), and so does every pair constraint of Figures 2 and 4.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from contextnet import hardy3, nonlocal4
from contextnet.cli import RESIDUAL_THRESHOLD
from contextnet.hardy3 import HardyScenario, ScenarioParams
from contextnet.hilbert import ORTH_TOL, cofactor
from contextnet.network import NETWORKS
from contextnet.nonlocal4 import LocalParams, NonlocalScenario

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


def _unit(t):
    """(2t/(1+t^2), (1-t^2)/(1+t^2)), a rational point of the unit circle."""
    return 2 * t / (1 + t * t), (1 - t * t) / (1 + t * t)


def _roots(rng):
    """Seeded (sqrt(p), sqrt(1 - p)) pairs of rationals, p a probability.

    Three interior ones, then one with p within 1e-6 of 0 and one with p
    within 1e-6 of 1, where the closed forms cancel in floats.
    """
    interior = [_unit(F(rng.randint(1, 98), 99)) for _ in range(3)]
    small = _unit(F(1, rng.randint(2001, 9999)))  # sqrt(p) < 1e-3
    return interior + [small, small[::-1]]


def _phase(rng):
    """A seeded unit Gaussian rational."""
    return Q(*_unit(F(rng.randint(-99, 99), rng.randint(1, 99))))


_rng = random.Random(24)
#: hardy3 points ((sqrt(alpha), sqrt(1 - alpha)), (sqrt(beta), sqrt(1 - beta)),
#: phase_d1, phase_d2), the phases unit Gaussian rationals. The first is
#: alpha = 9/25, beta = 25/169 with phases (3+4i)/5 and (5+12i)/13.
HARDY3_POINTS = [
    ((F(3, 5), F(4, 5)), (F(5, 13), F(12, 13)), Q(F(3, 5), F(4, 5)), Q(F(5, 13), F(12, 13)))
]
HARDY3_POINTS += [
    (a, b, _phase(_rng), _phase(_rng)) for a, b in zip(_roots(_rng), _rng.sample(_roots(_rng), 5))
]
#: nonlocal4 points ((sqrt(a2), sqrt(1 - a2)), phase_a); the first is a2 = 9/25
#: with phase (3+4i)/5.
NONLOCAL4_POINTS = [((F(3, 5), F(4, 5)), Q(F(3, 5), F(4, 5)))]
NONLOCAL4_POINTS += [(a, _phase(_rng)) for a in _roots(_rng)]


def _canonical(v):
    """``v`` times conj(c), c its first component above ``ORTH_TOL`` once ``v`` is normalised.

    ``canonical_phase`` makes that component real and positive, so this is
    the builders' derived vector, up to its norm. Only the phases of f, N_f
    and f_NL reach a relation's ``direct`` value.
    """
    c = next(z for z in v if z.re * z.re + z.im * z.im > F(ORTH_TOL) ** 2 * _norm2(v))
    return [z * c.conjugate() for z in v]


def _hardy3_vectors(point):
    """hardy3's vectors at ``point`` by ``LABELS`` attribute, the derived four unnormalised.

    D1 and D2 have Gaussian-rational components and norm exactly 1.
    """
    (sa, ca), (sb, cb), phase_d1, phase_d2 = point
    k1, k2, k3 = (_basis(3, i) for i in range(3))
    d1 = [Q(0), Q(ca), phase_d1 * sa]
    d2 = [Q(cb), Q(0), phase_d2 * sb]
    s1, s2 = cofactor([k1, d1]), cofactor([k2, d2])
    n_f, f = _canonical(cofactor([d1, d2])), _canonical(cofactor([s1, s2]))
    return dict(k1=k1, k2=k2, k3=k3, d1=d1, d2=d2, s1=s1, s2=s2, f=f, n_f=n_f)


def _tensor(u, v):
    return [x * y for x in u for y in v]


def _nonlocal4_vectors(point):
    """nonlocal4's vectors at ``point`` by ``LABELS`` attribute, f_NL and N_f unnormalised.

    a and b (kept as ``ka`` and ``kb``) are exact unit vectors.
    """
    (sa, ca), phase_a = point
    k0, k1 = _basis(2, 0), _basis(2, 1)
    ka = [phase_a * sa, Q(ca)]
    kb = cofactor([ka])
    ka0, k0a, kb0, k0b = _tensor(ka, k0), _tensor(k0, ka), _tensor(kb, k0), _tensor(k0, kb)
    k11 = _tensor(k1, k1)
    return dict(
        ka=ka, kb=kb, k00=_tensor(k0, k0), k01=_tensor(k0, k1), k10=_tensor(k1, k0), k11=k11,
        ka0=ka0, k0a=k0a, kb0=kb0, k0b=k0b, kaa=_tensor(ka, ka),
        f_nl=_canonical(cofactor([kb0, k0b, k11])), n_f=_canonical(cofactor([ka0, k0a, k11])),
    )


def test_hardy3_relations_hold_exactly_on_cofactor_vectors():
    for point in HARDY3_POINTS:
        _check_hardy3_relations(point)
    v = _hardy3_vectors(HARDY3_POINTS[0])
    assert _overlap2(v["f"], v["n_f"]) == F(648, 9605)  # eq16


def _check_hardy3_relations(point):
    A, B = point[0][0] ** 2, point[1][0] ** 2
    k1, k2, k3, d1, d2, s1, s2, f, n_f = _hardy3_vectors(point).values()
    assert _norm2(d1) == _norm2(d2) == 1
    for u, inputs in ((s1, (k1, d1)), (s2, (k2, d2)), (n_f, (d1, d2)), (f, (s1, s2))):
        assert all(_inner(w, u) == 0 for w in inputs)
    assert _inner(d1, k3) * _inner(k3, d2) == _inner(d1, d2)  # eq3
    # eq6, linear in f: f = D1 <D1|f> + D2 <D2|f> - 3 <3|f>
    d1_f, d2_f, k3_f = _inner(d1, f), _inner(d2, f), _inner(k3, f)
    assert f == [x * d1_f + y * d2_f - z * k3_f for x, y, z in zip(d1, d2, k3)]
    assert -(_inner(f, k3) * _inner(k3, n_f)) == _inner(f, n_f)  # eq9
    assert -(_inner(d2, k3) * _inner(k3, n_f)) == _inner(d2, k1) * _inner(k1, n_f)  # eq10a
    assert -(_inner(d1, k3) * _inner(k3, n_f)) == _inner(d1, k2) * _inner(k2, n_f)  # eq10b
    assert _overlap2(k1, n_f) == B / (1 - B) * hardy3._nf3(A, B)  # eq11a
    assert _overlap2(k2, n_f) == A / (1 - A) * hardy3._nf3(A, B)  # eq11b
    assert _overlap2(k3, n_f) == hardy3._nf3(A, B)  # eq12
    assert _inner(f, d1) * _inner(d1, k3) == _inner(f, k3)  # eq13a
    assert _inner(f, d2) * _inner(d2, k3) == _inner(f, k3)  # eq13b
    assert _overlap2(f, d1) + _overlap2(f, d2) - _overlap2(f, k3) == 1  # eq14
    assert _overlap2(f, k3) == hardy3._f3(A, B)  # eq15
    assert _overlap2(f, n_f) == hardy3._paradox(A, B)  # eq16


def test_nonlocal4_relations_hold_exactly_on_cofactor_vectors():
    for point in NONLOCAL4_POINTS:
        _check_nonlocal4_relations(point)
    v = _nonlocal4_vectors(NONLOCAL4_POINTS[0])
    assert _overlap2(v["kaa"], v["n_f"]) == F(648, 10625)  # eq21


def _check_nonlocal4_relations(point):
    A2 = point[0][0] ** 2
    ka, kb, _, _, _, k11, ka0, k0a, kb0, k0b, kaa, f_nl, n_f = _nonlocal4_vectors(point).values()
    assert _norm2(ka) == _norm2(kb) == 1 and _inner(ka, kb) == 0
    assert all(_inner(u, f_nl) == 0 for u in (kb0, k0b, k11))
    assert all(_inner(u, n_f) == 0 for u in (ka0, k0a, k11))
    assert _overlap2(f_nl, n_f) == nonlocal4._fnl_nf(A2)  # eq17
    # eq18 for the unnormalised f_NL, times <f_NL|f_NL>:
    # a,a <f_NL|f_NL> = f_NL <f_NL|a,a> + 1,1 <1,1|a,a> <f_NL|f_NL>;
    # its second term, the factorization of <a,a|N_f>, is eq20
    fnl_aa, k11_aa, fnl2 = _inner(f_nl, kaa), _inner(k11, kaa), _norm2(f_nl)
    assert [x * fnl2 for x in kaa] == [y * fnl_aa + z * k11_aa * fnl2 for y, z in zip(f_nl, k11)]
    assert _overlap2(f_nl, kaa) == nonlocal4._faa(A2)  # eq19
    # eq20 for the unnormalised f_NL: <a,a|f_NL><f_NL|N_f> = <a,a|N_f> <f_NL|f_NL>
    assert _inner(kaa, f_nl) * _inner(f_nl, n_f) == _inner(kaa, n_f) * fnl2
    assert _overlap2(kaa, n_f) == nonlocal4._aa_nf(A2)  # eq21


def test_the_points_reach_within_1e_6_of_both_ends():
    for probabilities in (
        [point[0][0] ** 2 for point in HARDY3_POINTS],
        [point[1][0] ** 2 for point in HARDY3_POINTS],
        [point[0][0] ** 2 for point in NONLOCAL4_POINTS],
    ):
        assert min(probabilities) < F(1, 10**6) and max(probabilities) > 1 - F(1, 10**6)


def _unit_inner(u, v):
    """<u|v> of the normalised ``u`` and ``v``, rounded once its exact parts are formed."""
    z = _inner(u, v)
    return complex(float(z.re), float(z.im)) / math.sqrt(_norm2(u) * _norm2(v))


def _hardy3_directs(point):
    """hardy3's ``direct`` column at ``point``, row by row, from the exact vectors."""
    v = _hardy3_vectors(point)
    k1, k2, k3, d1, d2, f, n_f = (v[attr] for attr in ("k1", "k2", "k3", "d1", "d2", "f", "n_f"))
    return [
        _unit_inner(d1, d2),  # eq3
        0,  # eq6
        _unit_inner(f, n_f),  # eq9
        _unit_inner(d2, k1) * _unit_inner(k1, n_f),  # eq10a
        _unit_inner(d1, k2) * _unit_inner(k2, n_f),  # eq10b
        _overlap2(k1, n_f), _overlap2(k2, n_f), _overlap2(k3, n_f),  # eq11a, eq11b, eq12
        _unit_inner(f, k3), _unit_inner(f, k3),  # eq13a, eq13b
        _overlap2(f, d1) + _overlap2(f, d2) - _overlap2(f, k3),  # eq14
        _overlap2(f, k3), _overlap2(f, n_f),  # eq15, eq16
    ]


def _nonlocal4_directs(point):
    """nonlocal4's ``direct`` column at ``point``, row by row, from the exact vectors."""
    v = _nonlocal4_vectors(point)
    kaa, f_nl, n_f = v["kaa"], v["f_nl"], v["n_f"]
    return [
        _overlap2(f_nl, n_f), 0, _overlap2(f_nl, kaa), _unit_inner(kaa, n_f), _overlap2(kaa, n_f),
    ]


def _angle(phase):
    return math.atan2(phase.im, phase.re)


def _hardy3_params(point):
    """The float parameters nearest ``point``."""
    (sa, _), (sb, _), phase_d1, phase_d2 = point
    return ScenarioParams(float(sa * sa), float(sb * sb), _angle(phase_d1), _angle(phase_d2))


def _nonlocal4_params(point):
    """The float parameters nearest ``point``."""
    (sa, _), phase_a = point
    return LocalParams(float(sa * sa), _angle(phase_a))


def test_float_directs_lie_within_the_gate_of_the_exact_values():
    worst = (0.0, "")
    for module, params_of, directs_of, points in (
        (hardy3, _hardy3_params, _hardy3_directs, HARDY3_POINTS),
        (nonlocal4, _nonlocal4_params, _nonlocal4_directs, NONLOCAL4_POINTS),
    ):
        for point in points:
            params = params_of(point)
            relations = module.verify_all(module.build(params)).relations
            exact = directs_of(point)
            assert len(relations) == len(exact)
            for r, value in zip(relations, exact):
                distance = abs(r.direct_value - complex(value))
                assert distance < RESIDUAL_THRESHOLD, (params, r.id, distance)
                worst = max(worst, (distance, f"{r.id} at {params}"))
    print(f"worst |float direct - exact|: {worst[0]:.3g}, {worst[1]}")


@pytest.mark.parametrize("figure,scenario,vectors,points", [
    (2, HardyScenario, _hardy3_vectors, HARDY3_POINTS),
    (4, NonlocalScenario, _nonlocal4_vectors, NONLOCAL4_POINTS),
], ids=["2-HardyScenario-_hardy3_vectors", "4-NonlocalScenario-_nonlocal4_vectors"])
def test_figure_edges_are_exactly_orthogonal_and_required_non_edges_are_not(
    figure, scenario, vectors, points
):
    net = NETWORKS[figure]
    for point in points:
        by_attr = vectors(point)
        v = {label: by_attr[attr] for label, attr in scenario.LABELS.items()}
        assert set(net.nodes) <= set(v)
        for a, b in net.edges:
            assert _inner(v[a], v[b]) == 0, (point, a, b)
        for a, b in net.required_non_edges:
            assert _inner(v[a], v[b]) != 0, (point, a, b)


def test_only_f_nl_and_n_f_are_entangled():
    # The vector read as a 2 x 2 array C has det C = 0 exactly for a product
    # ket; |det C| is the product of its two Schmidt coefficients.
    for point in NONLOCAL4_POINTS:
        v = _nonlocal4_vectors(point)
        for attr in NonlocalScenario.LABELS.values():
            c00, c01, c10, c11 = v[attr]
            assert (c00 * c11 - c01 * c10 != 0) == (attr in ("f_nl", "n_f")), (point, attr)
