"""Three-dimensional cyclic context scenario and its closed-form relations.

The scenario lives in dimension 3. The central context is the standard
basis {|1>, |2>, |3>}. Two outside outcomes are fixed by two probability
parameters and two phases:

    D1 = sqrt(1 - alpha) |2> + exp(i phase_d1) sqrt(alpha) |3>
    D2 = sqrt(1 - beta)  |1> + exp(i phase_d2) sqrt(beta)  |3>

so alpha = |<D1|3>|^2 and beta = |<D2|3>|^2. Everything else is derived
purely from orthogonality, never from the closed-form coefficient
relations under test (that separation is what makes the vectors an
independent oracle for the formulas). ``HardyScenario.NETWORK``, Figure 2
plus N_f, states the orthogonalities, and ``Scenario.build`` derives each
vector from its figure neighbours:

    S1  completes the context {1, D1, S1}
    S2  completes the context {2, D2, S2}
    f   is orthogonal to S1 and S2
    N_f is orthogonal to D1 and D2

Although f and N_f would have to be mutually exclusive outcomes under
context-independent assignment of values, their overlap |<f|N_f>|^2 is
strictly positive for every interior parameter choice; ``predicted_paradox``
gives its closed form, maximal at 1/9 for alpha = beta = 1/2.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .errors import require_interior
from .hilbert import StateVector, basis_vector, inner, squared_norm
from .network import NETWORKS, ContextNetwork
from .report import RelationReport
from .scenario import Params, Scenario

#: The central context |1>, |2>, |3>, shared by every built scenario (read-only).
BASIS = tuple(basis_vector(3, i) for i in range(3))

_FIG2 = NETWORKS[2]


class ScenarioParams(
    Params, namedtuple("ScenarioParams", "alpha beta phase_d1 phase_d2", defaults=(0.0, 0.0))
):
    """Free data of the scenario: two overlap probabilities and two phases.

    alpha and beta must lie strictly inside (0, 1); at the boundary the
    required non-orthogonalities fail and closed-form denominators vanish.
    The phases default to 0.0.
    """

    __slots__ = ()


class HardyScenario(Scenario):
    """The nine outcome vectors of the dimension-3 scenario, by label.

    ``params`` is a ``ScenarioParams``. ``NETWORK`` is Figure 2 plus N_f,
    orthogonal to D1 and D2 and never to 1, 2, 3 or f. ``verify_all`` makes
    one ``inner`` call for each of the 16 ordered pairs that its relations
    read.
    """

    LABELS = {
        "1": "k1", "2": "k2", "3": "k3",
        "D1": "d1", "D2": "d2",
        "S1": "s1", "S2": "s2",
        "f": "f", "N_f": "n_f",
    }
    NETWORK = ContextNetwork(
        _FIG2.nodes + ("N_f",),
        _FIG2.edges + (("N_f", "D1"), ("N_f", "D2")),
        _FIG2.required_non_edges + (("N_f", "1"), ("N_f", "2"), ("N_f", "3"), ("f", "N_f")),
    )
    SAMPLED = ("N_f", "f")

    __slots__ = ()


def build_scenario(params: ScenarioParams) -> HardyScenario:
    """Construct all nine vectors from the scenario parameters.

    The central context is ``BASIS``; D1 and D2 are written down directly.
    ``HardyScenario.build`` derives the other four from ``NETWORK``, each
    the normalised, canonically phased cofactor (cross) product of its two
    earlier neighbours: S1 of 1 and D1, S2 of 2 and D2, f of S1 and S2,
    N_f of D1 and D2. The construction is deterministic and independent of
    the predicted_* closed forms.
    """
    a, b = params.alpha, params.beta
    # complex operands only: Python 3.14 no longer makes a float operand complex first
    e1 = cmath.exp(1j * complex(params.phase_d1)) * complex(math.sqrt(a))
    e2 = cmath.exp(1j * complex(params.phase_d2)) * complex(math.sqrt(b))
    d1 = StateVector._of((0j, complex(math.sqrt(1.0 - a)), e1))
    d2 = StateVector._of((complex(math.sqrt(1.0 - b)), 0j, e2))
    return HardyScenario.build(params, (*BASIS, d1, d2))


def predicted_nf3(alpha: float, beta: float) -> float:
    """Closed form for |<3|N_f>|^2: (1-a)(1-b) / (1-ab).

    Strictly positive for interior parameters, so N_f can never join the
    central context. The denominator is formed as (1-a) + a(1-b), which
    does not cancel as a and b approach 1.
    """
    return _nf3(require_interior(alpha, "alpha"), require_interior(beta, "beta"))


def predicted_f3(alpha: float, beta: float) -> float:
    """Closed form for |<f|3>|^2: ab / (1 - (1-a)(1-b)).

    The denominator is formed as a + b(1-a), free of cancellation.
    """
    return _f3(require_interior(alpha, "alpha"), require_interior(beta, "beta"))


def predicted_paradox(alpha: float, beta: float) -> float:
    """Closed form for |<f|N_f>|^2, the paradoxical overlap.

    Equals predicted_nf3 * predicted_f3 and depends only on the two
    magnitudes, never on the phases. Maximal value 1/9 at (1/2, 1/2).
    Both denominators use the cancellation-free forms above.
    """
    return _paradox(require_interior(alpha, "alpha"), require_interior(beta, "beta"))


# The closed forms without the domain checks: ``verify_all`` reads parameters
# that ``ScenarioParams`` checked when it was built. Each takes Python floats,
# float64 arrays (the sweep passes a column of alphas and the beta axis) and
# ``fractions.Fraction``s, on which it is exact; the int literals keep a
# Fraction a Fraction and give a float or a float64 the bits of ``1.0``.
# Element-wise float64 ``+ - * /`` round exactly as Python floats do, so an
# array element is bit-identical to the scalar value.


def _nf3(a, b):
    return (1 - a) * (1 - b) / ((1 - a) + a * (1 - b))


def _f3(a, b):
    return a * b / (a + b * (1 - a))


def _paradox(a, b):
    return (a * b / ((1 - a) + a * (1 - b))) * ((1 - a) * (1 - b) / (a + b * (1 - a)))


def verify_all(s: HardyScenario) -> RelationReport:
    """Check every identity of the scenario against the raw vectors.

    Complex identities are compared as complex numbers (strictly stronger
    than their squared-magnitude consequences); squared-magnitude closed
    forms are compared against directly computed Born weights. The report
    is deterministic for fixed parameters.
    """
    a, b = s.params.alpha, s.params.beta
    nf3 = _nf3(a, b)
    k1, k2, k3, d1, d2, f, n_f = s.k1, s.k2, s.k3, s.d1, s.d2, s.f, s.n_f
    # <x|y> and <y|x> are separate calls: a conjugate may flip a zero's sign
    d1_k3, k3_d2, d1_d2 = inner(d1, k3), inner(k3, d2), inner(d1, d2)
    d1_f, d2_f, k3_f, f_k3 = inner(d1, f), inner(d2, f), inner(k3, f), inner(f, k3)
    k3_nf, f_nf, d2_k3 = inner(k3, n_f), inner(f, n_f), inner(d2, k3)
    d2_k1, k1_nf, d1_k2, k2_nf = inner(d2, k1), inner(k1, n_f), inner(d1, k2), inner(k2, n_f)
    f_d1, f_d2 = inner(f, d1), inner(f, d2)
    columns = (v._components for v in (f, d1, d2, k3))
    f_expansion = [
        fi - (d1i * d1_f + d2i * d2_f - k3i * k3_f) for fi, d1i, d2i, k3i in zip(*columns)
    ]
    return s.report(
        ("eq3", d1_k3 * k3_d2, d1_d2),
        ("eq6", 0.0, math.sqrt(squared_norm(f_expansion))),
        ("eq9", -f_k3 * k3_nf, f_nf),
        ("eq10a", -d2_k3 * k3_nf, d2_k1 * k1_nf),
        ("eq10b", -d1_k3 * k3_nf, d1_k2 * k2_nf),
        ("eq11a", (b / (1.0 - b)) * nf3, abs(k1_nf) ** 2),
        ("eq11b", (a / (1.0 - a)) * nf3, abs(k2_nf) ** 2),
        ("eq12", nf3, abs(k3_nf) ** 2),
        ("eq13a", f_d1 * d1_k3, f_k3),
        ("eq13b", f_d2 * d2_k3, f_k3),
        ("eq14", 1.0, abs(f_d1) ** 2 + abs(f_d2) ** 2 - abs(f_k3) ** 2),
        ("eq15", _f3(a, b), abs(f_k3) ** 2),
        ("eq16", _paradox(a, b), abs(f_nf) ** 2),
    )


#: The names the CLI looks up on every scenario module.
PARAMS = ScenarioParams
build = build_scenario
