"""Two-qubit product-space scenario: one local overlap drives non-locality.

The dimension-3 scenario carries over to the product space of two
two-level systems with every outcome except one replaced by a product
state. With a single local parameter a2 = |<a|0>|^2 and

    a = sqrt(1 - a2) |1> + exp(i phase_a) sqrt(a2) |0>,    b orthogonal to a,

the correspondence to the dimension-3 labels is

    3 -> 0,0   1 -> 0,1   2 -> 1,0   D1 -> a,0   D2 -> 0,a
    S1 -> b,0  S2 -> 0,b

and both earlier magnitude parameters collapse to a2. The stand-in for f
must live in span{0,0; 0,1; 1,0} and is entangled for every interior a2;
it is named f_NL. N_f keeps its defining orthogonality to the two
"forbidden" outcomes, extended by |1,1> (the fourth direction added by the
product space). The product outcome a,a shares the orthogonality of f_NL
to b,0 and 0,b without the entangling constraint, which lets every
measured probability be traced back to the single local overlap <a|0>:

    |<f_NL|N_f>|^2 = a2^2 (1 - a2) / ((1 + a2) (1 - (1 - a2)^2))
    |<f_NL|a,a>|^2 = 1 - (1 - a2)^2
    |<a,a|N_f>|^2  = a2^2 (1 - a2) / (1 + a2)        (= 1/12 at a2 = 1/2)

Product-basis ordering is (00, 01, 10, 11) throughout.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .errors import DegenerateSpan, DimensionMismatch, require_interior
from .hilbert import StateVector, basis_vector, inner, orthogonal_complement, squared_norm, tensor
from .report import RelationReport, nan_max
from .scenario import Params, Scenario

#: The local kets |0>, |1> and their products |00>, |01>, |10>, |11>, in
#: product-basis order, shared by every built scenario (read-only).
BASIS = (basis_vector(2, 0), basis_vector(2, 1))
PRODUCT_BASIS = tuple(tensor(u, v) for u in BASIS for v in BASIS)


class LocalParams(Params, namedtuple("LocalParams", "a2 phase_a", defaults=(0.0,))):
    """Single local overlap probability a2 = |<a|0>|^2 plus a phase (default 0.0)."""

    __slots__ = ()


class NonlocalScenario(Scenario):
    """Product kets and the two derived outcomes by label, all of dimension 4.

    ``params`` is a ``LocalParams``. The local kets a and b are not figure
    nodes: entries 0 and 2 of a,0 and b,0 hold them. ``verify_all`` makes
    one ``inner`` call for each of the 5 ordered pairs that its relations
    read.
    """

    LABELS = {
        "0,0": "k00", "0,1": "k01", "1,0": "k10", "1,1": "k11",
        "a,0": "ka0", "0,a": "k0a", "b,0": "kb0", "0,b": "k0b",
        "a,a": "kaa", "f_NL": "f_nl", "N_f": "n_f",
    }
    SAMPLED = ("N_f", "a,a")

    __slots__ = ()


def build_nonlocal(params: LocalParams) -> NonlocalScenario:
    """Construct the full two-qubit scenario from the local parameters.

    The relative phase sits on the |0> component of |a| so that
    |<a|0>|^2 equals a2 exactly. Each derived vector is one
    ``orthogonal_complement`` call, the normalised, canonically phased
    cofactor product of its inputs: |b> of |a>, f_NL of b,0  0,b  1,1 and
    N_f of a,0  0,a  1,1. The products a,0  0,a  b,0  0,b  a,a are one
    ``tensor`` call each, and the fixed kets come from ``BASIS`` and
    ``PRODUCT_BASIS``.
    """
    a2 = params.a2
    ka = StateVector._of(
        (cmath.exp(1j * params.phase_a) * math.sqrt(a2), complex(math.sqrt(1.0 - a2)))
    )
    kb = orthogonal_complement([ka])
    k0 = BASIS[0]
    ka0, k0a, kb0, k0b = tensor(ka, k0), tensor(k0, ka), tensor(kb, k0), tensor(k0, kb)
    kaa = tensor(ka, ka)
    k00, k01, k10, k11 = PRODUCT_BASIS
    f_nl = orthogonal_complement([kb0, k0b, k11])
    n_f = orthogonal_complement([ka0, k0a, k11])
    return NonlocalScenario.build(params, (k00, k01, k10, k11, ka0, k0a, kb0, k0b, kaa, f_nl, n_f))


def predicted_fnl_nf(a2: float) -> float:
    """Closed form for |<f_NL|N_f>|^2 in terms of the local overlap alone.

    Coincides with the dimension-3 paradox probability at alpha = beta = a2.
    """
    return _fnl_nf(require_interior(a2, "a2"))


def predicted_faa(a2: float) -> float:
    """Closed form for |<f_NL|a,a>|^2: 1 - (1 - a2)^2, formed as a2 (2 - a2).

    The product form does not cancel as a2 approaches 0.
    """
    return _faa(require_interior(a2, "a2"))


def predicted_aa_nf(a2: float) -> float:
    """Closed form for |<a,a|N_f>|^2: a2^2 (1 - a2) / (1 + a2).

    The product of predicted_fnl_nf and predicted_faa; equals 1/12 at
    a2 = 1/2.
    """
    return _aa_nf(require_interior(a2, "a2"))


# The closed forms without the domain check, which ``LocalParams`` made when
# it was built; ``verify_all`` calls these. Like ``hardy3``'s bodies they
# take Python floats, float64 arrays and ``fractions.Fraction``s.


def _fnl_nf(x):
    return (x * x / (1 + x)) * ((1 - x) / (x * (2 - x)))


def _faa(x):
    return x * (2 - x)


def _aa_nf(x):
    return x * x * (1 - x) / (1 + x)


def schmidt_coefficients(v: StateVector) -> tuple[float, float]:
    """Singular values (descending) of a dimension-4 vector as a 2x2 array.

    The vector is read in the fixed product ordering (00, 01, 10, 11) as C.
    With a and d the squared norms of C's rows and b their inner product,
    the larger value is sqrt((a + d + hypot(a - d, 2|b|)) / 2) and the
    smaller |det C| over it, so neither cancels when the two are close. A
    second value above round-off means the state is entangled.

    Raises:
        DimensionMismatch: if the vector is not of dimension 4.
        DegenerateSpan: if the vector is not finite.
    """
    if v.dim != 4:
        raise DimensionMismatch(f"need a dimension-4 vector, got {v.dim}")
    c00, c01, c10, c11 = c = v._components
    if not all(cmath.isfinite(z) for z in c):
        raise DegenerateSpan(f"components {c} are not finite")
    a, d = squared_norm((c00, c01)), squared_norm((c10, c11))
    b = c00 * c10.conjugate() + c01 * c11.conjugate()
    largest = math.sqrt((a + d + math.hypot(a - d, 2 * abs(b))) / 2)
    return largest, abs(c00 * c11 - c01 * c10) / largest if largest else 0.0


def verify_all(s: NonlocalScenario) -> RelationReport:
    """Check the product-space identities against the raw vectors."""
    a2 = s.params.a2
    kaa, k11, f_nl, n_f = s.kaa, s.k11, s.f_nl, s.n_f
    # <a,a|f_NL> and <f_NL|a,a> are separate calls: a conjugate may flip a zero's sign
    fnl_nf, fnl_aa, k11_aa = inner(f_nl, n_f), inner(f_nl, kaa), inner(k11, kaa)
    aa_nf, aa_fnl = inner(kaa, n_f), inner(kaa, f_nl)
    columns = (v._components for v in (kaa, f_nl, k11))
    aa_expansion = [aai - (fi * fnl_aa + k11i * k11_aa) for aai, fi, k11i in zip(*columns)]
    aa_factorization = abs(aa_nf - aa_fnl * fnl_nf)
    return s.report(
        ("eq17", _fnl_nf(a2), abs(fnl_nf) ** 2),
        ("eq18", 0.0, nan_max((math.sqrt(squared_norm(aa_expansion)), aa_factorization))),
        ("eq19", _faa(a2), abs(fnl_aa) ** 2),
        ("eq20", aa_fnl * fnl_nf, aa_nf),
        ("eq21", _aa_nf(a2), abs(aa_nf) ** 2),
    )


#: The names the CLI looks up on every scenario module.
PARAMS = LocalParams
build = build_nonlocal
