"""The shared scenario core: the built scenarios and a reference for every bit.

The reference functions below spell out, call by call, the arithmetic of
each builder and report in Python complex arithmetic: each derived vector
as the conjugated cofactor (generalised cross) product of its inputs, from
the Laplace expansion, normalised and phased by ``conj(c) / |c|``
(``reference_complement``), each norm the square root of a left-to-right
sum, and one ``inner`` call per overlap of a relation row. Built vectors,
in ``LABELS`` order, and reports must equal them byte for byte, so a change
in how the products are formed or how the overlaps are computed cannot move
a bit unnoticed.
"""

import cmath
import copy
import hashlib
import json
import math
import os
import pickle
import re
import subprocess
import sys
import types

import numpy as np
import pytest

import contextnet
from contextnet import cli, hardy3, hilbert, nonlocal4, oracle
from contextnet.errors import OutOfDomain
from contextnet.hardy3 import HardyScenario, ScenarioParams, build_scenario
from contextnet.hardy3 import verify_all as verify_hardy
from contextnet.hilbert import (
    ORTH_TOL,
    StateVector,
    basis_vector,
    inner,
    orthogonal_complement,
    tensor,
)
from contextnet.network import NETWORKS, validate_realization
from contextnet.nonlocal4 import LocalParams, NonlocalScenario, build_nonlocal
from contextnet.nonlocal4 import verify_all as verify_nonlocal
from contextnet.report import Relation, RelationReport, nan_max, report_to_json

#: Each scenario's derived labels, each with the labels it is orthogonal to.
DERIVED = {
    HardyScenario: {
        "S1": ("1", "D1"), "S2": ("2", "D2"), "f": ("S1", "S2"), "N_f": ("D1", "D2"),
    },
    NonlocalScenario: {
        "f_NL": ("b,0", "0,b", "1,1"), "N_f": ("a,0", "0,a", "1,1"),
    },
}


@pytest.mark.parametrize("build,params", [
    (build_scenario, ScenarioParams(0.3, 0.7, 0.4, 2.1)),
    (build_nonlocal, LocalParams(0.3, 1.1)),
])
def test_built_vectors_keep_their_derived_orthogonality(build, params):
    s = build(params)
    derived = DERIVED[type(s)]
    # n - 1 neighbours fix each derived vector in dimension n
    assert {v.dim for v in s.vectors.values()} == {len(o) + 1 for o in derived.values()}
    for label, orthogonal_to in derived.items():
        for other in orthogonal_to:
            assert abs(inner(s.vectors[label], s.vectors[other])) < ORTH_TOL, (label, other)


@pytest.mark.parametrize("build,params,other", [
    (build_scenario, ScenarioParams(0.3, 0.7, 0.4, 2.1), ScenarioParams(0.3, 0.7, 0.4, 2.2)),
    (build_nonlocal, LocalParams(0.3, 1.1), LocalParams(0.31, 1.1)),
])
def test_vectors_are_stored_once_and_read_only(build, params, other):
    s = build(params)
    with pytest.raises(TypeError):
        s.vectors["N_f"] = s.vectors["N_f"]
    with pytest.raises(AttributeError):
        s.n_f = s.n_f
    assert list(s.vectors) == list(s.LABELS)
    with pytest.raises(ValueError):  # one vector short of LABELS
        type(s).build(params, list(s.vectors.values())[:-1])
    for label, attr in s.LABELS.items():
        assert getattr(s, attr) is s.vectors[label]
    assert s.realization() is s.vectors
    twin = build(params)
    assert twin == s and hash(twin) == hash(s)
    assert build(other) != s
    for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
        assert copied == s and hash(copied) == hash(s)
        assert isinstance(copied.vectors, types.MappingProxyType)


@pytest.mark.parametrize("scenario", [HardyScenario, NonlocalScenario])
def test_a_scenario_is_its_params_and_labelled_vectors(scenario):
    assert scenario._fields == ("params", "vectors")


def test_relations_are_frozen_records_that_copy_and_pickle():
    report = verify_hardy(build_scenario(ScenarioParams(0.3, 0.7, 0.4, 2.1)))
    r = report.relation("eq9")
    with pytest.raises(AttributeError):
        r.residual = 0.0
    twin = Relation(r.id, r.formula_value, r.direct_value, residual=r.residual)
    assert twin == r and hash(twin) == hash(r)
    changed = r._replace(residual=1.0)
    assert changed == Relation("eq9", r.formula_value, r.direct_value, 1.0)
    for copied in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert copied == report and hash(copied.relations) == hash(report.relations)


def _records():
    """One instance of each concrete record type, by name."""
    s = build_scenario(ScenarioParams(0.3, 0.7, 0.4, 2.1))
    report = verify_hardy(s)
    violation, = validate_realization(NETWORKS[1], {**s.vectors, "D1": s.vectors["3"]})
    return {
        "Relation": report.relation("eq9"),
        "RelationReport": report,
        "ScenarioParams": s.params,
        "LocalParams": LocalParams(0.3, 1.1),
        "HardyScenario": s,
        "NonlocalScenario": build_nonlocal(LocalParams(0.3, 1.1)),
        "ContextNetwork": NETWORKS[4],
        "Violation": violation,
        "SampleEstimate": oracle.estimate(s, 42, 1000),
    }


@pytest.mark.parametrize("name", list(_records()))
def test_records_are_frozen_named_tuples_that_pickle_and_copy(name):
    record = _records()[name]
    assert type(record).__name__ == name
    assert not hasattr(record, "__dict__")  # every class in the chain declares __slots__ = ()
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is type(record) and copied == record
        if name == "RelationReport":  # its params are a dict
            with pytest.raises(TypeError):
                hash(copied)
        else:
            assert hash(copied) == hash(record)


def test_replace_checks_its_input_as_construction_does():
    p = ScenarioParams(0.5, 0.5)
    with pytest.raises(OutOfDomain):
        p._replace(alpha=2.0)
    with pytest.raises(ValueError, match="a2='x' must be a number"):
        LocalParams(0.5)._replace(a2="x")
    with pytest.raises(ValueError, match="self-loop"):
        NETWORKS[1]._replace(edges=[("1", "1")])
    changed = p._replace(phase_d1=1)
    assert changed == (0.5, 0.5, 1.0, 0.0) and type(changed.phase_d1) is float
    assert ScenarioParams._make([0.5, 0.5]) == p


def test_a_scenarios_hash_ignores_its_vectors():
    s = build_scenario(ScenarioParams(0.3, 0.7, 0.4, 2.1))
    other = s._replace(vectors=types.MappingProxyType({}))
    assert other != s and hash(other) == hash(s) == hash(s.params)


def test_report_scalars_become_float_or_re_im_pair_whatever_their_type():
    # numpy.complex128 subclasses complex: an isinstance test makes it a pair,
    # where a type test would pass it to float() and lose the imaginary part.
    report = RelationReport({"a2": 0.5}, (
        Relation("numpy", np.complex128(0.5 - 2j), np.float64(0.1), 2.5),
        Relation("python", 3, complex(-0.0, 4.0), 3.0),
        Relation("numpy direct", 0.25, np.complex128(-1.5 + 0.5j), 1.0),
    ))
    relations = report_to_json(report)["relations"]
    assert [(r["formula"], r["direct"]) for r in relations] == [
        ([0.5, -2.0], 0.1), (3.0, [-0.0, 4.0]), (0.25, [-1.5, 0.5]),
    ]
    assert type(relations[0]["direct"]) is type(relations[1]["formula"]) is float
    assert json.dumps(relations) == (
        '[{"id": "numpy", "formula": [0.5, -2.0], "direct": 0.1, "residual": 2.5}, '
        '{"id": "python", "formula": 3.0, "direct": [-0.0, 4.0], "residual": 3.0}, '
        '{"id": "numpy direct", "formula": 0.25, "direct": [-1.5, 0.5], "residual": 1.0}]'
    )


@pytest.mark.parametrize("module,params,calls", [
    (hardy3, ScenarioParams(0.3, 0.7, 0.4, 2.1), 16),
    (nonlocal4, LocalParams(0.3, 1.1), 5),
], ids=["hardy3", "nonlocal4"])
def test_verify_all_makes_one_inner_call_per_ordered_pair(module, params, calls, monkeypatch):
    s = module.build(params)
    want = json.dumps(hex_floats(report_to_json(module.verify_all(s))))
    label = {id(v): name for name, v in s.vectors.items()}
    pairs = []

    def recording(u, v):
        pairs.append((label[id(u)], label[id(v)]))
        return inner(u, v)

    monkeypatch.setattr(module, "inner", recording)
    got = json.dumps(hex_floats(report_to_json(module.verify_all(s))))
    assert len(pairs) == calls
    assert len(set(pairs)) == calls
    assert got == want


@pytest.mark.parametrize("module,params", [
    (hardy3, ScenarioParams(0.3, 0.7, 0.4, 2.1)),
    (nonlocal4, LocalParams(0.3, 1.1)),
], ids=["hardy3", "nonlocal4"])
def test_derived_vectors_are_complement_calls_in_labels_order(module, params, monkeypatch):
    made = []

    def recording(vectors):
        made.append(orthogonal_complement(vectors))
        return made[-1]

    monkeypatch.setattr(module, "orthogonal_complement", recording)
    s = module.build(params)
    derived = DERIVED[type(s)]
    # DERIVED names every labelled vector that a complement call made, and no other
    assert {label for label, v in s.vectors.items() if any(v is m for m in made)} == set(derived)
    for label, neighbours in derived.items():
        v = orthogonal_complement([s.vectors[other] for other in neighbours])
        assert s.vectors[label].components.tobytes() == v.components.tobytes(), label
    # hardy3's f is built last, after N_f, but keeps its LABELS place
    assert list(s.vectors) == list(s.LABELS)


def make_points(seed, n):
    """Hardy3 and nonlocal4 points in turn, every fifth of each near 1.

    The same draw as the benchmark's ensemble points: near-boundary
    probabilities are 1 - d with log10(d) uniform in [-9, -3], the others
    uniform in [1e-3, 1 - 1e-3], and phases uniform in [0, 2 pi).
    """
    rng = np.random.default_rng(seed)
    points = []
    for i in range(n):
        k = 2 if i % 2 == 0 else 1
        if (i // 2) % 5 == 0:
            x = 1.0 - 10.0 ** rng.uniform(-9.0, -3.0, k)
        else:
            x = rng.uniform(1e-3, 1.0 - 1e-3, k)
        ph = rng.uniform(0.0, 2.0 * math.pi, k)
        if k == 2:
            points.append(ScenarioParams(float(x[0]), float(x[1]), float(ph[0]), float(ph[1])))
        else:
            points.append(LocalParams(float(x[0]), float(ph[0])))
    return points


def reference_squared_norm(zs):
    """|z_0|^2 + |z_1|^2 + ..., added left to right, never by ``sum``."""
    total = 0.0
    for z in zs:
        total = total + (z.real * z.real + z.imag * z.imag)
    return total


def reference_complement(vectors):
    """The complement of n - 1 inputs of dimension n as their conjugated cofactor vector.

    Entry j is the conjugated cofactor of column j in the matrix whose first
    rows are the inputs: -b, a in dimension 2; the cross product in
    dimension 3; in dimension 4, the Laplace expansion along the first
    input over the other columns a < b < c, u_a m_bc - u_b m_ac + u_c m_ab
    with m the 2 x 2 minors of the other two inputs, its first two terms
    swapped where the cofactor's sign is negative. The vector is divided by
    its norm, and the first component c above ``ORTH_TOL`` rotated by
    ``conj(c) / |c|``, each a Python complex operation.
    """
    rows = [v.components.tolist() for v in vectors]
    dim = len(rows) + 1
    assert {len(row) for row in rows} == {dim}
    if dim == 2:
        ((a, b),) = rows
        c = [-b, a]
    elif dim == 3:
        u, v = rows
        c = [u[j] * v[k] - u[k] * v[j] for j, k in ((1, 2), (2, 0), (0, 1))]
    else:
        u, v, w = rows

        def m(j, k):
            return v[j] * w[k] - v[k] * w[j]

        c = []
        for j in range(4):
            a, b, col = (x for x in range(4) if x != j)
            if j % 2:  # sign (-1) ** (j + 3) is +1
                c.append(u[a] * m(b, col) - u[b] * m(a, col) + u[col] * m(a, b))
            else:
                c.append(u[b] * m(a, col) - u[a] * m(b, col) - u[col] * m(a, b))
    c = [z.conjugate() for z in c]
    gram = reference_squared_norm(c)
    assert ORTH_TOL < gram < math.inf
    norm = math.sqrt(gram)
    c = [z / norm for z in c]
    first = next(z for z in c if abs(z) > ORTH_TOL)
    phase = first.conjugate() / abs(first)
    return StateVector([z * phase for z in c])


def reference_hardy(p):
    """(label -> vector, report) of the dimension-3 scenario, spelled out."""
    a, b = p.alpha, p.beta
    k1, k2, k3 = (basis_vector(3, i) for i in range(3))
    d1 = StateVector([0.0, math.sqrt(1.0 - a), cmath.exp(1j * p.phase_d1) * math.sqrt(a)])
    d2 = StateVector([math.sqrt(1.0 - b), 0.0, cmath.exp(1j * p.phase_d2) * math.sqrt(b)])
    s1 = reference_complement([k1, d1])
    s2 = reference_complement([k2, d2])
    f = reference_complement([s1, s2])
    n_f = reference_complement([d1, d2])
    vectors = {"1": k1, "2": k2, "3": k3, "D1": d1, "D2": d2,
               "S1": s1, "S2": s2, "f": f, "N_f": n_f}

    nf3 = (1.0 - a) * (1.0 - b) / ((1.0 - a) + a * (1.0 - b))
    f3 = a * b / (a + b * (1.0 - a))
    paradox = (a * b / ((1.0 - a) + a * (1.0 - b))) * (
        (1.0 - a) * (1.0 - b) / (a + b * (1.0 - a))
    )
    c1, c2, c3 = inner(d1, f), inner(d2, f), inner(k3, f)
    expansion = math.sqrt(reference_squared_norm(
        fi - (d1i * c1 + d2i * c2 - k3i * c3)
        for fi, d1i, d2i, k3i in zip(*(v.components.tolist() for v in (f, d1, d2, k3)))
    ))
    rows = [
        ("eq3", inner(d1, k3) * inner(k3, d2), inner(d1, d2)),
        ("eq6", 0.0, expansion),
        ("eq9", -inner(f, k3) * inner(k3, n_f), inner(f, n_f)),
        ("eq10a", -inner(d2, k3) * inner(k3, n_f), inner(d2, k1) * inner(k1, n_f)),
        ("eq10b", -inner(d1, k3) * inner(k3, n_f), inner(d1, k2) * inner(k2, n_f)),
        ("eq11a", (b / (1.0 - b)) * nf3, abs(inner(k1, n_f)) ** 2),
        ("eq11b", (a / (1.0 - a)) * nf3, abs(inner(k2, n_f)) ** 2),
        ("eq12", nf3, abs(inner(k3, n_f)) ** 2),
        ("eq13a", inner(f, d1) * inner(d1, k3), inner(f, k3)),
        ("eq13b", inner(f, d2) * inner(d2, k3), inner(f, k3)),
        ("eq14", 1.0,
         abs(inner(f, d1)) ** 2 + abs(inner(f, d2)) ** 2 - abs(inner(f, k3)) ** 2),
        ("eq15", f3, abs(inner(f, k3)) ** 2),
        ("eq16", paradox, abs(inner(f, n_f)) ** 2),
    ]
    return vectors, reference_report(p, rows)


def reference_nonlocal(p):
    """(label -> vector, report) of the two-qubit scenario, spelled out.

    a and b are not labels; entries 0 and 2 of a,0 and b,0 hold their bits.
    """
    x = p.a2
    k0, k1 = basis_vector(2, 0), basis_vector(2, 1)
    ka = StateVector([cmath.exp(1j * p.phase_a) * math.sqrt(x), math.sqrt(1.0 - x)])
    kb = reference_complement([ka])
    k00, k01, k10, k11 = (tensor(u, v) for u in (k0, k1) for v in (k0, k1))
    ka0, k0a = tensor(ka, k0), tensor(k0, ka)
    kb0, k0b = tensor(kb, k0), tensor(k0, kb)
    kaa = tensor(ka, ka)
    f_nl = reference_complement([kb0, k0b, k11])
    n_f = reference_complement([ka0, k0a, k11])
    vectors = {
        "0,0": k00, "0,1": k01, "1,0": k10, "1,1": k11,
        "a,0": ka0, "0,a": k0a, "b,0": kb0, "0,b": k0b,
        "a,a": kaa, "f_NL": f_nl, "N_f": n_f,
    }

    c1, c2 = inner(f_nl, kaa), inner(k11, kaa)
    expansion = math.sqrt(reference_squared_norm(
        aa - (fi * c1 + k11i * c2)
        for aa, fi, k11i in zip(*(v.components.tolist() for v in (kaa, f_nl, k11)))
    ))
    factorization = abs(inner(kaa, n_f) - inner(kaa, f_nl) * inner(f_nl, n_f))
    rows = [
        ("eq17", (x * x / (1.0 + x)) * ((1.0 - x) / (x * (2.0 - x))),
         abs(inner(f_nl, n_f)) ** 2),
        ("eq18", 0.0, max(expansion, factorization)),
        ("eq19", x * (2.0 - x), abs(inner(f_nl, kaa)) ** 2),
        ("eq20", inner(kaa, f_nl) * inner(f_nl, n_f), inner(kaa, n_f)),
        ("eq21", x * x * (1.0 - x) / (1.0 + x), abs(inner(kaa, n_f)) ** 2),
    ]
    return vectors, reference_report(p, rows)


def reference_report(p, rows):
    relations = tuple(Relation(i, formula, direct, abs(formula - direct))
                      for i, formula, direct in rows)
    return RelationReport(p.to_dict(), relations)


def hex_floats(doc):
    """``doc`` with every float written as ``float.hex``, so -0.0 differs from 0.0."""
    if isinstance(doc, float):
        return float.hex(doc)
    if isinstance(doc, dict):
        return {k: hex_floats(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [hex_floats(v) for v in doc]
    return doc


@pytest.mark.parametrize("seed", [1, 7])
def test_vectors_and_reports_match_the_reference_bit_for_bit(seed):
    for p in make_points(seed, 1000):
        if isinstance(p, ScenarioParams):
            s, report = build_scenario(p), verify_hardy
            vectors, expected = reference_hardy(p)
        else:
            s, report = build_nonlocal(p), verify_nonlocal
            vectors, expected = reference_nonlocal(p)
        built = dict(s.vectors)
        assert list(built) == list(vectors)
        for name, v in vectors.items():
            assert built[name].components.tobytes() == v.components.tobytes(), (p, name)
        got = json.dumps(hex_floats(report_to_json(report(s))))
        assert got == json.dumps(hex_floats(report_to_json(expected))), p


def test_near_boundary_residuals_stay_at_rounding_level():
    # The 1e-10 gate does not move; this pins how far below it the cofactor
    # products stay where alpha, beta or a2 approach 1 (the SVD reached 4.4e-12).
    points = make_points(2024, 20000)
    near = points[0::10] + points[1::10]  # every fifth point of each scenario
    near += [ScenarioParams(0.999999999, 0.999999999), LocalParams(0.999999999)]
    # and the other corners of the domain, at 1e-9
    near += [
        ScenarioParams(1e-9, 1e-9), ScenarioParams(1e-9, 1 - 1e-9),
        ScenarioParams(1 - 1e-9, 1e-9), LocalParams(1e-9),
    ]
    worst = 0.0
    for p in near:
        if isinstance(p, ScenarioParams):
            report = verify_hardy(build_scenario(p))
        else:
            report = verify_nonlocal(build_nonlocal(p))
        worst = nan_max((worst, report.max_residual()))
    assert worst < 1e-14


def test_gram_sums_do_not_depend_on_the_python_version():
    # N_f of D1 and D2 at alpha = 0.2, beta = 0.7 is a row where the Gram
    # determinant added left to right and the compensated sum that ``sum``
    # of floats makes from Python 3.12 on differ in the last bit; the first
    # component would then end in ...858. These bits hold on every version.
    s = build_scenario(ScenarioParams(0.2, 0.7))
    assert [_hex(z) for z in s.n_f.components.tolist()] == [
        ("0x1.9d281a4e8c857p-1", "0x0.0p+0"),
        ("0x1.0e797a0a15212p-2", "0x0.0p+0"),
        ("-0x1.0e797a0a15212p-1", "0x0.0p+0"),
    ]
    c = hilbert.cofactor([s.d1.components.tolist(), s.d2.components.tolist()])
    terms = [z.real * z.real + z.imag * z.imag for z in c]
    assert terms[0] + terms[1] + terms[2] != math.fsum(terms)


def _hex(z):
    return z.real.hex(), z.imag.hex()


def _digest(points):
    """sha256 over each point's vectors (``components`` bytes, ``LABELS`` order) and report."""
    h = hashlib.sha256()
    for p in points:
        module = hardy3 if isinstance(p, ScenarioParams) else nonlocal4
        s = module.build(p)
        for v in s.vectors.values():
            h.update(v.components.tobytes())
        h.update(json.dumps(report_to_json(module.verify_all(s))).encode())
    return h.hexdigest()


def _cpu_features():
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    return _multiarray_umath.__cpu_features__


#: numpy's dispatch targets above the x86-64-v2 baseline, whose kernels fuse multiplies and adds.
SIMD_TARGETS = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")


@pytest.mark.skipif(not _cpu_features().get("X86_V3"), reason="numpy finds no X86_V3 here")
def test_vectors_and_reports_do_not_depend_on_numpy_simd_or_blas():
    # The same points, sent as exact floats, built and verified in a child
    # interpreter whose numpy runs without its SIMD kernels and whose
    # OpenBLAS runs its oldest x86-64 kernels: the bytes must not move.
    points = make_points(2024, 2000)
    disabled = [f for f in SIMD_TARGETS if _cpu_features().get(f)]
    tests = os.path.dirname(os.path.abspath(__file__))
    path = [os.path.dirname(contextnet.__path__[0]), os.environ.get("PYTHONPATH")]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, path)),
        "NPY_DISABLE_CPU_FEATURES": " ".join(disabled),
        "OPENBLAS_CORETYPE": "Prescott",
    }
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {tests!r})\n"
        "from test_scenario import LocalParams, ScenarioParams, _cpu_features, _digest\n"
        "docs = json.load(sys.stdin)\n"
        "points = [ScenarioParams(**d) if 'alpha' in d else LocalParams(**d) for d in docs]\n"
        "print(_digest(points), _cpu_features().get('X86_V3'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], input=json.dumps([p.to_dict() for p in points]),
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [_digest(points), "False"]


#: Child-interpreter code: a finder first on ``sys.meta_path`` refuses numpy
#: and its submodules; then one scenario is built, checked against its
#: figure and reported, and ``cli.main`` runs each argv read from stdin.
_WITHOUT_NUMPY = """\
import contextlib, importlib.abc, io, json, re, sys

class RefuseNumpy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"{name} is refused", name=name)

sys.meta_path.insert(0, RefuseNumpy())
from contextnet import cli, network, report

job = json.load(sys.stdin)
module = cli.SCENARIOS[job["scenario"]]
s = module.build(module.PARAMS.from_dict(job["params"]))
net = network.builtin_network(job["figure"])
runs = []
for argv in job["argvs"]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    runs.append([code, re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', out.getvalue()), err.getvalue()])
print(json.dumps({
    "violations": [str(v) for v in network.validate_realization(net, s.realization())],
    "report": report.report_to_json(module.verify_all(s)),
    "runs": runs,
    "numpy loaded": "numpy" in sys.modules,
}))
"""


@pytest.mark.parametrize("module,params,figures,out_of_domain", [
    (hardy3, ScenarioParams(0.3, 0.7, 0.4, 2.1), (1, 2), {"alpha": 1.0, "beta": 0.5}),
    (nonlocal4, LocalParams(0.3, 1.1), (3, 4), {"a2": 1.0}),
], ids=["hardy3", "nonlocal4"])
def test_the_per_point_path_makes_no_numpy_call(
    module, params, figures, out_of_domain, tmp_path, capsys
):
    # In a child where numpy cannot be imported, the build, the figure check,
    # the report and the CLI's verify and graph give what they give here,
    # with numpy loaded, and the child never loads numpy.
    kind = module.__name__.rpartition(".")[2]
    argvs = [["graph", "--figure", str(f)] for f in figures]
    for name, doc in (("params", params.to_dict()), ("bad", out_of_domain)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        argvs.append(["verify", kind, "--params", str(tmp_path / f"{name}.json")])
    runs = []
    for argv in argvs:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        runs.append([code, re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', out), err])
    assert [code for code, _, _ in runs] == [0] * (len(argvs) - 1) + [2]
    want = {
        "violations": [],
        "report": report_to_json(module.verify_all(module.build(params))),
        "runs": runs,
        "numpy loaded": False,
    }
    job = {"scenario": kind, "params": params.to_dict(), "figure": figures[1], "argvs": argvs}
    path = [os.path.dirname(contextnet.__path__[0]), os.environ.get("PYTHONPATH")]
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY], input=json.dumps(job),
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == want


@pytest.mark.parametrize("residuals", [(1e-16, math.nan), (math.nan, 1e-16), (0.0, math.nan, 1.0)])
def test_max_residual_does_not_hide_a_nan(residuals):
    relations = tuple(Relation(f"r{i}", 0.0, 0.0, r) for i, r in enumerate(residuals))
    assert math.isnan(RelationReport({}, relations).max_residual())


@pytest.mark.parametrize("values", [
    (1e-16, 3e-16, 2e-16), (0.0, -0.0), (-0.0, 0.0), (1.0, math.inf), (5e-324,),
])
def test_nan_max_without_a_nan_is_the_builtin_max(values):
    assert float.hex(nan_max(values)) == float.hex(max(values))
    assert float.hex(nan_max(iter(values))) == float.hex(max(values))
