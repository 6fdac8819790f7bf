import copy
import math
import pickle
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from contextnet import hilbert
from contextnet.errors import DegenerateSpan, DimensionMismatch, NotNormalized
from contextnet.hilbert import (
    NORM_CHECK_TOL,
    ORTH_TOL,
    PROBABILITY_SLACK,
    StateVector,
    basis_vector,
    born_probability,
    canonical_phase,
    clamp_probability,
    cofactor,
    inner,
    orthogonal_complement,
    tensor,
)

SQRT_HALF = math.sqrt(0.5)


def _normalized(components) -> StateVector:
    c = np.asarray(components, dtype=np.complex128)
    return StateVector(c / np.linalg.norm(c))


def _vectors(dim: int):
    """Random normalized vectors of the given dimension."""

    def build(xs):
        c = np.array(xs[::2]) + 1j * np.array(xs[1::2])
        if np.linalg.norm(c) < 1e-3:
            return None
        return _normalized(c)

    return (
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
            min_size=2 * dim,
            max_size=2 * dim,
        )
        .map(build)
        .filter(lambda v: v is not None)
    )


class TestStateVector:
    def test_a_vector_is_its_tuple_of_complex(self):
        v = StateVector([1, 0.5, 2j])
        assert StateVector.__slots__ == ("_components",) and not hasattr(v, "__dict__")
        assert type(v.components) is tuple and v.components == (1 + 0j, 0.5 + 0j, 2j)
        assert all(type(z) is complex for z in v.components)

    def test_components_are_read_only(self):
        v = basis_vector(3, 0)
        with pytest.raises(TypeError):
            v.components[0] = 2.0
        with pytest.raises(AttributeError):
            v.components = (2.0, 0.0, 0.0)
        assert v == basis_vector(3, 0)

    def test_equality_and_hash(self):
        u = StateVector([1, 0, 0])
        v = basis_vector(3, 0)
        assert u == v
        assert hash(u) == hash(v)
        assert u != basis_vector(3, 1)

    @pytest.mark.parametrize("a,b", [
        ([0.0, 1.0], [-0.0, 1.0]),
        ([complex(1.0, 0.0), 0.0], [complex(1.0, -0.0), 0.0]),
        ([complex(-0.0, -0.0), 1.0], [0.0, 1.0]),
    ])
    def test_signed_zeros_equal_and_hash_alike(self, a, b):
        u, v = StateVector(a), StateVector(b)
        assert u == v
        assert hash(u) == hash(v)
        assert len({u, v}) == 1

    def test_nan_components_are_never_equal(self):
        # compared element by element: a tuple would call its own NaN object equal
        v = StateVector([math.nan, 1.0])
        assert v != v and v != StateVector([math.nan, 1.0])
        assert StateVector([math.nan, 1.0]) != StateVector([0.0, 1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one component"):
            StateVector([])

    @pytest.mark.parametrize("components,message", [
        (None, "'NoneType' object is not iterable"),
        ([None, 1.0], "component 0 is None, not a number"),
        ([1.0, None], "component 1 is None, not a number"),
        (["1", "0"], "component 0 is '1', not a number"),
        ([1.0, "0"], "component 1 is '0', not a number"),
        ("10", "components '10' are text, not numbers"),
        ([b"1", b"0"], "component 0 is b'1', not a number"),
        (b"10", "components b'10' are text, not numbers"),
        (bytearray(b"10"), "components bytearray(b'10') are text, not numbers"),
        ([[1.0, 0.0], [0.0, None]], "component 0 is [1.0, 0.0], not a number"),
        (np.eye(2), "component 0 is array([1., 0.]), not a number"),
        (5.0, "'float' object is not iterable"),
        (np.float64(5.0), "'numpy.float64' object is not iterable"),
    ], ids=["none", "none-entry", "none-last", "str-entries", "mixed-str", "str", "bytes",
            "bytes-argument", "bytearray-argument", "nested", "nested-array", "scalar",
            "numpy-scalar"])
    def test_rejects_none_and_text_entries(self, components, message):
        # iterating b"10" would give the ints 49 and 48, and complex("1") parses text
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            StateVector(components)

    @settings(max_examples=300)
    @given(data=st.data())
    def test_components_are_numpys_complex128_cast(self, data):
        floats = st.floats(width=64) | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
        dtype = data.draw(st.sampled_from(
            [np.float32, np.float64, np.complex64, np.complex128, np.int64, np.bool_, None]))
        if dtype is None:  # a Python list of mixed numbers
            x = data.draw(st.lists(
                st.integers(-2**60, 2**60) | floats | st.builds(complex, floats, floats),
                min_size=1, max_size=5))
        else:
            x = data.draw(hnp.arrays(dtype, st.integers(1, 5)))
        got = StateVector(x).components
        assert all(type(z) is complex for z in got)
        want = np.asarray(x).astype(np.complex128).tolist()
        assert [_bits(z) for z in got] == [_bits(z) for z in want]

    def test_norm(self):
        assert StateVector([3, 4]).norm() == pytest.approx(5.0)
        assert basis_vector(4, 2).is_normalized()

    def test_norm_deviation_of_exactly_the_tolerance_is_accepted(self, monkeypatch):
        # A norm near 1 lies a multiple of 2**-53 from it, which 1e-10 is not
        # (0x1.b7cdfd9d7bdbbp-34), so no vector deviates by exactly
        # NORM_CHECK_TOL; the nearest doubles sit on either side of it. The
        # tolerance is set to 2**-33, which both norms below reach exactly.
        inside = 1 + math.floor(NORM_CHECK_TOL * 2**52) * 2**-52
        assert StateVector([inside]).is_normalized()
        assert not StateVector([inside + 2**-52]).is_normalized()
        monkeypatch.setattr(hilbert, "NORM_CHECK_TOL", 2**-33)
        for norm, beyond in ((1 + 2**-33, 1 + 2**-33 + 2**-52), (1 - 2**-33, 1 - 2**-33 - 2**-53)):
            assert StateVector([0.0, norm]).norm() == norm
            assert StateVector([0.0, norm]).is_normalized()
            assert not StateVector([0.0, beyond]).is_normalized()

    def test_constructor_copies_its_input(self):
        a = np.array([1.0, 0.0], dtype=np.complex128)
        v = StateVector(a)
        a[0] = 2.0
        assert list(v.components) == [1.0, 0.0]
        assert a.flags.writeable

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda v: pickle.loads(pickle.dumps(v))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_stay_read_only(self, clone):
        v = StateVector([0.6, 0.8j])
        w = clone(v)
        assert w == v and w.norm() == v.norm()
        assert type(w.components) is tuple and w.components == v.components


def _made_vectors():
    """A vector from each function that builds one from an array it made."""
    u, w = _normalized([1.0, 1.0j]), _normalized([1.0, 2.0, 3.0j])
    e0 = basis_vector(3, 0)
    return {
        "basis_vector": basis_vector(4, 1),
        "tensor": tensor(u, w),
        "orthogonal_complement": orthogonal_complement([e0, _normalized([0.0, 1.0, 1.0j])]),
    }


class TestOwnedArrays:
    """Vectors that hilbert makes hold a tuple of Python complex, as ``_of`` takes it."""

    @pytest.mark.parametrize("name", list(_made_vectors()))
    def test_made_vector_owns_read_only_data(self, name):
        c = _made_vectors()[name].components
        assert type(c) is tuple and all(type(z) is complex for z in c)


class TestInner:
    def test_identical_basis_vector(self):
        e3 = basis_vector(3, 2)
        assert inner(e3, e3) == pytest.approx(1.0 + 0.0j)

    def test_orthogonal_basis_vectors(self):
        assert inner(basis_vector(3, 0), basis_vector(3, 1)) == 0.0 + 0.0j

    def test_superposition_against_axis(self):
        # equal-weight superposition of the last two axes, no phase
        d1 = StateVector([0.0, SQRT_HALF, SQRT_HALF])
        assert inner(d1, basis_vector(3, 2)) == pytest.approx(SQRT_HALF + 0.0j)

    def test_conjugates_first_argument(self):
        u = _normalized([1j, 0.0])
        v = basis_vector(2, 0)
        assert inner(u, v) == pytest.approx(-1j)
        assert inner(v, u) == pytest.approx(1j)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inner(basis_vector(2, 0), basis_vector(3, 0))

    def test_conjugate_symmetry_bulk(self):
        rng = np.random.default_rng(20240811)
        for _ in range(1000):
            u = _normalized(rng.normal(size=3) + 1j * rng.normal(size=3))
            v = _normalized(rng.normal(size=3) + 1j * rng.normal(size=3))
            assert abs(inner(u, v) - inner(v, u).conjugate()) < 1e-14

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_bits_equal_the_left_to_right_sum(self, dim):
        # Python complex products added left to right, signed zeros and
        # subnormals included: no summation order or fused multiply-add of a
        # numpy or BLAS kernel
        rng = np.random.default_rng([20261018, dim])
        for _ in range(500):
            u, v = (_random_components(rng, dim).tolist() for _ in range(2))
            want = u[0].conjugate() * v[0]
            for x, y in zip(u[1:], v[1:]):
                want = want + x.conjugate() * y
            got = inner(StateVector(u), StateVector(v))
            assert type(got) is complex and _hex(got) == _hex(want)

    def test_signed_zeros_follow_the_left_to_right_sum(self):
        u = [complex(-0.0, 0.0), complex(0.0, -0.0)]
        v = [complex(0.0, -0.0), complex(-0.0, -0.0)]
        w = [complex(5e-324), complex(-0.0, 5e-324)]
        for x in (u, v, w):
            for y in (u, v, w):
                want = x[0].conjugate() * y[0] + x[1].conjugate() * y[1]
                assert _hex(inner(StateVector(x), StateVector(y))) == _hex(want)
        # the first product is the start of the sum, not 0 + it
        assert _hex(inner(StateVector([-0.0]), StateVector([0.0]))) == _hex(complex(0.0, -0.0))

    @given(u=_vectors(3), v=_vectors(3))
    def test_cauchy_schwarz(self, u, v):
        assert abs(inner(u, v)) ** 2 <= 1.0 + 1e-12


class TestBornProbability:
    def test_certainty(self):
        e3 = basis_vector(3, 2)
        assert born_probability(e3, e3) == 1.0

    def test_exclusion(self):
        assert born_probability(basis_vector(3, 0), basis_vector(3, 1)) == 0.0

    def test_weighted_superposition(self):
        # |<e3|prep>|^2 is the squared weight on the third axis
        prep = StateVector([0.0, math.sqrt(0.75), math.sqrt(0.25)])
        assert born_probability(prep, basis_vector(3, 2)) == pytest.approx(0.25, abs=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            born_probability(StateVector([1.0, 1.0]), basis_vector(2, 0))
        with pytest.raises(NotNormalized):
            born_probability(basis_vector(2, 0), StateVector([0.5, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            born_probability(basis_vector(2, 0), basis_vector(3, 0))

    @pytest.mark.parametrize("excess", [5e-11, 9e-11])
    def test_accepts_every_norm_the_check_accepts(self, excess):
        v = StateVector([1.0 + excess, 0.0, 0.0])
        assert born_probability(v, v) == 1.0
        assert born_probability(v, _normalized([1.0, 1.0, 0.0])) == pytest.approx(0.5)


class TestClampProbability:
    def test_clamps_roundoff(self):
        assert clamp_probability(1.0 + 5e-13) == 1.0
        assert clamp_probability(-5e-13) == 0.0
        assert clamp_probability(0.3) == 0.3

    def test_accepts_a_spill_of_exactly_the_slack(self):
        assert clamp_probability(-PROBABILITY_SLACK) == 0.0
        assert clamp_probability(1.0 + PROBABILITY_SLACK) == 1.0
        for beyond in (math.nextafter(-PROBABILITY_SLACK, -1.0),
                       math.nextafter(1.0 + PROBABILITY_SLACK, 2.0)):
            with pytest.raises(ValueError, match="outside"):
                clamp_probability(beyond)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="outside"):
            clamp_probability(1.1)
        with pytest.raises(ValueError, match="outside"):
            clamp_probability(-0.1)
        with pytest.raises(ValueError, match="outside"):
            clamp_probability(math.nan)


class TestTensor:
    def test_basis_ordering(self):
        k00 = tensor(basis_vector(2, 0), basis_vector(2, 0))
        assert np.array_equal(k00.components, [1, 0, 0, 0])
        # ordering is (00, 01, 10, 11): second factor varies fastest
        k10 = tensor(basis_vector(2, 1), basis_vector(2, 0))
        assert np.array_equal(k10.components, [0, 0, 1, 0])

    def test_superposition_times_axis(self):
        a = StateVector([SQRT_HALF, SQRT_HALF])
        prod = tensor(a, basis_vector(2, 0))
        assert np.allclose(prod.components, [SQRT_HALF, 0, SQRT_HALF, 0])

    @given(a=_vectors(2), b=_vectors(2), c=_vectors(2), d=_vectors(2))
    def test_inner_multiplicativity(self, a, b, c, d):
        lhs = inner(tensor(a, b), tensor(c, d))
        rhs = inner(a, c) * inner(b, d)
        assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    @given(data=st.data())
    def test_bits_equal_np_kron(self, dims, data):
        # Raw components, signed zeros and subnormals included: each component
        # has the bits of the Python product u_i * v_j, in np.kron's order.
        parts = st.floats(-1e100, 1e100) | st.sampled_from([0.0, -0.0])
        u, v = (
            data.draw(st.lists(st.builds(complex, parts, parts), min_size=d, max_size=d))
            for d in dims
        )
        got = list(tensor(StateVector(u), StateVector(v)).components)
        assert [_hex(z) for z in got] == [_hex(x * y) for x in u for y in v]
        # np.kron may fuse a multiply and an add, which moves each part by at
        # most a few units of |u_i| |v_j| in the last place
        # (|u_i| |v_j| is formed first, so a subnormal |u_i| cannot underflow it)
        bound = [4 * 2.0**-52 * (abs(x) * abs(y)) + 1e-300 for x in u for y in v]
        for z, k, b in zip(got, np.kron(u, v).tolist(), bound):
            assert abs(z.real - k.real) <= b and abs(z.imag - k.imag) <= b

    @given(u=_vectors(2), v=_vectors(3))
    def test_norm_multiplicative(self, u, v):
        assert tensor(u, v).norm() == pytest.approx(1.0, abs=1e-12)


class TestOrthogonalComplement:
    def test_completes_standard_basis(self):
        out = orthogonal_complement([basis_vector(3, 0), basis_vector(3, 1)])
        assert np.allclose(out.components, [0, 0, 1])

    def test_rank_deficient_rejected(self):
        e0 = basis_vector(3, 0)
        with pytest.raises(DegenerateSpan, match="Gram determinant 0.0,"):
            orthogonal_complement([e0, e0])

    def test_overcomplete_rejected(self):
        # three inputs fix a vector of dimension 4, so dimension-3 inputs mismatch
        with pytest.raises(DimensionMismatch, match="^input 0 is of dimension 3, expected 4$"):
            orthogonal_complement([basis_vector(3, i) for i in range(3)])

    def test_duplicates_spanning_correctly_are_fine(self):
        # not fine: n - 1 inputs fix dimension n, so with a duplicate that
        # spans correctly the inputs are one too many for their dimension
        e1 = basis_vector(3, 0)
        with pytest.raises(DimensionMismatch, match="^input 0 is of dimension 3, expected 4$"):
            orthogonal_complement([e1, e1, basis_vector(3, 1)])

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_wrong_input_count_is_named(self, dim):
        # a wrong count shows as inputs not of dimension count + 1
        for count in sorted({dim - 2, dim, dim + 1} - {0}):
            expected = f"^input 0 is of dimension {dim}, expected {count + 1}$"
            with pytest.raises(DimensionMismatch, match=expected):
                orthogonal_complement([basis_vector(dim, i % dim) for i in range(count)])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="^input 0 is of dimension 2, expected 3$"):
            orthogonal_complement([basis_vector(2, 0), basis_vector(3, 0)])
        with pytest.raises(DimensionMismatch, match="^input 1 is of dimension 4, expected 3$"):
            orthogonal_complement([basis_vector(3, 0), basis_vector(4, 0)])

    def test_other_dimensions_rejected(self):
        # the cofactor is written out for dimensions 2 to 4 only
        for dim in (1, 5):
            with pytest.raises(ValueError, match="rows"):
                orthogonal_complement([basis_vector(dim, i) for i in range(dim - 1)])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="^need 1 to 3 rows"):
            orthogonal_complement([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(DegenerateSpan):
            orthogonal_complement([StateVector([bad, 0.0, 0.0]), basis_vector(3, 1)])

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.inf)])
    def test_non_finite_component_anywhere_rejected(self, dim, bad):
        # an infinity must not reach canonical_phase, whose zero-vector error is a ValueError
        for row in range(dim - 1):
            for col in range(dim):
                inputs = [list(basis_vector(dim, i).components) for i in range(dim - 1)]
                inputs[row][col] = bad
                with pytest.raises(DegenerateSpan, match="Gram determinant"):
                    orthogonal_complement([StateVector(v) for v in inputs])

    def test_gram_determinant_at_the_tolerance_is_rejected(self):
        # a single input [x, y] of dimension 2 has Gram determinant y * y + x * x
        x = math.sqrt(ORTH_TOL / 2)
        assert x * x + x * x == ORTH_TOL
        with pytest.raises(DegenerateSpan, match="Gram determinant 1e-10,"):
            orthogonal_complement([StateVector([x, x])])
        above = math.nextafter(x, 1.0)
        assert x * x + above * above > ORTH_TOL
        out = orthogonal_complement([StateVector([x, above])])
        assert abs(inner(out, _normalized([x, above]))) < 1e-15

    @pytest.mark.parametrize("dim,bad", [
        (2, "zero"), (3, "zero"), (4, "zero"), (3, "parallel"), (4, "parallel"),
    ])
    def test_dependent_inputs_rejected(self, dim, bad):
        rng = np.random.default_rng([dim, len(bad)])
        inputs = [StateVector(_random_components(rng, dim, 0)) for _ in range(dim - 1)]
        parallel = 2j * np.asarray(inputs[0].components)
        inputs[-1] = StateVector(parallel if bad == "parallel" else np.zeros(dim))
        with pytest.raises(DegenerateSpan, match="Gram determinant"):
            orthogonal_complement(inputs)

    @given(u=_vectors(3), v=_vectors(3))
    @settings(deadline=None)
    def test_orthogonality_norm_and_phase(self, u, v):
        gram = abs(inner(u, v))
        if gram > 1.0 - 1e-3:  # nearly parallel inputs are rank deficient
            return
        out = orthogonal_complement([u, v])
        assert abs(inner(out, u)) < 1e-10
        assert abs(inner(out, v)) < 1e-10
        assert abs(out.norm() - 1.0) < 1e-12
        first = next(c for c in out.components if abs(c) > 1e-10)
        assert first.real > 0
        assert abs(first.imag) < 1e-12 * max(1.0, abs(first.real))

    def test_deterministic_bit_identical(self):
        u = _normalized([0.3 + 0.1j, -0.2, 0.9 + 0.4j])
        v = _normalized([0.1, 0.8 - 0.3j, -0.2j])
        first = orthogonal_complement([u, v])
        second = orthogonal_complement([u, v])
        assert np.array_equal(first.components, second.components)


class TestCofactor:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_orthogonal_to_every_row_with_the_gram_determinant_as_squared_norm(self, dim):
        rng = np.random.default_rng([20261019, dim])
        for _ in range(200):
            rows = rng.normal(size=(dim - 1, dim)) + 1j * rng.normal(size=(dim - 1, dim))
            c = np.array(cofactor(rows.tolist()))
            assert np.abs(rows.conj() @ c).max() < 1e-13
            gram = np.linalg.det(rows.conj() @ rows.T).real
            assert np.vdot(c, c).real == pytest.approx(gram, rel=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_on_arrays_each_entry_is_the_scalar_product(self, dim):
        # one array per matrix entry, as a grid of points would pass them; float64
        # products round as Python floats do, complex128 ones may differ in the last bit
        rng = np.random.default_rng([7, dim])
        real = rng.normal(size=(dim - 1, dim, 50))
        grid = real + 1j * rng.normal(size=(dim - 1, dim, 50))
        real_columns = cofactor([list(row) for row in real])
        columns = cofactor([list(row) for row in grid])
        for k in range(50):
            scalars = cofactor(real[:, :, k].tolist())
            assert [float.hex(float(col[k])) for col in real_columns] == list(map(float.hex, scalars))
            scalars = cofactor(grid[:, :, k].tolist())
            assert [complex(col[k]) for col in columns] == pytest.approx(scalars, rel=1e-14)

    def test_real_rows_give_the_cross_product(self):
        assert cofactor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]) == [-3.0, 6.0, -3.0]
        assert cofactor([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]) == [
            0.0, 0.0, 0.0, 1.0,
        ]

    @pytest.mark.parametrize("rows", [[], [[1.0]], [[1.0, 2.0]] * 2, [[1.0] * 5] * 4])
    def test_other_shapes_rejected(self, rows):
        with pytest.raises(ValueError, match="need 1 to 3 rows"):
            cofactor(rows)


#: Components that exercise signed zeros and subnormals.
SPECIAL_COMPONENTS = (
    0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
    5e-324, -5e-324, complex(0.0, 1e-310), complex(-2.5e-308, 5e-324),
)


def _hex(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _bits(z: complex) -> bytes:
    """Both parts' IEEE bits, NaN sign and payload included."""
    return struct.pack("<dd", z.real, z.imag)


def _random_components(rng, dim, special=0.3):
    c = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    for i in np.flatnonzero(rng.random(dim) < special):
        c[i] = SPECIAL_COMPONENTS[rng.integers(len(SPECIAL_COMPONENTS))]
    return c


class TestStackedBits:
    """A stacked pass keeps what the per-item calls give.

    ``cofactor`` over arrays (one array per matrix entry, a group per
    column) keeps each group's column, so a bad group is flagged wherever it
    sits in the stack.
    """

    @pytest.mark.parametrize("bad", ["parallel", "zero", "nan", "inf"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_bad_group_anywhere_raises_as_it_does_alone(self, bad, k):
        rng = np.random.default_rng([k, len(bad)])
        u = StateVector(_random_components(rng, 3, 0))
        bad_group = {
            "parallel": [u, StateVector(2j * np.asarray(u.components))],
            "zero": [u, StateVector([0.0, -0.0, 0.0])],
            "nan": [StateVector([math.nan, 0.0, 0.0]), basis_vector(3, 1)],
            "inf": [StateVector([math.inf, 0.0, 0.0]), basis_vector(3, 1)],
        }[bad]
        with pytest.raises(DegenerateSpan, match="Gram determinant"):
            orthogonal_complement(bad_group)
        for position in range(k):
            groups = [[StateVector(_random_components(rng, 3, 0)) for _ in range(2)]
                      for _ in range(k)]
            groups[position] = bad_group
            entries = np.array([[v.components for v in group] for group in groups])
            with np.errstate(invalid="ignore"):  # inf * 0 in a bad column is NaN, as alone
                columns = np.array(cofactor([list(r) for r in np.moveaxis(entries, 0, -1)]))
                gram = (columns.real * columns.real + columns.imag * columns.imag).sum(axis=0)
            for i, group in enumerate(groups):
                # the same Gram determinant rule that orthogonal_complement applies
                assert (ORTH_TOL < gram[i] < math.inf) == (i != position)
                if i != position:
                    alone = cofactor([list(v.components) for v in group])
                    assert columns[:, i].tolist() == pytest.approx(alone, rel=1e-14)
                    orthogonal_complement(group)


class TestCanonicalPhase:
    def test_rotates_first_significant_component(self):
        v = canonical_phase([0j, 1j, 1 + 0j])
        assert v[1].real == pytest.approx(1.0)
        assert abs(v[1].imag) < 1e-15

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="numerically zero"):
            canonical_phase([0j] * 3)

    def test_a_component_of_magnitude_exactly_orth_tol_is_skipped(self):
        # "above ORTH_TOL": the phase comes from the 1j, not from the first entry
        assert canonical_phase([complex(-ORTH_TOL, 0.0), 1j]) == (complex(0.0, ORTH_TOL), 1 + 0j)
        with pytest.raises(ValueError, match="numerically zero"):
            canonical_phase([complex(0.0, ORTH_TOL)])

    def test_bits_equal_the_conjugate_over_modulus_form(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            c = _random_components(rng, int(rng.integers(1, 5)), special=0.4).tolist()
            first = next((x for x in c if abs(x) > ORTH_TOL), None)
            if first is not None:
                phase = first.conjugate() / abs(first)
                got = canonical_phase(c)
                assert type(got) is tuple
                assert [_hex(z) for z in got] == [_hex(x * phase) for x in c]


def test_basis_vector_bounds():
    with pytest.raises(ValueError, match="not an integer in"):
        basis_vector(3, 3)
    # a bool or a float is not an index: numpy would read True as a mask
    for index in (True, False, 1.0, -1, "1"):
        with pytest.raises(ValueError, match="not an integer"):
            basis_vector(3, index)
    assert basis_vector(3, np.int64(2)) == basis_vector(3, 2)
    # the dimension is checked too, and named: numpy would take 3.0 or True
    for dim in (True, 2.5, 3.0, "3", -1, 0):
        with pytest.raises(ValueError, match="dimension .* is not an integer >= 1"):
            basis_vector(dim, 0)
    with pytest.raises(ValueError, match="dimension 3.0"):
        basis_vector(3.0, 1)
    assert basis_vector(np.int64(3), 1) == basis_vector(3, 1)
    assert basis_vector(1, 0) == StateVector._of((1 + 0j,))  # the smallest dimension
