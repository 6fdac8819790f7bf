import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextnet import nonlocal4
from contextnet.errors import OutOfDomain
from contextnet.hardy3 import predicted_paradox
from contextnet.hilbert import StateVector, inner, tensor
from contextnet.nonlocal4 import (
    BASIS,
    PRODUCT_BASIS,
    LocalParams,
    build_nonlocal,
    predicted_aa_nf,
    predicted_faa,
    predicted_fnl_nf,
    verify_all,
)
from test_scenario import make_points

interior = st.floats(min_value=0.01, max_value=0.99)
phases = st.floats(min_value=0.0, max_value=2.0 * math.pi)
local_params = st.builds(LocalParams, a2=interior, phase_a=phases)


@pytest.fixture(scope="module")
def center():
    return build_nonlocal(LocalParams(0.5))


class TestLocalParams:
    @pytest.mark.parametrize("a2", [0.0, 1.0, 1e-10])
    def test_boundaries_rejected(self, a2):
        with pytest.raises(OutOfDomain):
            LocalParams(a2)

    def test_round_trip(self):
        p = LocalParams(0.37, 1.3)
        assert LocalParams.from_dict(p.to_dict()) == p

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, phase):
        with pytest.raises(OutOfDomain, match="finite"):
            LocalParams(0.5, phase)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown parameter keys"):
            LocalParams.from_dict({"a2": 0.5, "alpha": 0.5})


class TestBuildNonlocal:
    def test_local_overlap_is_exact(self):
        # <a,0|0,0> = <a|0> and <a,0|b,0> = <a|b>
        s = build_nonlocal(LocalParams(0.37, 2.2))
        assert abs(inner(s.ka0, s.k00)) ** 2 == pytest.approx(0.37, abs=1e-15)
        assert abs(inner(s.ka0, s.kb0)) < 1e-12

    def test_product_kets_are_products(self, center):
        # a and b are entries 0 and 2 of a,0 and b,0
        k0 = BASIS[0]
        ka, kb = (StateVector(ket.components[::2]) for ket in (center.ka0, center.kb0))
        assert center.ka0 == tensor(ka, k0) and center.k0a == tensor(k0, ka)
        assert center.kb0 == tensor(kb, k0) and center.k0b == tensor(k0, kb)
        assert center.kaa == tensor(ka, ka)
        assert np.array_equal(center.k00.components, [1, 0, 0, 0])

    def test_shared_kets_are_write_protected(self, center):
        assert (center.k00, center.k01, center.k10, center.k11) == PRODUCT_BASIS
        for i, ket in enumerate(PRODUCT_BASIS):
            assert np.array_equal(ket.components, np.eye(4)[i])
        for ket in BASIS + PRODUCT_BASIS:
            assert type(ket.components) is tuple
            with pytest.raises(TypeError):
                ket.components[0] = 2.0

    def test_derived_orthogonalities(self, center):
        for u in (center.kb0, center.k0b, center.k11):
            assert abs(inner(u, center.f_nl)) < 1e-10
        for u in (center.ka0, center.k0a, center.k11):
            assert abs(inner(u, center.n_f)) < 1e-10

    @given(params=local_params)
    @settings(max_examples=80, deadline=None)
    def test_all_kets_normalized(self, params):
        s = build_nonlocal(params)
        for v in s.vectors.values():
            assert abs(v.norm() - 1.0) < 1e-12

    def test_vectors_dict_labels(self, center):
        assert set(center.vectors) == {
            "0,0", "0,1", "1,0", "1,1", "a,0", "0,a", "b,0", "0,b",
            "a,a", "f_NL", "N_f",
        }

    def test_center_paradox_magnitude(self, center):
        assert abs(inner(center.f_nl, center.n_f)) ** 2 == pytest.approx(1 / 9, abs=1e-12)


class TestPredictedFormulas:
    def test_fnl_nf_frozen_values(self):
        assert predicted_fnl_nf(0.5) == pytest.approx(1 / 9, abs=1e-15)
        # (1/20) * (12/7) = 3/35
        assert predicted_fnl_nf(0.25) == pytest.approx(3 / 35, abs=1e-15)

    def test_faa_frozen_values(self):
        assert predicted_faa(0.5) == pytest.approx(3 / 4, abs=1e-15)
        assert predicted_faa(0.25) == pytest.approx(7 / 16, abs=1e-15)
        assert predicted_faa(0.999) == pytest.approx(0.999999, abs=1e-12)

    def test_aa_nf_frozen_values(self):
        assert predicted_aa_nf(0.5) == pytest.approx(1 / 12, abs=1e-15)
        # (1/16) * (3/4) / (5/4) = 3/80
        assert predicted_aa_nf(0.25) == pytest.approx(3 / 80, abs=1e-15)

    @pytest.mark.parametrize("fn", [predicted_fnl_nf, predicted_faa, predicted_aa_nf])
    def test_out_of_domain(self, fn):
        for bad in (0.0, 1.0):
            with pytest.raises(OutOfDomain):
                fn(bad)
        # not a real number, or an int beyond a float: ValueError naming a2
        for bad in ("0.5", True, 10**400):
            with pytest.raises(ValueError, match="^a2(=.* must be a number$| is an)"):
                fn(bad)

    def test_reduction_to_symmetric_paradox(self):
        rng = np.random.default_rng(11)
        for a2 in rng.uniform(0.01, 0.99, size=100):
            assert abs(predicted_fnl_nf(a2) - predicted_paradox(a2, a2)) < 1e-13

    def test_factorization(self):
        rng = np.random.default_rng(12)
        for a2 in rng.uniform(0.01, 0.99, size=100):
            assert abs(predicted_aa_nf(a2) - predicted_fnl_nf(a2) * predicted_faa(a2)) < 1e-13


class TestFormulaAgainstVectors:
    @given(params=local_params)
    @settings(max_examples=100, deadline=None)
    def test_three_magnitudes(self, params):
        s = build_nonlocal(params)
        a2 = params.a2
        assert abs(predicted_fnl_nf(a2) - abs(inner(s.f_nl, s.n_f)) ** 2) < 1e-10
        assert abs(predicted_faa(a2) - abs(inner(s.f_nl, s.kaa)) ** 2) < 1e-10
        assert abs(predicted_aa_nf(a2) - abs(inner(s.kaa, s.n_f)) ** 2) < 1e-10


class TestAaDecomposition:
    def test_center(self, center):
        assert verify_all(center).relation("eq18").direct_value < 1e-12

    def test_with_phase(self):
        report = verify_all(build_nonlocal(LocalParams(0.37, 1.3)))
        assert report.relation("eq18").direct_value < 1e-12

    def test_random_ensemble(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            a2 = rng.uniform(0.01, 0.99)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            report = verify_all(build_nonlocal(LocalParams(a2, phase)))
            assert report.relation("eq18").direct_value < 1e-10

    def test_nan_factorization_is_not_hidden(self, monkeypatch):
        s = build_nonlocal(LocalParams(0.37, 1.3))

        def with_nan_overlap(u, v):
            if u is s.kaa and v is s.n_f:
                return complex(math.nan, 0.0)
            return inner(u, v)

        monkeypatch.setattr(nonlocal4, "inner", with_nan_overlap)
        row = verify_all(s).relation("eq18")
        assert math.isnan(row.direct_value) and math.isnan(row.residual)


def det_c(v):
    """|det C| of a dimension-4 vector read as C = [[c00, c01], [c10, c11]]."""
    c00, c01, c10, c11 = v.components
    return abs(c00 * c11 - c01 * c10)


class TestSchmidt:
    def test_product_state_is_rank_one(self, center):
        assert det_c(center.kaa) < 1e-15

    def test_fnl_is_entangled(self, center):
        assert det_c(center.f_nl) == pytest.approx(1.0 / 3.0, rel=4e-15)

    def test_entanglement_across_sweep(self):
        # |det C| is the product of C's two Schmidt coefficients: 0 for a
        # product ket, a closed form in a2 for f_NL and N_f. The points are the
        # nonlocal4 ones of make_points(2024, 20000), a fifth of them within
        # 1e-3 of a2 = 1, and the two domain corners.
        points = make_points(2024, 20000)[1::2] + [LocalParams(1e-9), LocalParams(1.0 - 1e-9)]
        for p in points:
            s, x = build_nonlocal(p), p.a2
            for label, closed in (("f_NL", (1.0 - x) / (2.0 - x)), ("N_f", x / (1.0 + x))):
                assert abs(det_c(s.vectors[label]) - closed) <= 4e-15 * closed, (p, label)
            for label, ket in s.vectors.items():
                if label not in ("f_NL", "N_f"):
                    assert det_c(ket) < 1e-15, (p, label)


class TestVerifyAll:
    def test_relation_ids(self, center):
        assert [r.id for r in verify_all(center).relations] == [
            "eq17", "eq18", "eq19", "eq20", "eq21",
        ]

    def test_center_values(self, center):
        report = verify_all(center)
        assert report.relation("eq21").formula_value == pytest.approx(1 / 12, abs=1e-12)
        assert report.relation("eq17").direct_value == pytest.approx(1 / 9, abs=1e-12)
        assert report.max_residual() < 1e-10

    @given(params=local_params)
    @settings(max_examples=60, deadline=None)
    def test_residuals_across_interior(self, params):
        assert verify_all(build_nonlocal(params)).max_residual() < 1e-10

    @pytest.mark.parametrize("side", ["near_0", "near_1"])
    def test_gate_holds_near_boundaries(self, side):
        rng = np.random.default_rng(["near_0", "near_1"].index(side))
        for _ in range(500):
            d = 10.0 ** rng.uniform(-9.0, -3.0)
            a2 = d if side == "near_0" else 1.0 - d
            params = LocalParams(float(a2), float(rng.uniform(0.0, 2.0 * math.pi)))
            assert verify_all(build_nonlocal(params)).max_residual() < 1e-10, params
