import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextnet.errors import OutOfDomain
from contextnet.hardy3 import (
    BASIS,
    HardyScenario,
    ScenarioParams,
    build_scenario,
    predicted_f3,
    predicted_nf3,
    predicted_paradox,
    verify_all,
)
from contextnet.hilbert import born_probability, inner
from contextnet.report import report_to_json

interior = st.floats(min_value=0.01, max_value=0.99)
phases = st.floats(min_value=0.0, max_value=2.0 * math.pi)

# The three complex relations that tie N_f to |3>.
NF_ROWS = ("eq9", "eq10a", "eq10b")

scenario_params = st.builds(
    ScenarioParams, alpha=interior, beta=interior, phase_d1=phases, phase_d2=phases
)


@pytest.fixture(scope="module")
def center() -> HardyScenario:
    return build_scenario(ScenarioParams(0.5, 0.5))


class TestScenarioParams:
    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0)])
    def test_boundaries_rejected(self, alpha, beta):
        with pytest.raises(OutOfDomain):
            ScenarioParams(alpha, beta)

    def test_near_boundary_rejected(self):
        with pytest.raises(OutOfDomain):
            ScenarioParams(1e-10, 0.5)

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_rejected(self, phase):
        with pytest.raises(OutOfDomain, match="finite"):
            ScenarioParams(0.5, 0.5, phase_d1=phase)
        with pytest.raises(OutOfDomain, match="finite"):
            ScenarioParams.from_dict({"alpha": 0.5, "beta": 0.5, "phase_d2": phase})

    def test_round_trip(self):
        p = ScenarioParams(0.37, 0.81, 1.1, 2.2)
        assert ScenarioParams.from_dict(p.to_dict()) == p

    def test_from_dict_defaults_phases(self):
        p = ScenarioParams.from_dict({"alpha": 0.5, "beta": 0.25})
        assert p.phase_d1 == 0.0 and p.phase_d2 == 0.0

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown parameter keys"):
            ScenarioParams.from_dict({"alpha": 0.5, "beta": 0.5, "gamma": 1.0})

    def test_from_dict_requires_both_magnitudes(self):
        with pytest.raises(ValueError, match="parameters require"):
            ScenarioParams.from_dict({"alpha": 0.5})

    @pytest.mark.parametrize("value", ["0.5", True, None])
    def test_direct_constructor_rejects_non_numbers_as_from_dict_does(self, value):
        message = f"alpha={value!r} must be a number"
        with pytest.raises(ValueError) as direct:
            ScenarioParams(value, 0.5)
        with pytest.raises(ValueError) as parsed:
            ScenarioParams.from_dict({"alpha": value, "beta": 0.5})
        assert str(direct.value) == str(parsed.value) == message

    def test_every_type_is_checked_before_any_domain(self):
        # alpha is out of domain, but the string beta is named first
        with pytest.raises(ValueError, match="^beta='x' must be a number$"):
            ScenarioParams(2.0, "x")
        with pytest.raises(ValueError, match="^beta='x' must be a number$"):
            ScenarioParams.from_dict({"alpha": 2.0, "beta": "x"})

    def test_direct_constructor_stores_python_floats(self):
        p = ScenarioParams(np.float32(0.5), np.float64(0.25), 1, np.float32(2.0))
        assert p.to_dict() == {"alpha": 0.5, "beta": 0.25, "phase_d1": 1.0, "phase_d2": 2.0}
        assert all(type(v) is float for v in p.to_dict().values())
        doc = json.loads(json.dumps(report_to_json(verify_all(build_scenario(p)))))
        assert doc["params"] == p.to_dict()


class TestBuildScenario:
    def test_central_context_is_standard_basis(self, center):
        assert np.array_equal(center.k1.components, [1, 0, 0])
        assert np.array_equal(center.k2.components, [0, 1, 0])
        assert np.array_equal(center.k3.components, [0, 0, 1])

    def test_shared_basis_kets_are_write_protected(self, center):
        assert (center.k1, center.k2, center.k3) == BASIS
        for ket in BASIS:
            assert type(ket.components) is tuple
            with pytest.raises(TypeError):
                ket.components[0] = 2.0
        assert np.array_equal(BASIS[0].components, [1, 0, 0])

    def test_defining_magnitudes(self):
        s = build_scenario(ScenarioParams(0.25, 0.5))
        assert inner(s.k1, s.d1) == 0.0
        assert abs(inner(s.d1, s.k3)) ** 2 == pytest.approx(0.25, abs=1e-15)
        assert inner(s.k2, s.d2) == 0.0
        assert abs(inner(s.d2, s.k3)) ** 2 == pytest.approx(0.5, abs=1e-15)

    @given(params=scenario_params)
    @settings(max_examples=80, deadline=None)
    def test_defining_orthogonalities(self, params):
        s = build_scenario(params)
        for u, v in [
            (s.k1, s.d1), (s.k2, s.d2),
            (s.s1, s.k1), (s.s1, s.d1),
            (s.s2, s.k2), (s.s2, s.d2),
            (s.f, s.s1), (s.f, s.s2),
            (s.n_f, s.d1), (s.n_f, s.d2),
        ]:
            assert abs(inner(u, v)) < 1e-10

    @given(params=scenario_params)
    @settings(max_examples=80, deadline=None)
    def test_all_nine_normalized(self, params):
        s = build_scenario(params)
        for v in s.vectors.values():
            assert abs(v.norm() - 1.0) < 1e-12

    def test_vectors_dict_has_nine_labels(self, center):
        assert set(center.vectors) == {"1", "2", "3", "D1", "D2", "S1", "S2", "f", "N_f"}

    def test_deterministic(self):
        p = ScenarioParams(0.37, 0.81, 1.1, 2.2)
        a, b = build_scenario(p), build_scenario(p)
        assert a == b


class TestChainRule:
    def test_residual_tiny_at_center(self, center):
        assert verify_all(center).relation("eq3").residual < 1e-12

    def test_center_overlap_is_alpha_beta(self, center):
        # |<D1|D2>|^2 = alpha * beta = 1/4
        assert abs(inner(center.d1, center.d2)) ** 2 == pytest.approx(0.25, abs=1e-14)

    def test_phase_randomized(self):
        s = build_scenario(ScenarioParams(0.5, 0.5, 0.7, -1.3))
        assert verify_all(s).relation("eq3").residual < 1e-12

    @given(params=scenario_params)
    @settings(max_examples=80, deadline=None)
    def test_identity_holds_everywhere(self, params):
        assert verify_all(build_scenario(params)).relation("eq3").residual < 1e-12


class TestFExpansion:
    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (0.3, 0.8)])
    def test_zero_phase_cases(self, alpha, beta):
        report = verify_all(build_scenario(ScenarioParams(alpha, beta)))
        assert report.relation("eq6").direct_value < 1e-12

    @given(params=scenario_params)
    @settings(max_examples=80, deadline=None)
    def test_identity_holds_everywhere(self, params):
        assert verify_all(build_scenario(params)).relation("eq6").direct_value < 1e-12


class TestNfRelations:
    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (0.25, 0.75)])
    def test_zero_phase_cases(self, alpha, beta):
        report = verify_all(build_scenario(ScenarioParams(alpha, beta)))
        assert all(report.relation(rel_id).residual < 1e-12 for rel_id in NF_ROWS)

    def test_random_ensemble(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            alpha, beta = rng.uniform(0.01, 0.99, size=2)
            ph1, ph2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
            s = build_scenario(ScenarioParams(alpha, beta, ph1, ph2))
            report = verify_all(s)
            assert all(report.relation(rel_id).residual < 1e-10 for rel_id in NF_ROWS)


class TestPredictedFormulas:
    def test_nf3_frozen_values(self):
        assert predicted_nf3(0.5, 0.5) == pytest.approx(1 / 3, abs=1e-15)
        # (3/4 * 3/4) / (15/16) = 3/5
        assert predicted_nf3(0.25, 0.25) == pytest.approx(3 / 5, abs=1e-15)

    def test_f3_frozen_values(self):
        assert predicted_f3(0.5, 0.5) == pytest.approx(1 / 3, abs=1e-15)
        # (1/16) / (7/16) = 1/7
        assert predicted_f3(0.25, 0.25) == pytest.approx(1 / 7, abs=1e-15)

    def test_paradox_frozen_values(self):
        assert predicted_paradox(0.5, 0.5) == pytest.approx(1 / 9, abs=1e-15)
        # (3/5) * (1/7) = 3/35
        assert predicted_paradox(0.25, 0.25) == pytest.approx(3 / 35, abs=1e-15)

    @given(alpha=interior, beta=interior)
    def test_symmetry(self, alpha, beta):
        assert predicted_nf3(alpha, beta) == pytest.approx(predicted_nf3(beta, alpha), abs=1e-15)
        assert predicted_f3(alpha, beta) == pytest.approx(predicted_f3(beta, alpha), abs=1e-15)
        assert predicted_paradox(alpha, beta) == pytest.approx(
            predicted_paradox(beta, alpha), abs=1e-15
        )

    @given(alpha=interior, beta=interior)
    def test_factorization_identity(self, alpha, beta):
        assert abs(
            predicted_paradox(alpha, beta) - predicted_nf3(alpha, beta) * predicted_f3(alpha, beta)
        ) < 1e-14

    @pytest.mark.parametrize("fn", [predicted_nf3, predicted_f3, predicted_paradox])
    def test_out_of_domain(self, fn):
        with pytest.raises(OutOfDomain):
            fn(0.0, 0.5)
        with pytest.raises(OutOfDomain):
            fn(0.5, 1.0)
        # not a real number, or an int beyond a float: ValueError naming the argument
        for bad in ("0.5", True, 10**400):
            for name, args in (("alpha", (bad, 0.5)), ("beta", (0.5, bad))):
                with pytest.raises(ValueError, match=f"^{name}(=.* must be a number$| is an)"):
                    fn(*args)


class TestFormulaAgainstVectors:
    """The closed forms must match magnitudes computed from the raw vectors."""

    @given(params=scenario_params)
    @settings(max_examples=100, deadline=None)
    def test_three_magnitudes(self, params):
        s = build_scenario(params)
        assert abs(predicted_nf3(params.alpha, params.beta) - abs(inner(s.k3, s.n_f)) ** 2) < 1e-10
        assert abs(predicted_f3(params.alpha, params.beta) - abs(inner(s.f, s.k3)) ** 2) < 1e-10
        assert abs(
            predicted_paradox(params.alpha, params.beta) - abs(inner(s.f, s.n_f)) ** 2
        ) < 1e-10

    @given(alpha=interior, beta=interior, ph1=phases, ph2=phases)
    @settings(max_examples=60, deadline=None)
    def test_phase_invariance(self, alpha, beta, ph1, ph2):
        plain = build_scenario(ScenarioParams(alpha, beta))
        rotated = build_scenario(ScenarioParams(alpha, beta, ph1, ph2))
        for a, b in [(plain, rotated)]:
            assert abs(
                abs(inner(a.f, a.n_f)) ** 2 - abs(inner(b.f, b.n_f)) ** 2
            ) < 1e-12
            assert abs(
                abs(inner(a.k3, a.n_f)) ** 2 - abs(inner(b.k3, b.n_f)) ** 2
            ) < 1e-12
            assert abs(
                abs(inner(a.f, a.k3)) ** 2 - abs(inner(b.f, b.k3)) ** 2
            ) < 1e-12

    @given(params=scenario_params)
    @settings(max_examples=80, deadline=None)
    def test_both_paths_to_f3_agree(self, params):
        s = build_scenario(params)
        via_d1 = inner(s.f, s.d1) * inner(s.d1, s.k3)
        via_d2 = inner(s.f, s.d2) * inner(s.d2, s.k3)
        assert abs(via_d1 - via_d2) < 1e-12

    @given(params=scenario_params)
    @settings(max_examples=80, deadline=None)
    def test_f_normalization_relation(self, params):
        s = build_scenario(params)
        total = (
            abs(inner(s.f, s.d1)) ** 2
            + abs(inner(s.f, s.d2)) ** 2
            - abs(inner(s.f, s.k3)) ** 2
        )
        assert abs(total - 1.0) < 1e-12

    @given(params=scenario_params)
    @settings(max_examples=80, deadline=None)
    def test_nf_never_joins_central_context(self, params):
        s = build_scenario(params)
        w = abs(inner(s.k3, s.n_f)) ** 2
        assert w >= predicted_nf3(params.alpha, params.beta) - 1e-10
        assert w > 0.0


class TestEqualSuperposition:
    def test_center_coefficients_are_thirds(self, center):
        for k in (center.k1, center.k2, center.k3):
            assert abs(inner(k, center.n_f)) ** 2 == pytest.approx(1 / 3, abs=1e-12)

    def test_off_center_coefficients(self):
        s = build_scenario(ScenarioParams(0.25, 0.25))
        # beta (1-alpha) / (1-alpha beta) = 1/5 for both side coefficients
        assert abs(inner(s.k1, s.n_f)) ** 2 == pytest.approx(1 / 5, abs=1e-12)
        assert abs(inner(s.k2, s.n_f)) ** 2 == pytest.approx(1 / 5, abs=1e-12)
        assert abs(inner(s.k3, s.n_f)) ** 2 == pytest.approx(3 / 5, abs=1e-12)

    def test_born_probability_route(self, center):
        assert born_probability(center.n_f, center.f) == pytest.approx(1 / 9, abs=1e-12)


class TestVerifyAll:
    def test_center_report(self, center):
        report = verify_all(center)
        eq16 = report.relation("eq16")
        assert eq16.formula_value == pytest.approx(1 / 9, abs=1e-12)
        assert eq16.direct_value == pytest.approx(1 / 9, abs=1e-12)
        assert eq16.residual < 1e-12
        assert report.max_residual() < 1e-10

    def test_expected_relation_ids(self, center):
        ids = [r.id for r in verify_all(center).relations]
        assert ids == [
            "eq3", "eq6", "eq9", "eq10a", "eq10b", "eq11a", "eq11b",
            "eq12", "eq13a", "eq13b", "eq14", "eq15", "eq16",
        ]

    def test_phase_randomized_report(self):
        s = build_scenario(ScenarioParams(0.37, 0.81, 1.1, 2.2))
        assert verify_all(s).max_residual() < 1e-10

    @pytest.mark.parametrize("side", ["near_0", "near_1", "mixed"])
    def test_gate_holds_near_boundaries(self, side):
        # 1 - ab and 1 - (1-a)(1-b) cancel as a, b -> 1 unless the closed
        # forms avoid the subtraction; distances are log-uniform in [1e-9, 1e-3].
        rng = np.random.default_rng(["near_0", "near_1", "mixed"].index(side))
        for _ in range(500):
            d = 10.0 ** rng.uniform(-9.0, -3.0, 2)
            a = 1.0 - d[0] if side == "near_1" else d[0]
            b = d[1] if side == "near_0" else 1.0 - d[1]
            ph1, ph2 = rng.uniform(0.0, 2.0 * math.pi, 2)
            params = ScenarioParams(float(a), float(b), float(ph1), float(ph2))
            assert verify_all(build_scenario(params)).max_residual() < 1e-10, params

    def test_reports_are_identical_across_runs(self):
        p = ScenarioParams(0.37, 0.81, 1.1, 2.2)
        first = verify_all(build_scenario(p))
        second = verify_all(build_scenario(p))
        assert first == second

    def test_json_schema(self, center):
        doc = report_to_json(verify_all(center))
        assert doc["phase_canon"] == "first-nonzero-real-positive"
        assert {"phase_canon", "tool_version"} <= set(doc["metadata"])
        assert "timestamp" not in doc["metadata"]
        for rel in doc["relations"]:
            assert set(rel) == {"id", "formula", "direct", "residual"}

    def test_json_residual_recomputable(self, center):
        def as_complex(x):
            return complex(x[0], x[1]) if isinstance(x, list) else complex(x)

        for rel in report_to_json(verify_all(center))["relations"]:
            recomputed = abs(as_complex(rel["formula"]) - as_complex(rel["direct"]))
            assert recomputed == pytest.approx(rel["residual"], abs=1e-15)

    def test_timestamp_only_when_requested(self, center):
        doc = report_to_json(verify_all(center), timestamp="2026-08-10T00:00:00+00:00")
        assert doc["metadata"]["timestamp"] == "2026-08-10T00:00:00+00:00"
