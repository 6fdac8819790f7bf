import json
import math

import numpy as np
import pytest

from contextnet import hilbert
from contextnet.errors import (
    DimensionMismatch,
    EmptyTrials,
    IncompleteContext,
    NotNormalized,
)
from contextnet.hardy3 import ScenarioParams, build_scenario
from contextnet.hilbert import (
    ORTH_TOL,
    MeasurementContext,
    StateVector,
    basis_vector,
    born_probability,
    complete_context,
    inner,
)
from contextnet.nonlocal4 import LocalParams, build_nonlocal
from contextnet.oracle import (
    MAX_SEED,
    MAX_TRIALS,
    estimate,
    sample_context,
)


@pytest.fixture(scope="module")
def center():
    return build_scenario(ScenarioParams(0.5, 0.5))


@pytest.fixture(scope="module")
def central_context():
    return MeasurementContext(tuple(basis_vector(3, i) for i in range(3)))


class TestMeasurementContext:
    def test_accepts_complete_basis(self, central_context):
        assert central_context.dim == 3

    def test_rejects_no_outcomes(self):
        with pytest.raises(IncompleteContext, match="at least one outcome"):
            MeasurementContext(())

    def test_rejects_missing_outcome(self):
        with pytest.raises(IncompleteContext):
            MeasurementContext((basis_vector(3, 0), basis_vector(3, 1)))

    def test_rejects_non_orthogonal(self):
        v = StateVector(np.array([1.0, 1.0, 0.0]) / math.sqrt(2))
        with pytest.raises(IncompleteContext):
            MeasurementContext((basis_vector(3, 0), v, basis_vector(3, 2)))

    def test_overlap_of_exactly_orth_tol_is_rejected_by_both_checks(self):
        # <e0|v> is exactly 1e-10 = ORTH_TOL: not orthogonal for either check
        e0, v = basis_vector(3, 0), StateVector([1e-10, 1.0, 0.0])
        with pytest.raises(IncompleteContext, match="mutually orthogonal"):
            MeasurementContext((e0, v, basis_vector(3, 2)))
        with pytest.raises(IncompleteContext, match="mutually orthogonal"):
            complete_context([e0, v])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(IncompleteContext):
            MeasurementContext((basis_vector(2, 0), basis_vector(3, 1), basis_vector(3, 2)))

    def test_rejects_non_unit_outcome(self):
        # (1 + 3e-6)^2 on the diagonal is within allclose's default rtol
        long = StateVector([1.0 + 3e-6, 0.0, 0.0])
        with pytest.raises(IncompleteContext, match="unit"):
            MeasurementContext((long, basis_vector(3, 1), basis_vector(3, 2)))

    def test_accepts_outcome_within_norm_tolerance(self):
        # the same deviation complete_context accepts in its inputs
        near = StateVector([1.0 + 5e-11, 0.0, 0.0])
        assert len(complete_context([near]).outcomes) == 3
        assert MeasurementContext((near, basis_vector(3, 1), basis_vector(3, 2))).dim == 3

    def test_accepts_every_context_that_passes_the_norm_and_pairwise_checks(self):
        # Rows (I + H/2) Q of random unitaries Q, with H Hermitian and its
        # entries about ORTH_TOL: the rows pass or just miss the pairwise
        # check. With Gram matrix I + E, the projector sum P has the spectrum
        # of I + E, so |P - I| <= dim * max|E_ij| in every entry: the two
        # checks bound it, and a context passing them is accepted even where
        # P misses the identity by more than ORTH_TOL (np.allclose rejects).
        rng = np.random.default_rng(2026)
        counts = {"accepted": 0, "beyond_allclose": 0, "rejected": 0}
        for i in range(3000):
            dim = 2 + i % 3
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q, _ = np.linalg.qr(z)
            h = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
            rows = (np.eye(dim) + (h + h.conj().T) * (ORTH_TOL / 4)) @ q
            outcomes = tuple(StateVector(r) for r in rows)
            pairs = [(u, v) for k, u in enumerate(outcomes) for v in outcomes[k + 1:]]
            if not all(o.is_normalized() for o in outcomes):
                with pytest.raises(IncompleteContext, match="unit vectors"):
                    MeasurementContext(outcomes)
                continue
            if any(abs(inner(u, v)) >= ORTH_TOL for u, v in pairs):
                with pytest.raises(IncompleteContext, match="mutually orthogonal"):
                    MeasurementContext(outcomes)
                counts["rejected"] += 1
                continue
            assert MeasurementContext(outcomes).outcomes == outcomes
            m = np.array([o.components for o in outcomes])
            gram, projectors = m @ m.conj().T, m.conj().T @ m
            bound = dim * np.abs(gram - np.eye(dim)).max()
            assert np.abs(projectors - np.eye(dim)).max() <= bound
            counts["accepted"] += 1
            counts["beyond_allclose"] += not np.allclose(projectors, np.eye(dim), atol=ORTH_TOL)
        # 2768, 283 and 232 with numpy 2.4's LAPACK
        assert counts["accepted"] >= 2500 and counts["rejected"] >= 200, counts
        assert counts["beyond_allclose"] >= 250, counts


class TestSampleContext:
    def test_certain_outcome(self, central_context):
        estimates = sample_context(basis_vector(3, 2), central_context, seed=5, trials=10**6)
        assert estimates[2].estimate == pytest.approx(1.0, abs=4 * max(estimates[2].standard_error, 1e-9))
        assert estimates[0].count == 0 and estimates[1].count == 0

    def test_counts_partition_trials(self, center):
        ctx = complete_context([center.f])
        estimates = sample_context(center.n_f, ctx, seed=9, trials=12345)
        assert sum(e.count for e in estimates) == 12345
        assert sum(e.estimate for e in estimates) == pytest.approx(1.0, abs=1e-12)

    def test_standard_error_definition(self, center):
        ctx = complete_context([center.f])
        for e in sample_context(center.n_f, ctx, seed=10, trials=5000):
            assert e.standard_error == pytest.approx(
                math.sqrt(e.estimate * (1.0 - e.estimate) / e.trials), abs=1e-15
            )

    def test_deterministic_for_fixed_seed(self, center, central_context):
        a = sample_context(center.n_f, central_context, seed=123, trials=10000)
        b = sample_context(center.n_f, central_context, seed=123, trials=10000)
        assert a == b

    def test_different_seeds_differ(self, center, central_context):
        a = sample_context(center.n_f, central_context, seed=1, trials=10000)
        b = sample_context(center.n_f, central_context, seed=2, trials=10000)
        assert any(x.count != y.count for x, y in zip(a, b))

    def test_zero_trials_rejected(self, central_context):
        with pytest.raises(EmptyTrials):
            sample_context(basis_vector(3, 0), central_context, seed=1, trials=0)

    def test_one_trial_lands_on_one_outcome(self, center):
        # the fewest trials the sampler takes
        ctx = complete_context([center.f])
        estimates = sample_context(center.n_f, ctx, seed=3, trials=1)
        assert [e.trials for e in estimates] == [1, 1, 1]
        assert sum(e.count for e in estimates) == 1
        assert all(e.estimate in (0.0, 1.0) for e in estimates)
        one = estimate(center, seed=3, trials=1)
        assert one.estimate in (0.0, 1.0) and one.count == one.estimate

    def test_prep_of_another_dimension_rejected(self, central_context):
        with pytest.raises(DimensionMismatch):
            sample_context(basis_vector(4, 0), central_context, seed=1, trials=10)

    def test_unnormalized_prep_rejected(self, central_context):
        with pytest.raises(NotNormalized, match="prep"):
            sample_context(StateVector([2.0, 0.0, 0.0]), central_context, seed=1, trials=10)

    def test_trials_beyond_the_sampler_rejected(self, central_context):
        top = sample_context(basis_vector(3, 0), central_context, seed=1, trials=MAX_TRIALS)
        assert top[0].count == MAX_TRIALS
        for trials in (MAX_TRIALS + 1, 10**20):
            with pytest.raises(ValueError, match="at most"):
                sample_context(basis_vector(3, 0), central_context, seed=1, trials=trials)

    def test_seed_outside_the_unsigned_64_bit_range_rejected(self, central_context):
        top = sample_context(basis_vector(3, 0), central_context, seed=MAX_SEED, trials=10)
        assert top[0].seed == 2**64 - 1
        for seed in (-1, 2**64, 2**200):
            with pytest.raises(ValueError, match="seeds run from 0"):
                sample_context(basis_vector(3, 0), central_context, seed=seed, trials=10)

    @pytest.mark.parametrize("seed,trials", [(True, 10), (False, 10), (1, 2.5), (1, True)])
    def test_non_integer_seed_or_trials_rejected(self, central_context, seed, trials):
        with pytest.raises(TypeError, match="must be an integer"):
            sample_context(basis_vector(3, 0), central_context, seed=seed, trials=trials)

    def test_estimate_is_python_float(self, central_context):
        for e in sample_context(basis_vector(3, 0), central_context, seed=4, trials=100):
            assert type(e.estimate) is float

    def test_numpy_integer_seed_and_trials_serialise(self, center):
        ctx = complete_context([center.f])
        plain = sample_context(center.n_f, ctx, seed=3, trials=1000)
        numpy_ints = sample_context(center.n_f, ctx, seed=np.int64(3), trials=np.uint32(1000))
        assert numpy_ints == plain
        for e in numpy_ints:
            assert type(e.seed) is int and type(e.trials) is int
            assert json.loads(json.dumps(e.to_json())) == e.to_json()

    def test_soundness_across_seeds(self, center):
        # all outcomes within 5 standard errors of the analytic value in at
        # least 99 of 100 independent seeds
        ctx = complete_context([center.f])
        analytic = [born_probability(center.n_f, o) for o in ctx.outcomes]
        good = 0
        for seed in range(100):
            estimates = sample_context(center.n_f, ctx, seed=seed, trials=10000)
            if all(
                abs(e.estimate - p) <= 5 * e.standard_error
                for e, p in zip(estimates, analytic)
            ):
                good += 1
        assert good >= 99

    def test_json_schema(self, center, central_context):
        doc = sample_context(center.n_f, central_context, seed=3, trials=100)[0].to_json()
        assert set(doc) == {"estimate", "stderr", "trials", "seed", "rng"}
        assert doc["rng"] == "philox4x64"


def test_estimate_computes_each_vector_norm_once(monkeypatch):
    s = build_scenario(ScenarioParams(0.3, 0.6, 0.4, 1.9))
    calls = []
    squared_norm = hilbert.squared_norm
    monkeypatch.setattr(hilbert, "squared_norm", lambda x: calls.append(x) or squared_norm(x))
    estimate(s, seed=3, trials=1000)
    # N_f, f and the two outcomes that complete f's context; each check reads the kept norm
    assert len(calls) == 4


class TestEstimateParadox:
    def test_center_matches_one_ninth(self):
        est = estimate(build_scenario(ScenarioParams(0.5, 0.5)), seed=42, trials=10**6)
        assert abs(est.estimate - 1 / 9) <= 4 * est.standard_error

    def test_off_center_matches_formula(self):
        # predicted overlap at (1/4, 1/4) is 3/35
        est = estimate(build_scenario(ScenarioParams(0.25, 0.25)), seed=43, trials=10**6)
        assert abs(est.estimate - 3 / 35) <= 4 * est.standard_error

    def test_reproducible(self):
        p = ScenarioParams(0.3, 0.6, 0.4, 1.9)
        a = estimate(build_scenario(p), seed=77, trials=20000)
        b = estimate(build_scenario(p), seed=77, trials=20000)
        assert a == b

    def test_zero_trials_rejected(self):
        with pytest.raises(EmptyTrials):
            estimate(build_scenario(ScenarioParams(0.5, 0.5)), seed=1, trials=0)


class TestEstimateNonlocalParadox:
    def test_center_matches_one_twelfth(self):
        est = estimate(build_nonlocal(LocalParams(0.5)), seed=42, trials=10**6)
        assert abs(est.estimate - 1 / 12) <= 4 * est.standard_error

    def test_reproducible(self):
        a = estimate(build_nonlocal(LocalParams(0.4, 0.5)), seed=5, trials=20000)
        b = estimate(build_nonlocal(LocalParams(0.4, 0.5)), seed=5, trials=20000)
        assert a == b

    def test_zero_trials_rejected(self):
        with pytest.raises(EmptyTrials):
            estimate(build_nonlocal(LocalParams(0.5)), seed=1, trials=0)
