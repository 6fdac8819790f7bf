import json
import math

import numpy as np
import pytest

from contextnet import hilbert
from contextnet.errors import DimensionMismatch, NotNormalized
from contextnet.hardy3 import ScenarioParams, build_scenario
from contextnet.hilbert import StateVector, basis_vector, born_probability
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


E0 = basis_vector(3, 0)


def trials_out_of_range(trials: int) -> str:
    """The pattern of the one error message of a trial count out of range."""
    return f"^trials={trials}; trials run from 1 to {MAX_TRIALS}$"


class TestSampleContext:
    def test_certain_outcome(self):
        # p = 1 gives every trial, the sampler's largest count included
        for trials in (1, 10**6, MAX_TRIALS):
            e = sample_context(basis_vector(3, 2), basis_vector(3, 2), seed=5, trials=trials)
            assert (e.count, e.estimate, e.standard_error) == (trials, 1.0, 0.0)

    def test_impossible_outcome(self):
        # p = 0 gives no trial, at the sampler's largest count too
        for trials in (1, 10**6, MAX_TRIALS):
            e = sample_context(basis_vector(3, 2), E0, seed=5, trials=trials)
            assert (e.count, e.estimate, e.standard_error) == (0, 0.0, 0.0)

    def test_counts_partition_trials(self, center):
        # the count, and trials - count for the rest of the context
        e = sample_context(center.n_f, center.f, seed=9, trials=12345)
        assert type(e.count) is int and 0 < e.count < 12345
        assert e.estimate == e.count / 12345 and e.trials == 12345

    def test_standard_error_definition(self, center):
        e = sample_context(center.n_f, center.f, seed=10, trials=5000)
        assert e.standard_error == math.sqrt(e.estimate * (1.0 - e.estimate) / e.trials)

    def test_deterministic_for_fixed_seed(self, center):
        a = sample_context(center.n_f, center.f, seed=123, trials=10000)
        b = sample_context(center.n_f, center.f, seed=123, trials=10000)
        assert a == b

    def test_different_seeds_differ(self, center):
        a = sample_context(center.n_f, center.f, seed=1, trials=10000)
        b = sample_context(center.n_f, center.f, seed=2, trials=10000)
        assert a.count != b.count

    def test_zero_trials_rejected(self):
        # one range check, one message, at both ends of the range
        for trials in (0, MAX_TRIALS + 1):
            with pytest.raises(ValueError, match=trials_out_of_range(trials)):
                sample_context(E0, E0, seed=1, trials=trials)

    def test_one_trial_lands_on_one_outcome(self, center):
        # the fewest trials the sampler takes
        e = sample_context(center.n_f, center.f, seed=3, trials=1)
        assert e.trials == 1 and e.estimate in (0.0, 1.0) and e.count == e.estimate
        assert estimate(center, seed=3, trials=1) == e

    def test_prep_of_another_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            sample_context(basis_vector(4, 0), E0, seed=1, trials=10)

    def test_outcome_of_another_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            sample_context(E0, basis_vector(2, 0), seed=1, trials=10)

    def test_unnormalized_prep_rejected(self):
        with pytest.raises(NotNormalized, match="prep"):
            sample_context(StateVector([2.0, 0.0, 0.0]), E0, seed=1, trials=10)

    def test_unnormalized_outcome_rejected(self):
        with pytest.raises(NotNormalized, match="outcome"):
            sample_context(E0, StateVector([1.0 + 3e-6, 0.0, 0.0]), seed=1, trials=10)

    def test_trials_beyond_the_sampler_rejected(self):
        for trials in (MAX_TRIALS + 1, 10**20):
            with pytest.raises(ValueError, match=trials_out_of_range(trials)):
                sample_context(E0, E0, seed=1, trials=trials)

    def test_seed_outside_the_unsigned_64_bit_range_rejected(self):
        assert sample_context(E0, E0, seed=MAX_SEED, trials=10).seed == 2**64 - 1
        for seed in (-1, 2**64, 2**200):
            with pytest.raises(ValueError, match="seeds run from 0"):
                sample_context(E0, E0, seed=seed, trials=10)

    @pytest.mark.parametrize("seed,trials", [(True, 10), (False, 10), (1, 2.5), (1, True)])
    def test_non_integer_seed_or_trials_rejected(self, seed, trials):
        with pytest.raises(TypeError, match="must be an integer"):
            sample_context(E0, E0, seed=seed, trials=trials)

    def test_estimate_is_python_float(self, center):
        assert type(sample_context(center.n_f, center.f, seed=4, trials=100).estimate) is float

    def test_numpy_integer_seed_and_trials_serialise(self, center):
        plain = sample_context(center.n_f, center.f, seed=3, trials=1000)
        numpy_ints = sample_context(center.n_f, center.f, seed=np.int64(3), trials=np.uint32(1000))
        assert numpy_ints == plain
        assert type(numpy_ints.seed) is int and type(numpy_ints.trials) is int
        assert type(numpy_ints.count) is int
        assert json.loads(json.dumps(numpy_ints.to_json())) == numpy_ints.to_json()

    def test_soundness_across_seeds(self, center):
        # within 5 standard errors of the analytic value in at least 99 of
        # 100 independent seeds
        analytic = born_probability(center.n_f, center.f)
        good = 0
        for seed in range(100):
            e = sample_context(center.n_f, center.f, seed=seed, trials=10000)
            good += abs(e.estimate - analytic) <= 5 * e.standard_error
        assert good >= 99

    def test_json_schema(self, center):
        doc = sample_context(center.n_f, center.f, seed=3, trials=100).to_json()
        assert set(doc) == {"estimate", "stderr", "trials", "seed", "rng"}
        assert doc["rng"] == "philox4x64"


def test_estimate_computes_each_vector_norm_once(monkeypatch):
    s = build_scenario(ScenarioParams(0.3, 0.6, 0.4, 1.9))
    calls = []
    squared_norm = hilbert.squared_norm
    monkeypatch.setattr(hilbert, "squared_norm", lambda x: calls.append(x) or squared_norm(x))
    estimate(s, seed=3, trials=1000)
    # N_f and f; the born_probability check reads each kept norm
    assert len(calls) == 2


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
        with pytest.raises(ValueError, match=trials_out_of_range(0)):
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
        with pytest.raises(ValueError, match=trials_out_of_range(0)):
            estimate(build_nonlocal(LocalParams(0.5)), seed=1, trials=0)
