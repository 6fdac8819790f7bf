"""Statistical cross-check: Born-rule sampling of one outcome against the rest.

A paradox probability is one overlap of a prepared state with one outcome,
so the oracle draws that outcome's count as one binomial on numpy's Philox
bit generator (counter-based, seedable). Every estimate is reproducible
from its recorded seed, and the generator name travels with it. The count
and the trials left over partition the trial budget, so estimates from
disjoint runs merge by summing counts.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple

from .errors import EmptyTrials
from .hilbert import StateVector, born_probability
from .scenario import Scenario

RNG_NAME = "philox4x64"

#: The largest trial count numpy's binomial sampler takes (a C int64).
MAX_TRIALS = 2**63 - 1

#: The largest seed: a seed is an unsigned 64-bit integer, so every recorded seed fits one.
MAX_SEED = 2**64 - 1


class SampleEstimate(namedtuple("SampleEstimate", "estimate standard_error trials seed count")):
    """Frequency estimate for one sampled outcome."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.standard_error,
            "trials": self.trials,
            "seed": self.seed,
            "rng": RNG_NAME,
        }


def sample_context(
    prep: StateVector, outcome: StateVector, seed: int, trials: int
) -> SampleEstimate:
    """Estimate how often ``outcome`` is obtained on the prepared state ``prep``.

    Draws one binomial of size ``trials`` with the Born probability of
    ``outcome``: its count and ``trials - count``, the rest of any context
    that holds it, partition the trials, and a fixed seed repeats the run.

    Raises:
        TypeError: if ``seed`` or ``trials`` is not an integer (a bool is not).
        ValueError: if ``seed`` lies outside [0, ``MAX_SEED``].
        EmptyTrials: if ``trials`` < 1.
        ValueError: if ``trials`` > ``MAX_TRIALS``.
        DimensionMismatch: if the dimensions differ (from ``born_probability``).
        NotNormalized: if either vector is not unit norm (from ``born_probability``).
    """
    import numpy as np

    for name, value in (("seed", seed), ("trials", trials)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{name}={value!r} must be an integer")
    seed, trials = int(seed), int(trials)  # plain ints, so estimates serialise
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed={seed}; seeds run from 0 to {MAX_SEED}")
    if trials < 1:
        raise EmptyTrials(f"trials={trials}; need at least 1")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials={trials}; the sampler takes at most {MAX_TRIALS}")
    p = born_probability(prep, outcome)
    count = int(np.random.Generator(np.random.Philox(seed)).binomial(trials, p))
    e = count / trials
    return SampleEstimate(e, math.sqrt(e * (1.0 - e) / trials), trials, seed, count)


def estimate(scenario: Scenario, seed: int, trials: int) -> SampleEstimate:
    """Sampled frequency of the second ``SAMPLED`` vector of any built scenario on the first."""
    prep, outcome = (scenario.vectors[label] for label in scenario.SAMPLED)
    return sample_context(prep, outcome, seed, trials)
