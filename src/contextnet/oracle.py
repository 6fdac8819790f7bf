"""Statistical cross-check: Born-rule sampling of a measurement context.

Sampling uses numpy's Philox bit generator (counter-based, seedable), so
every estimate is reproducible from its recorded seed and the generator
name travels with the estimate. Counts partition the trial budget exactly,
which makes estimates from disjoint runs mergeable by summing counts.
The oracle only samples: a context is a ``hilbert.MeasurementContext``,
checked when it was built.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import EmptyTrials
from .hilbert import MeasurementContext, StateVector, born_probability, complete_context
from .scenario import Scenario

RNG_NAME = "philox4x64"

#: The largest trial count numpy's multinomial sampler takes (a C int64).
MAX_TRIALS = 2**63 - 1

#: The largest seed: a seed is an unsigned 64-bit integer, so every recorded seed fits one.
MAX_SEED = 2**64 - 1


@dataclass(frozen=True)
class SampleEstimate:
    """Frequency estimate for one outcome of a sampled context."""

    estimate: float
    standard_error: float
    trials: int
    seed: int
    count: int

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "stderr": self.standard_error,
            "trials": self.trials,
            "seed": self.seed,
            "rng": RNG_NAME,
        }


def sample_context(
    prep: StateVector, ctx: MeasurementContext, seed: int, trials: int
) -> list[SampleEstimate]:
    """Sample the context's outcome frequencies for the prepared state.

    Draws one multinomial sample of size ``trials`` from the analytic Born
    distribution, so the per-outcome counts partition ``trials`` exactly
    and the run is reproducible for a fixed seed. ``ctx`` was checked for
    completeness when it was constructed.

    Raises:
        TypeError: if ``seed`` or ``trials`` is not an integer (a bool is not).
        ValueError: if ``seed`` lies outside [0, ``MAX_SEED``].
        EmptyTrials: if ``trials`` < 1.
        ValueError: if ``trials`` > ``MAX_TRIALS``.
        DimensionMismatch: if ``prep`` and the context's outcomes differ in
            dimension (from ``born_probability``).
        NotNormalized: if ``prep`` is not unit norm (from ``born_probability``).
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
    probs = np.array([born_probability(prep, o) for o in ctx.outcomes])
    probs = probs / probs.sum()  # exact simplex point for the sampler
    rng = np.random.Generator(np.random.Philox(seed))
    estimates = []
    for count in rng.multinomial(trials, probs).tolist():  # Python ints
        e = count / trials
        estimates.append(SampleEstimate(e, math.sqrt(e * (1.0 - e) / trials), trials, seed, count))
    return estimates


def estimate(scenario: Scenario, seed: int, trials: int) -> SampleEstimate:
    """Sampled frequency of the ``SAMPLED`` outcome of any built scenario.

    Prepares the first vector of ``SAMPLED``, completes the second to a full
    context and returns the estimate for that outcome.
    """
    prep, outcome = (scenario.vectors[label] for label in scenario.SAMPLED)
    return sample_context(prep, complete_context([outcome]), seed, trials)[0]

