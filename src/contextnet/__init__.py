"""Networks of quantum measurement contexts as explicit Hilbert-space vectors.

The package builds small scenarios in which measurement contexts overlap
through shared outcomes, derives every closed-form overlap relation those
networks impose, and verifies each relation two independent ways: directly
on brute-force constructed vectors and statistically through seeded
Born-rule sampling.
"""

from ._version import __version__

__all__ = ["__version__"]
