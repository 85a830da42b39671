"""Exact desk-scale tools around graded centres of ramified matrix orders.

The package has four pillars:

* :mod:`logcentre.valmat`: min-plus valuation matrices modelling fractional
  ideal lattices over a discrete valuation ring: closed-form radical and
  dualizing powers and the centre valuation. The test suite cross-checks
  them against an exact monomial matrix model.
* :mod:`logcentre.orders`: ramification data, discriminant divisors with
  standard coefficients and the valuations of graded centre pieces.
* :mod:`logcentre.toric`: rational cones over explicit lattices, Q-Cartier
  and klt tests, Hilbert bases, index-one covers and dual cone generators.
* :mod:`logcentre.ncpoly`: noncommutative polynomial rewriting with verified
  termination, used to check algebra presentations and identities.

Everything computes over integers and fractions; there is no floating point
anywhere, so results are reproducible bit for bit.

Importing the package loads none of its modules: each loads on demand, so a
``logcentre`` process compiles only what its command runs. Import a module by
name, as ``from logcentre import toric``; ``from logcentre import *`` loads
all of them.
"""

__version__ = "0.1.0"

__all__ = [
    "casestudies",
    "corpus",
    "errors",
    "iodoc",
    "linalg",
    "ncpoly",
    "numerals",
    "orders",
    "toric",
    "valmat",
    "__version__",
]
