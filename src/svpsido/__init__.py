"""Exact symbolic engine for truncated pseudodifferential symbol algebras.

The package machine-checks, in exact Gaussian-rational arithmetic, the
algebraic facts behind a family of non-local transforms between symbol
algebras in a space variable and in a momentum variable: composition and
bracket laws with explicit validity floors, a trace functional, central
two-cocycles, a centrally extended current-type Lie algebra with its
coadjoint action on second-order evolution operators, and the matching
Poisson/Hamiltonian formalism on local functionals.

Everything is dictionary-backed and float-free.  The `cli` module exposes
the `svpsido` command with `verify` (property suites) and `eval`
(expression calculator) subcommands.
"""

from .halfint import EXACT, HalfInt, h, hmax
from .ring import CoeffFn, GaussRat

__version__ = "0.1.0"

__all__ = [
    "EXACT",
    "HalfInt",
    "h",
    "hmax",
    "GaussRat",
    "CoeffFn",
    "__version__",
]
