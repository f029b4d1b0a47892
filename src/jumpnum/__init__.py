"""Jumping numbers of complete ideals in two-dimensional regular local
rings, computed exactly from resolution data.

The package models a resolution by its proximity structure, derives the
dual graph and the valuation table over the integers, attaches a
numerical semigroup to every vertex, and enumerates jumping numbers with
a closed formula.  An independent multiplier-ideal scan (``oracle``)
recomputes the same sets from the definition for differential testing.
"""

from .graph import *
from .ideals import *
from .jumping import *
from .lattice import *
from .oracle import *
from .resfile import *
from .semigroups import *

__version__ = "0.1.0"

# each module declares its public names once, in its own __all__
__all__ = [
    *graph.__all__,
    *ideals.__all__,
    *jumping.__all__,
    *lattice.__all__,
    *oracle.__all__,
    *resfile.__all__,
    *semigroups.__all__,
]
