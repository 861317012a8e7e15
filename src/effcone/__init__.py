"""effcone: exact lattice-point counts, Ehrhart quasi-polynomial
coefficients, and expected effective-threshold bounds for weighted
projective planes P(a,b,c).

Everything is computed in exact rational arithmetic; no floating point
enters any result.  See the README for the mathematical conventions.

The public API is each library module's ``__all__``; the package
re-exports exactly those names.
"""

__version__ = "0.1.0"

from . import ehrhart, families, fracsum, lattice, numerics, surface, threshold, verify
from .ehrhart import *
from .families import *
from .fracsum import *
from .lattice import *
from .numerics import *
from .surface import *
from .threshold import *
from .verify import *

__all__ = ["__version__"]
__all__ += numerics.__all__
__all__ += lattice.__all__
__all__ += surface.__all__
__all__ += ehrhart.__all__
__all__ += fracsum.__all__
__all__ += threshold.__all__
__all__ += families.__all__
__all__ += verify.__all__
