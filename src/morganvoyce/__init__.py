"""Exact arithmetic and limit-theorem verification for the Morgan-Voyce triangle.

The integer triangle A(n, k) = C(n+k-1, 2k-1) (OEIS A078812) collects the
coefficients of the polynomial family Q_n with Q_{n+1}(x) = x B_n(x), B_n the
Morgan-Voyce polynomials.  Row sums are even-indexed Fibonacci numbers, row
means and variances have Fibonacci closed forms, the rows are log-concave
with at most two modes (double modes solve a Pell-Fermat equation), and the
normalized rows obey central and local limit theorems that this package
checks numerically at desk scale.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .exact import *
from .triangle import *
from .moments import *
from .modes import *
from .limits import *

# each star import also binds its submodule here, so every public name is
# declared once, in its module's __all__
__all__ = [
    "__version__",
    *exact.__all__,
    *triangle.__all__,
    *moments.__all__,
    *modes.__all__,
    *limits.__all__,
]
