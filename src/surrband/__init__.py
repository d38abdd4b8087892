"""Finite-sample adaptive confidence bands over nested regression subspaces.

Given observations ``Y_i = f_i + sigma * eps_i`` on a uniform grid with known
noise level, the package builds constant-width sup-norm confidence bands that
adapt to a nested chain of linear subspaces: a chi-square residual test picks
the coarsest adequate level, the band centers at that level's projection, and
the width shrinks by the level's leverage factor.  Exact finite-sample
guarantees are phrased through *surrogate* targets — for mean vectors whose
residual is small in two-norm but large in sup norm, the band is accountable
for the projection rather than the mean itself.

Modules
-------
``specfun``
    Gaussian/chi-square distribution functions, quantiles, and the
    calibration constants ``kappa``/``qconst``/``econst``.
``subspace``
    Orthonormal bases on the design grid, dyadic blocks, nested scales,
    leverage, and extremal norm conversions.
``surrogate``
    Surrogate targets, spoiler classification, and tuning of the residual
    caps ``(eps2, eps_inf)``.
``bands``
    The adaptive band procedures, feasibility of the narrowness level, and
    the Bonferroni/subspace baselines.
``bounds``
    Width lower bounds, minimax rates, and the sup-norm modulus.
``simulate``
    Reproducible Monte Carlo certification of coverage and width.
``cli``
    The ``surrband`` command-line interface.
"""

from .errors import *
from .specfun import *
from .subspace import *
from .surrogate import *
from .bands import *
from .bounds import *
from .simulate import *
from . import bands, bounds, errors, simulate, specfun, subspace, surrogate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *specfun.__all__,
    *subspace.__all__,
    *surrogate.__all__,
    *bands.__all__,
    *bounds.__all__,
    *simulate.__all__,
]
