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

from .errors import (
    DomainError,
    FeasibilityError,
    RankDeficiencyError,
    SurrbandError,
)
from .specfun import (
    birge_bounds,
    chi2_cdf,
    chi2_quantile,
    econst,
    kappa,
    normal_cdf,
    normal_quantile,
    qconst,
    tau,
    tau_inv,
    z_upper,
)
from .subspace import (
    DesignGrid,
    NestedScale,
    Subspace,
    cosine_basis,
    dyadic_blocks,
    dyadic_scale,
    function_basis,
    inner_product,
    max_inf_norm_given_two,
    min_two_norm_given_inf,
    norm2,
    orthonormalize,
    sup_norm,
)
from .surrogate import (
    INVARIANT,
    SPOILER,
    SurrogateCandidate,
    SurrogateTuning,
    classify,
    nested_tuning,
    optimal_tuning,
    selected_levels,
    surrogate_set,
    surrogate_target,
)
from .bands import (
    Band,
    BandParams,
    acceptance_threshold,
    adaptive_band_nested,
    bonferroni_band,
    level_widths,
    min_feasible_gamma,
    subspace_band,
    t_statistic,
)
from .bounds import (
    LowerBoundReport,
    besov_rate,
    lipschitz_rate,
    modulus,
    rn_lower_bound,
    sobolev_rate,
    surrogate_lower_bound,
    v2_term,
    w_target,
)
from .simulate import (
    Scenario,
    SimReport,
    gaussian_draw,
    make_spoiler,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SurrbandError", "DomainError", "RankDeficiencyError", "FeasibilityError",
    # specfun
    "normal_cdf", "normal_quantile", "z_upper", "tau", "tau_inv",
    "chi2_cdf", "chi2_quantile", "kappa", "qconst", "econst", "birge_bounds",
    # subspace
    "DesignGrid", "Subspace", "NestedScale", "inner_product", "norm2",
    "sup_norm", "orthonormalize", "dyadic_blocks", "dyadic_scale",
    "function_basis", "cosine_basis", "min_two_norm_given_inf",
    "max_inf_norm_given_two",
    # surrogate
    "SPOILER", "INVARIANT", "SurrogateTuning", "SurrogateCandidate",
    "surrogate_target", "selected_levels", "surrogate_set", "classify",
    "optimal_tuning", "nested_tuning",
    # bands
    "BandParams", "Band", "t_statistic", "acceptance_threshold",
    "adaptive_band_nested", "min_feasible_gamma", "level_widths",
    "bonferroni_band", "subspace_band",
    # bounds
    "LowerBoundReport", "w_target", "v2_term", "surrogate_lower_bound",
    "rn_lower_bound", "lipschitz_rate", "sobolev_rate", "besov_rate",
    "modulus",
    # simulate
    "Scenario", "SimReport", "run", "gaussian_draw", "make_spoiler",
]
