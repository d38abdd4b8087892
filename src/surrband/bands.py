"""Confidence band constructions.

The adaptive procedure walks a nested scale from coarsest to finest level,
accepts the first level whose residual sum of squares passes a chi-square
test at level ``gamma``, and centers the band at that level's projection with
half-width ``sigma * omega_j * z + eps_inf_j``; if every level is rejected it
falls back to the band around the raw data with the unshrunk Gaussian
half-width.  Coverage of the surrogate target holds with probability
``1 - alpha`` (budgeted across levels by ``alpha_split``), and with
probability at least ``1 - gamma`` the band is no wider than the accepted
level's design width.

``min_feasible_gamma`` quantifies when the residual test has enough power at
the configured two-norm caps for that width guarantee to be meaningful; the
adaptive constructor raises :class:`~surrband.errors.FeasibilityError` below
the feasible range.  A single subspace is the one-level scale
``NestedScale((space,))``.

The per-configuration constants of the adaptive band (feasibility floor,
chi-square cutoffs, half-widths) are computed once per ``(scale, params)`` in
a private plan that :func:`adaptive_band_nested` and the Monte Carlo driver
share; the half-widths come from the same private function as
:func:`level_widths`.  The band call tests its one vector at every level, for
the ``tStats`` it reports; a Monte Carlo run walks a block of replications at
a time, each row only up to its first accepted level.  Both project through
the one ``_project`` of each subspace, which takes a vector or a block, and
make the residual test of :func:`t_statistic`, the sum of squares divided by
``sigma^2`` against the cutoff, so every row has the bits of a band call.

:func:`bonferroni_band` and :func:`subspace_band` are the two non-adaptive
baselines.  Each band function builds its band as ``center -/+ half`` through
one private constructor, ``Band._around``, and differs only in what it passes.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FeasibilityError
from .specfun import (
    _LibraryRangeError,
    _alpha_split,
    _equal_split,
    _instance,
    _nonnegative,
    _probability,
    _require,
    _sigma,
    _size,
    chi2_cdf,
    chi2_quantile,
    z_upper,
)
from .subspace import NestedScale, Subspace, _as_vector
from .surrogate import SurrogateTuning

__all__ = [
    "BandParams",
    "Band",
    "t_statistic",
    "acceptance_threshold",
    "adaptive_band_nested",
    "min_feasible_gamma",
    "level_widths",
    "bonferroni_band",
    "subspace_band",
]


@dataclass(frozen=True)
class BandParams:
    """Parameters of the adaptive band.

    ``alpha_split`` allocates the coverage budget: one entry per level plus a
    final entry for the all-rejected fallback, summing to at most ``alpha``.
    ``tuning`` supplies the per-level residual caps; its length fixes the
    number of levels.
    """

    alpha: float
    gamma: float
    sigma: float
    tuning: SurrogateTuning
    alpha_split: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alpha", _probability("alpha", self.alpha))
        object.__setattr__(self, "gamma", _probability("gamma", self.gamma))
        object.__setattr__(self, "sigma", _sigma("sigma", self.sigma))
        _instance("tuning", self.tuning, SurrogateTuning)
        split = _alpha_split("alpha_split", self.alpha_split, self.alpha, self.tuning.m)
        object.__setattr__(self, "alpha_split", split)

    @classmethod
    def equal_split(
        cls, alpha: float, gamma: float, sigma: float, tuning: SurrogateTuning
    ) -> "BandParams":
        """Budget ``alpha`` equally over the ``m`` levels and the fallback."""
        m = _instance("tuning", tuning, SurrogateTuning).m
        return cls(alpha, gamma, sigma, tuning, _equal_split(alpha, m))

    @property
    def m(self) -> int:
        return self.tuning.m


@dataclass(frozen=True, eq=False)
class Band:
    """A computed confidence band.

    ``width`` is the design width ``2 * half_width`` of the branch taken (the
    band is constant-width by construction).  ``selected_level`` is the
    1-based accepted level, ``m + 1`` for the fallback, and ``None`` for the
    non-adaptive baselines (whose ``accepted`` is also ``None``).
    ``t_stats``/``thresholds`` record the per-level residual statistics and
    acceptance cutoffs of the adaptive walk.
    """

    lower: np.ndarray
    upper: np.ndarray
    center: np.ndarray
    width: float
    selected_level: int | None
    accepted: bool | None
    t_stats: tuple[float, ...] = ()
    thresholds: tuple[float, ...] = ()

    @classmethod
    def _around(
        cls, center: np.ndarray, half, width: float, selected_level=None, accepted=None, **scan
    ) -> "Band":
        """The band ``center -/+ half`` of design width ``width``; ``center``
        is kept, so it must not share memory with the caller's data."""
        return cls(center - half, center + half, center, width, selected_level, accepted, **scan)

    def to_dict(self) -> dict:
        """JSON-friendly summary (arrays omitted; see the CSV writer).  JSON
        has no infinity or NaN: a non-finite statistic or cutoff is ``None``."""
        return {
            "width": self.width,
            "selectedLevel": self.selected_level,
            "accepted": self.accepted,
            "tStats": [(t if math.isfinite(t) else None) for t in self.t_stats],
            "thresholds": [(t if math.isfinite(t) else None) for t in self.thresholds],
        }


def t_statistic(space: Subspace, y, sigma: float) -> float:
    """Residual sum of squares ``sum (y - project(y))^2 / sigma^2``."""
    y = _as_vector(y, _instance("space", space, Subspace).n)
    sigma = _sigma("sigma", sigma)
    resid = y - space.project(y)
    return float(resid @ resid) / (sigma * sigma)


def acceptance_threshold(n: int, d: int, gamma: float) -> float:
    """Residual-test cutoff: the ``1 - gamma`` chi-square quantile on ``n - d``
    degrees of freedom (``+inf`` when ``d == n``: nothing to test)."""
    n, d, gamma = _size("n", n, 1), _size("d", d, 0), _probability("gamma", gamma)
    if d == n:
        return math.inf
    return chi2_quantile(1.0 - gamma, n - d)


def _bonferroni_half_width(n: int, alpha: float, sigma: float) -> float:
    """``sigma * z_upper(alpha / (2n))``: the half-width of the Bonferroni band,
    which is also the adaptive band's fallback with ``alpha`` its budget."""
    return sigma * z_upper(alpha / (2.0 * n))


def _subspace_half_width(space: Subspace, alpha: float, sigma: float, per_coordinate: bool):
    """``(half, width)`` of :func:`subspace_band`: the half-width, a float or
    with ``per_coordinate`` the vector over the grid, and the band's width."""
    z = z_upper(alpha / (2.0 * space.n))
    if per_coordinate:
        half = sigma * space.leverage_profile() * z
        return half, 2.0 * float(np.max(half))
    half = sigma * space.omega * z
    return half, 2.0 * half


def _feasible_rhs(n: int, d: int, eps2: float, prob: float, sigma: float) -> float:
    """Feasibility floor of one level: the central chi-square (``n - d`` degrees
    of freedom) tail above the ``prob`` quantile of the noncentral one with
    noncentrality ``n * eps2^2 / sigma^2``.

    Where ``scipy.special.chndtrix`` gives no finite quantile (noncentralities
    from about 1e10 up), the quantile is replaced by Cantelli's lower bound
    :func:`_quantile_lower_bound`.  A lower cutoff can only raise the floor,
    so feasibility stays conservative.
    """
    n, d = _size("n", n, 1), _size("d", d, 0)
    _require(d < n, f"need 0 <= d < n; got d={d}, n={n}")
    eps2, sigma = _nonnegative("eps2", eps2), _sigma("sigma", sigma)
    prob = _probability("probability budget", prob)
    ncp = n * eps2 * eps2 / (sigma * sigma)
    _require(  # eps2^2 may overflow (_sigma keeps sigma^2 finite)
        math.isfinite(ncp),
        "the residual noncentrality n * eps2^2 / sigma^2 overflows at "
        f"eps2={eps2!r}, sigma={sigma!r}",
    )
    try:
        cutoff = chi2_quantile(prob, n - d, ncp)
    except _LibraryRangeError:
        cutoff = _quantile_lower_bound(prob, n - d, ncp)
    return 1.0 - chi2_cdf(cutoff, n - d)


def _quantile_lower_bound(prob: float, df: int, ncp: float) -> float:
    """Cantelli's lower bound on the ``prob`` quantile of the noncentral
    chi-square: ``max(0, mu - s * sqrt(1/prob - 1))`` with mean
    ``mu = df + ncp`` and variance ``s^2 = 2 * (df + 2 * ncp)``, since
    ``P(X <= mu - t * s) <= 1 / (1 + t^2)`` for every ``t > 0``."""
    mean = df + ncp
    sd = math.sqrt(2.0 * (df + 2.0 * ncp))
    return max(0.0, mean - sd * math.sqrt(1.0 / prob - 1.0))


def min_feasible_gamma(scale: NestedScale, params: BandParams) -> float:
    """Smallest ``gamma`` certifiable across all levels of the scale.

    The per-level requirement uses the level's own coverage budget
    ``alpha_split[j]``; fully saturated levels (``d == n``) impose nothing.
    """
    _check_scale_params(scale, params)
    n = scale.n
    worst = 0.0
    for j, space in enumerate(scale.levels):
        if space.d == n:
            continue
        worst = max(
            worst,
            _feasible_rhs(n, space.d, params.tuning.eps2[j], params.alpha_split[j], params.sigma),
        )
    return worst


def _check_scale_params(scale: NestedScale, params: BandParams) -> None:
    _instance("scale", scale, NestedScale)
    if _instance("params", params, BandParams).m != scale.m:
        raise DomainError(f"params describe {params.m} levels, scale has {scale.m}")


def level_widths(scale: NestedScale, params: BandParams) -> tuple[float, ...]:
    """Design widths per level: ``2 * half_width`` for levels ``1..m`` and the
    fallback, in order.  Independent of the data."""
    _check_scale_params(scale, params)
    return tuple(2.0 * half for half in _level_halves(scale, params))


def _level_halves(scale: NestedScale, params: BandParams) -> tuple[float, ...]:
    """The ``m + 1`` half-widths of the adaptive band: level ``j`` accepted,
    ``sigma * omega_j * z_upper(alpha_split[j] / (2n)) + eps_inf[j]``, and
    last the fallback's Bonferroni half-width at the budget left to it."""
    n, sigma = scale.n, params.sigma
    return tuple(
        sigma * space.omega * z_upper(params.alpha_split[j] / (2.0 * n)) + params.tuning.eps_inf[j]
        for j, space in enumerate(scale.levels)
    ) + (_bonferroni_half_width(n, params.alpha_split[scale.m], sigma),)


class _Plan:
    """The data-independent part of the adaptive band for one configuration.

    Holds each level's projection, chi-square cutoff and half-width, and the
    fallback half-width, so that a band costs only its residual tests.
    :meth:`scan` tests one vector at every level, for the band call;
    :meth:`walk` tests a block of replications, each row up to its first
    accepted level, for the Monte Carlo run.  Both divide each residual sum
    of squares by ``sigma^2`` and compare the quotient with the level's
    cutoff, as :func:`t_statistic` does, so they give the same bits.
    """

    def __init__(self, scale: NestedScale, params: BandParams):
        self.variance = params.sigma * params.sigma
        self.levels = scale.levels
        self.cutoffs = tuple(
            acceptance_threshold(scale.n, space.d, params.gamma) for space in scale.levels
        )
        # Entry j is the half-width of the 1-based level j, entry 0 unused:
        # scan reads its level's entry, the block walk every row's at once.
        self.halves = np.array((math.nan,) + _level_halves(scale, params))

    def scan(self, y: np.ndarray):
        """Residual tests of the vector ``y`` at every level.

        Returns ``(t_stats, selected, center, half)``: the statistic of each
        level, the 1-based first accepted level (``m + 1`` for the fallback),
        the band centre (that level's projection, else ``y`` itself, not a
        copy) and its half-width.  The projections are the routine behind
        :meth:`Subspace.project` without its input checks, so the statistics
        equal :func:`t_statistic` bit for bit.
        """
        t_stats = []
        selected, center = len(self.levels) + 1, y
        for j, (space, cutoff) in enumerate(zip(self.levels, self.cutoffs), start=1):
            proj = space._project(y)
            resid = y - proj
            t = float(resid @ resid) / self.variance
            t_stats.append(t)
            if t <= cutoff and center is y:
                selected, center = j, proj
        return t_stats, selected, center, float(self.halves[selected])

    def walk(self, Y: np.ndarray):
        """Residual tests of each row of the ``(k, n)`` block ``Y``.

        Each level projects only the rows that no coarser level accepted, and
        a row stops at its first accepted level.  Returns ``(selected, center,
        half)``: per row the 1-based accepted level (``m + 1`` for the
        fallback), the band centre (``Y`` itself, not a copy, where no row was
        accepted) and the half-width.  Row ``i`` gives what :meth:`scan` gives
        for ``Y[i]``, bit for bit.
        """
        selected = np.full(Y.shape[0], len(self.levels) + 1)
        center, live, rows = Y, None, Y  # live: indices of the rows in rows, None for all
        for j, (space, cutoff) in enumerate(zip(self.levels, self.cutoffs), start=1):
            proj = space._project(rows)
            resid = rows - proj
            # vecdot runs the ddot of resid @ resid on each row, so the
            # statistics are scan's bit for bit (einsum and (R * R).sum(1)
            # add in other orders).
            accept = np.vecdot(resid, resid) / self.variance <= cutoff
            hits = np.count_nonzero(accept)
            if hits == 0:
                continue
            if live is None and hits == len(rows):
                selected[:], center = j, proj
                break
            if center is Y:
                center = Y.copy()
            done = np.flatnonzero(accept) if live is None else live[accept]
            selected[done], center[done] = j, proj[accept]
            if hits == len(rows):
                break
            live = np.flatnonzero(~accept) if live is None else live[~accept]
            rows = rows[~accept]
        return selected, center, self.halves[selected]


# The plan of each live scale and the params it was built for.  A plan holds
# its scale's levels but not the scale, so it dies with the scale; a new
# params for the same scale replaces it.
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _plan(scale: NestedScale, params: BandParams) -> _Plan:
    """The plan of ``(scale, params)``, built once.

    Raises :class:`~surrband.errors.FeasibilityError` on every call while
    ``params.gamma`` is below :func:`min_feasible_gamma` (and then keeps the
    scale's previous plan).
    """
    cached = _PLANS.get(scale)
    if cached is not None and cached[0] == params:
        return cached[1]
    feasible_floor = min_feasible_gamma(scale, params)
    if params.gamma < feasible_floor:
        raise FeasibilityError(params.gamma, feasible_floor)
    plan = _Plan(scale, params)
    _PLANS[scale] = (params, plan)
    return plan


def adaptive_band_nested(scale: NestedScale, y, params: BandParams) -> Band:
    """Adaptive band over a nested scale.

    Walks levels coarse to fine, accepts the first level whose residual
    statistic is at most the ``1 - gamma`` chi-square cutoff, and falls back
    to the identity band when all levels reject.  Raises
    :class:`~surrband.errors.FeasibilityError` when ``gamma`` is below
    :func:`min_feasible_gamma` for this configuration.
    """
    _instance("params", params, BandParams)
    y = _as_vector(y, _instance("scale", scale, NestedScale).n)
    plan = _plan(scale, params)
    t_stats, selected, center, half = plan.scan(y)
    return Band._around(
        y.copy() if center is y else center, half, 2.0 * half, selected, selected <= scale.m,
        t_stats=tuple(t_stats), thresholds=plan.cutoffs,
    )


def bonferroni_band(y, alpha: float, sigma: float) -> Band:
    """Constant-width band around the raw data with union-bound calibration.

    Half-width ``sigma * z_upper(alpha / (2n))``; exact coverage probability
    ``(1 - alpha/n)^n`` for any mean vector.
    """
    y, alpha, sigma = _as_vector(y), _probability("alpha", alpha), _sigma("sigma", sigma)
    half = _bonferroni_half_width(y.shape[0], alpha, sigma)
    return Band._around(y.copy(), half, 2.0 * half)


def subspace_band(
    space: Subspace, y, alpha: float, sigma: float, *, per_coordinate: bool = False
) -> Band:
    """Band around the projection, valid for means inside the subspace.

    Default half-width ``sigma * omega * z_upper(alpha / (2n))`` (uniform);
    with ``per_coordinate=True`` each coordinate instead uses its own
    leverage, giving a narrower band off the peak-leverage coordinates.
    """
    y = _as_vector(y, _instance("space", space, Subspace).n)
    alpha, sigma = _probability("alpha", alpha), _sigma("sigma", sigma)
    _instance("per_coordinate", per_coordinate, bool)
    half, width = _subspace_half_width(space, alpha, sigma, per_coordinate)
    return Band._around(space.project(y), half, width)
