"""Scalar special functions used throughout the package.

Gaussian tail quantiles, the two-sided Gaussian interval probability ``tau``
and its inverse, central and noncentral chi-square distribution functions and
quantiles, and the calibration constants ``kappa``, ``qconst`` and ``econst``
that size the two-norm tuning radius of the band procedures.

Conventions
-----------
* ``z_upper(p)`` is the upper-tail quantile: ``P(Z > z_upper(p)) = p`` for a
  standard normal ``Z``.
* ``chi2_cdf``/``chi2_quantile`` take the noncentrality in sum-of-squares form:
  ``ncp`` is ``sum(mu_i^2)`` for a shift vector ``mu``, so the distribution is
  that of ``||N(mu, I_df)||^2``.
* ``qconst(m, beta, xi)`` returns the *scaled mean separation* ``c``: the
  separation enters the noncentral distribution as ``ncp = (c*sqrt(m))^2``.

The Gaussian quantiles are defined by bisection on the distribution
function, so they stay accurate deep in the tails, and the scalar entry points
are memoized (every function here is pure).  ``normal_quantile`` locates the
bracket of the first 48 of its 64 bisection steps from ``scipy.special.ndtri``
and checks it with the bisection's own predicate, which gives the bisection's
result bit for bit at about a third of the cost (draw stream v1 of
:mod:`surrband.simulate`).

The chi-square layer is a validated call into ``scipy.special``: the central
law through the regularized incomplete gamma function and its inverse, the
noncentral law through ``chndtr``/``chndtrix``/``chndtrinc``.  Checked against
an ``mpmath`` oracle (``tests/test_specfun.py``), ``chi2_cdf`` is within 1e-12
absolute for df up to 4095 and ncp up to 5000, ``chi2_quantile`` returns a
``q`` with ``|F(q) - u| <= 1e-8 * min(u, 1 - u)`` for ``u`` in
``[1e-10, 1 - 1e-6]``, and ``qconst`` meets its defining equation to 1e-10
relative.  A non-finite library result (``chndtr`` and ``chndtrix`` return NaN
for ncp above about 1e11) raises :class:`~surrband.errors.DomainError` instead
of being returned.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import DomainError

__all__ = [
    "normal_cdf",
    "normal_quantile",
    "z_upper",
    "tau",
    "tau_inv",
    "chi2_cdf",
    "chi2_quantile",
    "kappa",
    "qconst",
    "econst",
    "birge_bounds",
]

# Bisection brackets.  |z| <= 40 covers every double-precision tail
# probability (Phi(-40) underflows to 0), and +/-9.5 covers uniforms in
# [2^-54, 1 - 2^-54], the full range produced by 53-bit generators.
_Z_BRACKET = 40.0
_Z_BRACKET_VEC = 9.5

# The first 48 halvings of [-9.5, 9.5] are exact: every endpoint is a multiple
# of 19 * 2^-48 with at most 52 significant bits, so after them the bracket is
# [i * _CELL, (i + 1) * _CELL] for an integer i in [-2^47, 2^47).
_EXACT_STEPS = 48
_CELL = 2.0 * _Z_BRACKET_VEC * 2.0**-_EXACT_STEPS
_HALF_CELLS = 2.0 ** (_EXACT_STEPS - 1)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(message)


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def normal_cdf(x: float) -> float:
    """Standard normal distribution function ``P(Z <= x)``."""
    return float(special.ndtr(float(x)))


def normal_quantile(u):
    """Vectorized standard normal quantile by fixed-count bisection.

    Accepts an array (or scalar) of probabilities in ``[2^-54, 1 - 2^-54]``
    and returns the elementwise quantile of the standard normal distribution.
    The result is that of exactly 64 bisection steps on ``normal_cdf`` over
    ``[-9.5, 9.5]`` (move to the midpoint's upper half while
    ``ndtr(mid) < u``), which resolves the root beyond double precision and is
    fully deterministic — the property the Monte Carlo driver relies on for
    reproducibility.

    The first 48 steps are not run one by one.  They compute without rounding,
    so they end in the cell ``[i*c, (i+1)*c]``, ``c = 19 * 2^-48``, whose lower
    end passes the bisection's test and whose upper end fails it.  The cell is
    guessed from ``scipy.special.ndtri`` and both ends are tested; a wrong
    guess moves one cell, and an element whose cell still fails the test (in
    practice only inputs outside the range above) runs all 64 steps.  The last
    16 steps then run as written.  This reproduces the plain bisection bit for
    bit provided no reversal of ``scipy.special.ndtr`` spans a cell:
    ``ndtr(a) <= ndtr(b)`` whenever ``b - a`` is at least ``c``.  ``ndtr`` is
    not monotone in floating point (``ndtr(-1.2994616580219442)`` exceeds
    ``ndtr`` of the next double up), but the reversals found span at most 4
    ulps, and a cell spans at least 38 ulps on ``[-9.5, 9.5]``.  Under that
    premise ``ndtr`` is nondecreasing on the cell ends, exactly one cell
    passes the test, and the plain bisection, whose first 48 midpoints are
    all cell ends, ends in it too.  ``tests/test_specfun.py`` pins the example
    and scans for reversals over 16 ulps.
    """
    u = np.asarray(u, dtype=np.float64)
    lo, hi = _first_steps(u.reshape(-1))
    lo, hi = _bisect(u, lo.reshape(u.shape), hi.reshape(u.shape), 64 - _EXACT_STEPS)
    return 0.5 * (lo + hi)


def _bisect(u, lo, hi, steps):
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = special.ndtr(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return lo, hi


def _first_steps(u):
    """The bracket of the first ``_EXACT_STEPS`` bisection steps on a 1-d ``u``."""
    # Above 1/2, ndtr rounds to the 2^-53 grid below 1, so ndtr(x) < u turns
    # false where the upper tail falls to (1 - u) + 2^-54, not to 1 - u.
    upper = u > 0.5
    z = special.ndtri(np.where(upper, (1.0 - u) + 2.0**-54, u))
    cell = np.clip(np.floor(np.where(upper, -z, z) / _CELL), -_HALF_CELLS, _HALF_CELLS - 1.0)
    lo, hi = cell * _CELL, (cell + 1.0) * _CELL
    low_ok = special.ndtr(lo) < u
    off = np.flatnonzero(~(low_ok & ~(special.ndtr(hi) < u)))
    if off.size:
        # Up one cell where the lower end passed (so the upper end failed), else down.
        cell = np.clip(cell[off] + np.where(low_ok[off], 1.0, -1.0), -_HALF_CELLS, _HALF_CELLS - 1.0)
        lo[off], hi[off] = cell * _CELL, (cell + 1.0) * _CELL
        uo = u[off]
        still = off[~((special.ndtr(lo[off]) < uo) & ~(special.ndtr(hi[off]) < uo))]
        if still.size:
            full = np.full(still.size, _Z_BRACKET_VEC)
            lo[still], hi[still] = _bisect(u[still], -full, full, _EXACT_STEPS)
    return lo, hi


@lru_cache(maxsize=None)
def z_upper(p: float) -> float:
    """Upper-tail standard normal quantile: the ``z`` with ``P(Z > z) = p``.

    Bisects on the survival form ``normal_cdf(-z)``, which keeps full relative
    accuracy for very small ``p`` (far upper tail).
    """
    p = _check_finite("p", p)
    _require(0.0 < p < 1.0, f"p must lie in (0, 1), got {p!r}")
    lo, hi = -_Z_BRACKET, _Z_BRACKET
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        surv = float(special.ndtr(-mid))
        if surv == p:
            return mid
        if surv > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def tau(eps: float) -> float:
    """Probability that a standard normal lands within ``eps/2`` of zero.

    ``tau(eps) = P(|Z| <= eps/2) = 1 - 2*normal_cdf(-eps/2)``; nonnegative
    ``eps`` required.  Strictly increasing, with ``tau(0) = 0``.
    """
    eps = _check_finite("eps", eps)
    _require(eps >= 0.0, f"eps must be nonnegative, got {eps!r}")
    return 1.0 - 2.0 * normal_cdf(-eps / 2.0)


def tau_inv(t: float) -> float:
    """Inverse of :func:`tau` on ``[0, 1)``: the interval length with
    two-sided Gaussian probability ``t``."""
    t = _check_finite("t", t)
    _require(0.0 <= t < 1.0, f"t must lie in [0, 1), got {t!r}")
    return 2.0 * z_upper((1.0 - t) / 2.0)


# --- chi-square -----------------------------------------------------------


def _validate_chi2_args(df: float, ncp: float) -> tuple[float, float]:
    df = _check_finite("df", df)
    ncp = _check_finite("ncp", ncp)
    _require(df > 0.0, f"df must be positive, got {df!r}")
    _require(ncp >= 0.0, f"ncp must be nonnegative, got {ncp!r}")
    return df, ncp


class _LibraryRangeError(DomainError):
    """``scipy.special`` returned NaN or inf for arguments that passed every
    check; a caller with a fallback catches only this."""


def _library_value(value, name: str, *args) -> float:
    """``value`` of ``name(*args)`` as a float; :class:`_LibraryRangeError` if
    the library returned NaN or inf."""
    value = float(value)
    if not math.isfinite(value):
        raise _LibraryRangeError(
            f"{name}{args!r} is outside the range of scipy.special, got {value!r}"
        )
    return value


def chi2_cdf(x: float, df: float, ncp: float = 0.0) -> float:
    """Distribution function of ``||N(mu, I_df)||^2`` with ``sum(mu^2) = ncp``.

    The central case is the regularized lower incomplete gamma function, the
    noncentral case ``scipy.special.chndtr``; absolute error below 1e-12 on
    the oracle grid of the module docstring.
    """
    df, ncp = _validate_chi2_args(df, ncp)
    x = _check_finite("x", x)
    if x <= 0.0:
        return 0.0
    if ncp == 0.0:
        return _library_value(special.gammainc(df / 2.0, x / 2.0), "chi2_cdf", x, df, ncp)
    return _library_value(special.chndtr(x, df, ncp), "chi2_cdf", x, df, ncp)


@lru_cache(maxsize=None)
def chi2_quantile(u: float, df: float, ncp: float = 0.0) -> float:
    """Quantile of the (non)central chi-square distribution.

    ``2 * gammaincinv(df/2, u)`` in the central case, ``scipy.special.chndtrix``
    otherwise; ``|chi2_cdf(q) - u| <= 1e-8 * min(u, 1 - u)`` on the oracle
    grid of the module docstring.
    """
    df, ncp = _validate_chi2_args(df, ncp)
    u = _check_finite("u", u)
    _require(0.0 < u < 1.0, f"u must lie in (0, 1), got {u!r}")
    if ncp == 0.0:
        return _library_value(2.0 * special.gammaincinv(df / 2.0, u), "chi2_quantile", u, df, ncp)
    return _library_value(special.chndtrix(u, df, ncp), "chi2_quantile", u, df, ncp)


# --- calibration constants ------------------------------------------------


def kappa(alpha: float, gamma: float) -> float:
    """Detection-radius constant ``(2*log(1 + 4*(1-gamma-2*alpha)^2))^(1/4)``.

    Defined for ``0 < alpha < 1`` and ``0 < gamma < 1 - 2*alpha``.
    """
    alpha = _check_finite("alpha", alpha)
    gamma = _check_finite("gamma", gamma)
    _require(0.0 < alpha < 1.0, f"alpha must lie in (0, 1), got {alpha!r}")
    _require(
        0.0 < gamma < 1.0 - 2.0 * alpha,
        f"gamma must lie in (0, 1 - 2*alpha); got alpha={alpha!r}, gamma={gamma!r}",
    )
    delta = 1.0 - gamma - 2.0 * alpha
    return (2.0 * math.log1p(4.0 * delta * delta)) ** 0.25


# Relative residual of qconst's defining equation above which the library's
# root is rejected.  Roots that hold reach about 1e-13; failures (noncentral
# tails below about 1e-60) are off by orders of magnitude.
_QCONST_RTOL = 1e-9


@lru_cache(maxsize=None)
def qconst(m: int, beta: float, xi: float) -> float:
    """Scaled mean separation at which a level-``xi`` chi-square test on ``m``
    degrees of freedom retains rejection probability ``1 - beta``.

    Returns the root ``c`` of::

        beta = chi2_cdf(t_star, m, (c*sqrt(m))**2),
        t_star = chi2_quantile(1 - xi, m)

    i.e. with the separation expressed as ``c * sqrt(m)`` in root-sum-of-squares
    units: ``c = sqrt(chndtrinc(t_star, m, beta) / m)``.  The root is checked
    against the equation, and a :class:`~surrband.errors.DomainError` is
    raised if it is not finite or misses ``beta`` by more than 1e-9 relative.
    Requires ``0 < beta < 1 - xi < 1``.
    """
    m = int(m)
    _require(m >= 1, f"m must be a positive integer, got {m!r}")
    beta = _check_finite("beta", beta)
    xi = _check_finite("xi", xi)
    _require(0.0 < xi < 1.0, f"xi must lie in (0, 1), got {xi!r}")
    _require(
        0.0 < beta < 1.0 - xi,
        f"beta must lie in (0, 1 - xi); got beta={beta!r}, xi={xi!r}",
    )
    t_star = chi2_quantile(1.0 - xi, m)
    ncp = float(special.chndtrinc(t_star, m, beta))
    c = math.sqrt(ncp / m) if ncp >= 0.0 else math.nan
    if not (math.isfinite(c) and abs(chi2_cdf(t_star, m, c * c * m) - beta) <= _QCONST_RTOL * beta):
        raise DomainError(
            f"no separation found with acceptance probability {beta!r} "
            f"(m={m}, xi={xi!r})"
        )
    return c


def econst(m: int, alpha: float, gamma: float) -> float:
    """Achievability constant ``max(qconst(m, alpha, gamma), 2*kappa(alpha, gamma))``."""
    return max(qconst(m, alpha, gamma), 2.0 * kappa(alpha, gamma))


def birge_bounds(z: float, d: float, u: float) -> tuple[float, float]:
    """Two-sided sandwich for noncentral chi-square quantiles.

    For the distribution of ``||N(mu, I_d)||^2`` with ``sum(mu^2) = z``, the
    ``u``-quantile ``q`` satisfies ``lower <= q <= upper`` with::

        lower = z + d - 2*sqrt((2*z + d) * log(1/u))
        upper = z + d + 2*sqrt((2*z + d) * log(1/(1-u))) + 2*log(1/(1-u))

    Returns the pair ``(lower, upper)``.
    """
    z = _check_finite("z", z)
    d = _check_finite("d", d)
    u = _check_finite("u", u)
    _require(z >= 0.0, f"z must be nonnegative, got {z!r}")
    _require(d >= 1.0, f"d must be at least 1, got {d!r}")
    _require(0.0 < u < 1.0, f"u must lie in (0, 1), got {u!r}")
    base = 2.0 * z + d
    lower = z + d - 2.0 * math.sqrt(base * math.log(1.0 / u))
    tail = math.log(1.0 / (1.0 - u))
    upper = z + d + 2.0 * math.sqrt(base * tail) + 2.0 * tail
    return lower, upper
