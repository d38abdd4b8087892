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
are memoized (every function here is pure); they take real numbers only, so a
``bool`` or a ``str`` raises :class:`~surrband.errors.DomainError` instead of
running as the number it converts to.  ``normal_quantile``, the map of draw
stream v1 of :mod:`surrband.simulate`, returns the result of its 64 bisection
steps bit for bit with about 8 ``ndtr`` evaluations per value instead of 64:
the first 48 to 53 steps compute without rounding, so their bracket is a cell
of an exact grid, which ``scipy.special.ndtri`` guesses and the bisection's
own test confirms at both ends; the rest run in rounds of 5, 2 and 4 steps,
the later rounds only on the brackets still moving.  Its docstring gives the
argument.

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

Argument checks
---------------
This module is the one home of the package's numeric argument checks:
every other module validates through its private helpers, which return the
checked values and raise :class:`~surrband.errors.DomainError` otherwise.
``_number(name, v)`` takes any real number (``int``, ``float`` or a numpy
integer or float, never a ``bool`` or a ``str``).  The factory
``_real(check_name, ok, expected)`` adds a range to it and makes every
scalar check: ``_finite``, ``_positive``, ``_nonnegative``,
``_probability`` ((0, 1)), ``_sigma`` (positive, with a square that neither
underflows nor overflows), ``_closed_unit`` ([0, 1], a leverage),
``_left_open_unit`` ((0, 1], a margin) and ``_right_open_unit`` ([0, 1)).
The rules that tie levels together are written once: ``_alpha_gamma``
(``0 < gamma < 1 - 2*alpha``), ``_alpha_eps`` (``0 < eps < 1/2 - alpha``),
``_alpha_split`` (a coverage budget of ``m + 1`` positive entries summing
to at most ``alpha``) and ``_equal_split`` (``alpha / (m + 1)`` each).
``_finite_array`` makes a rectangular array of kind ``i``, ``u`` or ``f``
with finite entries a float64 array; ``_instance(name, v, cls)`` checks
the type of a structured argument.  Integers follow one of two rules:
``_count(name, v, minimum)`` takes a Python ``int`` only (replication keys,
block counts, ``reps`` and ``seed``, whose sums are checked against 2**64,
where a numpy integer would wrap); ``_size(name, v, minimum)`` also takes
numpy integers (grid sizes, dimensions, degrees of freedom).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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
# probability (Phi(-40) underflows to 0), and +/-9.5 covers every uniform of
# the Monte Carlo generator: k * 2^-53 + 2^-54 for the 53-bit words k, which
# runs from 2^-54 to 1 - 2^-52 and then 1.0, the rounded uniform of the last
# word (above 1/2 two words share each uniform).
_Z_BRACKET = 40.0
_Z_BRACKET_VEC = 9.5

# The first 48 halvings of [-9.5, 9.5] are exact: every endpoint is a multiple
# of 19 * 2^-48 with at most 52 significant bits, so after them the bracket is
# a coarse cell [i * _CELL, (i + 1) * _CELL] for an integer i in [-2^47, 2^47).
_CELL = 2.0 * _Z_BRACKET_VEC * 2.0**-48

# Near a root z the exact steps go further.  With 2^e <= |z| + _CELL < 2^(e+1),
# the first s = min(51 - e, 53) steps stay on multiples of 19 * 2^-s, which
# have at most 52 significant bits below 2^(e+1).  That fine cell spans 38
# ulps of binade e (more for e < -2), and 64 - s = max(13 + e, 11) steps
# are left after it.
_TAIL_STEPS = 13
_TAIL_STEPS_MIN = 11


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(message)


# --- argument checks (see the module docstring) ---------------------------
#
# A band call runs some of these on every call, so the common case, a
# ``float`` in range, costs one type test and the range test: no ``isinstance``
# against numeric base classes, which cost about 1 us per call.

_FLOAT64 = np.dtype(np.float64)


def _number(name: str, value) -> float:
    """``value`` as a float; only real numbers pass, and a ``bool`` is not one
    here (``float(True)`` would silently give 1.0, ``float("0.1")`` 0.1)."""
    if type(value) is float:  # the common case, without the slower checks below
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the double range
        raise DomainError(f"{name} is beyond the double range") from None


def _real(check_name: str, ok, expected: str):
    """The check ``check_name(name, value)`` of a real number (``_number``) with
    ``ok(value)``; any other raises ``"{name} must {expected}, got {value!r}"``."""

    def check(name: str, value) -> float:
        if type(value) is not float:
            value = _number(name, value)
        if not ok(value):
            raise DomainError(f"{name} must {expected}, got {value!r}")
        return value

    check.__name__ = check.__qualname__ = check_name
    return check


_finite = _real("_finite", math.isfinite, "be finite")
_positive = _real("_positive", lambda v: 0.0 < v < math.inf, "be positive and finite")
_nonnegative = _real("_nonnegative", lambda v: 0.0 <= v < math.inf, "be nonnegative and finite")
_probability = _real("_probability", lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
# A noise level: the residual tests divide by ``sigma * sigma``, which
# underflows below about 1.57e-162 and overflows from about 1.34e154.
_sigma = _real("_sigma", lambda v: v > 0.0 and 0.0 < v * v < math.inf,
               "be positive with a square that is finite and above 0")
# A leverage, a spoiler's margin and the argument of tau_inv.
_closed_unit = _real("_closed_unit", lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
_left_open_unit = _real("_left_open_unit", lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")
_right_open_unit = _real("_right_open_unit", lambda v: 0.0 <= v < 1.0, "lie in [0, 1)")


def _count(name: str, value, minimum: int) -> int:
    """A Python ``int`` of at least ``minimum``: seeds, and replication keys
    and counts, whose sums are checked against 2**64, where a numpy integer
    would wrap.  A ``bool`` is no count."""
    if type(value) is not int or value < minimum:
        raise DomainError(f"{name} must be a Python int of at least {minimum}, got {value!r}")
    return value


def _size(name: str, value, minimum: int) -> int:
    """An ``int`` or a numpy integer of at least ``minimum``, returned as an
    ``int`` so that no later arithmetic wraps: grid sizes, dimensions and
    degrees of freedom.  A ``bool`` is no size."""
    if not (type(value) is int or isinstance(value, np.integer)) or value < minimum:
        raise DomainError(f"{name} must be an integer of at least {minimum}, got {value!r}")
    return int(value)


def _alpha_gamma(alpha, gamma) -> tuple[float, float]:
    """``alpha`` in (0, 1) and ``gamma`` with ``0 < gamma < 1 - 2*alpha``: the
    levels of :func:`kappa` and of the width ``tau_inv(1 - 2*alpha - gamma)``."""
    alpha, gamma = _probability("alpha", alpha), _number("gamma", gamma)
    _require(
        0.0 < gamma < 1.0 - 2.0 * alpha,
        f"gamma must lie in (0, 1 - 2*alpha); got alpha={alpha!r}, gamma={gamma!r}",
    )
    return alpha, gamma


def _alpha_eps(alpha, eps) -> tuple[float, float]:
    """``alpha`` in (0, 1) and ``eps`` with ``0 < eps < 1/2 - alpha``: the
    levels of the rate bounds of :mod:`surrband.bounds`."""
    alpha, eps = _probability("alpha", alpha), _positive("eps", eps)
    _require(eps < 0.5 - alpha, f"need eps < 1/2 - alpha; got alpha={alpha!r}, eps={eps!r}")
    return alpha, eps


def _alpha_split(name: str, split, alpha, m: int) -> tuple[float, ...]:
    """``split`` as a tuple of ``m + 1`` positive budgets, one per level and
    one for the fallback, that sum to at most ``alpha`` (up to rounding)."""
    alpha = _probability("alpha", alpha)
    if not isinstance(split, (Sequence, np.ndarray)):
        raise DomainError(
            f"{name} must be a sequence of length m + 1 = {m + 1}, got {type(split).__name__}"
        )
    split = tuple(_positive(f"{name} entries", a) for a in split)
    _require(len(split) == m + 1, f"{name} must have length m + 1 = {m + 1}, got {len(split)}")
    _require(
        sum(split) <= alpha * (1.0 + 1e-9) + 1e-15,
        f"{name} sums to {sum(split)!r}, exceeding alpha={alpha!r}",
    )
    return split


def _equal_split(alpha, m: int) -> tuple[float, ...]:
    """The budget ``alpha`` split equally over ``m`` levels and the fallback."""
    return (_probability("alpha", alpha) / (m + 1),) * (m + 1)


def _instance(name: str, value, cls: type):
    """``value`` itself, if it is an instance of ``cls``: the structured
    arguments (a subspace, a scale, a tuning, band parameters, a scenario)
    and the other non-numeric ones, which would otherwise fail later with an
    ``AttributeError`` or a ``TypeError``."""
    if not isinstance(value, cls):
        raise DomainError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _finite_array(name: str, value) -> np.ndarray:
    """``value`` as a float64 array of finite entries, the same object where it
    is one already; only arrays of numpy kinds ``i``, ``u`` and ``f`` pass, so
    booleans, strings and objects are not converted."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nested lists
        raise DomainError(f"{name} must form a rectangular array") from None
    if arr.dtype is not _FLOAT64:
        if arr.dtype.kind not in "iuf":
            raise DomainError(f"{name} must be real numbers, got dtype {arr.dtype}")
        arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite")
    return arr


def normal_cdf(x: float) -> float:
    """Standard normal distribution function ``P(Z <= x)``."""
    return float(special.ndtr(_number("x", x)))


def normal_quantile(u):
    """Vectorized standard normal quantile by fixed-count bisection.

    Accepts an array (or scalar) of probabilities in ``[2^-54, 1]``, the
    range of the Monte Carlo generator's uniforms (see ``_Z_BRACKET_VEC``),
    and returns the elementwise quantile of the standard normal distribution.
    The result is that of exactly 64 bisection steps on ``normal_cdf`` over
    ``[-9.5, 9.5]`` (move to the midpoint's upper half while
    ``ndtr(mid) < u``), which resolves the root beyond double precision and is
    fully deterministic — the property the Monte Carlo driver relies on for
    reproducibility.

    Most steps are not run one by one.  The first ``s`` compute without
    rounding: every endpoint on the way is a multiple of ``19 * 2^-s`` with
    at most 53 significant bits, so they end in the cell ``[i*c, (i+1)*c]``,
    ``c = 19 * 2^-s``, whose lower end passes the bisection's test and whose
    upper end fails it.  For a root ``z`` with ``2^e <= |z| + 19 * 2^-48 <
    2^(e+1)`` that holds up to ``s = 51 - e`` (48 near ``|z| = 9.5``), and
    ``s`` is capped at 53, where near ``u = 1/2`` the flat steps of ``ndtr``
    already make the guess below miss often.  A cell then spans 38 ulps of
    its binade, or more below ``|z| = 1/4``.  It is guessed from one
    ``scipy.special.ndtri`` call and both ends are tested.  A wrong guess
    moves one cell, and an element whose moved cell fails too runs the plain
    bisection.  On the generator's stream the move serves about 3% of values
    and the plain bisection none; in practice only inputs outside the range
    above reach it.  ``u = 1.0``, the uniform of the last word, is no such
    input: the guess below flips ``ndtri(2^-54)``, and its cell holds the
    first ``x`` where ``ndtr`` rounds to 1.

    This reproduces the plain bisection bit for bit provided no reversal of
    ``scipy.special.ndtr`` spans a cell: ``ndtr(a) <= ndtr(b)`` whenever
    ``b - a`` is at least 38 ulps.  ``ndtr`` is not monotone in floating point
    (``ndtr(-1.2994616580219442)`` exceeds ``ndtr`` of the next double up),
    but the reversals found span at most a few ulps, and the cells of the
    first 48 steps near ``|z| = 9.5`` are no wider than 38 ulps either, so
    the premise is the one the 48-step cells always needed.  Under it
    ``ndtr`` is nondecreasing on the cell ends, exactly one cell passes the
    test, and the plain bisection, whose first ``s`` midpoints are all cell
    ends, ends in it too.  ``tests/test_specfun.py`` pins the example and
    scans every binade the cells use for reversals over 16 ulps.

    The ``64 - s`` steps left run in three rounds: 5 steps on every value,
    then 2 and then 4 more on the brackets whose midpoint is still neither
    end, and no round once none is.  That is the plain bisection's result
    because a bracket whose midpoint equals an end has stopped: both ends
    have been tested (the lower passes, the upper fails), so the step at
    that midpoint leaves the bracket as it is, and a step depends only on
    the bracket and ``u``, so every later step does too.  The fallback's
    bracket ``[r, r]`` is left as it is by every step as well.  A value
    near the median (``|z| + 19 * 2^-48 < 1/2``, so ``s = 53``) has exactly
    11 steps left, all of which the rounds run if its bracket stays open.
    Every other cell spans 38 ulps, or at most 76 doubles where it straddles
    a power of two, so after 7 steps its ends are adjacent doubles and it
    has stopped.  About 8 ``ndtr`` evaluations per value remain.
    """
    u = np.asarray(u, dtype=np.float64)
    flat = u.reshape(-1)
    lo, hi = _bisect(flat, *_cells(flat), 5)
    mid = _midpoint(lo, hi)
    for steps in (2, 4):
        open_ = np.logical_and(lo != mid, hi != mid).nonzero()[0]
        if not open_.size:
            break
        lo[open_], hi[open_] = _bisect(flat[open_], lo[open_], hi[open_], steps)
        mid = _midpoint(lo, hi)
    return mid.view(np.float64).reshape(u.shape)[()]


def _midpoint(lo, hi):
    """``0.5 * (lo + hi)`` of two arrays of bits, as bits."""
    mid = lo.view(np.float64) + hi.view(np.float64)
    mid *= 0.5
    return mid.view(np.int64)


def _bisect(u, lo, hi, steps):
    """The brackets ``[lo, hi]`` of ``u`` after ``steps`` bisection steps,
    with the ends given and returned as the bits of doubles."""
    # A step moves lo to mid where ndtr(mid) < u and hi to mid elsewhere:
    # xor-ing in the differences under a mask costs the same for any pattern
    # of outcomes, which np.where does not.
    for _ in range(steps):
        mid = _midpoint(lo, hi)
        below = (special.ndtr(mid.view(np.float64)) < u).astype(np.int64)
        np.negative(below, out=below)  # all ones where the test passes, else zero
        lo = lo ^ ((lo ^ mid) & below)
        hi = mid ^ ((mid ^ hi) & below)
    return lo, hi


def _cells(u):
    """The bracket of each 1-d ``u`` after the exact bisection steps, as the
    bits of its ends: the fine cell guessed from ``ndtri``, or its neighbour,
    where the test confirms it at both ends, and otherwise ``[r, r]`` for the
    result ``r`` of the plain 64-step bisection."""
    # Above 1/2, ndtr rounds to the 2^-53 grid below 1, so ndtr(x) < u turns
    # false where the upper tail falls to (1 - u) + 2^-54, not to 1 - u.
    z = np.maximum(special.ndtri(np.minimum(u, (1.0 - u) + 2.0**-54)), -_Z_BRACKET_VEC)
    bits = z.view(np.int64)
    bits ^= (u > 0.5).astype(np.int64) << 63  # z = -z above 1/2
    width = np.abs(z)
    width += _CELL
    steps = width.view(np.int64) >> 52  # e + 1023
    steps -= 1023 - _TAIL_STEPS
    np.maximum(steps, _TAIL_STEPS_MIN, out=steps)  # the 64 - s steps left
    cell = ((steps + (1023 - 64)) << 52).view(np.float64)  # 2^-s
    cell *= 19.0
    # The bisection's test ndtr(x) < u must pass at lo and fail at hi.  Where
    # it does not on the cell of z, move one cell towards the root: up where
    # lo passed (so hi passed too), else down, but never below the bracket.
    lo = np.floor(z / cell) * cell
    hi = lo + cell
    low = special.ndtr(lo) < u
    ok = low & ~(special.ndtr(hi) < u)
    off = (~ok).nonzero()[0]
    if off.size:
        step, v = cell[off], u[off]
        lo[off] = np.where(low[off], hi[off], np.maximum(lo[off] - step, -_Z_BRACKET_VEC))
        hi[off] = lo[off] + step
        ok[off] = (special.ndtr(lo[off]) < v) & ~(special.ndtr(hi[off]) < v)
    lo, hi = lo.view(np.int64), hi.view(np.int64)
    full = (~ok).nonzero()[0]
    if full.size:
        # The plain bisection, finished here: the rounds of normal_quantile
        # need ends that pass and fail the test, as neither cell tried had.
        top = np.full(full.size, _Z_BRACKET_VEC)
        a, b = _bisect(u[full], (-top).view(np.int64), top.view(np.int64), 64)
        lo[full] = hi[full] = _midpoint(a, b)
    return lo, hi


@lru_cache(maxsize=None, typed=True)
def z_upper(p: float) -> float:
    """Upper-tail standard normal quantile: the ``z`` with ``P(Z > z) = p``.

    Bisects on the survival form ``normal_cdf(-z)``, which keeps full relative
    accuracy for very small ``p`` (far upper tail).
    """
    p = _probability("p", p)
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
    eps = _nonnegative("eps", eps)
    return 1.0 - 2.0 * normal_cdf(-eps / 2.0)


def tau_inv(t: float) -> float:
    """Inverse of :func:`tau` on ``[0, 1)``: the interval length with
    two-sided Gaussian probability ``t``."""
    t = _right_open_unit("t", t)
    return 2.0 * z_upper((1.0 - t) / 2.0)


# --- chi-square -----------------------------------------------------------


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
    df, ncp, x = _positive("df", df), _nonnegative("ncp", ncp), _finite("x", x)
    if x <= 0.0:
        return 0.0
    if ncp == 0.0:
        return _library_value(special.gammainc(df / 2.0, x / 2.0), "chi2_cdf", x, df, ncp)
    return _library_value(special.chndtr(x, df, ncp), "chi2_cdf", x, df, ncp)


@lru_cache(maxsize=None, typed=True)
def chi2_quantile(u: float, df: float, ncp: float = 0.0) -> float:
    """Quantile of the (non)central chi-square distribution.

    ``2 * gammaincinv(df/2, u)`` in the central case, ``scipy.special.chndtrix``
    otherwise; ``|chi2_cdf(q) - u| <= 1e-8 * min(u, 1 - u)`` on the oracle
    grid of the module docstring.
    """
    df, ncp, u = _positive("df", df), _nonnegative("ncp", ncp), _probability("u", u)
    if ncp == 0.0:
        return _library_value(2.0 * special.gammaincinv(df / 2.0, u), "chi2_quantile", u, df, ncp)
    return _library_value(special.chndtrix(u, df, ncp), "chi2_quantile", u, df, ncp)


# --- calibration constants ------------------------------------------------


def kappa(alpha: float, gamma: float) -> float:
    """Detection-radius constant ``(2*log(1 + 4*(1-gamma-2*alpha)^2))^(1/4)``.

    Defined for ``0 < alpha < 1`` and ``0 < gamma < 1 - 2*alpha``.
    """
    alpha, gamma = _alpha_gamma(alpha, gamma)
    delta = 1.0 - gamma - 2.0 * alpha
    return (2.0 * math.log1p(4.0 * delta * delta)) ** 0.25


# Relative residual of qconst's defining equation above which the library's
# root is rejected.  Roots that hold reach about 1e-13; failures (noncentral
# tails below about 1e-60) are off by orders of magnitude.
_QCONST_RTOL = 1e-9


@lru_cache(maxsize=None, typed=True)
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
    m, xi, beta = _size("m", m, 1), _probability("xi", xi), _number("beta", beta)
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
    z, d, u = _nonnegative("z", z), _finite("d", d), _probability("u", u)
    _require(d >= 1.0, f"d must be at least 1, got {d!r}")
    base = 2.0 * z + d
    lower = z + d - 2.0 * math.sqrt(base * math.log(1.0 / u))
    tail = math.log(1.0 / (1.0 - u))
    upper = z + d + 2.0 * math.sqrt(base * tail) + 2.0 * tail
    return lower, upper
