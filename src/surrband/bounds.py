"""Width lower bounds, tuning terms, and minimax rate expressions.

``w_target`` is the benchmark sup-norm half-width for a band that adapts to a
subspace with leverage ``omega``; ``surrogate_lower_bound`` assembles the
matching impossibility bound (no valid surrogate band can be uniformly
narrower), reporting each obstruction term separately.  The remaining
functions give closed-form lower rates over classical smoothness balls and
the sup-norm modulus of continuity used to size those obstructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import (
    _alpha_eps, _alpha_gamma, _closed_unit, _finite, _instance, _nonnegative, _positive, _require,
    _sigma, _size, kappa, tau_inv,
)
from .subspace import Subspace

__all__ = [
    "LowerBoundReport",
    "w_target",
    "v2_term",
    "surrogate_lower_bound",
    "rn_lower_bound",
    "lipschitz_rate",
    "sobolev_rate",
    "besov_rate",
    "modulus",
]


def w_target(omega: float, alpha: float, gamma: float, sigma: float = 1.0) -> float:
    """Benchmark half-width ``omega * sigma * tau_inv(1 - 2*alpha - gamma)``.

    This is the sup-norm width scale forced on any procedure with coverage
    level ``alpha`` and narrowness level ``gamma`` over a subspace with
    leverage ``omega``; it needs ``0 < gamma < 1 - 2*alpha``.
    """
    omega = _closed_unit("omega", omega)
    alpha, gamma = _alpha_gamma(alpha, gamma)
    sigma = _sigma("sigma", sigma)
    return omega * sigma * tau_inv(1.0 - 2.0 * alpha - gamma)


def v2_term(n: int, d: int, alpha: float, gamma: float) -> float:
    """Two-norm detection radius ``kappa(alpha, gamma) * (n-d)^(1/4) / sqrt(n)``.

    It is Baraud's critical testing radius
    ``(n-d)^(1/4) n^(-1/2) (2 log(1 + 4 delta^2))^(1/4)`` at
    ``delta = 1 - 2*alpha - gamma``: below it, departures from a
    ``d``-dimensional subspace cannot be tested with advantage ``delta``.
    It is the radius at noise level 1; at noise level ``sigma`` it is
    ``sigma`` times this.
    """
    n, d = _size("n", n, 1), _size("d", d, 0)
    _require(d <= n, f"d must not exceed n; got d={d}, n={n}")
    return kappa(alpha, gamma) * (n - d) ** 0.25 / math.sqrt(n)


@dataclass(frozen=True)
class LowerBoundReport:
    """Decomposed width lower bound for a surrogate band configuration.

    ``lower_width = max(w_target, v0, v1)`` where ``v0`` is the
    indistinguishability term (no test can see the perturbation at all),
    ``v1`` is the testing obstruction active when the two-norm radius is
    below twice the detection radius ``v2``, and ``w_target`` is the
    benchmark half-width.  ``v2`` is reported so callers can see which branch
    of ``v1`` fired.
    """

    w_target: float
    v0: float
    v1: float
    v2: float
    lower_width: float

    def to_dict(self) -> dict:
        return {
            "wTarget": self.w_target,
            "v0": self.v0,
            "v1": self.v1,
            "v2": self.v2,
            "lowerWidth": self.lower_width,
        }


def surrogate_lower_bound(
    space: Subspace,
    eps2: float,
    eps_inf: float,
    alpha: float,
    gamma: float,
    sigma: float = 1.0,
) -> LowerBoundReport:
    """Width lower bound for surrogate bands over ``space`` at the given tuning.

    Requires ``d < n`` (with ``d == n`` there is no residual direction and no
    obstruction).  See :class:`LowerBoundReport` for the decomposition.  The
    detection radius ``v2`` is ``sigma * v2_term(n, d, alpha, gamma)``, so
    every term, like the caps of :func:`~surrband.surrogate.nested_tuning`,
    is in the units of the data: scaling ``eps2``, ``eps_inf`` and ``sigma``
    by ``c`` scales the report by ``c``.
    """
    n, d = _instance("space", space, Subspace).n, space.d
    _require(d < n, f"the lower bound requires d < n; got d={d}, n={n}")
    eps2, eps_inf = _nonnegative("eps2", eps2), _nonnegative("eps_inf", eps_inf)
    sigma = _sigma("sigma", sigma)
    alpha, gamma = _alpha_gamma(alpha, gamma)
    wf = w_target(space.omega, alpha, gamma, sigma)
    v0 = min(math.sqrt(n) * eps2, eps_inf, sigma * tau_inv(1.0 - 2.0 * alpha - gamma))
    v2 = sigma * v2_term(n, d, alpha, gamma)
    v1 = 0.0 if eps2 >= 2.0 * v2 else v2
    return LowerBoundReport(
        w_target=wf, v0=v0, v1=v1, v2=v2, lower_width=max(wf, v0, v1)
    )


def rn_lower_bound(n: int, alpha: float, eps: float, sigma: float = 1.0) -> float:
    """Unrestricted-mean width lower bound ``(1-2a-2e) * sigma * sqrt(log(n e^2))``.

    Valid for ``0 < eps < 1/2 - alpha`` and ``n * eps^2 > 1``.
    """
    n, sigma = _size("n", n, 1), _sigma("sigma", sigma)
    alpha, eps = _alpha_eps(alpha, eps)
    _require(n * eps * eps > 1.0, f"need n*eps^2 > 1; got n={n}, eps={eps!r}")
    return (1.0 - 2.0 * alpha - 2.0 * eps) * sigma * math.sqrt(math.log(n * eps * eps))


def lipschitz_rate(n: int, lip: float, sigma: float, alpha: float, eps: float) -> float:
    """Width lower bound over a Lipschitz ball, with logarithmic corrections.

    Leading order ``(log n / n)^(1/3) * (lip * sigma^2 / 2)^(1/3)`` times a
    bracket that tends to 1 as ``n`` grows.  Requires ``n >= 3`` and an inner
    logarithm argument that stays positive (it can fail for tiny
    ``n * lip / sigma`` combinations).
    """
    n, lip, sigma = _size("n", n, 3), _positive("lip", lip), _sigma("sigma", sigma)
    alpha, eps = _alpha_eps(alpha, eps)
    logn = math.log(n)
    log_eps = math.log1p(eps * eps)
    log_ls = math.log(lip / (2.0 * sigma))
    inner = logn / 3.0 + log_eps + 2.0 * log_ls / 3.0
    _require(
        inner > 0.0,
        "logarithmic correction is undefined here: "
        f"(log n)/3 + log(1+eps^2) + (2/3)log(lip/(2 sigma)) = {inner!r} <= 0",
    )
    lead = (logn / n) ** (1.0 / 3.0) * (lip * sigma * sigma / 2.0) ** (1.0 / 3.0)
    bracket = 1.0 + 3.0 * log_eps / logn + 2.0 * log_ls / logn - math.log(inner) / logn
    return lead * bracket


def sobolev_rate(n: int, p: float) -> float:
    """Sup-norm lower rate ``n^(-p/(2p+1))`` over a Sobolev ball of order ``p``.

    The slowly varying prefactor is not computed; this is the rate only.
    """
    n, p = _size("n", n, 1), _positive("p", p)
    return float(n) ** (-p / (2.0 * p + 1.0))


def besov_rate(n: int, p: float, xi: float) -> float:
    """Sup-norm lower rate ``n^(-1/(1/p - xi - 1/2))`` over a Besov-type ball.

    The rate only (no prefactor).  The exponent denominator ``1/p - xi - 1/2``
    must be bounded away from zero.
    """
    n, p, xi = _size("n", n, 1), _positive("p", p), _finite("xi", xi)
    denom = 1.0 / p - xi - 0.5
    _require(
        abs(denom) >= 1e-12,
        f"rate exponent degenerates: 1/p - xi - 1/2 = {denom!r} is too close to 0",
    )
    return float(n) ** (-1.0 / denom)


def modulus(
    u: float,
    omega: float,
    n: int,
    eps2: float,
    eps_inf: float,
    *,
    natural: bool = False,
) -> float:
    """Sup-norm modulus of continuity of the surrogate constraint set.

    Closed-form bound on how far apart two vectors can be in one coordinate
    when both satisfy the two-norm/sup-norm residual caps (``eps2``,
    ``eps_inf``) around a subspace and their difference has normalized
    two-norm at most ``u``.  ``omega`` is the *probed coordinate's* leverage
    ``norm2(project(e_i)) / norm2(e_i)`` — equal to the subspace leverage when
    the maximum is attained at the probed coordinate.

    With ``natural=True`` the alternative normalization is returned, with
    ``u`` and ``eps2`` read in root-sum-of-squares units (no ``sqrt(n)``
    factors).
    """
    u, omega = _nonnegative("u", u), _closed_unit("omega", omega)
    n = _size("n", n, 1)
    eps2, eps_inf = _nonnegative("eps2", eps2), _nonnegative("eps_inf", eps_inf)
    # the subspace piece and the residual piece of the extremal perturbation
    shrink = math.sqrt(omega * omega / (1.0 + omega * omega))
    spread = math.sqrt(1.0 + omega * omega)
    if natural:
        return u * omega * shrink + min(u / spread, eps2, eps_inf)
    root_n = math.sqrt(n)
    return u * omega * root_n * shrink + min(u * root_n / spread, eps2 * root_n, eps_inf)
