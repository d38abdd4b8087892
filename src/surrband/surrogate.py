"""Surrogate targets, candidate sets, and tuning of the residual caps.

A band procedure that adapts to a subspace cannot distinguish a mean vector
``f`` from its projection when the residual ``f - project(f)`` is small in
two-norm; if that residual is nonetheless large in sup norm, no band of the
adaptive width can cover ``f`` itself.  The *surrogate target* resolves this:
it is the projection exactly when the residual is two-norm small (at most
``eps2``) but sup-norm large (exceeding ``eps_inf``), and ``f`` itself
otherwise.  Such ``f`` are called *spoilers*; all other vectors are
*invariant* (their surrogate is ``f``).

``optimal_tuning`` and ``nested_tuning`` produce the residual caps
``(eps2, eps_inf)`` per level: the two-norm cap from the chi-square
calibration constants, the sup-norm cap equal to the benchmark width
``w_target`` of the level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import v2_term, w_target
from .specfun import (
    _alpha_split, _equal_split, _instance, _nonnegative, _require, _sigma, econst,
)
from .subspace import NestedScale, Subspace, _as_vector, norm2, sup_norm

__all__ = [
    "SPOILER",
    "INVARIANT",
    "SurrogateTuning",
    "SurrogateCandidate",
    "surrogate_target",
    "selected_levels",
    "surrogate_set",
    "classify",
    "optimal_tuning",
    "nested_tuning",
]

SPOILER = "spoiler"
INVARIANT = "invariant"


@dataclass(frozen=True)
class SurrogateTuning:
    """Per-level residual caps ``(eps2[j], eps_inf[j])``, one pair per level."""

    eps2: tuple[float, ...]
    eps_inf: tuple[float, ...]

    def __post_init__(self):
        eps2 = tuple(_nonnegative("eps2 entries", v) for v in _as_tuple(self.eps2))
        eps_inf = tuple(_nonnegative("eps_inf entries", v) for v in _as_tuple(self.eps_inf))
        _require(
            len(eps2) == len(eps_inf),
            f"eps2 and eps_inf must have equal length, got {len(eps2)} and {len(eps_inf)}",
        )
        _require(len(eps2) >= 1, "tuning needs at least one level")
        object.__setattr__(self, "eps2", eps2)
        object.__setattr__(self, "eps_inf", eps_inf)

    @property
    def m(self) -> int:
        """Number of levels."""
        return len(self.eps2)


def _as_tuple(value) -> tuple:
    return (value,) if np.ndim(value) == 0 else tuple(value)


@dataclass(frozen=True, eq=False)
class SurrogateCandidate:
    """One member of the surrogate candidate set with its provenance tags.

    Tags are ``"projection:j"`` (1-based level ``j``) or ``"identity"``;
    a candidate carries several tags when distinct sources produce the same
    vector.
    """

    values: np.ndarray
    tags: tuple[str, ...]


def surrogate_target(space: Subspace, f, eps2: float, eps_inf: float) -> np.ndarray:
    """The vector the band is accountable for covering at this level.

    Returns ``project(f)`` when ``norm2(f - project(f)) <= eps2`` and
    ``sup_norm(f - project(f)) > eps_inf`` (the spoiler case), else a copy of
    ``f``.  Boundary convention: two-norm tie chooses the projection, sup-norm
    tie chooses ``f``.
    """
    eps2, eps_inf = _nonnegative("eps2", eps2), _nonnegative("eps_inf", eps_inf)
    f = _as_vector(f, _instance("space", space, Subspace).n)
    proj = _spoiler(space, f, eps2, eps_inf)
    return f.copy() if proj is None else proj


def _spoiler(space: Subspace, f: np.ndarray, eps2: float, eps_inf: float) -> np.ndarray | None:
    """The projection of the checked vector ``f`` if ``f`` is a spoiler at
    this level (residual two-norm at most ``eps2``, sup norm above
    ``eps_inf``), else ``None``."""
    proj = space._project(f)
    resid = f - proj
    return proj if norm2(resid) <= eps2 and sup_norm(resid) > eps_inf else None


def _spoilers(scale: NestedScale, f: np.ndarray, tuning: SurrogateTuning):
    """``(j, projection)`` for each 1-based level ``j`` at which ``f`` is a
    spoiler, each level projected once."""
    for j, space in enumerate(scale.levels, start=1):
        proj = _spoiler(space, f, tuning.eps2[j - 1], tuning.eps_inf[j - 1])
        if proj is not None:
            yield j, proj


def _check_scale_tuning(scale: NestedScale, tuning: SurrogateTuning) -> None:
    _instance("scale", scale, NestedScale)
    m = _instance("tuning", tuning, SurrogateTuning).m
    _require(m == scale.m, f"tuning has {m} levels but the scale has {scale.m}")


def selected_levels(scale: NestedScale, f, tuning: SurrogateTuning) -> tuple[int, ...]:
    """1-based levels at which ``f`` is a spoiler (surrogate = projection)."""
    _check_scale_tuning(scale, tuning)
    return tuple(j for j, _ in _spoilers(scale, _as_vector(f, scale.n), tuning))


def surrogate_set(scale: NestedScale, f, tuning: SurrogateTuning) -> list[SurrogateCandidate]:
    """All vectors the band may legitimately cover for truth ``f``.

    The level-``j`` projections for every spoiler level, plus ``f`` itself.
    Exactly equal vectors are merged into one candidate with the union of
    their provenance tags, in first-appearance order.
    """
    _check_scale_tuning(scale, tuning)
    f = _as_vector(f, scale.n)
    sources = [(proj, f"projection:{j}") for j, proj in _spoilers(scale, f, tuning)]
    sources.append((f.copy(), "identity"))

    merged: list[tuple[np.ndarray, list[str]]] = []
    for values, tag in sources:
        for existing, tags in merged:
            if np.array_equal(existing, values):
                tags.append(tag)
                break
        else:
            merged.append((values, [tag]))
    return [SurrogateCandidate(values=v, tags=tuple(tags)) for v, tags in merged]


def classify(scale: NestedScale, f, tuning: SurrogateTuning) -> str:
    """``"spoiler"`` if any level's surrogate is the projection, else ``"invariant"``."""
    return SPOILER if selected_levels(scale, f, tuning) else INVARIANT


def optimal_tuning(
    space: Subspace,
    alpha: float,
    gamma: float,
    sigma: float = 1.0,
    *,
    achievable: bool = False,
) -> SurrogateTuning:
    """Single-subspace residual caps.

    The sup-norm cap is the benchmark width ``w_target(omega, alpha, gamma,
    sigma)``.  The two-norm cap is ``sigma * 2 * v2_term(n, d, alpha,
    gamma)`` (the smallest cap for which the testing obstruction vanishes)
    or, with ``achievable=True``, ``sigma * econst(n-d, alpha/2, gamma) *
    (n-d)^(1/4) / sqrt(n)`` — the cap at which the concrete two-stage
    procedure certifies its guarantees.  With ``d == n`` there is no residual
    and the two-norm cap is 0.  This is :func:`nested_tuning` on the
    one-level scale of ``space``, whose equal split gives the level the
    budget ``alpha / 2``.
    """
    _instance("space", space, Subspace)
    return nested_tuning(NestedScale((space,)), alpha, gamma, sigma, achievable=achievable)


def nested_tuning(
    scale: NestedScale,
    alpha: float,
    gamma: float,
    sigma: float = 1.0,
    *,
    alphas: Sequence[float] | None = None,
    achievable: bool = True,
) -> SurrogateTuning:
    """Per-level residual caps for a nested scale.

    ``alphas`` is the per-level coverage budget of length ``m + 1`` (levels
    1..m plus the fallback); it defaults to the equal split
    ``alpha / (m + 1)``.  Level ``j``'s two-norm cap uses its own budget:
    ``sigma * econst(n - d_j, alphas[j], gamma) * (n - d_j)^(1/4) /
    sqrt(n)`` when ``achievable`` (the default), else ``sigma * 2 *
    v2_term(n, d_j, alpha, gamma)`` at the global levels.  Every sup-norm
    cap is the level's benchmark width at the *global* ``alpha``.  Both
    caps are in the units of the data, so the tuning is scale-equivariant:
    at ``c * sigma`` every cap is ``c`` times larger, the residual
    noncentrality ``n * eps2^2 / sigma^2`` and so the feasibility floor do
    not change.
    """
    m = _instance("scale", scale, NestedScale).m
    n = scale.n
    sigma = _sigma("sigma", sigma)
    alphas = _equal_split(alpha, m) if alphas is None else _alpha_split("alphas", alphas, alpha, m)
    eps2 = []
    eps_inf = []
    for j, space in enumerate(scale.levels):
        d = space.d
        if d == n:
            eps2.append(0.0)
        elif achievable:
            eps2.append(sigma * econst(n - d, alphas[j], gamma) * (n - d) ** 0.25 / math.sqrt(n))
        else:
            eps2.append(sigma * 2.0 * v2_term(n, d, alpha, gamma))
        eps_inf.append(w_target(space.omega, alpha, gamma, sigma))
    return SurrogateTuning(tuple(eps2), tuple(eps_inf))
