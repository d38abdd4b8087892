"""Linear regression subspaces over the uniform design grid.

A :class:`Subspace` is spanned by ``d`` basis rows on ``n`` grid points that
are orthonormal with respect to the *normalized* inner product

    ``<f, g> = (1/n) * sum_i f_i * g_i``,

so that ``norm2`` below is the root mean square.  All geometry in this package
(projections, tuning radii, leverage) is expressed in these normalized units;
``sup_norm`` is the plain coordinate maximum.

The module provides constructors for piecewise-constant dyadic block bases and
grid-sampled function systems, a :class:`NestedScale` wrapper that validates a
strictly increasing, genuinely nested chain of subspaces, and the extremal
norm-conversion helpers tied to the leverage number ``omega``.  A function
system is stored as its dense ``(d, n)`` basis; a dyadic block subspace
stores only its block boundaries, projects by block means in O(n), and builds
its basis only when asked for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import math

import numpy as np

from .errors import DomainError, RankDeficiencyError
from .specfun import _finite_array, _instance, _nonnegative, _size

__all__ = [
    "DesignGrid",
    "Subspace",
    "NestedScale",
    "inner_product",
    "norm2",
    "sup_norm",
    "orthonormalize",
    "dyadic_blocks",
    "dyadic_scale",
    "function_basis",
    "cosine_basis",
    "min_two_norm_given_inf",
    "max_inf_norm_given_two",
]

_ORTHO_TOL = 1e-8          # orthonormality acceptance in Subspace validation
_PIVOT_TOL = 1e-12         # relative rank-deficiency pivot
_NESTING_TOL = 1e-10       # sup-norm reconstruction tolerance across levels


def _as_vector(y, n: int | None = None) -> np.ndarray:
    """``y`` as a 1-d float64 vector of finite real numbers (of length ``n``
    if given), the same object where it is one already."""
    arr = _finite_array("vector entries", y)
    if arr.ndim != 1:
        raise DomainError(f"expected a 1-d vector, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise DomainError(f"expected a vector of length {n}, got {arr.shape[0]}")
    return arr


def inner_product(f, g) -> float:
    """Normalized inner product ``(1/n) * sum_i f_i g_i``."""
    f = _as_vector(f)
    g = _as_vector(g, f.shape[0])
    return float(f @ g) / f.shape[0]


def norm2(f) -> float:
    """Normalized two-norm (root mean square) ``sqrt((1/n) * sum_i f_i^2)``."""
    f = _as_vector(f)
    return math.sqrt(float(f @ f) / f.shape[0])


def sup_norm(f) -> float:
    """Coordinate maximum ``max_i |f_i|``."""
    f = _as_vector(f)
    return float(np.max(np.abs(f))) if f.size else 0.0


@dataclass(frozen=True)
class DesignGrid:
    """The uniform design ``x_i = i/n`` for ``i = 1..n``."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _size("n", self.n, 1))

    @property
    def x(self) -> np.ndarray:
        return np.arange(1, self.n + 1, dtype=np.float64) / self.n


class Subspace:
    """A ``d``-dimensional subspace with rows orthonormal in normalized units.

    ``omega`` is the leverage number ``max_i sqrt(sum_j basis[j,i]^2 / n)``:
    the largest ratio ``|v_i| / (sqrt(n) * norm2(v))`` achievable by a member
    ``v`` of the subspace.  It always lies in ``(0, 1]``.  Instances are
    immutable; ``basis`` is read-only.
    """

    def __init__(self, basis):
        b = np.array(_finite_array("basis entries", basis), order="C")
        if b.ndim != 2:
            raise DomainError(f"basis must be 2-d (rows x grid), got shape {b.shape}")
        d, n = b.shape
        if d < 1 or n < 1 or d > n:
            raise DomainError(f"basis shape {b.shape} is not valid (need 1 <= d <= n)")
        gram = b @ b.T / n
        if np.max(np.abs(gram - np.eye(d))) > _ORTHO_TOL:
            raise DomainError(
                "basis rows are not orthonormal under the normalized inner "
                "product; use orthonormalize() first"
            )
        b.setflags(write=False)
        self._freeze(n=n, d=d, omega=_omega(np.sum(b * b, axis=0) / n), _rows=b)

    def _freeze(self, **attributes) -> None:
        for name, value in attributes.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def basis(self) -> np.ndarray:
        """The ``(d, n)`` read-only matrix of orthonormal basis rows."""
        return self._rows

    def coefficients(self, y) -> np.ndarray:
        """Basis coefficients of the projection of ``y``."""
        y = _as_vector(y, self.n)
        return self._rows @ y / self.n

    def project(self, y) -> np.ndarray:
        """Orthogonal projection of ``y`` onto the subspace."""
        return self._project(_as_vector(y, self.n))

    def _project(self, y: np.ndarray) -> np.ndarray:
        """:meth:`project` of a checked float vector of length ``n``; the band
        plan calls it directly, so both give the same bits."""
        return (self._rows @ y / self.n) @ self._rows

    def _project_rows(self, Y: np.ndarray) -> np.ndarray:
        """:meth:`_project` of each row of a ``(k, n)`` float block.

        Row by row: the rows of ``Y @ B.T`` are not bitwise ``B @ y``."""
        out = np.empty_like(Y)
        for i, y in enumerate(Y):
            out[i] = self._project(y)
        return out

    def leverage_profile(self) -> np.ndarray:
        """Per-coordinate leverage ``sqrt(sum_j basis[j,i]^2 / n)``.

        The maximum of this profile is ``omega``; entry ``i`` equals the
        ratio ``|v_i| / (sqrt(n)*norm2(v))`` for the subspace member peaking
        at coordinate ``i``.
        """
        return np.sqrt(np.sum(self._rows * self._rows, axis=0) / self.n)

    def _within(self, finer: "Subspace") -> bool:
        """Whether every basis row reconstructs from ``finer`` to within
        ``_NESTING_TOL`` in sup norm."""
        return all(
            float(np.max(np.abs(row - finer.project(row)))) <= _NESTING_TOL
            for row in self.basis
        )


class _Blocks(Subspace):
    """The piecewise-constant subspace on consecutive blocks of the grid.

    Stores only the block starts and sizes: basis row ``j`` is
    ``sqrt(n / size_j)`` on block ``j`` and zero elsewhere, so projections
    are block means, O(n) time, and the dense basis is built only when
    :attr:`basis` is read.
    """

    def __init__(self, n: int, sizes: np.ndarray):
        starts = np.zeros(sizes.shape[0], dtype=np.intp)
        np.cumsum(sizes[:-1], out=starts[1:])
        heights = np.sqrt(n / sizes)
        self._freeze(
            n=n, d=sizes.shape[0], omega=_omega(heights * heights / n),
            _starts=starts, _sizes=sizes, _heights=heights,
        )

    @property
    def basis(self) -> np.ndarray:
        rows = np.zeros((self.d, self.n))
        rows[np.repeat(np.arange(self.d), self._sizes), np.arange(self.n)] = np.repeat(
            self._heights, self._sizes
        )
        rows.setflags(write=False)
        return rows

    def coefficients(self, y) -> np.ndarray:
        y = _as_vector(y, self.n)
        return np.add.reduceat(y, self._starts) * self._heights / self.n

    def _project(self, y: np.ndarray) -> np.ndarray:
        return np.repeat(np.add.reduceat(y, self._starts) / self._sizes, self._sizes)

    def _project_rows(self, Y: np.ndarray) -> np.ndarray:
        # Each row is _project of that row, bit for bit.
        return np.repeat(
            np.add.reduceat(Y, self._starts, axis=1) / self._sizes, self._sizes, axis=1
        )

    def leverage_profile(self) -> np.ndarray:
        return np.repeat(np.sqrt(self._heights * self._heights / self.n), self._sizes)

    def _within(self, finer: Subspace) -> bool:
        # Each block is a union of finer blocks iff its start and its end are
        # finer block boundaries; an end is the next start, or n for the last.
        if isinstance(finer, _Blocks):
            return bool(np.all(np.isin(self._starts, finer._starts)))
        return super()._within(finer)


def _omega(leverage: np.ndarray) -> float:
    return math.sqrt(float(np.max(leverage)))


def orthonormalize(rows) -> np.ndarray:
    """Gram-Schmidt orthonormalization in the normalized inner product.

    Runs modified Gram-Schmidt with one re-orthogonalization pass per row.  If
    a row's residual norm falls below ``1e-12 * max(1, norm2(row))`` the row is
    numerically dependent and :class:`~surrband.errors.RankDeficiencyError`
    (naming the row) is raised.
    """
    a = _finite_array("row entries", rows)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DomainError(f"expected a nonempty 2-d array of rows, got shape {a.shape}")
    d, n = a.shape
    out = np.empty_like(a)
    for i in range(d):
        v = a[i].copy()
        for _ in range(2):
            for j in range(i):
                v -= (float(v @ out[j]) / n) * out[j]
        nrm = math.sqrt(float(v @ v) / n)
        row_scale = math.sqrt(float(a[i] @ a[i]) / n)
        if nrm < _PIVOT_TOL * max(1.0, row_scale):
            raise RankDeficiencyError(i)
        out[i] = v / nrm
    return out


def dyadic_blocks(n: int, d: int) -> Subspace:
    """Piecewise-constant subspace on ``d`` consecutive blocks of the grid.

    Block sizes are ``n // d``, with the first ``n % d`` blocks one element
    larger.  When ``d`` divides ``n`` all blocks have size ``n/d`` and
    ``omega == sqrt(d/n)``; in general ``omega == 1/sqrt(min block size)``.
    The subspace stores only the block boundaries: projections cost O(n), and
    ``basis`` builds the dense ``(d, n)`` matrix each time it is read.
    """
    grid, d = DesignGrid(n), _size("d", d, 1)
    if not d <= grid.n:
        raise DomainError(f"d must lie in [1, n]; got d={d}, n={grid.n}")
    base, extra = divmod(grid.n, d)
    sizes = np.full(d, base, dtype=np.intp)
    sizes[:extra] += 1
    return _Blocks(grid.n, sizes)


def function_basis(n: int, fns: Sequence[Callable[[np.ndarray], np.ndarray]]) -> Subspace:
    """Subspace spanned by functions evaluated on the design grid.

    Each callable receives the grid ``x = (1/n, 2/n, ..., 1)`` and must return
    the vector of its values there; the evaluations are then orthonormalized.
    """
    grid = DesignGrid(n)
    if len(fns) < 1:
        raise DomainError("need at least one basis function")
    rows = np.stack([np.asarray(f(grid.x), dtype=np.float64) for f in fns])
    if rows.shape != (len(fns), grid.n):
        raise DomainError(
            f"basis functions must each return {grid.n} values, got shape {rows.shape}"
        )
    return Subspace(orthonormalize(rows))


def cosine_basis(n: int, d: int) -> Subspace:
    """Low-frequency cosine subspace: ``1, sqrt(2)cos(k pi x)`` for ``k < d``."""
    d = _size("d", d, 1)

    def make(k: int):
        if k == 0:
            return lambda x: np.ones_like(x)
        return lambda x: math.sqrt(2.0) * np.cos(k * math.pi * x)

    return function_basis(n, [make(k) for k in range(d)])


@dataclass(frozen=True, eq=False)
class NestedScale:
    """A strictly increasing chain of genuinely nested subspaces.

    Validates that all levels share one grid, dimensions strictly increase,
    and every basis row of each level reconstructs from the next level to
    within ``1e-10`` in sup norm (true nesting, not just growing dimension).
    """

    levels: tuple[Subspace, ...]

    def __post_init__(self):
        levels = tuple(_instance("levels", self.levels, Sequence))
        if len(levels) < 1:
            raise DomainError("a nested scale needs at least one level")
        for space in levels:
            _instance("levels entries", space, Subspace)
        n = levels[0].n
        if any(s.n != n for s in levels):
            raise DomainError("all levels must share the same grid size")
        dims = [s.d for s in levels]
        if any(b <= a for a, b in zip(dims, dims[1:])):
            raise DomainError(f"dimensions must strictly increase, got {dims}")
        for j in range(1, len(levels)):
            if not levels[j - 1]._within(levels[j]):
                raise DomainError(
                    f"level {j} is not contained in level {j + 1}: "
                    "a basis row fails to reconstruct"
                )
        object.__setattr__(self, "levels", levels)

    @property
    def n(self) -> int:
        return self.levels[0].n

    @property
    def m(self) -> int:
        """Number of levels."""
        return len(self.levels)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.d for s in self.levels)

    @property
    def omegas(self) -> tuple[float, ...]:
        return tuple(s.omega for s in self.levels)


def dyadic_scale(n: int, dims: Sequence[int]) -> NestedScale:
    """Nested scale of dyadic block subspaces with the given dimensions."""
    return NestedScale(tuple(dyadic_blocks(n, d) for d in dims))


def min_two_norm_given_inf(space: Subspace, eps_inf: float) -> float:
    """Smallest normalized two-norm of a subspace member with sup norm ``eps_inf``.

    Equals ``eps_inf / (sqrt(n) * omega)``; the minimizer is the member whose
    coordinate profile peaks at the maximum-leverage grid point.
    """
    n = _instance("space", space, Subspace).n
    return _nonnegative("eps_inf", eps_inf) / (math.sqrt(n) * space.omega)


def max_inf_norm_given_two(space: Subspace, eps2: float) -> float:
    """Largest sup norm of a subspace member with normalized two-norm ``eps2``.

    Equals ``eps2 * sqrt(n) * omega`` — the companion extremal identity to
    :func:`min_two_norm_given_inf`.
    """
    return _nonnegative("eps2", eps2) * math.sqrt(_instance("space", space, Subspace).n) * space.omega
