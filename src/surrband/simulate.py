"""Monte Carlo certification of band coverage and width.

Replications are driven by a counter-based generator (Philox) keyed by
``(seed, replication index)``: every replication's noise depends only on the
seed and its own index, never on execution order, so serial and multi-threaded
runs produce byte-identical reports.  Uniform draws are mapped to normals
through the package's own deterministic bisection inverse of the Gaussian
distribution function, :func:`~surrband.specfun.normal_quantile`.  It skips
the exactly computed steps and stops each value once its bracket stops
moving, which returns the bisection's values bit for bit, so this is still
draw stream v1: the same seed gives the same noise as ever.  Each
replication's Philox generator is a kept object reset to a kept state with
only the replication index rewritten.

Replications are cut into blocks on one grid for every thread count.  The
noise of a block is drawn in one call, and one band step per block gives
each row a centre and a half-width: the projection of the block for a
subspace run, or the block walk of the private band plan of
:mod:`surrband.bands` for an adaptive run.  The surrogate candidates
(outside the adaptive procedure, the truth alone) are then checked against
the bands of the whole block in one comparison.  There is no
per-replication Python loop, and each row has the same bits as a single
draw and a single band call.

A Bonferroni report depends on the noise only through one yes/no per
coordinate, so a Bonferroni block draws its uniforms but not its normals.
The quantile's first stage gives each uniform a tested bracket that holds
its v1 value, and the band's two comparisons at both ends of the bracket
decide almost every coordinate; only a row left open gets its exact values
(see :func:`_bonferroni_covered`).  The draw stream is unchanged, and the
report has the bytes of the full draw.

Coverage is recorded both for the truth ``f`` and for the surrogate candidate
set (the band counts as covering when *some* candidate lies inside it
pointwise, boundary ties included).  Widths and the adaptive level choice are
collected per replication and summarized in a :class:`SimReport`.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

# adaptive_band_nested and min_feasible_gamma are what the band plan does per
# replication and once per run, and bonferroni_band and subspace_band what a
# Bonferroni or subspace block does per row; they stay importable from this
# module.
from .bands import (  # noqa: F401
    BandParams,
    _bonferroni_half_width,
    _plan,
    _subspace_half_width,
    adaptive_band_nested,
    bonferroni_band,
    min_feasible_gamma,
    subspace_band,
)
from .errors import DomainError
from .specfun import (
    _cells,
    _count,
    _finite,
    _instance,
    _nonnegative,
    _number,
    _positive,
    _probability,
    _sigma,
    normal_quantile,
)
from .subspace import NestedScale, Subspace, _as_vector, norm2, sup_norm
from .surrogate import surrogate_set

__all__ = [
    "Scenario",
    "SimReport",
    "run",
    "gaussian_draw",
    "make_spoiler",
]


# The fields each kind reads besides kind, truth, reps and seed.
_FIELDS = {
    "adaptive": ("scale", "params"),
    "bonferroni": ("alpha", "sigma"),
    "subspace": ("space", "alpha", "sigma", "per_coordinate"),
}


@dataclass(frozen=True, eq=False)
class Scenario:
    """One Monte Carlo configuration.

    ``kind`` selects the procedure: ``"adaptive"`` (requires ``scale`` and
    ``params``), ``"bonferroni"`` (requires ``alpha`` and ``sigma``), or
    ``"subspace"`` (requires ``space``, ``alpha`` and ``sigma``, and reads the
    bool ``per_coordinate``); ``alpha`` must be a number in (0, 1) and
    ``sigma`` a positive number whose square is finite and above 0, checked
    here rather than at the first replication.  A field that the kind does not read must be left at
    ``None`` or ``False``.  ``truth`` is the mean vector; noise is
    ``N(0, sigma^2)`` per coordinate.
    """

    kind: str
    truth: np.ndarray
    reps: int
    seed: int
    scale: NestedScale | None = None
    params: BandParams | None = None
    space: Subspace | None = None
    alpha: float | None = None
    sigma: float | None = None
    per_coordinate: bool = False

    def __post_init__(self):
        if _instance("kind", self.kind, str) not in _FIELDS:
            raise DomainError(f"kind must be one of {tuple(_FIELDS)}, got {self.kind!r}")
        for name in ("scale", "params", "space", "alpha", "sigma", "per_coordinate"):
            value = getattr(self, name)
            if name not in _FIELDS[self.kind] and value is not None and value is not False:
                raise DomainError(f"{self.kind} scenarios do not use {name}=, got {value!r}")
        truth = _as_vector(self.truth)
        object.__setattr__(self, "truth", truth)
        _count("reps", self.reps, 1)
        _count("seed", self.seed, 0)
        if self.kind == "adaptive":
            _instance("params", self.params, BandParams)
            if truth.shape[0] != _instance("scale", self.scale, NestedScale).n:
                raise DomainError(
                    f"truth has length {truth.shape[0]} but the scale grid is {self.scale.n}"
                )
        else:
            if self.alpha is None or self.sigma is None:
                raise DomainError(f"{self.kind} scenarios need alpha= and sigma=")
            object.__setattr__(self, "alpha", _probability("alpha", self.alpha))
            object.__setattr__(self, "sigma", _sigma("sigma", self.sigma))
            if self.kind == "subspace":
                _instance("per_coordinate", self.per_coordinate, bool)
                if truth.shape[0] != _instance("space", self.space, Subspace).n:
                    raise DomainError(
                        f"truth has length {truth.shape[0]} but the subspace grid is {self.space.n}"
                    )

    @property
    def noise_sigma(self) -> float:
        return self.params.sigma if self.kind == "adaptive" else self.sigma

    @property
    def n(self) -> int:
        return self.truth.shape[0]


@dataclass(frozen=True, eq=False)
class SimReport:
    """Aggregated Monte Carlo results.

    Coverage estimates come with binomial standard errors
    ``sqrt(p*(1-p)/reps)``.  ``width_quantiles`` maps probability levels to
    empirical width quantiles; ``prob_width_le`` reports the empirical
    probability that the width is at most the requested threshold (``None``
    when no threshold was given); ``level_histogram`` counts the accepted
    level per replication for adaptive runs (``None`` otherwise).  The raw
    per-replication ``widths`` stay on the object but are not serialized.
    """

    reps: int
    seed: int
    surrogate_coverage: float
    surrogate_se: float
    true_coverage: float
    true_se: float
    width_quantiles: dict
    prob_width_le: dict | None
    level_histogram: dict | None
    widths: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "reps": int(self.reps),
            "seed": int(self.seed),
            "surrogateCoverage": float(self.surrogate_coverage),
            "surrogateCoverageSE": float(self.surrogate_se),
            "trueCoverage": float(self.true_coverage),
            "trueCoverageSE": float(self.true_se),
            "widthQuantiles": {k: float(v) for k, v in self.width_quantiles.items()},
            "probWidthLE": (
                None
                if self.prob_width_le is None
                else {k: float(v) for k, v in self.prob_width_le.items()}
            ),
            "levelHistogram": (
                None
                if self.level_histogram is None
                else {k: int(v) for k, v in self.level_histogram.items()}
            ),
        }


# Philox objects not in use, each paired with the state it is reset to: that
# of a new Philox(key=key), counter zero and buffer empty, whose key is
# rewritten for each row.  Resetting a kept object from a kept state is
# cheaper than building either anew; list pop/append are atomic, so each
# thread drawing at a time holds its own pair, and the list never holds more
# than ran at once.
_IDLE_PHILOX: list = []

# About this many normal deviates are drawn per call in ``run``: a block of
# ``max(1, _BLOCK_VALUES // n)`` replications.  Large enough that the numpy
# call overhead of the quantile is spread over many rows, small enough that
# its work arrays stay in cache.  The same for every thread count.
_BLOCK_VALUES = 2**12


def gaussian_draw(seed: int, rep: int, n: int, count: int | None = None) -> np.ndarray:
    """The ``n`` standard normal deviates of replication ``rep``.

    Philox keyed by ``(seed mod 2^64, rep)`` produces raw 64-bit words; the
    top 53 bits give uniforms offset into the open interval, which are mapped
    through :func:`~surrband.specfun.normal_quantile`.  Pure function of its
    arguments — the foundation of run-order-independent reproducibility.

    With an int ``count`` the result is a ``(count, n)`` block whose row ``i``
    is, bit for bit, ``gaussian_draw(seed, rep + i, n)``: every step after the
    raw words is elementwise, so one quantile call serves the whole block.

    ``seed`` must be a nonnegative int, ``n`` a positive int, and ``rep`` a
    nonnegative int with ``rep + count <= 2**64`` (a ``bool`` or a numpy
    integer is no int here); anything else raises
    :class:`~surrband.errors.DomainError`.
    """
    u = _uniforms(seed, rep, n, count)
    return normal_quantile(u if count is not None else u[0])


def _uniforms(seed: int, rep: int, n: int, count: int | None) -> np.ndarray:
    """The ``(count or 1, n)`` uniforms that :func:`gaussian_draw` maps to
    normals, with its argument checks."""
    _count("seed", seed, 0)
    _count("n", n, 1)
    if count is not None:
        _count("count", count, 1)
    if _count("rep", rep, 0) + (count or 1) > 2**64:
        raise DomainError(
            f"rep + count must be at most 2**64, got rep={rep!r}, count={count!r}"
        )
    raw = np.empty((1 if count is None else count, n), dtype=np.uint64)
    try:
        bitgen, state = _IDLE_PHILOX.pop()
    except IndexError:
        bitgen = np.random.Philox(0)
        state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": np.zeros(2, dtype=np.uint64)},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
    key = state["state"]["key"]
    key[0] = seed % 2**64
    for i, row in enumerate(raw):
        key[1] = rep + i
        bitgen.state = state
        row[:] = bitgen.random_raw(n)
    _IDLE_PHILOX.append((bitgen, state))
    return (raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54


def _bonferroni_covered(f: np.ndarray, sigma: float, half: float, u: np.ndarray) -> np.ndarray:
    """Whether each row ``y = f + sigma * normal_quantile(u)`` of a block lies
    within ``half`` of ``f`` at every coordinate, as the band's test finds it.

    The value of each ``u`` lies in the bracket ``[lo, hi]`` of the
    quantile's first stage (:func:`~surrband.specfun._cells`).  With ``sigma
    > 0`` and monotone rounding, ``y`` grows with the value, so ``y - half <=
    f`` can only turn false and ``f <= y + half`` only true.  Both tests at
    the ends of the bracket so decide each coordinate as surely covered,
    surely not, or open.  Only a row with an open coordinate and no surely
    uncovered one gets its exact values, which ``normal_quantile``, being
    elementwise, gives with the bits of the block draw.
    """
    lo, hi, _ = _cells(u.reshape(-1))
    lo = f + sigma * lo.reshape(u.shape)
    hi = f + sigma * hi.reshape(u.shape)
    covered = ((hi - half <= f) & (f <= lo + half)).all(axis=1)
    rows = (((lo - half <= f) & (f <= hi + half)).all(axis=1) & ~covered).nonzero()[0]
    if rows.size:
        y = f + sigma * normal_quantile(u[rows])
        covered[rows] = ((y - half <= f) & (f <= y + half)).all(axis=1)
    return covered


def _worker_count(threads: int, blocks: int) -> int:
    """Threads worth starting: no more than requested, blocks or CPUs."""
    return min(threads, blocks, os.cpu_count() or 1)


def run(scenario: Scenario, *, width_threshold: float | None = None, threads: int = 1) -> SimReport:
    """Execute the Monte Carlo and aggregate coverage/width statistics.

    Replications are cut into blocks of ``max(1, _BLOCK_VALUES // n)``,
    starting at the multiples of that size whatever the thread count; each
    block is one noise draw, one band step and one coverage comparison.  A
    Bonferroni block draws only the uniforms and decides each coordinate from
    the bracket of the quantile's first stage, computing exact normals only
    for a row that the bracket leaves open; its report is byte-identical to
    that of the full draw.
    ``threads > 1`` hands whole blocks to a thread pool of at most
    ``os.cpu_count()`` workers and no more workers than blocks; results are
    byte-identical to the serial run.  Adaptive scenarios are checked for
    feasibility once up front (raising
    :class:`~surrband.errors.FeasibilityError` before any sampling).
    """
    _instance("scenario", scenario, Scenario)
    _count("threads", threads, 1)
    if width_threshold is not None:
        width_threshold = _finite("width_threshold", width_threshold)

    f = scenario.truth
    n = scenario.n
    sigma = scenario.noise_sigma
    reps = scenario.reps
    seed = scenario.seed
    rows = max(1, _BLOCK_VALUES // n)

    # Outside the adaptive procedure the only surrogate candidate is the truth.
    plan = space = None
    candidates, truth = f[None], 0
    if scenario.kind == "adaptive":
        plan = _plan(scenario.scale, scenario.params)
        candidates = surrogate_set(scenario.scale, f, scenario.params.tuning)
        # The candidate tagged "identity" equals f, so its coverage is the truth's.
        truth = next(i for i, c in enumerate(candidates) if "identity" in c.tags)
        candidates = np.stack([c.values for c in candidates])
    elif scenario.kind == "bonferroni":
        fixed_half = _bonferroni_half_width(n, scenario.alpha, scenario.sigma)
        width = 2.0 * fixed_half
    else:
        space = scenario.space
        fixed_half, width = _subspace_half_width(space, scenario.alpha, scenario.sigma, scenario.per_coordinate)

    widths = np.empty(reps, dtype=np.float64)
    cover_true = np.zeros(reps, dtype=bool)
    cover_surr = np.zeros(reps, dtype=bool)
    levels = None if plan is None else np.zeros(reps, dtype=np.int64)

    def work(starts: range) -> None:
        for start in starts:
            stop = min(start + rows, reps)
            if scenario.kind == "bonferroni":
                # The truth is the one candidate, so both coverages are its own.
                u = _uniforms(seed, start, n, stop - start)
                cover_true[start:stop] = cover_surr[start:stop] = _bonferroni_covered(f, sigma, fixed_half, u)
                widths[start:stop] = width
                continue
            block = f + sigma * gaussian_draw(seed, start, n, stop - start)
            if plan is None:
                # subspace_band's arithmetic, row by row.
                center = space._project_rows(block)
                half = fixed_half
                widths[start:stop] = width
            else:
                levels[start:stop], center, half = plan.walk(block)
                widths[start:stop] = 2.0 * half
                half = half[:, None, None]
            # Rows against every candidate in one (k, c, n) comparison.
            center = center[:, None]
            covered = ((center - half <= candidates) & (candidates <= center + half)).all(axis=2)
            cover_surr[start:stop] = covered.any(axis=1)
            cover_true[start:stop] = covered[:, truth]

    starts = range(0, reps, rows)
    workers = _worker_count(threads, len(starts))
    if workers == 1:
        work(starts)
    else:
        # Worker i takes blocks i, i + workers, ...: one task per worker.
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, [starts[i::workers] for i in range(workers)]))

    def rate(flags: np.ndarray) -> tuple[float, float]:
        p = float(np.count_nonzero(flags)) / reps
        return p, math.sqrt(p * (1.0 - p) / reps)

    p_surr, se_surr = rate(cover_surr)
    p_true, se_true = rate(cover_true)

    q_levels = {0.5, 0.9}
    if scenario.kind == "adaptive":
        q_levels.add(1.0 - scenario.params.gamma)
    width_quantiles = {
        str(q): float(np.quantile(widths, q)) for q in sorted(q_levels)
    }

    prob_width_le = None
    if width_threshold is not None:
        p = float(np.count_nonzero(widths <= width_threshold)) / reps
        prob_width_le = {
            "threshold": width_threshold,
            "prob": p,
            "se": math.sqrt(p * (1.0 - p) / reps),
        }

    level_histogram = None
    if levels is not None:
        top = scenario.scale.m + 1
        level_histogram = {
            str(j): int(np.count_nonzero(levels == j)) for j in range(1, top + 1)
        }

    return SimReport(
        reps=reps,
        seed=seed,
        surrogate_coverage=p_surr,
        surrogate_se=se_surr,
        true_coverage=p_true,
        true_se=se_true,
        width_quantiles=width_quantiles,
        prob_width_le=prob_width_le,
        level_histogram=level_histogram,
        widths=widths,
    )


def make_spoiler(space: Subspace, eps2: float, eps_inf: float, margin: float) -> np.ndarray:
    """A mean vector whose surrogate at this level is the projection.

    Builds the sup-normalized projection residual of the unit spike at the
    maximum-leverage coordinate, then scales it to height
    ``h = eps_inf + margin * (h_max - eps_inf)`` where ``h_max = eps2 /
    norm2(residual)`` is the largest height keeping the two-norm inside the
    cap.  For ``margin`` in ``(0, 1]`` the result has residual two-norm at
    most ``eps2`` and sup norm strictly above ``eps_inf`` — a spoiler by
    construction (``margin == 1`` lands exactly on the two-norm cap).
    Requires ``eps_inf < h_max``; the projection of the returned vector is 0.
    """
    _instance("space", space, Subspace)
    eps2, eps_inf = _positive("eps2", eps2), _nonnegative("eps_inf", eps_inf)
    margin = _number("margin", margin)
    if not 0.0 < margin <= 1.0:
        raise DomainError(f"margin must lie in (0, 1], got {margin!r}")

    profile = space.leverage_profile()
    i0 = int(np.argmax(profile))
    spike = np.zeros(space.n)
    spike[i0] = 1.0
    resid = spike - space.project(spike)
    peak = sup_norm(resid)
    if peak < 1e-12:
        raise DomainError(
            f"coordinate {i0} lies inside the subspace; no spoiler direction exists"
        )
    direction = resid / peak
    h_max = eps2 / norm2(direction)
    if not eps_inf < h_max:
        raise DomainError(
            f"eps_inf={eps_inf!r} is not below the reachable height "
            f"h_max={h_max!r}; no spoiler exists at this tuning"
        )
    h = eps_inf + margin * (h_max - eps_inf)
    return h * direction
