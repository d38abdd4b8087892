"""Monte Carlo certification of band coverage and width.

Replications are driven by a counter-based generator (Philox) keyed by
``(seed, replication index)``: every replication's noise depends only on the
seed and its own index, never on execution order.  Each replication's
Philox generator is a kept object reset to numpy's own fresh state with the
key rewritten to ``(seed, rep)``; that state is kept as plain Python ints,
which numpy's state setter reads faster than numpy arrays.  Uniform draws
are mapped to normals by the package's own deterministic bisection inverse
of the Gaussian distribution function,
:func:`~surrband.specfun.normal_quantile`, bit for bit the 64-step
bisection: this is draw stream v1, the same noise as ever.

Each procedure has one set-up, done once per run, and one block step (see
:func:`_step`).  Replications are cut into blocks on one grid and walked in
order, serially, one step per block.  An adaptive or subspace step keys
Philox once for its block, gives each row a centre and a half-width (the
block walk of the private band plan of :mod:`surrband.bands`, or the
projection of the block), and checks the rows' bands against the surrogate
candidates (outside the adaptive procedure, the truth alone) in one
comparison.  There is no per-replication Python loop, and each row has the
same bits as a single draw and a single band call.

Such a report depends on the noise only through yes/no decisions: each
level's residual test and each candidate's coverage.  So, as a filtered
geometric predicate does, a step takes them on a certified approximation
of the draw, the low ends of the brackets that the first stage of the v1
quantile gives, and runs the quantile's last rounds only for a row whose
residual norm or candidate lies within that row's radius of a turning
point (see :func:`_step`, which derives the radius).  Every decision is
that of the full draw, and the stream stays v1.  A run refuses a truth at
which its narrowest half-width is below the spacing of doubles: every draw
would round back to the truth there.

A Bonferroni report depends on the noise only through one yes/no per
coordinate, and that answer is a window of the Philox words.  The v1
quantile never decreases as its uniform grows, nor does the uniform as its
word grows, and with ``sigma > 0`` monotone IEEE rounding carries that
order through the noisy value and the band's two comparisons.  So the
words whose draw the band covers at a coordinate form one interval
``[lo, hi]``, found in the set-up (see :func:`_window_ends`), and a
Bonferroni step keys Philox and compares integers.  The report has the
bytes of the full draw.  The windows of the last configuration (the truth,
``sigma`` and the half-width) are kept, so repeated runs of one
configuration search them once.

Coverage is recorded both for the truth ``f`` and for the surrogate candidate
set (the band counts as covering when *some* candidate lies inside it
pointwise, boundary ties included).  Widths and the adaptive level choice are
collected per replication and summarized in a :class:`SimReport`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

# Nothing here calls adaptive_band_nested, min_feasible_gamma or
# bonferroni_band: they stay only because the benchmark's tracer
# (perfbench/tracing.py) wraps them in this module (ROADMAP item 1).
from .bands import (  # noqa: F401
    BandParams,
    _bonferroni_half_width,
    _plan,
    _subspace_half_width,
    adaptive_band_nested,
    bonferroni_band,
    min_feasible_gamma,
)
from .errors import DomainError
from .specfun import (
    _Z_BRACKET_VEC,
    _cells,
    _count,
    _finite,
    _instance,
    _left_open_unit,
    _nonnegative,
    _positive,
    _probability,
    _require,
    _rounds,
    _sigma,
    normal_quantile,
)
from .subspace import _ORTHO_TOL, NestedScale, Subspace, _as_vector, _Blocks, norm2, sup_norm
from .surrogate import surrogate_set

__all__ = [
    "Scenario",
    "SimReport",
    "run",
    "gaussian_draw",
    "make_spoiler",
]


# The fields each kind reads besides kind, truth, reps and seed, each with
# its check (a class, or a number check whose result is kept), and the field
# whose grid the truth must match, with that grid's name.
_FIELDS = {
    "adaptive": ({"scale": NestedScale, "params": BandParams}, ("scale", "scale")),
    "bonferroni": ({"alpha": _probability, "sigma": _sigma}, None),
    "subspace": (
        {"space": Subspace, "alpha": _probability, "sigma": _sigma, "per_coordinate": bool},
        ("space", "subspace"),
    ),
}


@dataclass(frozen=True, eq=False)
class Scenario:
    """One Monte Carlo configuration.

    ``kind`` selects the procedure: ``"adaptive"`` (requires ``scale`` and
    ``params``), ``"bonferroni"`` (requires ``alpha`` and ``sigma``), or
    ``"subspace"`` (requires ``space``, ``alpha`` and ``sigma``, and reads the
    bool ``per_coordinate``); ``alpha`` must be a number in (0, 1) and
    ``sigma`` a positive number whose square is finite and above 0, checked
    here rather than at the first replication.  A field that the kind does
    not read must be left at ``None`` or ``False``.  ``truth`` is the mean
    vector; noise is ``N(0, sigma^2)`` per coordinate.
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
        truth = _as_vector(self.truth)
        object.__setattr__(self, "truth", truth)
        _count("reps", self.reps, 1)
        _count("seed", self.seed, 0)
        checks, grid = _FIELDS[self.kind]
        for name in ("scale", "params", "space", "alpha", "sigma", "per_coordinate"):
            value, check = getattr(self, name), checks.get(name)
            if check is None:
                if value is not None and value is not False:
                    raise DomainError(f"{self.kind} scenarios do not use {name}=, got {value!r}")
            elif isinstance(check, type):
                _instance(name, value, check)
            elif value is None:
                raise DomainError(f"{self.kind} scenarios need alpha= and sigma=")
            else:
                object.__setattr__(self, name, check(name, value))
        if grid is not None and truth.shape[0] != (size := getattr(self, grid[0]).n):
            raise DomainError(f"truth has length {truth.shape[0]} but the {grid[1]} grid is {size}")

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


# Philox objects not in use, each paired with the state it is reset to:
# numpy's own state of a new Philox, counter zero and buffer empty, whose key
# is rewritten for each row, with its counter, key and buffer as lists of
# ints (the setter reads them entry by entry, and an int from a list costs
# less than one from a numpy array).  Resetting a kept object from a kept
# state is cheaper than building either anew.  ``run`` draws on the calling
# thread only, but library callers may call ``gaussian_draw`` from threads of
# their own: list pop/append are atomic, so each draw running at a time holds
# its own pair, and the list never holds more than ran at once.
_IDLE_PHILOX: list = []

# About this many normal deviates are drawn per call in ``run``: a block of
# ``max(1, _BLOCK_VALUES // n)`` replications.  Large enough that the numpy
# call overhead of the quantile is spread over many rows, small enough that
# its work arrays stay in cache.
_BLOCK_VALUES = 2**12

# The number of 53-bit words behind the uniforms of a draw, and how many
# words on each side of a guessed end of a Bonferroni window are tested
# before a bisection over all of them: with an O(1) truth, nearly every
# miss of the guess is by one or two words.
_WORDS = 2**53
_NEAR = 2

# The rounding unit, and the part of a row's radius (see _step) that covers
# underflow: above sqrt(n * 2^-1074), all that underflow can take from a sum
# of n squares, for any n below 2^74.
_EPS = float(np.finfo(np.float64).eps)
_UNDERFLOW = 2.0**-500


def gaussian_draw(seed: int, rep: int, n: int, count: int | None = None) -> np.ndarray:
    """The ``n`` standard normal deviates of replication ``rep``.

    Philox keyed by ``(seed mod 2^64, rep)`` produces raw 64-bit words; the
    top 53 bits ``k`` give the uniforms ``k * 2^-53 + 2^-54`` (see
    :func:`_uniform`), which are mapped through
    :func:`~surrband.specfun.normal_quantile`.  Pure function of its
    arguments — the foundation of run-order-independent reproducibility.

    With an int ``count`` the result is a ``(count, n)`` block whose row ``i``
    is, bit for bit, ``gaussian_draw(seed, rep + i, n)``: every step after the
    raw words is elementwise, so one quantile call serves the whole block.

    ``seed`` must be a nonnegative int, ``n`` a positive int, and ``rep`` a
    nonnegative int with ``rep + count <= 2**64`` (a ``bool`` or a numpy
    integer is no int here); anything else raises
    :class:`~surrband.errors.DomainError`.
    """
    k = _words(seed, rep, n, count)
    return normal_quantile(_uniform(k if count is not None else k[0]))


def _words(seed: int, rep: int, n: int, count: int | None) -> np.ndarray:
    """The ``(count or 1, n)`` 53-bit words, as int64, that :func:`_uniform`
    maps to the uniforms of :func:`gaussian_draw`, with its argument checks.

    Each row resets a kept Philox object to numpy's fresh state with the key
    ``(seed mod 2^64, rep + i)``.  That state is kept with plain-int lists
    for its counter, key and buffer (see ``_IDLE_PHILOX``): the reset is
    most of a short row's cost, and reading a list is the cheaper part of it.
    """
    _count("seed", seed, 0)
    _count("n", n, 1)
    if count is not None:
        _count("count", count, 1)
    if _count("rep", rep, 0) + (count or 1) > 2**64:
        raise DomainError(
            f"rep + count must be at most 2**64, got rep={rep!r}, count={count!r}"
        )
    try:
        bitgen, state = _IDLE_PHILOX.pop()
    except IndexError:
        bitgen = np.random.Philox(0)
        state = bitgen.state
        state["state"] = {k: v.tolist() for k, v in state["state"].items()}
        state["buffer"] = state["buffer"].tolist()
    key = state["state"]["key"]
    key[0] = seed % 2**64
    rows = []
    for i in range(count or 1):
        key[1] = rep + i
        bitgen.state = state
        rows.append(bitgen.random_raw(n))
    _IDLE_PHILOX.append((bitgen, state))
    raw = np.array(rows)
    raw >>= np.uint64(11)
    return raw.view(np.int64)


def _uniform(k: np.ndarray) -> np.ndarray:
    """The uniforms ``k * 2^-53 + 2^-54`` of the words ``k``, nondecreasing in
    ``k``.  Below 1/2 they are exact; above it the sum rounds to even, so
    two words share each uniform, and that of the last word is 1."""
    return k * 2.0**-53 + 2.0**-54


# One configuration is kept: the truth's float64 bytes and two int64 ends
# per coordinate, 24 bytes each.
@functools.lru_cache(maxsize=1)
def _window_ends(truth: bytes, sigma: float, half: float) -> tuple[np.ndarray, np.ndarray]:
    """The read-only words ``[lo, hi]`` of each coordinate whose draw the
    Bonferroni band of half-width ``half`` covers, for the truth whose
    float64 bytes are ``truth``.

    With ``y = f + sigma * normal_quantile(_uniform(k))``, coordinate ``i`` is
    covered by the band's test ``y - half <= f <= y + half`` exactly for the
    words ``lo[i] <= k <= hi[i]`` (none where ``lo[i] > hi[i]``).  That the
    set is one interval rests on monotonicity: the 64-step bisection of
    ``normal_quantile`` is nondecreasing in ``u`` (two uniforms share a
    bracket until the first step that splits them, after which the smaller
    one's bracket lies below), ``_uniform`` is nondecreasing in ``k``, and
    with ``sigma > 0`` so are ``y``, ``y - half`` and ``y + half``, since
    IEEE rounding is monotone.  So ``f <= y + half`` can only turn true as
    ``k`` grows, and ``y - half <= f`` only false.

    Both switches are found once per distinct truth value: each is guessed
    from ``ndtr(-+half / sigma)`` and confirmed by testing the adjacent words
    around the guess, both ends of every value in one ``normal_quantile``
    call; where those words do not show the switch, a bisection over all
    ``2^53`` words finds it.  The ends of the last configuration are kept, so
    a second run of one configuration searches nothing.
    """
    values, index = np.unique(np.frombuffer(truth, dtype=np.float64), return_inverse=True)
    m = values.size
    # Entry i < m stands for the lower end of values[i], entry m + i for the
    # upper end.
    g = np.concatenate([values, values])[:, None]
    upper = (np.arange(2 * m) >= m)[:, None]

    def switched(where, k):
        # At a lower end whether f <= y + half, at an upper end whether
        # y - half <= f fails: both false below the switch and true from it.
        gw = g[where]
        y = gw + sigma * normal_quantile(_uniform(k))
        return np.where(upper[where], ~(y - half <= gw), gw <= y + half)

    # The guesses: the first words whose uniforms exceed ndtr(-+half/sigma).
    # t * 2^53 - 0.5 inverts _uniform with its rounding: exactly below 1/2,
    # and above it, where pairs of words share a uniform, by rounding to
    # even as _uniform does.
    z = half / sigma
    guess = np.floor(np.array([special.ndtr(-z), special.ndtr(z)]) * 2.0**53 - 0.5) + 1.0
    guess = np.clip(guess, _NEAR, _WORDS - 1 - _NEAR).astype(np.int64)
    words = np.repeat(guess, m)[:, None] + np.arange(-_NEAR, _NEAR + 1)
    held = switched(slice(None), words)
    first = words[:, 0] + np.count_nonzero(~held, axis=1)
    # Where the first word passes or the last fails, bisect: the switch lies
    # above `below`, a word where the test fails (or -1), and at or under
    # `above`, one where it passes (or 2^53).
    open_ = (held[:, 0] | ~held[:, -1]).nonzero()[0]
    below = np.full(open_.size, -1, dtype=np.int64)
    above = np.full(open_.size, _WORDS, dtype=np.int64)
    while (live := (above - below > 1).nonzero()[0]).size:
        mid = (below[live] + above[live]) // 2
        holds = switched(open_[live], mid[:, None])[:, 0]
        above[live] = np.where(holds, mid, above[live])
        below[live] = np.where(holds, below[live], mid)
    first[open_] = above
    first[m:] -= 1
    # take's result owns its data, so no view of it can be made writeable.
    ends = first.reshape(2, m).take(index, axis=1)
    ends.flags.writeable = False
    return ends[0], ends[1]


def _check_resolution(f: np.ndarray, half) -> None:
    """Refuse a truth at which the narrowest half-width ``half`` (a float, or
    one per coordinate) is lost to rounding, ``f - half == f + half``: there
    the noise is too, and coverage would mean nothing."""
    if np.any(f - half == f + half):
        raise DomainError(
            f"the half-width {float(np.min(half))!r} is below the spacing of doubles "
            "at the truth; rescale the truth and sigma"
        )


def _step(scenario: Scenario):
    """The block step of ``scenario``'s procedure, its set-up done here once.

    ``step(start, count)`` gives, for replications ``start`` on, the
    ``(count, c)`` coverage of the ``c`` candidates, the truth last, the
    widths (one float where all rows share it) and the accepted levels
    (``None`` outside the adaptive procedure).  The set-up refuses a truth
    at which the narrowest half-width is below the spacing of doubles
    (:class:`~surrband.errors.DomainError`), before the surrogate set.

    An adaptive or subspace step decides each row on a certified
    approximation of its draw and finishes the draw only where a decision
    could turn.  The first stage of the v1 quantile,
    :func:`~surrband.specfun._cells`, brackets each normal ``z`` of the
    draw in ``[lo, hi]``.  With ``sigma > 0`` and monotone IEEE rounding,
    ``Yh = f + sigma * lo`` and ``f + sigma * hi`` bracket the exact draw
    ``Y``, so ``|Y - Yh| <= D = (f + sigma * hi) - Yh`` entrywise.  Each row
    is stepped on ``Yh`` and gets the radius

        ``rho = stretch * |D| + tau * (|Yh| + |D| + top) + _UNDERFLOW``

    (``|.|`` the Euclidean norm of the row).  Projections are contractions
    (``stretch`` is 1, or ``1 + 2 d * 1e-8`` for a dense basis, which
    :class:`~surrband.subspace.Subspace` checks orthonormal to 1e-8), so a
    residual norm and every centre coordinate move by at most
    ``stretch * |Y - Yh|`` in exact arithmetic.  ``tau = 16 n d eps``
    (``d`` the largest dense dimension, 1 for block levels only) bounds,
    deliberately loosely, what rounding adds to that on either draw: a
    dense projection's two gemv passes err by about
    ``(n + d) sqrt(d) eps |y|`` and a block mean by ``n eps |y|``, and the
    residual sum, the cutoff and the band's edges by a few ``eps`` of
    ``|y|`` or of ``top``, the widest half-width.  ``_UNDERFLOW = 2^-500``
    covers underflow.

    A row is finished when its residual tests' smallest gap
    (:meth:`~surrband.bands._Plan.walk`) or its coverage margin (the least
    distance from a candidate to an edge of the band, over coordinates and
    candidates) is not above ``rho``: it gets the quantile's remaining
    rounds (:func:`~surrband.specfun._rounds`) and is stepped again on its
    exact draw.  Every other row keeps the level, width and coverage
    decided on ``Yh``, which are those of ``Y``.  A configuration whose
    values could overflow, ``n * (max|f| + 9.5 sigma + top) >= 2^480`` with
    9.5 the quantile's bound, finishes every row.  The report is that of
    the full draw, bit for bit: the stream stays v1.
    """
    f, n, seed = scenario.truth, scenario.n, scenario.seed
    if scenario.kind == "bonferroni":
        half = _bonferroni_half_width(n, scenario.alpha, scenario.sigma)
        _check_resolution(f, half)
        lo, hi = _window_ends(f.tobytes(), scenario.sigma, half)

        def words_step(start, count):  # the truth is the one candidate
            k = _words(seed, start, n, count)
            return ((k >= lo) & (k <= hi)).all(axis=1)[:, None], 2.0 * half, None

        return words_step

    if scenario.kind == "adaptive":
        plan, sigma = _plan(scenario.scale, scenario.params), scenario.params.sigma
        spaces, halves = scenario.scale.levels, plan.halves[1:]
        _check_resolution(f, np.min(halves))
        found = surrogate_set(scenario.scale, f, scenario.params.tuning)
        candidates = np.stack([c.values for c in found])  # f itself last

        def band(block):
            levels, center, half, gap = plan.walk(block)
            return center[:, None], half[:, None, None], 2.0 * half, levels, gap
    else:
        space, sigma = scenario.space, scenario.sigma
        half, width = _subspace_half_width(space, scenario.alpha, sigma, scenario.per_coordinate)
        spaces, halves = (space,), half
        _check_resolution(f, half)
        # Outside the adaptive procedure the only surrogate candidate is the truth.
        candidates = f[None]

        def band(block):  # subspace_band's arithmetic, row by row
            return space._project(block)[:, None], half, width, None, np.inf

    def decide(block):
        # Rows against every candidate in one (k, c, n) comparison.
        center, half, widths, levels, gap = band(block)
        lower, upper = center - half, center + half
        return (lower <= candidates) & (candidates <= upper), widths, levels, lower, upper, gap

    dense = max((s.d for s in spaces if not isinstance(s, _Blocks)), default=0)
    stretch, top = 1.0 + 2.0 * dense * _ORTHO_TOL, float(np.max(halves))
    tau = 16.0 * n * max(dense, 1) * _EPS
    if not n * (float(np.max(np.abs(f))) + _Z_BRACKET_VEC * sigma + top) < 2.0**480:
        tau = math.inf

    def step(start, count):
        u = _uniform(_words(seed, start, n, count))
        lo, hi = (ends.reshape(count, n) for ends in _cells(u.reshape(-1)))
        # Values can overflow only where tau, and so every radius, is inf:
        # those rows are finished below, where numpy warns as for any draw.
        with np.errstate(over="ignore", invalid="ignore"):
            y = f + sigma * lo.view(np.float64)
            spread = f + sigma * hi.view(np.float64)
            spread -= y
            size = np.sqrt(np.vecdot(spread, spread))
            radius = stretch * size + tau * (np.sqrt(np.vecdot(y, y)) + size + top) + _UNDERFLOW
            covered, widths, levels, lower, upper, gap = decide(y)
            margin = np.minimum(np.abs(candidates - lower), np.abs(upper - candidates))
            sure = np.minimum(gap, margin.min(axis=(1, 2))) > radius
        redo = ~sure
        if redo.any():
            z = _rounds(u[redo].ravel(), lo[redo].ravel(), hi[redo].ravel())
            covered[redo], redone, relevels = decide(f + sigma * z.reshape(-1, n))[:3]
            if levels is not None:
                widths[redo], levels[redo] = redone, relevels
        return covered.all(axis=2), widths, levels

    return step


def run(scenario: Scenario, *, width_threshold: float | None = None) -> SimReport:
    """Execute the Monte Carlo and aggregate coverage/width statistics.

    The procedure's set-up runs once (:func:`_step`): the band plan and the
    surrogate candidates of an adaptive run, which so fails its feasibility
    check (:class:`~surrband.errors.FeasibilityError`) before any sampling,
    the half-width of a subspace run, the half-width and word windows of a
    Bonferroni run (the windows kept from the last run when its truth,
    ``sigma`` and half-width repeat).  A truth at which the narrowest
    half-width is below the spacing of doubles raises
    :class:`~surrband.errors.DomainError` there, before the surrogate set
    or the windows.  Replications are then cut into blocks of
    ``max(1, _BLOCK_VALUES // n)``, starting at the multiples of that size,
    and walked in order on the calling thread, one block step each.  An
    adaptive or subspace step decides each row on its draw's first-stage
    bracket and finishes the draw only for rows whose decisions lie within
    its certified radius, so the report is that of draw stream v1 bit for
    bit.
    """
    _instance("scenario", scenario, Scenario)
    if width_threshold is not None:
        width_threshold = _finite("width_threshold", width_threshold)

    reps, seed = scenario.reps, scenario.seed
    rows = max(1, _BLOCK_VALUES // scenario.n)
    step = _step(scenario)

    widths = np.empty(reps, dtype=np.float64)
    cover_true, cover_surr = np.zeros((2, reps), dtype=bool)
    levels = np.zeros(reps, dtype=np.int64)

    for start in range(0, reps, rows):
        stop = min(start + rows, reps)
        covered, widths[start:stop], block_levels = step(start, stop - start)
        cover_surr[start:stop] = covered.any(axis=1)
        cover_true[start:stop] = covered[:, -1]
        if block_levels is not None:
            levels[start:stop] = block_levels

    def rate(flags: np.ndarray) -> tuple[float, float]:
        p = float(np.count_nonzero(flags)) / reps
        return p, math.sqrt(p * (1.0 - p) / reps)

    p_surr, se_surr = rate(cover_surr)
    p_true, se_true = rate(cover_true)

    q_levels = {0.5, 0.9}
    if scenario.kind == "adaptive":
        q_levels.add(1.0 - scenario.params.gamma)
    q_levels = sorted(q_levels)
    width_quantiles = {
        str(q): float(w) for q, w in zip(q_levels, np.quantile(widths, q_levels))
    }

    prob_width_le = None
    if width_threshold is not None:
        p, se = rate(widths <= width_threshold)
        prob_width_le = {"threshold": width_threshold, "prob": p, "se": se}

    level_histogram = None
    if scenario.kind == "adaptive":
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
    margin = _left_open_unit("margin", margin)

    profile = space.leverage_profile()
    i0 = int(np.argmax(profile))
    spike = np.zeros(space.n)
    spike[i0] = 1.0
    resid = spike - space.project(spike)
    peak = sup_norm(resid)
    _require(peak >= 1e-12, f"coordinate {i0} lies inside the subspace; no spoiler direction exists")
    direction = resid / peak
    h_max = eps2 / norm2(direction)
    _require(
        eps_inf < h_max,
        f"eps_inf={eps_inf!r} is not below the reachable height "
        f"h_max={h_max!r}; no spoiler exists at this tuning",
    )
    h = eps_inf + margin * (h_max - eps_inf)
    return h * direction
