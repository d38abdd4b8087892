"""The three workloads of the surrband benchmark and their correctness checks.

Why each workload
-----------------
``nested-256``
    The paper's adaptive case (acceptance gate A04): n=256, dyadic dims
    [1, 4, 16], achievable ``nested_tuning``, alpha = gamma = 0.1.  The truth
    is a seed-generated member of level 2 that is not in level 1.  A
    replication is split between the noise draw and a three-level band walk
    (feasibility floor, t-statistics, projections).  It also stands in for
    A01, which runs the same n and the same layers with one level.
``scaleup-4096``
    The scale-up case: n=4096, dims [1, 16, 256], a seed-generated level-2
    truth.  Dense 256 x 4096 projections and the scale build make the
    ``subspace`` layer and set-up large, and its large numpy calls are where
    ``--threads 2`` could pay.
``bonferroni-64``
    Acceptance gate A10: n=64, alpha=0.05, zero truth.  No ``subspace``,
    ``surrogate`` or chi-square code runs; the cost is the draw plus the
    per-replication loop.  It is the no-change control for band-engine and
    subspace work, and the place where per-replication overhead shows.

Which layer metric should move which end-to-end metric
------------------------------------------------------
* ``simulate.draw_*``, ``specfun.normal_quantile_*``: ``reps_per_s`` on all
  three, most on ``bonferroni-64`` and ``scaleup-4096``.
* ``simulate.loop_self_us_per_rep``: ``reps_per_s`` on ``bonferroni-64``.
* ``specfun.*_calls_setup`` / ``*_calls_per_rep``: ``setup_s`` and
  ``reps_per_s`` on the adaptive workloads; flat on ``bonferroni-64``.
* ``bands.band_us``, ``bands.band_self_us``, ``bands.floor_calls_per_rep``
  (1 today, 0 once per-configuration constants are prepared once),
  ``bands.tstat_*``: ``reps_per_s`` and ``band_us_p50`` on ``nested-256``.
* ``subspace.project_*``: ``reps_per_s`` and ``band_us_p50``, most on
  ``scaleup-4096``; ``subspace.scale_build_s``: ``setup_s`` there.
* ``surrogate.*``, ``cli.parse_s``, ``cli.emit_s``: ``setup_s``.

Numbers on the seed code (2 shared cores, Python 3.11, numpy 2.4, scipy
1.17; single runs before this benchmark existed)
------------------------------------------------------------------------
* 0.86-1.2k reps/s on nested-256, about 100 reps/s at n=4096, 1.7k reps/s on
  bonferroni-64 at n=64.
* The noise draw takes 0.6-1.0 ms of a replication at n=256 and 10 ms at
  n=4096 (64-step bisection ``normal_quantile``).
* ``--threads 2`` runs at 0.86-1.19x the speed of one thread.
* Repeated 1.5 s runs of the same code differ by up to +-15%, which is why
  every timing here aggregates many calls and many set-ups (see ``run.py``
  for why the aggregate is the 90th percentile).

Correctness checks
------------------
Every simulate report must echo its config and be byte-identical to every
other report of the run, ``--threads 1`` and ``--threads 2`` alike.  Its
Monte Carlo estimates must not stray from the paper's bounds by more than
``Z`` standard errors, taken under the bound (the null) rather than from the
estimate itself:

* adaptive workloads: surrogate coverage >= 1 - alpha and
  P(width <= level-2 width) >= 1 - gamma;
* ``nested-256``: P(select beyond level 2) <= gamma;
* ``bonferroni-64``: coverage == (1 - alpha/n)^n, two-sided.

None depends on the draw stream.  The width and level checks sit exactly on
their bounds (a level-2 truth is rejected at level 2 with probability gamma),
and the Bonferroni coverage equals its closed form, so at 3 standard errors a
correct program fails 0.2-0.5% of seeds per check (binomial, at these reps):
over the 70 runs of a full set of benchmark runs, a false failure in roughly
one set in four.  ``Z = 4`` brings that to about 2%.  The acceptance tests
keep their own 3-standard-error gates at their fixed seeds.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

GAMMA = 0.1
SIGMA = 1.0
Z = 4.0  # standard errors a Monte Carlo estimate may stray from its bound


@dataclass(frozen=True)
class Workload:
    name: str
    procedure: str            # "adaptive" or "bonferroni"
    n: int
    dims: tuple[int, ...]     # empty for bonferroni
    alpha: float
    reps: int                 # replications per timed simulate call
    smoke_reps: int           # replications per call in the smoke test
    pool: int                 # fresh data vectors cycled by the latency loop
    check_over: bool = False  # check P(select beyond level 2) <= gamma

    @property
    def adaptive(self) -> bool:
        return self.procedure == "adaptive"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("nested-256", "adaptive", 256, (1, 4, 16), 0.1,
                 reps=100, smoke_reps=20, pool=256, check_over=True),
        Workload("scaleup-4096", "adaptive", 4096, (1, 16, 256), 0.1,
                 reps=40, smoke_reps=4, pool=32),
        Workload("bonferroni-64", "bonferroni", 64, (), 0.05,
                 reps=200, smoke_reps=200, pool=256),
    )
}


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, *stream])


def make_truth(w: Workload, rng: np.random.Generator) -> np.ndarray:
    """Zero for bonferroni; else a level-2 member that is not in level 1.

    The level-2 block values are a shuffled ramp over [-1.5, 1.5] with a
    small jitter, so no two neighbouring runs share a truth but every truth
    is far from constant.
    """
    if not w.adaptive:
        return np.zeros(w.n)
    k = w.dims[1]
    values = rng.permutation(np.linspace(-1.5, 1.5, k)) + rng.uniform(-0.2, 0.2, k)
    return np.repeat(values, w.n // k)


def make_config(w: Workload, seed: int, reps: int) -> dict:
    """The ``surrband simulate`` config of workload ``w`` at workload seed ``seed``."""
    rng = _rng(seed, w.n)
    truth = make_truth(w, rng)
    cfg = {
        "version": 1,
        "procedure": w.procedure,
        "n": w.n,
        "alpha": w.alpha,
        "sigma": SIGMA,
        "truth": {"kind": "zero"} if not w.adaptive else [float(v) for v in truth],
        "reps": reps,
        "seed": int(rng.integers(0, 2**31 - 1)),
    }
    if w.adaptive:
        cfg.update(
            subspace={"kind": "dyadic", "dims": list(w.dims)},
            gamma=GAMMA,
            tuning={"auto": "achievable"},
            widthThreshold={"kind": "levelWidth", "level": 2},
        )
    return cfg


def _beyond(p_hat: float, p0: float, reps: int, side: int) -> str | None:
    """``None`` if ``p_hat`` is within ``Z`` null standard errors of ``p0``.

    ``side`` is +1 to fail only above ``p0``, -1 only below, 0 both ways.
    """
    se = math.sqrt(p0 * (1.0 - p0) / reps)
    dev = (p_hat - p0) / se
    if (side >= 0 and dev > Z) or (side <= 0 and dev < -Z):
        return f"{p_hat} is {dev:+.2f} null standard errors from {p0}"
    return None


def check_report(w: Workload, cfg: dict, text: bytes) -> list[str]:
    """Problems found in one simulate report (empty when it is correct)."""
    try:
        return _report_problems(w, cfg, json.loads(text))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return [f"malformed report: {exc!r}"]


def _report_problems(w: Workload, cfg: dict, rep: dict) -> list[str]:
    reps = cfg["reps"]
    problems = []
    if rep["reps"] != reps or rep["seed"] != cfg["seed"]:
        problems.append(f"report reps/seed {rep['reps']}/{rep['seed']} differ from config")
    if rep["config"] != cfg:
        problems.append("report does not echo its config")
    if w.adaptive:
        hist = rep["levelHistogram"]
        if sum(hist.values()) != reps:
            problems.append(f"level histogram {hist} does not add up to {reps}")
        over = sum(v for k, v in hist.items() if int(k) > 2) / reps
        checks = {
            "surrogate coverage": (rep["surrogateCoverage"], 1.0 - w.alpha, -1),
            "P(width <= level-2 width)": (rep["probWidthLE"]["prob"], 1.0 - GAMMA, -1),
        }
        if w.check_over:
            checks["P(select beyond level 2)"] = (over, GAMMA, +1)
    else:
        closed = (1.0 - w.alpha / w.n) ** w.n
        checks = {"Bonferroni coverage": (rep["trueCoverage"], closed, 0)}
    for what, (p_hat, p0, side) in checks.items():
        problem = _beyond(p_hat, p0, reps, side)
        if problem:
            problems.append(f"{what}: {problem}")
    return problems


class BandCase:
    """One library band call on fresh data, with all set-up done beforehand.

    ``adaptive_band_nested`` for adaptive workloads and ``bonferroni_band``
    for ``bonferroni-64``: the one-row use of the band engine the batch uses.
    """

    def __init__(self, w: Workload, seed: int):
        import surrband as sb

        self.w = w
        rng = _rng(seed, w.n, 1)
        truth = make_truth(w, _rng(seed, w.n))
        self.data = truth + SIGMA * rng.standard_normal((w.pool, w.n))
        if w.adaptive:
            self.scale = sb.dyadic_scale(w.n, list(w.dims))
            tuning = sb.nested_tuning(self.scale, w.alpha, GAMMA, SIGMA)
            self.params = sb.BandParams.equal_split(w.alpha, GAMMA, SIGMA, tuning)
            self.widths = sb.level_widths(self.scale, self.params)
            self.call = functools.partial(sb.adaptive_band_nested, self.scale, params=self.params)
        else:
            self.widths = (2.0 * SIGMA * sb.z_upper(w.alpha / (2.0 * w.n)),)
            self.call = functools.partial(sb.bonferroni_band, alpha=w.alpha, sigma=SIGMA)

    def check(self, y: np.ndarray, band) -> str | None:
        if self.w.adaptive:
            level = band.selected_level
            if not (isinstance(level, int) and 1 <= level <= len(self.widths)):
                return f"selected level {level!r} out of range"
            expected = self.widths[level - 1]
        else:
            expected = self.widths[0]
            if not np.array_equal(band.center, y):
                return "bonferroni band is not centred at the data"
        if not math.isclose(band.width, expected, rel_tol=1e-9):
            return f"band width {band.width} differs from the design width {expected}"
        if not (band.lower.shape == (self.w.n,) and np.all(band.lower <= band.upper)):
            return "band bounds are malformed"
        return None
