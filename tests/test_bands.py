"""Tests for band constructors, acceptance statistics, and feasibility.

Half-widths and feasibility floors are pinned against frozen values computed
independently with scipy.stats; structural behavior (selection, fallback,
scale equivariance, the one-level scale) is checked with crafted data.
The private band plan, which ``adaptive_band_nested`` and the Monte Carlo
loop share, is checked against the public per-level pieces at the edges of
the selection rule.
"""

import copy
import gc
import json
import math
import re
import weakref

import numpy as np
import pytest

from surrband import bands, subspace
from surrband import (
    Band,
    BandParams,
    DomainError,
    FeasibilityError,
    Scenario,
    SurrogateTuning,
    acceptance_threshold,
    NestedScale,
    adaptive_band_nested,
    bonferroni_band,
    chi2_cdf,
    chi2_quantile,
    cosine_basis,
    dyadic_blocks,
    dyadic_scale,
    level_widths,
    min_feasible_gamma,
    nested_tuning,
    optimal_tuning,
    run,
    subspace_band,
    lipschitz_rate,
    rn_lower_bound,
    surrogate_lower_bound,
    t_statistic,
    w_target,
    z_upper,
)


def _nested_setup(alpha=0.1, gamma=0.1, sigma=1.0):
    scale = dyadic_scale(256, [1, 4, 16])
    tuning = nested_tuning(scale, alpha, gamma, sigma)
    params = BandParams.equal_split(alpha, gamma, sigma, tuning)
    return scale, params


class TestTStatistic:
    def test_hand_value(self):
        s = dyadic_blocks(4, 1)
        y = np.array([1.0, 2.0, 3.0, 4.0])
        resid = y - 2.5
        assert t_statistic(s, y, 1.0) == pytest.approx(float(np.sum(resid**2)), rel=1e-13)

    def test_sigma_scaling(self):
        s = dyadic_blocks(8, 2)
        rng = np.random.default_rng(401)
        y = rng.normal(size=8)
        assert t_statistic(s, y, 2.0) == pytest.approx(t_statistic(s, y, 1.0) / 4.0, rel=1e-12)

    def test_member_gives_zero(self):
        s = dyadic_blocks(8, 2)
        y = np.repeat([3.0, -1.0], 4)
        assert t_statistic(s, y, 1.0) == pytest.approx(0.0, abs=1e-20)


class TestAcceptanceThreshold:
    def test_matches_quantile(self):
        assert acceptance_threshold(256, 4, 0.1) == chi2_quantile(0.9, 252)

    def test_full_space_always_accepts(self):
        assert acceptance_threshold(8, 8, 0.1) == math.inf


class TestBonferroniBand:
    def test_single_point_half_width(self):
        band = bonferroni_band(np.array([0.0]), 0.05, 1.0)
        half = float(band.upper[0] - band.center[0])
        assert half == pytest.approx(1.9599639845400545, rel=1e-11)
        assert band.width == pytest.approx(2.0 * half, rel=1e-15)

    def test_centered_on_data(self):
        y = np.array([0.5, -1.0, 2.0])
        band = bonferroni_band(y, 0.1, 1.0)
        assert np.array_equal(band.center, y)
        assert np.allclose(band.upper - y, y - band.lower, atol=1e-15)

    def test_width_formula(self):
        y = np.zeros(64)
        band = bonferroni_band(y, 0.05, 2.0)
        assert band.width == pytest.approx(2.0 * 2.0 * z_upper(0.05 / 128), rel=1e-12)

    def test_no_selection_fields(self):
        band = bonferroni_band(np.zeros(4), 0.05, 1.0)
        assert band.selected_level is None
        assert band.accepted is None


class TestSubspaceBand:
    def test_uniform_half_width(self):
        y = np.zeros(100)
        band = subspace_band(dyadic_blocks(100, 1), y, 0.05, 1.0)
        half = float(band.upper[0] - band.center[0])
        assert half == pytest.approx(0.34807564043462125, rel=1e-11)

    def test_center_is_projection(self):
        s = dyadic_blocks(100, 4)
        rng = np.random.default_rng(402)
        y = rng.normal(size=100)
        band = subspace_band(s, y, 0.05, 1.0)
        assert np.max(np.abs(band.center - s.project(y))) < 1e-12

    def test_per_coordinate_equals_uniform_on_equal_blocks(self):
        # Dyadic blocks have constant leverage, so the per-coordinate band
        # coincides with the uniform one.
        s = dyadic_blocks(64, 4)
        y = np.random.default_rng(403).normal(size=64)
        a = subspace_band(s, y, 0.05, 1.0)
        b = subspace_band(s, y, 0.05, 1.0, per_coordinate=True)
        assert np.array_equal(a.lower, b.lower) and np.array_equal(a.upper, b.upper)

    def test_per_coordinate_narrower_somewhere_on_uneven_blocks(self):
        s = dyadic_blocks(10, 3)  # blocks of 4, 3, 3: uneven leverage
        y = np.zeros(10)
        uniform = subspace_band(s, y, 0.05, 1.0)
        percoord = subspace_band(s, y, 0.05, 1.0, per_coordinate=True)
        assert np.all(percoord.upper <= uniform.upper + 1e-15)
        assert np.any(percoord.upper < uniform.upper - 1e-12)


class TestBandIsCenterPlusMinusHalf:
    """Each band function gives ``center -/+ half`` bit for bit, and the band
    keeps no view of the caller's ``y``."""

    N, ALPHA, SIGMA = 64, 0.1, 0.7
    X = np.arange(1, 65) / 64
    SCALE = dyadic_scale(64, [1, 4, 16])
    PARAMS = BandParams.equal_split(0.1, 0.1, 0.7, nested_tuning(SCALE, 0.1, 0.1, 0.7))

    @classmethod
    def _z(cls):
        return z_upper(cls.ALPHA / (2.0 * cls.N))

    @classmethod
    def _bonferroni(cls, y):
        return bonferroni_band(y, cls.ALPHA, cls.SIGMA), cls.SIGMA * cls._z()

    @classmethod
    def _subspace(cls, y):
        s = dyadic_blocks(cls.N, 8)
        return subspace_band(s, y, cls.ALPHA, cls.SIGMA), cls.SIGMA * s.omega * cls._z()

    @classmethod
    def _per_coordinate(cls, y):
        s = cosine_basis(cls.N, 4)
        band = subspace_band(s, y, cls.ALPHA, cls.SIGMA, per_coordinate=True)
        return band, cls.SIGMA * s.leverage_profile() * cls._z()

    @classmethod
    def _adaptive(cls, y):
        band = adaptive_band_nested(cls.SCALE, y, cls.PARAMS)
        return band, level_widths(cls.SCALE, cls.PARAMS)[band.selected_level - 1] / 2.0

    @pytest.mark.parametrize("make, amplitude, level", [
        ("_bonferroni", 1.0, None),
        ("_subspace", 1.0, None),
        ("_per_coordinate", 1.0, None),
        ("_adaptive", 0.0, 1),  # pure noise: the coarsest level accepts
        ("_adaptive", 3.0, 4),  # a fast wave: every level rejects, the fallback
    ])
    def test_bitwise_and_detached(self, make, amplitude, level):
        noise = self.SIGMA * np.random.default_rng(404).normal(size=self.N)
        y = amplitude * np.sin(40.0 * self.X) + noise
        band, half = getattr(self, make)(y)
        assert band.selected_level == level
        want = (band.center - half, band.center.copy(), band.center + half)
        y[:] = np.nan  # the caller reuses its buffer
        for got, then in zip((band.lower, band.center, band.upper), want):
            assert np.array_equal(got.view(np.int64), then.view(np.int64))


class TestBandParams:
    def test_equal_split(self):
        tuning = SurrogateTuning(eps2=(0.5,), eps_inf=(0.3,))
        p = BandParams.equal_split(0.1, 0.1, 1.0, tuning)
        assert p.alpha_split == (0.05, 0.05)
        assert p.m == 1

    def test_split_must_not_exceed_alpha(self):
        tuning = SurrogateTuning(eps2=(0.5,), eps_inf=(0.3,))
        with pytest.raises(DomainError):
            BandParams(alpha=0.1, gamma=0.1, sigma=1.0, tuning=tuning, alpha_split=(0.08, 0.08))

    def test_split_length(self):
        tuning = SurrogateTuning(eps2=(0.5,), eps_inf=(0.3,))
        with pytest.raises(DomainError):
            BandParams(alpha=0.1, gamma=0.1, sigma=1.0, tuning=tuning, alpha_split=(0.1,))

    def test_sigma_positive(self):
        tuning = SurrogateTuning(eps2=(0.5,), eps_inf=(0.3,))
        with pytest.raises(DomainError):
            BandParams(alpha=0.1, gamma=0.1, sigma=0.0, tuning=tuning, alpha_split=(0.05, 0.05))


class TestNoCoercion:
    """A bool or a string is not a number here, and ``per_coordinate`` is a bool."""

    SPACE = dyadic_blocks(8, 2)
    TUNING = SurrogateTuning(eps2=(0.5,), eps_inf=(0.3,))

    @pytest.mark.parametrize("call", [
        lambda t: BandParams(alpha=0.1, gamma=0.1, sigma=True, tuning=t, alpha_split=(0.05, 0.05)),
        lambda t: BandParams(alpha=0.1, gamma=0.1, sigma="1.0", tuning=t, alpha_split=(0.05, 0.05)),
        lambda t: BandParams(alpha="0.1", gamma=0.1, sigma=1.0, tuning=t, alpha_split=(0.05, 0.05)),
        lambda t: BandParams(alpha=0.1, gamma=0.1, sigma=1.0, tuning=t, alpha_split=(0.05, False)),
        lambda t: bonferroni_band(np.zeros(8), 0.1, True),
        lambda t: bonferroni_band(np.zeros(8), "0.1", 1.0),
        lambda t: subspace_band(TestNoCoercion.SPACE, np.zeros(8), 0.1, True),
        lambda t: t_statistic(TestNoCoercion.SPACE, np.zeros(8), True),
        lambda t: subspace_band(TestNoCoercion.SPACE, np.zeros(8), 0.1, 1.0, per_coordinate="no"),
        lambda t: subspace_band(TestNoCoercion.SPACE, np.zeros(8), 0.1, 1.0, per_coordinate=1),
        lambda t: subspace_band(TestNoCoercion.SPACE, np.zeros(8), 0.1, 1.0, per_coordinate=None),
        lambda t: acceptance_threshold(8, 2, "0.1"),
        lambda t: acceptance_threshold(8, True, 0.1),
        lambda t: bands._feasible_rhs(8, 2, True, 0.1, 1.0),
        lambda t: bands._feasible_rhs(8, 2, 0.5, "0.1", 1.0),
        lambda t: bands._feasible_rhs(8, 2, 0.5, 0.1, "1"),
    ])
    def test_rejected(self, call):
        with pytest.raises(DomainError):
            call(self.TUNING)

    def test_numpy_numbers_pass(self):
        band = bonferroni_band(np.zeros(8), np.float32(0.1), np.int64(2))
        assert band.width == bonferroni_band(np.zeros(8), float(np.float32(0.1)), 2.0).width


_SCALE = dyadic_scale(16, [1, 4])
_TUNING = nested_tuning(_SCALE, 0.1, 0.1)
_SPACE = _SCALE.levels[1]
# The smallest double whose square is above 0, and the double below it.
_SIGMA_CUTOFF = 1.5717277847026288e-162
_SIGMA_BELOW = 1.5717277847026285e-162


# Every entry point of a noise level.
_SIGMA_ENTRIES = [
    lambda s: BandParams.equal_split(0.1, 0.1, s, _TUNING),
    lambda s: BandParams(alpha=0.1, gamma=0.1, sigma=s, tuning=_TUNING, alpha_split=(0.03,) * 3),
    lambda s: t_statistic(_SPACE, np.zeros(16), s),
    lambda s: bonferroni_band(np.zeros(16), 0.1, s),
    lambda s: subspace_band(_SPACE, np.zeros(16), 0.1, s),
    lambda s: Scenario(kind="bonferroni", truth=np.zeros(16), reps=1, seed=1, alpha=0.1, sigma=s),
    lambda s: Scenario(kind="subspace", truth=np.zeros(16), reps=1, seed=1, space=_SPACE,
                       alpha=0.1, sigma=s),
    lambda s: bands._feasible_rhs(16, 4, 0.5, 0.03, s),
    lambda s: w_target(0.5, 0.1, 0.1, s),
    lambda s: surrogate_lower_bound(_SPACE, 0.5, 0.3, 0.1, 0.1, s),
    lambda s: rn_lower_bound(64, 0.1, 0.2, s),
    lambda s: lipschitz_rate(64, 1.0, s, 0.1, 0.2),
    lambda s: optimal_tuning(_SPACE, 0.1, 0.1, s),
    lambda s: nested_tuning(_SCALE, 0.1, 0.1, s),
]


class TestSigmaSquareUnderflow:
    """A sigma whose square underflows to 0 is refused where it enters, not
    met later by a division by ``sigma * sigma``."""

    @pytest.mark.parametrize("call", _SIGMA_ENTRIES)
    @pytest.mark.parametrize("sigma", [1e-200, _SIGMA_BELOW])
    def test_rejected(self, call, sigma):
        with pytest.raises(DomainError, match="sigma"):
            call(sigma)

    def test_the_smallest_accepted_sigma_divides(self):
        y = np.arange(16.0)
        assert t_statistic(_SPACE, y, _SIGMA_CUTOFF) == math.inf
        assert BandParams.equal_split(0.1, 0.1, _SIGMA_CUTOFF, _TUNING).sigma == _SIGMA_CUTOFF


# The largest double whose square is finite, and the double above it.
_SIGMA_MAX = 1.3407807929942596e154
_SIGMA_ABOVE = 1.3407807929942597e154


class TestSigmaSquareOverflow:
    """A sigma whose square overflows to inf is refused where it enters, not
    met later by a division by ``sigma * sigma`` that gives NaN."""

    @pytest.mark.parametrize("call", _SIGMA_ENTRIES)
    @pytest.mark.parametrize("sigma", [_SIGMA_ABOVE, 1e160])
    def test_rejected(self, call, sigma):
        with pytest.raises(DomainError, match="sigma"):
            call(sigma)

    def test_the_largest_accepted_sigma_divides(self):
        space = dyadic_blocks(4, 2)
        c = 0.5 * _SIGMA_MAX
        assert t_statistic(space, [c, -c, 0.0, 0.0], _SIGMA_MAX) == 0.5
        assert BandParams.equal_split(0.1, 0.1, _SIGMA_MAX, _TUNING).sigma == _SIGMA_MAX
        s = Scenario(kind="bonferroni", truth=np.zeros(4), reps=1, seed=1, alpha=0.1, sigma=_SIGMA_MAX)
        assert s.sigma == _SIGMA_MAX


class TestVectorsAreNotCoerced:
    """A vector of booleans, strings or objects is refused, not converted."""

    @pytest.mark.parametrize("call", [
        lambda v: bonferroni_band(v, 0.1, 1.0),
        lambda v: subspace_band(_SPACE, v, 0.1, 1.0),
        lambda v: t_statistic(_SPACE, v, 1.0),
        lambda v: adaptive_band_nested(_SCALE, v, BandParams.equal_split(0.1, 0.1, 1.0, _TUNING)),
    ])
    @pytest.mark.parametrize("vector", [
        [True, False] * 8, [str(i) for i in range(16)], np.array([1.0] * 15 + [None], dtype=object),
    ])
    def test_rejected(self, call, vector):
        with pytest.raises(DomainError, match="vector entries"):
            call(vector)

    def test_float64_input_is_not_copied(self):
        y = np.linspace(0.0, 1.0, 16)
        assert subspace._as_vector(y, 16) is y


class TestGammaFeasible:
    """The per-level feasibility floor ``bands._feasible_rhs(n, d, eps2, prob, sigma)``."""

    def test_frozen(self):
        # n=256, d=4, achievable eps2 at alpha=gamma=0.1.  A one-level band
        # splits alpha evenly, so the level budget is 0.05.
        assert bands._feasible_rhs(256, 4, 0.628706722578318, 0.05, 1.0) == pytest.approx(
            0.012430695455013963, abs=1e-9
        )
        space = dyadic_blocks(256, 4)
        tuning = optimal_tuning(space, 0.1, 0.1, achievable=True)
        params = BandParams.equal_split(0.1, 0.1, 1.0, tuning)
        assert min_feasible_gamma(NestedScale((space,)), params) == pytest.approx(
            0.012430695455013963, abs=1e-9
        )

    def test_decreasing_in_eps2(self):
        a = bands._feasible_rhs(256, 4, 0.4, 0.025, 1.0)
        b = bands._feasible_rhs(256, 4, 0.6, 0.025, 1.0)
        assert b < a

    def test_sigma_equivariance(self):
        # Scaling sigma and eps2 together leaves the floor unchanged.
        a = bands._feasible_rhs(256, 4, 0.5, 0.025, 1.0)
        b = bands._feasible_rhs(256, 4, 1.5, 0.025, 3.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            bands._feasible_rhs(4, 4, 0.5, 0.025, 1.0)  # no residual dof

    @pytest.mark.parametrize("prob", [0.01, 1.0 / 30.0, 0.1])
    @pytest.mark.parametrize("df", [1, 60, 252])
    def test_cantelli_floor_is_conservative(self, prob, df):
        # Where the library quantile exists, the bounded floor is never lower.
        for ncp in np.logspace(1, 10, 19):
            exact_q = chi2_quantile(prob, df, ncp)
            bound_q = bands._quantile_lower_bound(prob, df, ncp)
            assert 0.0 <= bound_q <= exact_q, ncp
            n = df + 4
            eps2 = math.sqrt(ncp / n)
            bounded = 1.0 - chi2_cdf(bands._quantile_lower_bound(prob, df, n * eps2 * eps2), df)
            assert bounded >= bands._feasible_rhs(n, 4, eps2, prob, 1.0), ncp

    def test_beyond_the_library_quantile(self):
        # chndtrix gives NaN at noncentrality 64 * 1e10; the floor is then
        # Cantelli's, essentially 0 here.
        with pytest.raises(DomainError, match="outside the range of scipy.special"):
            chi2_quantile(1.0 / 30.0, 60, 64 * 1e10)
        assert bands._feasible_rhs(64, 4, 1e5, 1.0 / 30.0, 1.0) == 0.0
        # A noncentrality that overflows is still an input error, named by
        # the arguments it overflows at.
        with pytest.raises(DomainError, match=re.escape("eps2=1e+200, sigma=1.0")):
            bands._feasible_rhs(64, 4, 1e200, 0.05, 1.0)

    @pytest.mark.parametrize("c", [1e154, 1e200])
    def test_overflowing_noncentrality_names_eps2_and_sigma(self, c):
        # The sigma = 1 tuning scaled by c: eps2^2 overflows at 1e154.  At
        # 1e200 sigma^2 overflows too, so sigma is refused where it enters.
        scale = dyadic_scale(256, [1, 4, 16])
        tuning = nested_tuning(scale, 0.1, 0.1)
        scaled = SurrogateTuning(
            eps2=tuple(c * e for e in tuning.eps2), eps_inf=tuple(c * e for e in tuning.eps_inf)
        )
        if c * c == math.inf:
            with pytest.raises(DomainError, match="sigma must be positive with a square"):
                BandParams.equal_split(0.1, 0.1, c, scaled)
            return
        params = BandParams.equal_split(0.1, 0.1, c, scaled)
        message = r"n \* eps2\^2 / sigma\^2 overflows at eps2=.*, sigma="
        with pytest.raises(DomainError, match=message):
            min_feasible_gamma(scale, params)
        with pytest.raises(DomainError, match=message):
            adaptive_band_nested(scale, np.zeros(256), params)


class TestLevelCountMismatch:
    """Band parameters for another number of levels than the scale's."""

    @pytest.mark.parametrize("call", [level_widths, min_feasible_gamma])
    def test_refused(self, call):
        params = BandParams.equal_split(0.1, 0.2, 1.0, nested_tuning(dyadic_scale(16, [1, 4, 8]), 0.1, 0.2))
        with pytest.raises(DomainError, match="params describe 3 levels, scale has 2"):
            call(dyadic_scale(16, [1, 4]), params)


class TestMinFeasibleGamma:
    def test_frozen_nested(self):
        scale, params = _nested_setup()
        assert min_feasible_gamma(scale, params) == pytest.approx(0.022105905206293297, abs=1e-8)

    def test_is_max_over_levels(self):
        # Each level contributes the feasibility floor at its own budget.
        scale, params = _nested_setup()
        per_level = [
            bands._feasible_rhs(256, d, e2, a, params.sigma)
            for d, e2, a in zip(scale.dims, params.tuning.eps2, params.alpha_split)
        ]
        assert min_feasible_gamma(scale, params) == pytest.approx(max(per_level), rel=1e-12)


class TestLevelWidths:
    def test_frozen_quadruple(self):
        scale, params = _nested_setup()
        widths = level_widths(scale, params)
        want = (0.7461511639494884, 1.4923023278989769, 2.9846046557979538, 7.792685065216656)
        assert len(widths) == 4
        for got, expect in zip(widths, want):
            assert got == pytest.approx(expect, rel=1e-10)

    def test_monotone(self):
        scale, params = _nested_setup()
        widths = level_widths(scale, params)
        assert all(b > a for a, b in zip(widths, widths[1:]))

    def test_accepted_width_formula(self):
        # Level width j = 2 (sigma Omega_j z_{split_j/(2n)} + eps_inf_j).
        scale, params = _nested_setup()
        widths = level_widths(scale, params)
        j = 1
        half = params.sigma * scale.omegas[j] * z_upper(params.alpha_split[j] / 512.0) + params.tuning.eps_inf[j]
        assert widths[j] == pytest.approx(2.0 * half, rel=1e-14)

    def test_fallback_width_formula(self):
        scale, params = _nested_setup()
        widths = level_widths(scale, params)
        assert widths[-1] == pytest.approx(2.0 * params.sigma * z_upper(params.alpha_split[-1] / 512.0), rel=1e-14)


class TestAdaptiveNested:
    def test_noiseless_member_selects_its_level(self):
        scale, params = _nested_setup()
        f = np.repeat([1.5, 0.5, -0.5, -1.5], 64)  # level-2 member
        band = adaptive_band_nested(scale, f, params)
        assert band.selected_level == 2
        assert band.accepted is True
        assert band.width == level_widths(scale, params)[1]
        assert np.array_equal(band.center, scale.levels[1].project(f))

    def test_band_arrays_consistent(self):
        scale, params = _nested_setup()
        rng = np.random.default_rng(404)
        y = rng.normal(size=256)
        band = adaptive_band_nested(scale, y, params)
        half = band.width / 2.0
        assert np.allclose(band.upper - band.center, half, atol=1e-12)
        assert np.allclose(band.center - band.lower, half, atol=1e-12)

    def test_fallback_on_rough_data(self):
        scale, params = _nested_setup()
        # Alternating spikes far outside every level.
        y = 50.0 * np.tile([1.0, -1.0], 128)
        band = adaptive_band_nested(scale, y, params)
        assert band.selected_level == 4
        assert band.accepted is False
        assert np.array_equal(band.center, y)
        assert band.width == level_widths(scale, params)[-1]

    def test_t_stats_and_thresholds_exposed(self):
        scale, params = _nested_setup()
        y = np.random.default_rng(405).normal(size=256)
        band = adaptive_band_nested(scale, y, params)
        assert len(band.t_stats) == 3 and len(band.thresholds) == 3
        for j, d in enumerate(scale.dims):
            assert band.thresholds[j] == acceptance_threshold(256, d, 0.1)

    def test_first_accepting_level_wins(self):
        scale, params = _nested_setup()
        y = np.random.default_rng(406).normal(size=256) * 0.1
        band = adaptive_band_nested(scale, y, params)
        j = band.selected_level
        assert j is not None and 1 <= j <= 3
        for k in range(j - 1):
            assert band.t_stats[k] > band.thresholds[k]
        assert band.t_stats[j - 1] <= band.thresholds[j - 1]

    def test_infeasible_gamma_raises(self):
        scale = dyadic_scale(256, [1, 4, 16])
        tuning = nested_tuning(scale, 0.1, 0.1)
        params = BandParams.equal_split(0.1, 0.012, 1.0, tuning)
        with pytest.raises(FeasibilityError) as info:
            adaptive_band_nested(scale, np.zeros(256), params)
        assert info.value.gamma == 0.012
        assert info.value.min_gamma == pytest.approx(0.022105905206293297, abs=1e-6)

    def test_scale_equivariance(self):
        scale = dyadic_scale(256, [1, 4, 16])
        rng = np.random.default_rng(407)
        y = rng.normal(size=256)
        c = 3.5
        params = BandParams.equal_split(0.1, 0.1, 1.0, nested_tuning(scale, 0.1, 0.1, sigma=1.0))
        scaled_params = BandParams.equal_split(0.1, 0.1, c, nested_tuning(scale, 0.1, 0.1, sigma=c))
        a = adaptive_band_nested(scale, y, params)
        b = adaptive_band_nested(scale, c * y, scaled_params)
        assert b.selected_level == a.selected_level
        assert b.width == pytest.approx(c * a.width, rel=1e-12)
        assert np.allclose(b.upper, c * a.upper, rtol=1e-12, atol=1e-12)
        assert np.allclose(b.lower, c * a.lower, rtol=1e-12, atol=1e-12)
        for ta, tb in zip(a.t_stats, b.t_stats):
            assert tb == pytest.approx(ta, rel=1e-10)

    @pytest.mark.parametrize("achievable", [True, False])
    @pytest.mark.parametrize("c", [1e-3, 0.5, 2.0, 1e3])
    def test_auto_tuning_is_scale_equivariant(self, c, achievable):
        # Data, noise level and the tuning nested_tuning picks for it, all in
        # units c times larger: the same test statistics, levels and
        # feasibility floor, and bands and bounds c times as wide.
        scale = dyadic_scale(256, [1, 4, 16])
        rng = np.random.default_rng(1616)
        x = np.arange(256) / 256

        def setup(sigma):
            tuning = nested_tuning(scale, 0.1, 0.1, sigma, achievable=achievable)
            return tuning, BandParams.equal_split(0.1, 0.1, sigma, tuning)

        tuning, params = setup(1.0)
        scaled_tuning, scaled_params = setup(c)
        for e, scaled in zip(tuning.eps2 + tuning.eps_inf, scaled_tuning.eps2 + scaled_tuning.eps_inf):
            assert scaled == pytest.approx(c * e, rel=1e-12)
        assert min_feasible_gamma(scale, scaled_params) == pytest.approx(
            min_feasible_gamma(scale, params), rel=1e-9
        )
        for w, scaled in zip(level_widths(scale, params), level_widths(scale, scaled_params)):
            assert scaled == pytest.approx(c * w, rel=1e-12)
        base = surrogate_lower_bound(scale.levels[0], tuning.eps2[0], tuning.eps_inf[0], 0.1, 0.1)
        scaled = surrogate_lower_bound(
            scale.levels[0], scaled_tuning.eps2[0], scaled_tuning.eps_inf[0], 0.1, 0.1, c
        )
        for key, value in base.to_dict().items():
            assert scaled.to_dict()[key] == pytest.approx(c * value, rel=1e-12), key
        levels = set()
        for amplitude in (0.0, 0.3, 1.0, 3.0):
            y = amplitude * np.sin(40.0 * x) + rng.normal(size=256)
            a = adaptive_band_nested(scale, y, params)
            b = adaptive_band_nested(scale, c * y, scaled_params)
            levels.add(a.selected_level)
            assert b.selected_level == a.selected_level
            assert b.width == pytest.approx(c * a.width, rel=1e-12)
            assert np.allclose(b.t_stats, a.t_stats, rtol=1e-10, atol=0.0)
        assert len(levels) > 1


class _Recorder:
    """A level that records ``(level, rows)`` for each block it projects."""

    def __init__(self, space, level, projected):
        self.space, self.level, self.projected = space, level, projected

    def _project(self, Y):
        self.projected.append((self.level, Y.shape[0]))
        return self.space._project(Y)


def _recording(plan):
    """A copy of ``plan`` whose block walk records what each level projects."""
    projected = []
    walker = copy.copy(plan)
    walker.levels = tuple(
        _Recorder(space, j, projected) for j, space in enumerate(plan.levels, start=1)
    )
    return walker, projected


class TestBandPlan:
    """``bands._plan`` against the public per-level pieces, bit for bit."""

    @staticmethod
    def _agree(scale, y, params):
        """Check the band, the Monte Carlo walk and a level-by-level reference."""
        t_ref = [t_statistic(space, y, params.sigma) for space in scale.levels]
        cut_ref = [bands.acceptance_threshold(scale.n, d, params.gamma) for d in scale.dims]
        selected = next(
            (j for j, (t, c) in enumerate(zip(t_ref, cut_ref), start=1) if t <= c), scale.m + 1
        )
        center_ref = scale.levels[selected - 1].project(y) if selected <= scale.m else y
        width_ref = level_widths(scale, params)[selected - 1]

        band = adaptive_band_nested(scale, y, params)
        plan = bands._plan(scale, params)
        t_scan, level, center, half = plan.scan(y)
        assert band.selected_level == level == selected
        assert band.accepted is (selected <= scale.m)
        assert band.t_stats == tuple(t_ref) == tuple(t_scan)
        # The block walk of the one-row block y gives the same band, and
        # projects only up to the accepted level: it stops at acceptance.
        walker, projected = _recording(plan)
        levels, centers, halves, _ = walker.walk(y[None, :])
        assert projected == [(j, 1) for j in range(1, min(selected, scale.m) + 1)]
        assert levels.tolist() == [selected] and halves.tolist() == [half]
        assert np.array_equal(centers[0], center_ref)
        assert band.thresholds == tuple(cut_ref)
        assert np.array_equal(band.center, center) and np.array_equal(center, center_ref)
        assert band.width == 2.0 * half == width_ref
        assert np.array_equal(band.lower, center_ref - half)
        assert np.array_equal(band.upper, center_ref + half)
        return band

    def test_statistic_exactly_at_cutoff_accepts(self, monkeypatch):
        scale = dyadic_scale(32, [1, 4])
        params = BandParams.equal_split(0.1, 0.2, 1.0, nested_tuning(scale, 0.1, 0.2))
        y = np.random.default_rng(410).normal(size=32)
        t1 = t_statistic(scale.levels[0], y, 1.0)
        real = bands.acceptance_threshold
        for cutoff, level in ((t1, 1), (np.nextafter(t1, -np.inf), 2)):
            monkeypatch.setattr(
                bands, "acceptance_threshold", lambda n, d, g: cutoff if d == 1 else real(n, d, g)
            )
            bands._PLANS.pop(scale, None)  # rebuild the plan with this cutoff
            band = self._agree(scale, y, params)
            assert band.selected_level == level
        assert band.t_stats[0] > band.thresholds[0]

    def test_full_dimension_level_has_infinite_cutoff(self):
        scale = dyadic_scale(16, [1, 16])
        params = BandParams.equal_split(0.1, 0.2, 1.0, nested_tuning(scale, 0.1, 0.2))
        band = self._agree(scale, 40.0 * np.tile([1.0, -1.0], 8), params)
        assert band.selected_level == 2 and math.isinf(band.thresholds[1])

    def test_all_rejected_fallback(self):
        scale = dyadic_scale(32, [1, 4])
        params = BandParams.equal_split(0.1, 0.2, 1.0, nested_tuning(scale, 0.1, 0.2))
        y = 40.0 * np.tile([1.0, -1.0], 16)
        band = self._agree(scale, y, params)
        assert band.selected_level == 3 and band.accepted is False
        assert band.center is not y  # the band owns its centre

    def test_random_data_every_level(self):
        scale, params = _nested_setup()
        rng = np.random.default_rng(411)
        truths = [  # members of levels 1, 2 and 3, and of none
            np.zeros(256),
            np.repeat([1.5, 0.5, -0.5, -1.5], 64),
            np.repeat(np.linspace(-8.0, 8.0, 16), 16),
            3.0 * np.tile([1.0, -1.0], 128),
        ]
        seen = {
            self._agree(scale, f + rng.normal(size=256), params).selected_level
            for f in truths
            for _ in range(5)
        }
        assert seen == {1, 2, 3, 4}

    def test_infeasible_gamma_raises_after_feasible_plan_is_cached(self):
        scale = dyadic_scale(32, [1, 4])
        tuning = nested_tuning(scale, 0.1, 0.2)
        feasible = BandParams.equal_split(0.1, 0.2, 1.0, tuning)
        infeasible = BandParams.equal_split(0.1, 0.05, 1.0, tuning)
        y = np.random.default_rng(412).normal(size=32)
        adaptive_band_nested(scale, y, feasible)
        assert bands._plan(scale, feasible) is bands._plan(scale, feasible)
        for _ in range(2):
            with pytest.raises(FeasibilityError) as info:
                adaptive_band_nested(scale, y, infeasible)
            assert info.value.min_gamma == min_feasible_gamma(scale, infeasible)
        with pytest.raises(FeasibilityError):
            run(Scenario(kind="adaptive", truth=np.zeros(32), reps=5, seed=1, scale=scale, params=infeasible))
        self._agree(scale, y, feasible)

    def test_constants_computed_once(self, monkeypatch):
        scale, params = _nested_setup()
        calls = []
        real = bands.min_feasible_gamma
        monkeypatch.setattr(bands, "min_feasible_gamma", lambda *a: calls.append(a) or real(*a))
        for k in range(5):
            adaptive_band_nested(scale, np.random.default_rng(k).normal(size=256), params)
        run(Scenario(kind="adaptive", truth=np.zeros(256), reps=20, seed=1, scale=scale, params=params))
        assert len(calls) == 1

    def test_plan_dies_with_its_scale(self):
        scale, params = _nested_setup()
        adaptive_band_nested(scale, np.zeros(256), params)
        plan = weakref.ref(bands._plan(scale, params))
        del scale
        gc.collect()
        assert plan() is None


class TestBlockWalk:
    """``_Plan.walk`` of a ``(k, n)`` block against ``_Plan.scan`` of each row."""

    @staticmethod
    def _agree(scale, params, block):
        """Check every row of the walk against the one-vector scan, and that
        each level projects exactly the rows that no coarser level accepted;
        returns the selected levels."""
        plan = bands._plan(scale, params)
        walker, projected = _recording(plan)
        levels, centers, halves, gaps = walker.walk(block)
        assert levels.shape == halves.shape == gaps.shape == (block.shape[0],)
        assert centers.shape == block.shape
        for y, level, center, half, gap in zip(block, levels, centers, halves, gaps):
            _, want_level, want_center, want_half = plan.scan(y.copy())
            assert level == want_level and half == want_half
            assert np.array_equal(center.view(np.int64), want_center.view(np.int64))
            # The gap is the least |norm(resid) - sigma * sqrt(cutoff)| over
            # the levels the row was tested at.
            tested = zip(scale.levels[: min(level, scale.m)], plan.cutoffs)
            residuals = [y - space.project(y) for space, _ in tested]
            assert gap == min(
                abs(math.sqrt(float(r @ r)) - params.sigma * math.sqrt(cutoff))
                for r, cutoff in zip(residuals, plan.cutoffs)
            )
        walking = [int(np.count_nonzero(levels >= j)) for j in range(1, scale.m + 1)]
        assert projected == [(j, k) for j, k in enumerate(walking, start=1) if k]
        return levels

    @pytest.mark.parametrize("n", [7, 37, 100, 256, 4096])
    def test_row_dots_are_ddot_bit_for_bit(self, n):
        # The walk's row sums of squares equal the band call's r @ r.
        block = np.random.default_rng(n).normal(size=(9, n)) * 5.0
        for offset in range(9):  # every row offset of a block
            rows = block[offset:]
            got = np.vecdot(rows, rows)
            assert got.shape == (9 - offset,)
            for t, r in zip(got, rows):
                assert t == float(r @ r) == float(r.copy() @ r.copy())

    def test_one_block_holds_every_level_and_the_fallback(self):
        scale, params = _nested_setup()
        rng = np.random.default_rng(413)
        truths = [  # members of levels 1, 2 and 3, and of none
            np.zeros(256),
            np.repeat([1.5, 0.5, -0.5, -1.5], 64),
            np.repeat(np.linspace(-8.0, 8.0, 16), 16),
            3.0 * np.tile([1.0, -1.0], 128),
        ]
        block = np.stack([truths[i % 4] + rng.normal(size=256) for i in range(24)])
        levels = self._agree(scale, params, block)
        assert set(levels.tolist()) == {1, 2, 3, 4}
        assert levels[0] == 1 and levels[3] == 4  # interleaved, not sorted

    def test_fallback_rows_keep_the_data_as_centre(self):
        scale = dyadic_scale(32, [1, 4])
        params = BandParams.equal_split(0.1, 0.2, 1.0, nested_tuning(scale, 0.1, 0.2))
        rough = 40.0 * np.tile([1.0, -1.0], 16)
        block = np.stack([rough, np.zeros(32), -rough])
        assert self._agree(scale, params, block).tolist() == [3, 1, 3]
        levels, centers, halves, _ = bands._plan(scale, params).walk(rough[None, :])
        assert levels.tolist() == [3] and np.array_equal(centers[0], rough)

    def test_full_dimension_level_has_infinite_cutoff(self):
        scale = dyadic_scale(16, [1, 16])
        params = BandParams.equal_split(0.1, 0.2, 1.0, nested_tuning(scale, 0.1, 0.2))
        spike = 40.0 * np.tile([1.0, -1.0], 8)
        block = np.stack([spike, np.zeros(16), -spike, spike])
        assert self._agree(scale, params, block).tolist() == [2, 1, 2, 2]
        assert math.isinf(bands._plan(scale, params).cutoffs[1])

    @pytest.mark.parametrize("sigma", [1.0, 0.37, 0.83, 1e-150, 1e150])
    def test_cutoff_hit_exactly(self, monkeypatch, sigma):
        # The walk divides the sums of squares by sigma^2 as scan does, also
        # where sigma^2 is tiny or huge.  Both caps scale with sigma, so the
        # feasibility floor is that of sigma = 1.
        scale = dyadic_scale(32, [1, 4])
        tuning = nested_tuning(scale, 0.1, 0.2)
        tuning = SurrogateTuning(
            eps2=tuple(sigma * e for e in tuning.eps2), eps_inf=tuple(sigma * e for e in tuning.eps_inf)
        )
        params = BandParams.equal_split(0.1, 0.2, sigma, tuning)
        block = sigma * np.random.default_rng(414).normal(size=(6, 32))
        t = [t_statistic(scale.levels[0], y, sigma) for y in block]
        cutoff = sorted(t)[2]  # the third smallest statistic is the cutoff itself
        real = bands.acceptance_threshold
        monkeypatch.setattr(
            bands, "acceptance_threshold", lambda n, d, g: cutoff if d == 1 else real(n, d, g)
        )
        bands._PLANS.pop(scale, None)  # rebuild the plan with this cutoff
        levels = self._agree(scale, params, block)
        assert [lv == 1 for lv in levels] == [ti <= cutoff for ti in t]
        assert sum(lv == 1 for lv in levels) == 3

    def test_one_row_block(self):
        scale, params = _nested_setup()
        rng = np.random.default_rng(415)
        for f in (np.zeros(256), np.repeat(np.linspace(-8.0, 8.0, 16), 16)):
            self._agree(scale, params, (f + rng.normal(size=256))[None, :])

    @pytest.mark.parametrize("levels", [
        lambda n: (cosine_basis(n, 2), cosine_basis(n, 6)),
        lambda n: (dyadic_blocks(n, 1), cosine_basis(n, 4), cosine_basis(n, 8)),
    ], ids=["cosine", "mixed"])
    def test_dense_and_mixed_chains(self, levels):
        scale = NestedScale(levels(64))
        params = BandParams.equal_split(0.1, 0.2, 1.0, nested_tuning(scale, 0.1, 0.2))
        rng = np.random.default_rng(416)
        x = np.arange(1, 65) / 64
        truths = [np.zeros(64), 2.0 * np.cos(np.pi * x), 3.0 * np.cos(5 * np.pi * x), 4.0 * np.tile([1.0, -1.0], 32)]
        block = np.stack([truths[i % 4] + rng.normal(size=64) for i in range(16)])
        assert len(set(self._agree(scale, params, block).tolist())) >= 3


class TestAdaptiveSingle:
    """A single subspace is the one-level scale ``NestedScale((space,))``."""

    @staticmethod
    def _setup():
        space = dyadic_blocks(256, 4)
        tuning = optimal_tuning(space, 0.1, 0.1, achievable=True)
        return NestedScale((space,)), BandParams.equal_split(0.1, 0.1, 1.0, tuning)

    def test_matches_one_level_nested(self):
        scale, params = self._setup()
        rng = np.random.default_rng(408)
        for _ in range(5):
            TestBandPlan._agree(scale, rng.normal(size=256), params)

    def test_accept_and_reject_paths(self):
        scale, params = self._setup()
        smooth = adaptive_band_nested(scale, np.zeros(256), params)
        assert smooth.accepted is True and smooth.selected_level == 1
        rough = adaptive_band_nested(scale, 50.0 * np.tile([1.0, -1.0], 128), params)
        assert rough.accepted is False and rough.selected_level == 2


class TestBandSerialization:
    def test_to_dict_round_trips_through_json(self):
        # Arrays are deliberately omitted from the summary payload (the CSV
        # writer owns them); scalars and per-level diagnostics survive JSON.
        scale, params = _nested_setup()
        band = adaptive_band_nested(scale, np.zeros(256), params)
        payload = band.to_dict()
        assert set(payload) == {"width", "selectedLevel", "accepted", "tStats", "thresholds"}
        back = json.loads(json.dumps(payload, sort_keys=True))
        assert back["width"] == band.width
        assert back["selectedLevel"] == band.selected_level
        assert back["accepted"] is True
        assert len(back["tStats"]) == 3

    def test_infinite_threshold_serializes_as_null(self):
        scale = dyadic_scale(8, [2, 8])
        tuning = SurrogateTuning(eps2=(5.0, 5.0), eps_inf=(0.1, 0.1))
        params = BandParams.equal_split(0.1, 0.2, 1.0, tuning)
        band = adaptive_band_nested(scale, np.zeros(8), params)
        payload = band.to_dict()
        # The full-dimensional level has an infinite acceptance threshold,
        # which must not leak non-JSON floats.
        json.dumps(payload)
        assert payload["thresholds"][1] is None


class TestSpecInvariants:
    def test_sandwich_and_width_gap(self):
        scale, params = _nested_setup()
        rng = np.random.default_rng(409)
        for _ in range(5):
            band = adaptive_band_nested(scale, rng.normal(size=256), params)
            assert np.all(band.lower <= band.center)
            assert np.all(band.center <= band.upper)
            assert float(np.max(band.upper - band.lower)) == pytest.approx(band.width, rel=1e-12)

    def test_fallback_equals_simultaneous_band(self):
        scale, params = _nested_setup()
        y = 50.0 * np.tile([1.0, -1.0], 128)
        fallback = adaptive_band_nested(scale, y, params)
        assert fallback.selected_level == 4
        simple = bonferroni_band(y, params.alpha_split[-1], params.sigma)
        assert np.array_equal(fallback.lower, simple.lower)
        assert np.array_equal(fallback.upper, simple.upper)
        assert np.array_equal(fallback.center, simple.center)

    def test_selection_monotone_in_gamma(self):
        # Larger gamma shrinks every acceptance threshold, so the selected
        # level can only move later (or stay).
        scale = dyadic_scale(256, [1, 4, 16])
        tuning = nested_tuning(scale, 0.1, 0.1)
        rng = np.random.default_rng(410)
        for _ in range(10):
            y = rng.normal(size=256) * rng.uniform(0.5, 2.0)
            levels = []
            for gamma in [0.05, 0.15, 0.4]:
                params = BandParams.equal_split(0.1, gamma, 1.0, tuning)
                levels.append(adaptive_band_nested(scale, y, params).selected_level)
            assert levels[0] <= levels[1] <= levels[2]
