"""Tests for the special-function layer.

The chi-square layer is checked against a 40-digit ``mpmath`` oracle (the
accuracy the ``specfun`` docstring states), against an independently written
regularized incomplete-gamma routine (power series + Lentz continued
fraction), and against scipy.stats.  Quantiles are also checked by
round-tripping through the CDF and against frozen reference values.
``normal_quantile`` is also checked bit for bit against an inline copy of the
plain 64-step bisection that defines draw stream v1, on the generator's stream
and on the binade edges of its exact cells, and the premise of its shortcut
(no reversal of ``ndtr`` spans a cell) is scanned for in every binade the
cells use, as is the premise of its fixed tail schedule (a cell with more
than 11 steps left stops within 7).  Every entry point rejects a bool or a
str.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import special, stats

from surrband import bands, simulate, specfun
from surrband import (
    BandParams,
    DomainError,
    NestedScale,
    Scenario,
    acceptance_threshold,
    adaptive_band_nested,
    birge_bounds,
    chi2_cdf,
    chi2_quantile,
    econst,
    dyadic_blocks,
    dyadic_scale,
    kappa,
    level_widths,
    make_spoiler,
    max_inf_norm_given_two,
    min_feasible_gamma,
    min_two_norm_given_inf,
    modulus,
    nested_tuning,
    normal_cdf,
    normal_quantile,
    qconst,
    run,
    surrogate_target,
    t_statistic,
    tau,
    tau_inv,
    v2_term,
    w_target,
    z_upper,
)


def reg_lower_gamma(a, x):
    """Independent regularized lower incomplete gamma P(a, x).

    Power series for x < a + 1, Lentz continued fraction otherwise.  Written
    from the classical recurrences, sharing no code with the package.
    """
    if x <= 0.0:
        return 0.0
    log_prefix = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:
        term = 1.0 / a
        total = term
        k = a
        for _ in range(10_000):
            k += 1.0
            term *= x / k
            total += term
            if abs(term) < abs(total) * 1e-17:
                break
        return total * math.exp(log_prefix)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    return 1.0 - math.exp(log_prefix) * h


class TestNormalCdf:
    def test_against_erfc_oracle(self):
        # Phi(x) = erfc(-x / sqrt 2) / 2, evaluated through math.erfc.  The
        # two routes are independent implementations accurate to a few ulp,
        # so they can disagree by ~1e-14 relative deep in the tails.
        for x in [-8.0, -3.5, -1.0, -0.1, 0.0, 0.2, 1.0, 2.5, 6.0, 8.0]:
            oracle = 0.5 * math.erfc(-x / math.sqrt(2.0))
            got = normal_cdf(x)
            assert got == pytest.approx(oracle, rel=5e-13, abs=1e-300), x

    def test_symmetry_and_extremes(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            x = float(rng.uniform(-10.0, 10.0))
            assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)
        assert normal_cdf(0.0) == 0.5
        assert normal_cdf(40.0) == 1.0
        assert normal_cdf(-40.0) == pytest.approx(0.0, abs=1e-300)

    def test_returns_python_float(self):
        out = normal_cdf(1.25)
        assert type(out) is float
        assert normal_cdf(np.float64(0.0)) == 0.5


class TestZUpper:
    def test_frozen_values(self):
        assert z_upper(0.025) == pytest.approx(1.9599639845400545, rel=1e-12)
        assert z_upper(0.05) == pytest.approx(1.6448536269514729, rel=1e-12)
        assert z_upper(0.05 / 256) == pytest.approx(3.5463378873635976, rel=1e-12)
        assert z_upper(0.025 / 512) == pytest.approx(3.896342532608328, rel=1e-12)
        assert z_upper(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(102)
        for _ in range(100):
            p = float(rng.uniform(1e-8, 0.999))
            z = z_upper(p)
            assert 1.0 - normal_cdf(z) == pytest.approx(p, rel=1e-11)

    def test_domain(self):
        for p in [0.0, 1.0, -0.1, 1.5]:
            with pytest.raises(DomainError):
                z_upper(p)


class TestNormalQuantile:
    def test_against_scipy(self):
        rng = np.random.default_rng(103)
        u = rng.uniform(1e-12, 1.0 - 1e-12, size=500)
        got = normal_quantile(u)
        want = stats.norm.ppf(u)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_extreme_tails(self):
        # 2^-54 corresponds to z about -8.29; the bracket must contain it.
        z = normal_quantile(np.array([2.0**-54, 1.0 - 2.0**-54]))
        assert z[0] < -8.0 and z[1] > 8.0
        assert np.all(np.isfinite(z))

    def test_monotone(self):
        u = np.linspace(1e-9, 1.0 - 1e-9, 1000)
        z = normal_quantile(u)
        assert np.all(np.diff(z) > 0.0)

    def test_deterministic(self):
        u = np.random.default_rng(104).uniform(0.0001, 0.9999, size=64)
        a = normal_quantile(u)
        b = normal_quantile(u.copy())
        assert np.array_equal(a, b)


def bisection_quantile(u):
    """The plain 64-step bisection of draw stream v1, written out in full."""
    u = np.asarray(u, dtype=np.float64)
    lo = np.full(u.shape, -9.5)
    hi = np.full(u.shape, 9.5)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = special.ndtr(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def assert_bits_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, f"{bad.size} values differ, first at index {bad[:5]}"


def philox_uniforms(key, n):
    """Uniforms exactly as the Monte Carlo driver makes them."""
    raw = np.random.Philox(key=np.array(key, dtype=np.uint64)).random_raw(n)
    return (raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54


def edge_grids():
    """Uniforms at the ends of the generator's range, around 1/2 and along
    both tails."""
    k = np.arange(2**12, dtype=np.float64)
    return [
        2.0**-54 + k * 2.0**-62,                       # just above the smallest uniform
        2.0**-54 * (1.0 + k),
        0.5 + (k - 2**11) * 2.0**-60,                  # around 1/2, finer than its grid
        0.5 + (k - 2**11) * 2.0**-53,                  # around 1/2, on the uniform grid
        1.0 - 2.0**-54 - k * 2.0**-53,                 # just below the largest uniform
        np.logspace(np.log10(2.0**-54), np.log10(0.5), 2**13),   # lower tail
        1.0 - np.logspace(np.log10(2.0**-54), np.log10(0.5), 2**13),  # upper tail
    ]


class TestNormalQuantileMatchesBisection:
    """The shortcut in ``normal_quantile`` must not change a single bit."""

    def test_philox_stream(self, monkeypatch):
        # Every value of the stream is served by its guessed cell or the one
        # next to it: the plain bisection, the last fallback, never runs.
        # (_bisect also runs the last steps from a cell, in shorter calls.)
        runs = []
        real = specfun._bisect
        monkeypatch.setattr(specfun, "_bisect", lambda *args: runs.append(args[-1]) or real(*args))
        total = 0
        for rep in range(16):
            u = philox_uniforms((20260823, rep), 2**16)
            assert_bits_equal(normal_quantile(u), bisection_quantile(u))
            total += u.size
        assert total >= 10**6
        assert 64 not in runs

    def test_last_word_takes_its_cell(self, monkeypatch):
        # The uniform of the last 53-bit word rounds to exactly 1.0.  Its
        # quantile is the first x where ndtr rounds to 1, and the guessed
        # cell holds it, so no plain bisection runs for it either.
        runs = []
        real = specfun._bisect
        monkeypatch.setattr(specfun, "_bisect", lambda *args: runs.append(args[-1]) or real(*args))
        u = simulate._uniform(np.array([2**53 - 1]))
        assert u[0] == 1.0
        got = normal_quantile(u)
        assert_bits_equal(got, bisection_quantile(u))
        assert_bits_equal(got, np.array([8.292361075813595]))
        assert 64 not in runs

    def test_binade_edges_of_the_cells(self):
        # The fine cells change width where |z| crosses a power of two: the
        # 6001 doubles around ndtr(+-2^k) for k = -30..3, on both sides.
        offsets = np.arange(-3000, 3001)
        for k in range(-30, 4):
            for z in (2.0**k, -(2.0**k)):
                center = np.float64(special.ndtr(z)).view(np.int64)
                u = (center + offsets).view(np.float64)
                assert_bits_equal(normal_quantile(u), bisection_quantile(u))

    def test_at_most_10_ndtr_evaluations_per_value(self, monkeypatch):
        # The plain bisection makes 64 and the cells of the first 48 steps
        # left 18 on this stream; the fine cells and the rounds of 5, 2 and
        # 4 steps after them leave about 8.
        real = specfun.special.ndtr
        seen = []

        def counting(x):
            seen.append(np.size(x))
            return real(x)

        monkeypatch.setattr(specfun.special, "ndtr", counting)
        values = 0
        for rep in range(16):
            u = philox_uniforms((20261018, rep), 4096)
            normal_quantile(u)
            values += u.size
        assert sum(seen) <= 10 * values

    def test_edge_grids(self):
        for u in edge_grids():
            assert_bits_equal(normal_quantile(u), bisection_quantile(u))

    def test_outside_the_bracket_falls_back(self):
        # Below ndtr(-9.5), at 0, 1 and beyond, and NaN, no cell passes the
        # check, so all 64 steps run; the results still match bit for bit.
        u = np.array([0.0, -0.0, 5e-324, 1e-300, 1e-22, 1.0, 2.0, -1.0, np.nan, np.inf])
        assert_bits_equal(normal_quantile(u), bisection_quantile(u))

    @pytest.mark.parametrize("offset, full_runs", [(-1, 0), (1, 0), (-2, 1), (2, 1), (3, 1)])
    def test_wrong_guess_moves_or_falls_back(self, monkeypatch, offset, full_runs):
        # Feed the shortcut a guess ``offset`` fine cells away from the true
        # cell: one cell off is moved, further off runs the plain bisection
        # once, for every value in one call.
        u = np.concatenate([philox_uniforms((5, 0), 64), [0.5, 2.0**-54, 1.0 - 2.0**-53]])
        want = bisection_quantile(u)
        # Each value's fine cell 19 * 2^-s and the bracket of its first s
        # steps (see test_fine_cells_span_at_least_38_ulps).
        e = np.frexp(np.abs(want) + specfun._CELL)[1] - 1
        s = np.minimum(51 - e, 53)
        cell = 19.0 * 2.0**-s
        lo = np.full(u.shape, -9.5)
        hi = np.full(u.shape, 9.5)
        first = lo
        for step in range(1, 54):
            mid = 0.5 * (lo + hi)
            below = special.ndtr(mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            first = np.where(step == s, lo, first)
        guess = first + (offset + 0.5) * cell
        # normal_quantile passes the lower-tail probability to ndtri and
        # negates its result above 1/2.
        guess = np.where(u > 0.5, -guess, guess)
        monkeypatch.setattr(specfun.special, "ndtri", lambda t: guess.copy())
        runs = []
        real = specfun._bisect

        def spy(uu, lo, hi, steps):
            runs.append((steps, np.size(uu)))
            return real(uu, lo, hi, steps)

        monkeypatch.setattr(specfun, "_bisect", spy)
        got = normal_quantile(u)
        assert_bits_equal(got, want)
        full = [size for steps, size in runs if steps == 64]
        assert full == [u.size] * full_runs

    def test_scalar_and_zero_d_input(self):
        for u in (0.3, 0.5, 0.975, 2.0**-54, np.float64(0.7), np.array(0.1)):
            got = normal_quantile(u)
            want = bisection_quantile(u)
            assert np.shape(got) == () and type(got) is type(want)
            assert_bits_equal(got, want)

    def test_shapes(self):
        u = philox_uniforms((1, 2), 12).reshape(3, 4)
        assert_bits_equal(normal_quantile(u), bisection_quantile(u))
        assert normal_quantile(np.empty(0)).shape == (0,)


class TestFirstStageBracket:
    """The bracket ``[lo, hi]`` of the quantile's first stage, ``_cells``,
    from which its last steps run, must hold the value ``normal_quantile``
    returns."""

    def test_bracket_holds_the_value(self):
        grids = [philox_uniforms((20261019, rep), 2**16) for rep in range(4)]
        grids += [np.array([2.0**-54, 1.0 - 2.0**-54])] + edge_grids()
        for u in grids:
            lo, hi = (bits.view(np.float64) for bits in specfun._cells(u))
            q = normal_quantile(u)
            assert np.all(lo <= q) and np.all(q <= hi)


def straddling_uniforms():
    """Every double ``u`` whose root lies near ``+-2^e``, e = -1..3: from
    ``|z| = 2^e - 2 * 19 * 2^-48`` to ``2^e + 19 * 2^-48``, where the cells
    of binade e reach below ``2^e`` and hold up to 76 doubles."""
    out = []
    for e in range(-1, 4):
        for sign in (-1.0, 1.0):
            z = sign * np.array([2.0**e - 2 * specfun._CELL, 2.0**e + specfun._CELL])
            ends = np.sort(special.ndtr(z)).view(np.int64)
            out.append(np.arange(ends[0], ends[1] + 1).view(np.float64))
    return np.concatenate(out)


class TestTailSchedule:
    """``normal_quantile`` runs the steps after the cells in rounds of 5, 2
    and 4, each on the brackets still open; its docstring gives the premise."""

    def test_cells_with_more_than_11_steps_left_close_within_7(self):
        u = np.concatenate([straddling_uniforms(), philox_uniforms((20261020, 0), 2**16)])
        lo, hi = specfun._cells(u)
        lo_f, hi_f = lo.view(np.float64), hi.view(np.float64)
        left = 64 + np.log2((hi_f - lo_f) / 19.0)  # 64 - s, exact
        doubles = np.abs(hi - lo)  # both ends have one sign here
        straddle = np.frexp(np.abs(lo_f))[1] != np.frexp(np.abs(hi_f))[1]
        # Each power of two 1/2 .. 8 is straddled, on the negative side at
        # least, by cells of more than 38 doubles.
        assert set(np.frexp(-lo_f[straddle & (hi_f < 0)])[1] - 1) == set(range(-1, 4))
        assert np.all(left[straddle] > 11)
        assert 38 < doubles[straddle].max() <= 76
        lo7, hi7 = specfun._bisect(u, lo, hi, 7)
        mid = specfun._midpoint(lo7, hi7)
        still_open = (lo7 != mid) & (hi7 != mid)
        assert not np.any(still_open & (left > 11))
        # Open after 7 steps are only values near the median, with 11 left.
        assert np.all(left[still_open] == 11)
        assert np.all(np.abs(mid.view(np.float64)[still_open]) + specfun._CELL < 0.5)

    def test_straddling_and_median_values_match_the_bisection(self):
        # The cells that take the most steps to close, and the values near
        # the median, whose last 4 steps only the third round runs.
        rng = np.random.default_rng(20261020)
        half = np.float64(0.5).view(np.int64)
        groups = [
            straddling_uniforms(),
            (half + np.arange(-(2**18), 2**18)).view(np.float64),  # the doubles nearest 1/2
            rng.uniform(special.ndtr(-0.5), special.ndtr(0.5), 2**19),
        ]
        for u in groups:
            assert_bits_equal(normal_quantile(u), bisection_quantile(u))
        assert sum(u.size for u in groups) >= 10**6

    @pytest.mark.parametrize("u", [0.5 + 2.0**-53, 0.5 - 2.0**-54, 0.5 - 2.0**-40])
    def test_one_value_near_one_half(self, u):
        # The bracket is still open after all 11 steps left: the result is
        # its midpoint then, with no further step, also for a call of one.
        lo, hi = specfun._bisect(np.array([u]), *specfun._cells(np.array([u])), 11)
        mid = specfun._midpoint(lo, hi)
        assert lo[0] != mid[0] != hi[0]
        assert_bits_equal(normal_quantile(np.array([u])), bisection_quantile(np.array([u])))
        assert_bits_equal(normal_quantile(u), bisection_quantile(u))


def _longest_reversal(x, width):
    """The longest span ``k <= width`` (in ulps) of a reversal of ``ndtr``,
    ``ndtr(t) > ndtr(t + k ulps)``, among the ``width + 1`` consecutive
    doubles from each ``x`` up; 0 if there is none."""
    grid = [x]
    for _ in range(width):
        grid.append(np.nextafter(grid[-1], np.inf))
    cdf = special.ndtr(np.stack(grid, axis=1))
    peak = np.maximum.accumulate(cdf, axis=1)
    spans = [k for k in range(1, width + 1) if np.any(peak[:, :-k] > cdf[:, k:])]
    return max(spans, default=0)


class TestNdtrReversals:
    """The premise of the shortcut in ``normal_quantile``: ``ndtr`` is not
    monotone at the scale of an ulp, but no reversal spans a first-stage cell
    (``19 * 2^-48``, at least 38 ulps on ``[-9.5, 9.5]``)."""

    def test_one_ulp_reversal(self):
        x = -1.2994616580219442
        assert special.ndtr(x) > special.ndtr(np.nextafter(x, np.inf))
        assert _longest_reversal(np.array([x]), 4) >= 1

    def test_cell_spans_at_least_38_ulps(self):
        assert specfun._CELL >= 38 * np.spacing(specfun._Z_BRACKET_VEC)

    def test_fine_cells_span_at_least_38_ulps(self):
        # A root in binade e (2^e <= |z| + 19 * 2^-48 < 2^(e+1)) gets the
        # cell of s = min(51 - e, 53) exact steps, and a lower end that passes
        # the test and an upper end that fails it.
        z = np.array([2.0**e * 1.125 for e in range(-44, 3)] + [8.1])
        u = special.ndtr(np.concatenate([z, -z]))
        lo, hi = (bits.view(np.float64) for bits in specfun._cells(u))
        e = np.frexp(np.abs(bisection_quantile(u)) + specfun._CELL)[1] - 1
        assert set(range(-10, 4)) <= set(e)
        s = np.minimum(51 - e, 53)
        assert np.all(hi - lo == 19.0 * 2.0**-s)
        assert np.all(hi - lo >= 38 * np.spacing(2.0**e))
        assert np.all(special.ndtr(lo) < u) and not np.any(special.ndtr(hi) < u)
        # Every multiple of the cell below 2^(e+1) has at most 52 significant
        # bits, so the steps up to it were exact.
        assert np.all(2.0 ** (e + 1) / (hi - lo) * 19.0 <= 2.0**52)

    def test_no_reversal_over_16_ulps(self):
        rng = np.random.default_rng(20261018)
        longest = max(
            _longest_reversal(rng.uniform(-9.5, 9.5, size=25_000), 24) for _ in range(8)
        )
        # Short reversals are there to be found; long ones are not.
        assert 1 <= longest < 16

    def test_no_reversal_over_16_ulps_in_any_fine_binade(self):
        # The fine cells are 38 ulps wide from |z| = 1/4 to 9.5 (wider below):
        # scan log-uniform |x| over that range, both signs.
        rng = np.random.default_rng(20261019)
        longest = 0
        for _ in range(8):
            x = np.exp(rng.uniform(np.log(2.0**-3), np.log(9.5), size=25_000))
            longest = max(longest, _longest_reversal(x * rng.choice([-1.0, 1.0], size=x.size), 24))
        assert 1 <= longest < 16


class TestTau:
    def test_frozen_values(self):
        assert tau(2.0) == pytest.approx(0.6826894921370859, rel=1e-14)
        assert tau(0.0) == 0.0
        assert tau_inv(0.85) == pytest.approx(2.8790629418769127, rel=1e-12)
        assert tau_inv(0.7) == pytest.approx(2.0728667789875797, rel=1e-12)
        assert tau_inv(0.6827) == pytest.approx(2.0000434266459983, rel=1e-12)
        assert tau_inv(0.0) == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(105)
        for _ in range(100):
            t = float(rng.uniform(1e-6, 0.9999))
            assert tau(tau_inv(t)) == pytest.approx(t, rel=1e-10)

    def test_inverse_identity_on_widths(self):
        for eps in np.linspace(0.0, 6.0, 61):
            eps = float(eps)
            assert abs(tau_inv(tau(eps)) - eps) < 1e-8, eps

    def test_density_sandwich(self):
        # eps * phi(eps/2) <= tau(eps) <= eps * phi(0), phi the standard
        # normal density: the interval probability is squeezed between the
        # density at the endpoint and at the center times the length.
        phi0 = 1.0 / math.sqrt(2.0 * math.pi)
        for eps in np.linspace(0.05, 10.0, 200):
            eps = float(eps)
            phi_edge = phi0 * math.exp(-0.5 * (eps / 2.0) ** 2)
            t = tau(eps)
            assert eps * phi_edge <= t + 1e-15, eps
            assert t <= eps * phi0 + 1e-15, eps

    def test_domain(self):
        with pytest.raises(DomainError):
            tau(-0.5)
        with pytest.raises(DomainError):
            tau_inv(1.0)
        with pytest.raises(DomainError):
            tau_inv(-0.01)


class TestChi2CdfCentral:
    def test_against_incomplete_gamma_oracle(self):
        for df in [1, 2, 3, 5, 10, 50, 252]:
            for x in [0.01, 0.5, 1.0, df * 0.5, float(df), df * 1.5, df + 4 * math.sqrt(2 * df)]:
                oracle = reg_lower_gamma(df / 2.0, x / 2.0)
                got = chi2_cdf(x, df)
                assert abs(got - oracle) < 1e-9, (df, x)

    def test_against_scipy(self):
        rng = np.random.default_rng(106)
        for _ in range(200):
            df = int(rng.integers(1, 400))
            x = float(rng.uniform(0.0, 3.0 * df))
            assert abs(chi2_cdf(x, df) - stats.chi2.cdf(x, df)) < 1e-11

    def test_edge_values(self):
        assert chi2_cdf(0.0, 5) == 0.0
        assert chi2_cdf(-1.0, 5) == 0.0
        assert chi2_cdf(1e9, 5) == 1.0


class TestChi2CdfNoncentral:
    def test_frozen_value(self):
        assert chi2_cdf(7.0, 5, ncp=3.0) == pytest.approx(0.4866239204229876, rel=1e-10)

    def test_against_scipy(self):
        rng = np.random.default_rng(107)
        for _ in range(150):
            df = int(rng.integers(1, 300))
            ncp = float(rng.uniform(0.0, 200.0))
            x = float(rng.uniform(0.0, df + ncp + 3.0 * math.sqrt(2.0 * (df + 2 * ncp))))
            got = chi2_cdf(x, df, ncp=ncp)
            want = stats.ncx2.cdf(x, df, ncp) if ncp > 0 else stats.chi2.cdf(x, df)
            assert abs(got - want) < 1e-9, (df, ncp, x)

    def test_far_tails_shortcut_consistent(self):
        # Values far outside the bulk return exactly 0 or 1, and scipy agrees.
        for df, ncp in [(1, 0.0), (5, 3.0), (100, 50.0), (252, 101.0)]:
            mean = df + ncp
            sd = math.sqrt(2.0 * (df + 2.0 * ncp))
            lo = max(0.0, mean - 30.0 * sd - 100.0)
            hi = mean + 30.0 * sd + 300.0
            assert chi2_cdf(lo, df, ncp=ncp) in (0.0, stats.ncx2.cdf(lo, df, ncp) if ncp else stats.chi2.cdf(lo, df))
            assert chi2_cdf(hi, df, ncp=ncp) == 1.0

    def test_monotone_in_x(self):
        xs = np.linspace(0.1, 60.0, 120)
        vals = [chi2_cdf(x, 8, ncp=12.0) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            chi2_cdf(1.0, 0)
        with pytest.raises(DomainError):
            chi2_cdf(1.0, 5, ncp=-0.5)


class TestChi2Quantile:
    def test_frozen_values(self):
        assert chi2_quantile(0.95, 10) == pytest.approx(18.307038053275146, rel=1e-10)
        p = tau(2.0)  # exact two-sided one-sigma mass
        assert chi2_quantile(p, 1) == pytest.approx(1.0, rel=1e-9)
        assert chi2_quantile(0.5, 20, ncp=5.0) == pytest.approx(24.22386704502668, rel=1e-10)

    def test_round_trip(self):
        rng = np.random.default_rng(108)
        for _ in range(60):
            df = int(rng.integers(1, 300))
            ncp = float(rng.choice([0.0, rng.uniform(0.0, 120.0)]))
            u = float(rng.uniform(0.001, 0.999))
            q = chi2_quantile(u, df, ncp=ncp)
            assert chi2_cdf(q, df, ncp=ncp) == pytest.approx(u, abs=1e-9)

    def test_domain(self):
        for u in [0.0, 1.0, -0.2, 1.2]:
            with pytest.raises(DomainError):
                chi2_quantile(u, 5)


def chi2_cdf_mp(x, df, ncp):
    """40-digit oracle for ``P(||N(mu, I_df)||^2 <= x)`` with ``sum(mu^2) = ncp``.

    The central law is mpmath's regularized incomplete gamma function.  The
    noncentral law is the Poisson(ncp/2) mixture of central laws with df + 2k
    degrees of freedom, summed over k within 15 standard deviations (plus 40)
    of the Poisson mean, where the neglected mass is below 1e-40.  The terms
    follow from one incomplete gamma value by the recurrences
    ``P(a + 1, y) = P(a, y) - y^a e^-y / Gamma(a + 1)`` and
    ``w(k + 1) = w(k) * h / (k + 1)``.
    """
    with mp.workdps(40):
        x, a = mp.mpf(x), mp.mpf(df) / 2
        if x <= 0:
            return mp.mpf(0)
        y = x / 2
        if ncp == 0:
            return mp.gammainc(a, 0, y, regularized=True)
        h = mp.mpf(ncp) / 2
        spread = 15.0 * math.sqrt(ncp / 2.0) + 40.0
        k_lo = max(0, math.floor(ncp / 2.0 - spread))
        k_hi = math.ceil(ncp / 2.0 + spread)
        p = mp.gammainc(a + k_lo, 0, y, regularized=True)
        w = mp.exp(-h + k_lo * mp.log(h) - mp.loggamma(k_lo + 1))
        t = mp.exp((a + k_lo) * mp.log(y) - y - mp.loggamma(a + k_lo + 1))
        total = mp.mpf(0)
        for k in range(k_lo, k_hi + 1):
            total += w * p
            p -= t
            w *= h / (k + 1)
            t *= y / (a + k + 1)
        return total


ORACLE_DFS = (1, 3, 12, 252, 4095)
ORACLE_NCPS = (0.0, 0.5, 5.0, 500.0, 5000.0)
ORACLE_US = (1e-10, 1e-6, 1e-3, 0.05, 0.5, 0.9, 0.999, 1.0 - 1e-6)


def _oracle_xs(df, ncp):
    """From far below to far above the bulk: mean +- up to 40 sd, mean/1000, 10*mean."""
    mean, sd = df + ncp, math.sqrt(2.0 * (df + 2.0 * ncp))
    zs = (-12, -6, -3, -1, 0, 1, 3, 6, 12, 40)
    return sorted({mean * 1e-3, mean * 10.0} | {mean + z * sd for z in zs if mean + z * sd > 0})


class TestChi2Oracle:
    """The accuracy the module docstring states, against ``chi2_cdf_mp``."""

    @pytest.mark.parametrize("ncp", ORACLE_NCPS)
    @pytest.mark.parametrize("df", ORACLE_DFS)
    def test_cdf_absolute_error(self, df, ncp):
        errors = {
            x: abs(chi2_cdf(x, df, ncp=ncp) - float(chi2_cdf_mp(x, df, ncp)))
            for x in _oracle_xs(df, ncp)
        }
        assert max(errors.values()) <= 1e-12, errors

    @pytest.mark.parametrize("ncp", ORACLE_NCPS)
    @pytest.mark.parametrize("df", ORACLE_DFS)
    def test_quantile_relative_error(self, df, ncp):
        errors = {}
        for u in ORACLE_US:
            q = chi2_quantile(u, df, ncp=ncp)
            with mp.workdps(40):
                errors[u] = float(abs(chi2_cdf_mp(q, df, ncp) - mp.mpf(u)) / min(u, 1.0 - u))
        assert max(errors.values()) <= 1e-8, errors

    @pytest.mark.parametrize("m", ORACLE_DFS)
    def test_qconst_defining_equation(self, m):
        residuals = {}
        for beta, xi in ((0.05, 0.05), (0.025, 0.1), (1e-6, 0.5), (0.3, 0.6), (1e-3, 1e-3)):
            c = qconst(m, beta, xi)
            t_star = chi2_quantile(1.0 - xi, m)
            with mp.workdps(40):
                ncp = mp.mpf(c) ** 2 * m
                residuals[beta, xi] = float(abs(chi2_cdf_mp(t_star, m, ncp) - beta) / beta)
        assert max(residuals.values()) <= 1e-10, residuals

    def test_qconst_rejects_a_root_that_misses(self):
        # Far below the library's range the noncentral root misses its equation
        # by orders of magnitude; that is an error, not a value.
        with pytest.raises(DomainError):
            qconst(1, 1e-80, 0.5)

    @pytest.mark.parametrize("call", [
        lambda: chi2_cdf(1e12, 5, ncp=1e12),
        lambda: chi2_quantile(0.5, 5, ncp=1e12),
    ])
    def test_non_finite_library_value_raises(self, call):
        with pytest.raises(DomainError):
            call()


class TestKappa:
    def test_frozen_values(self):
        assert kappa(0.05, 0.05) == pytest.approx(1.2838525531118048, rel=1e-12)
        assert kappa(0.1, 0.1) == pytest.approx(1.2137629358245081, rel=1e-12)
        assert kappa(0.05, 0.1) == pytest.approx(1.2623737522829246, rel=1e-12)

    def test_defining_identity(self):
        rng = np.random.default_rng(109)
        for _ in range(100):
            alpha = float(rng.uniform(0.001, 0.45))
            gamma = float(rng.uniform(0.001, 1.0 - 2.0 * alpha - 0.001))
            k = kappa(alpha, gamma)
            delta = 1.0 - gamma - 2.0 * alpha
            assert k**4 == pytest.approx(2.0 * math.log1p(4.0 * delta * delta), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            kappa(0.0, 0.1)
        with pytest.raises(DomainError):
            kappa(0.5, 0.1)
        with pytest.raises(DomainError):
            kappa(0.05, 0.9)  # gamma >= 1 - 2 alpha


class TestQConst:
    def test_frozen_values(self):
        frozen = {
            1: 3.6048174842411043,
            2: 2.7787799144438146,
            5: 1.9889763384166574,
            10: 1.561586909114564,
            26: 1.1387886220443417,
            50: 0.9280972097680501,
            100: 0.7539740812220541,
            252: 0.578502635477814,
            500: 0.47874674032589903,
            1000: 0.39718697637697375,
        }
        for m, want in frozen.items():
            assert qconst(m, 0.05, 0.05) == pytest.approx(want, rel=1e-9), m

    def test_defining_equation_residual_scipy(self):
        # Independent check through scipy.stats: with c = qconst(m, beta, xi),
        # the central upper tail of the chi-square at the beta-quantile of the
        # noncentral law (noncentrality c^2 m) must equal xi.
        for m in [1, 5, 50, 252, 1000]:
            c = qconst(m, 0.05, 0.05)
            t = stats.ncx2.ppf(0.05, m, c * c * m)
            resid = abs(0.05 - (1.0 - stats.chi2.cdf(t, m)))
            assert resid < 1e-6, (m, resid)

    def test_monotone_decreasing(self):
        vals = [qconst(m, 0.05, 0.05) for m in [1, 4, 16, 64, 256, 1000]]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_other_levels(self):
        assert qconst(252, 0.025, 0.1) == pytest.approx(0.5760052928467428, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            qconst(0, 0.05, 0.05)
        with pytest.raises(DomainError):
            qconst(10, 0.97, 0.05)  # beta >= 1 - xi
        with pytest.raises(DomainError):
            qconst(10, 0.05, 0.0)


class TestEntryPointsTakeRealNumbersOnly:
    """A bool, a str or a fractional count would otherwise run silently on a
    coerced value (``float(True)``, ``float("0.1")``, ``int(2.5)``)."""

    @pytest.mark.parametrize("func, args", [
        (normal_cdf, ("1.5",)),
        (normal_cdf, (True,)),
        (z_upper, ("0.1",)),
        (z_upper, (True,)),
        (tau, (True,)),
        (tau, ("1.0",)),
        (tau_inv, ("0.5",)),
        (chi2_cdf, ("3", True)),
        (chi2_cdf, (3.0, 2.0, "1")),
        (chi2_quantile, ("0.5", 2.0)),
        (chi2_quantile, (0.5, np.bool_(True))),
        (kappa, ("0.1", "0.1")),
        (qconst, (2.5, 0.05, 0.1)),
        (qconst, (True, 0.05, 0.1)),
        (qconst, ("4", 0.05, 0.1)),
        (econst, (2.5, 0.05, 0.1)),
        (birge_bounds, (1.0, True, 0.5)),
        (tau, (10**400,)),  # float() would raise OverflowError
    ])
    def test_rejected(self, func, args):
        with pytest.raises(DomainError):
            func(*args)

    def test_a_cached_equal_value_does_not_let_a_bool_through(self):
        # True == 1 and hashes alike, so an untyped cache would answer
        # qconst(True, ...) from qconst(1, ...) without checking it.
        qconst(1, 0.05, 0.1)
        chi2_quantile(0.5, 1.0)
        with pytest.raises(DomainError):
            qconst(True, 0.05, 0.1)
        with pytest.raises(DomainError):
            chi2_quantile(0.5, True)
        before = z_upper.cache_info().currsize
        with pytest.raises(DomainError):
            z_upper("0.2")
        assert z_upper.cache_info().currsize == before

    def test_numpy_numbers_accepted(self):
        assert z_upper(np.float64(0.05)) == z_upper(0.05)
        assert normal_cdf(np.float32(0.0)) == 0.5
        assert chi2_cdf(np.int64(3), 2) == chi2_cdf(3.0, 2.0)
        assert qconst(np.int64(4), 0.05, 0.1) == qconst(4, 0.05, 0.1)


# The smallest double whose square is above 0, and the double below it.
_SIGMA_CUTOFF = 1.5717277847026288e-162
_SIGMA_BELOW = 1.5717277847026285e-162

# Not numbers to any check: a bool is no number and no count here.
_NOT_NUMBERS = [True, False, np.bool_(True), "1", None, [1.0]]

# (helper, extra arguments, accepted values, rejected values besides _NOT_NUMBERS)
_HELPERS = [
    ("_number", (), [0.5, -3, np.float32(0.5), np.int64(2), math.inf], [10**400]),
    ("_finite", (), [0.0, -1e308, np.float64(2.5), 7], [math.nan, math.inf, -math.inf, 10**400]),
    ("_positive", (), [5e-324, 1e308, np.float32(0.5), 3], [0.0, -1.0, math.nan, math.inf, -math.inf]),
    ("_nonnegative", (), [0.0, 1.0, np.float64(2.0), 0], [-5e-324, math.nan, math.inf, -math.inf]),
    ("_probability", (), [5e-324, 0.5, np.float64(1.0 - 2.0**-53)],
     [0.0, 1.0, -0.5, 1.5, math.nan, math.inf, -math.inf]),
    ("_sigma", (), [_SIGMA_CUTOFF, 1.0, np.float64(2.0), 1],
     [_SIGMA_BELOW, 1e-200, 5e-324, 0.0, -1.0, math.nan, math.inf, -math.inf]),
    ("_count", (1,), [1, 2**64], [0, -1, 1.0, np.int64(1), np.uint8(1), math.nan, math.inf]),
    ("_size", (1,), [1, np.int64(4), np.uint8(3)], [0, -1, 1.0, np.float64(2.0), math.nan, math.inf]),
]


class TestArgumentChecks:
    """Every numeric argument of the package goes through one of these."""

    @pytest.mark.parametrize("helper, extra, value", [
        (helper, extra, value) for helper, extra, good, _ in _HELPERS for value in good
    ])
    def test_accepted(self, helper, extra, value):
        got = getattr(specfun, helper)("x", value, *extra)
        assert got == value
        assert type(got) is (int if extra else float)

    @pytest.mark.parametrize("helper, extra, value", [
        (helper, extra, value) for helper, extra, _, bad in _HELPERS for value in bad + _NOT_NUMBERS
    ])
    def test_rejected(self, helper, extra, value):
        with pytest.raises(DomainError, match="x"):
            getattr(specfun, helper)("x", value, *extra)

    def test_minimum(self):
        assert specfun._count("seed", 0, 0) == 0
        assert specfun._size("d", np.int64(0), 0) == 0
        with pytest.raises(DomainError, match="at least 3"):
            specfun._size("n", 2, 3)

    @pytest.mark.parametrize("value", [
        np.arange(3), np.arange(3, dtype=np.uint8), np.ones(2, dtype=np.float32),
        [1, 2], [0.5, -0.5], np.ones(3, dtype=">f8"),
    ])
    def test_finite_array_accepted(self, value):
        got = specfun._finite_array("x", value)
        assert got.dtype == np.float64 and got.dtype.isnative
        assert np.array_equal(got, np.asarray(value, dtype=np.float64))

    def test_finite_array_keeps_float64_input(self):
        y = np.linspace(0.0, 1.0, 5)
        assert specfun._finite_array("x", y) is y

    @pytest.mark.parametrize("value", [
        [True, False], np.array([1, 0], dtype=bool), ["1", "2"], np.array([1.0, None], dtype=object),
        [1j, 2.0], [1.0, math.nan], [math.inf], [[1.0], [-math.inf]], [10**400], [[1.0, 2.0], [3.0]],
    ])
    def test_finite_array_rejected(self, value):
        with pytest.raises(DomainError, match="x"):
            specfun._finite_array("x", value)

    @pytest.mark.parametrize("call", [
        lambda n, d: acceptance_threshold(n, d, 0.1),
        lambda n, d: bands._feasible_rhs(n, d, 0.5, 0.03, 1.0),
        lambda n, d: v2_term(n, d, 0.1, 0.1),
    ])
    def test_sizes_take_numpy_integers(self, call):
        assert call(np.int64(16), np.int64(4)) == call(16, 4)
        assert call(np.uint16(16), np.int32(4)) == call(16, 4)
        with pytest.raises(DomainError):
            call(16.0, 4)
        with pytest.raises(DomainError):
            call(16, True)


# The inputs of the golden table below, and the outcome of each range check
# on them: the returned number, or the message of the DomainError.  The table
# was recorded before the checks were built by one factory
# (``specfun._real``); the one change since is that an omega below 0, NaN or
# infinite now reads "must lie in [0, 1]" instead of "must be nonnegative and
# finite".
_GOLDEN_INPUTS = (0.5, np.float32(0.5), 1, 0.0, -1.0, math.nan, math.inf, True, "1", 10**400)
_GOLDEN_SPACE = dyadic_blocks(8, 2)


def _refused(name, *ranged):
    """The refusals that end a golden row: the range messages ``ranged``, then
    those of the three inputs that are no real number in range of a double."""
    return (*ranged, f"{name} must be a real number, got True",
            f"{name} must be a real number, got '1'", f"{name} is beyond the double range")


_SIGMA_RANGE = "x must be positive with a square that is finite and above 0, got "
_OMEGA_RANGE = "omega must lie in [0, 1], got "
_GOLDEN = {
    "_finite": (lambda v: specfun._finite("x", v), (
        0.5, 0.5, 1.0, 0.0, -1.0, *_refused("x", "x must be finite, got nan", "x must be finite, got inf"))),
    "_positive": (lambda v: specfun._positive("x", v), (
        0.5, 0.5, 1.0, *(f"x must be positive and finite, got {v}" for v in ("0.0", "-1.0", "nan", "inf")),
        *_refused("x"))),
    "_nonnegative": (lambda v: specfun._nonnegative("x", v), (
        0.5, 0.5, 1.0, 0.0, *(f"x must be nonnegative and finite, got {v}" for v in ("-1.0", "nan", "inf")),
        *_refused("x"))),
    "_probability": (lambda v: specfun._probability("x", v), (
        0.5, 0.5, *(f"x must lie in (0, 1), got {v}" for v in ("1.0", "0.0", "-1.0", "nan", "inf")),
        *_refused("x"))),
    "_sigma": (lambda v: specfun._sigma("x", v), (
        0.5, 0.5, 1.0, *(_SIGMA_RANGE + v for v in ("0.0", "-1.0", "nan", "inf")), *_refused("x"))),
    "w_target": (lambda v: w_target(v, 0.1, 0.1), (
        1.0364333894937896, 1.0364333894937896, 2.072866778987579, 0.0,
        *_refused("omega", *(_OMEGA_RANGE + v for v in ("-1.0", "nan", "inf"))))),
    "modulus": (lambda v: modulus(0.5, v, 4, 0.1, 0.1), (
        0.32360679774997897, 0.32360679774997897, 0.8071067811865476, 0.1,
        *_refused("omega", *(_OMEGA_RANGE + v for v in ("-1.0", "nan", "inf"))))),
    "make_spoiler": (lambda v: float(make_spoiler(_GOLDEN_SPACE, 1.0, 0.1, v)[0]), (
        1.274744871391589, 1.274744871391589, 2.449489742783178,
        *_refused("margin", *(f"margin must lie in (0, 1], got {v}"
                              for v in ("0.0", "-1.0", "nan", "inf"))))),
    "tau_inv": (tau_inv, (
        1.3489795003921634, 1.3489795003921634, "t must lie in [0, 1), got 1.0", 0.0,
        *_refused("t", *(f"t must lie in [0, 1), got {v}" for v in ("-1.0", "nan", "inf"))))),
}


class TestRangeChecksGolden:
    """Each range check, and each range spelled through one (omega, margin,
    ``t``), on the same ten inputs: the exact return or the exact message."""

    @pytest.mark.parametrize("check", list(_GOLDEN))
    def test_golden(self, check):
        call, outcomes = _GOLDEN[check]
        assert len(outcomes) == len(_GOLDEN_INPUTS)
        for value, want in zip(_GOLDEN_INPUTS, outcomes):
            if isinstance(want, str):
                with pytest.raises(DomainError) as info:
                    call(value)
                assert str(info.value) == want, value
                continue
            got = call(value)
            assert type(got) is float and got == want, value
            if check.startswith("_"):  # the check itself: a float comes back as itself
                assert (got is value) == (type(value) is float), value


# A scale, its first level and its band parameters, for the wrong-typed rows
# below: each passes one of them where another is wanted.
_SCALE = dyadic_scale(16, [1, 4])
_SPACE = _SCALE.levels[0]
_PARAMS = BandParams.equal_split(0.1, 0.2, 1.0, nested_tuning(_SCALE, 0.1, 0.2))

# (argument named in the message, call with that argument of a wrong type)
_WRONG_TYPES = [
    ("scale", lambda: adaptive_band_nested(_SPACE, np.zeros(16), _PARAMS)),
    ("params", lambda: adaptive_band_nested(_SCALE, np.zeros(16), _PARAMS.tuning)),
    ("scale", lambda: min_feasible_gamma(_SPACE, _PARAMS)),
    ("params", lambda: level_widths(_SCALE, _PARAMS.tuning)),
    ("space", lambda: t_statistic(_SCALE, np.zeros(16), 1.0)),
    ("space", lambda: surrogate_target(_SCALE, np.zeros(16), 0.1, 0.1)),
    ("space", lambda: min_two_norm_given_inf(_SCALE, 0.1)),
    ("space", lambda: max_inf_norm_given_two(_SCALE, 0.1)),
    ("tuning", lambda: BandParams.equal_split(0.1, 0.2, 1.0, (0.5, 0.5))),
    ("scenario", lambda: run(_PARAMS)),
    ("levels", lambda: NestedScale(5)),
    ("kind", lambda: Scenario(kind=[1], truth=np.zeros(16), reps=10, seed=1)),
]


class TestStructuredArguments:
    """A wrong-typed structured argument is a DomainError naming it, not an
    AttributeError or a TypeError from deeper down."""

    @pytest.mark.parametrize("name, call", _WRONG_TYPES, ids=[
        "adaptive_band_nested-scale", "adaptive_band_nested-params", "min_feasible_gamma",
        "level_widths", "t_statistic", "surrogate_target", "min_two_norm_given_inf",
        "max_inf_norm_given_two", "equal_split", "run", "NestedScale", "Scenario",
    ])
    def test_rejected(self, name, call):
        with pytest.raises(DomainError, match=f"^{name} must be a "):
            call()

    def test_instance(self):
        assert specfun._instance("space", _SPACE, type(_SPACE)) is _SPACE
        with pytest.raises(DomainError, match="^x must be a bool, got int$"):
            specfun._instance("x", 1, bool)


class TestEConst:
    def test_branches(self):
        # Small m: the quantile-gap constant dominates.
        assert econst(1, 0.05, 0.05) == pytest.approx(3.6048174842411043, rel=1e-9)
        # Large m: twice kappa dominates.
        assert econst(252, 0.025, 0.05) == pytest.approx(2.6074839060988677, rel=1e-10)
        assert econst(252, 0.05, 0.1) == pytest.approx(2.524747504565849, rel=1e-10)
        assert econst(10_000, 0.05, 0.05) == pytest.approx(2.5677051062236096, rel=1e-10)

    def test_is_max_of_components(self):
        for m, alpha, gamma in [(1, 0.05, 0.05), (40, 0.1, 0.1), (500, 0.025, 0.1)]:
            e = econst(m, alpha, gamma)
            assert e == max(qconst(m, alpha, gamma), 2.0 * kappa(alpha, gamma))


class TestBirgeBounds:
    def test_frozen_value(self):
        lo, hi = birge_bounds(0.0, 1.0, 0.5)
        assert lo == pytest.approx(-0.6651092223153954, rel=1e-12)
        assert hi == pytest.approx(1.0 + 2.0 * math.sqrt(math.log(2.0)) + 2.0 * math.log(2.0), rel=1e-12)

    def test_formula(self):
        rng = np.random.default_rng(110)
        for _ in range(50):
            z = float(rng.uniform(0.0, 80.0))
            d = float(rng.uniform(0.5, 120.0))
            u = float(rng.uniform(0.001, 0.999))
            lo, hi = birge_bounds(z, d, u)
            assert lo == pytest.approx(z + d - 2.0 * math.sqrt((2.0 * z + d) * math.log(1.0 / u)), rel=1e-12)
            assert hi == pytest.approx(
                z + d + 2.0 * math.sqrt((2.0 * z + d) * math.log(1.0 / (1.0 - u)))
                + 2.0 * math.log(1.0 / (1.0 - u)),
                rel=1e-12,
            )

    def test_sandwich_spot_checks(self):
        # The arguments parameterize the mean structure: a chi-square with d
        # degrees of freedom and sum-of-squares noncentrality z has mean z + d
        # and variance 2(2z + d), and its u-quantile must land between the two
        # bounds.
        for z, d, u in [(0.0, 10.0, 0.5), (5.0, 3.0, 0.9), (50.0, 100.0, 0.999), (2.0, 1.0, 0.01)]:
            lo, hi = birge_bounds(z, d, u)
            q = chi2_quantile(u, int(d), ncp=z)
            assert lo <= q <= hi, (z, d, u, lo, q, hi)

    def test_domain(self):
        with pytest.raises(DomainError):
            birge_bounds(-1.0, 5.0, 0.5)
        with pytest.raises(DomainError):
            birge_bounds(0.0, 5.0, 1.0)


class TestPerformance:
    def test_quantile_gap_constant_speed(self):
        start = time.perf_counter()
        for m in [1, 10, 100, 500, 1000]:
            qconst(m, 0.049999, 0.050001)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, elapsed
