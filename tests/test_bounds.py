"""Tests for minimum-width calculators and rate formulas.

The headline identity — that the recommended tuning makes the adaptive lower
width collapse onto the fixed-subspace target width — is checked bitwise.
Rate formulas are pinned against independently evaluated frozen values and
their stated asymptotic behavior.
"""

import math

import numpy as np
import pytest

from surrband import specfun
from surrband import (
    DomainError,
    LowerBoundReport,
    besov_rate,
    bonferroni_band,
    dyadic_blocks,
    kappa,
    lipschitz_rate,
    modulus,
    optimal_tuning,
    rn_lower_bound,
    sobolev_rate,
    surrogate_lower_bound,
    tau_inv,
    v2_term,
    w_target,
    z_upper,
)


class TestWTarget:
    def test_formula(self):
        # sigma * Omega * tau_inv(1 - 2 alpha - gamma)
        got = w_target(0.125, 0.1, 0.1)
        assert got == pytest.approx(0.125 * tau_inv(1.0 - 0.2 - 0.1), rel=1e-14)
        assert got == pytest.approx(0.25910834737344746, rel=1e-11)

    def test_sigma_linear(self):
        assert w_target(0.125, 0.1, 0.1, sigma=3.0) == pytest.approx(3.0 * w_target(0.125, 0.1, 0.1), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            w_target(0.125, 0.45, 0.2)  # 1 - 2a - g <= 0

    @pytest.mark.parametrize("args", [(True, 0.1, 0.1), (0.5, 0.1, 0.1, "2"), (0.5, "0.1", 0.1), (0.5, 0.1, False)])
    def test_bools_and_strings_rejected(self, args):
        with pytest.raises(DomainError):
            w_target(*args)


class TestV2Term:
    def test_frozen(self):
        assert v2_term(256, 4, 0.05, 0.05) == pytest.approx(0.31970196206987733, rel=1e-12)

    def test_formula(self):
        got = v2_term(256, 4, 0.05, 0.05)
        want = kappa(0.05, 0.05) * (252.0**0.25) / 16.0
        assert got == pytest.approx(want, rel=1e-14)

    def test_baraud_eps_coincides(self):
        # With separation parameter delta = 1 - gamma - 2 alpha, Baraud's
        # critical testing radius (n-d)^(1/4) n^(-1/2) (2 log(1 + 4 delta^2))^(1/4)
        # reproduces v2 exactly.
        for n, d, alpha, gamma in [(256, 4, 0.05, 0.05), (1024, 16, 0.1, 0.1), (64, 1, 0.025, 0.1)]:
            delta = 1.0 - gamma - 2.0 * alpha
            baraud = (n - d) ** 0.25 / math.sqrt(n) * (2.0 * math.log1p(4.0 * delta**2)) ** 0.25
            assert v2_term(n, d, alpha, gamma) == pytest.approx(baraud, rel=1e-14)

    def test_full_space_gives_zero(self):
        # No residual degrees of freedom: the detection radius collapses.
        assert v2_term(4, 4, 0.05, 0.05) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            v2_term(4, 5, 0.05, 0.05)  # d beyond n


class TestSurrogateLowerBound:
    def test_designed_equality_bitwise(self):
        # At the recommended tuning the lower width equals the target width
        # exactly: eps2 = 2 v2 kills the detection term and the sup radius is
        # the target width itself.
        s = dyadic_blocks(256, 4)
        t = optimal_tuning(s, 0.05, 0.05)
        report = surrogate_lower_bound(s, t.eps2[0], t.eps_inf[0], 0.05, 0.05)
        assert report.lower_width == report.w_target

    def test_detection_term_active_when_radius_small(self):
        s = dyadic_blocks(256, 4)
        v2 = v2_term(256, 4, 0.05, 0.05)
        report = surrogate_lower_bound(s, 1.9 * v2, 50.0, 0.05, 0.05)
        assert report.v1 == report.v2 == pytest.approx(v2, rel=1e-14)

    def test_detection_term_vanishes_when_radius_large(self):
        s = dyadic_blocks(256, 4)
        v2 = v2_term(256, 4, 0.05, 0.05)
        report = surrogate_lower_bound(s, 2.0 * v2, 50.0, 0.05, 0.05)
        assert report.v1 == 0.0

    def test_v0_is_min_of_three(self):
        s = dyadic_blocks(256, 4)
        eps2, eps_inf = 0.01, 0.02
        report = surrogate_lower_bound(s, eps2, eps_inf, 0.05, 0.05)
        want = min(math.sqrt(256.0) * eps2, eps_inf, tau_inv(1.0 - 0.1 - 0.05))
        assert report.v0 == pytest.approx(want, rel=1e-13)

    def test_lower_width_is_max(self):
        s = dyadic_blocks(256, 4)
        report = surrogate_lower_bound(s, 0.01, 0.02, 0.05, 0.05)
        assert report.lower_width == max(report.w_target, report.v0, report.v1)

    def test_report_dict(self):
        s = dyadic_blocks(256, 4)
        report = surrogate_lower_bound(s, 0.5, 0.3, 0.05, 0.05)
        d = report.to_dict()
        assert set(d) == {"wTarget", "v0", "v1", "v2", "lowerWidth"}
        assert d["lowerWidth"] == report.lower_width
        assert all(type(v) is float for v in d.values())

    def test_full_space_rejected(self):
        with pytest.raises(DomainError):
            surrogate_lower_bound(dyadic_blocks(4, 4), 0.1, 0.1, 0.05, 0.05)


class TestRnLowerBound:
    def test_frozen(self):
        # 0.7 * sqrt(log 100), evaluated independently through math.
        assert rn_lower_bound(10_000, 0.05, 0.1) == pytest.approx(1.5021762184025433, rel=1e-12)

    def test_prefactor_at_unit_log(self):
        # n eps^2 = e makes the log factor exactly 1, exposing the prefactor.
        n = 100
        eps = math.sqrt(math.e / n)
        got = rn_lower_bound(n, 0.05, eps)
        assert got == pytest.approx(1.0 - 0.1 - 2.0 * eps, rel=1e-12)

    def test_grows_like_sqrt_log(self):
        a = rn_lower_bound(10**4, 0.05, 0.1)
        b = rn_lower_bound(10**8, 0.05, 0.1)
        assert b / a == pytest.approx(math.sqrt(math.log(1e8 * 0.01) / math.log(1e4 * 0.01)), rel=1e-10)

    def test_sigma_linear(self):
        assert rn_lower_bound(10_000, 0.05, 0.1, sigma=2.0) == pytest.approx(
            2.0 * rn_lower_bound(10_000, 0.05, 0.1), rel=1e-14
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            rn_lower_bound(10_000, 0.05, 0.45)  # eps >= 1/2 - alpha
        with pytest.raises(DomainError):
            rn_lower_bound(50, 0.05, 0.1)  # n eps^2 <= 1

    def test_within_constant_of_simultaneous_width(self):
        # The lower bound is achieved up to constants by the simple
        # simultaneous band: check it never exceeds three times that width's
        # half, across six orders of magnitude.
        for n in [10**2, 10**3, 10**4, 10**5, 10**6]:
            lower = rn_lower_bound(n, 0.05, 0.1) if n * 0.01 > 1 else 0.0
            half = z_upper(0.05 / (2 * n))
            assert lower <= 3.0 * half, n


class TestRangeRefusals:
    """Arguments each of the right type but outside the formula's range."""

    @pytest.mark.parametrize(
        "call, stem",
        [
            (lambda: w_target(1.5, 0.1, 0.1), r"omega must lie in \[0, 1\], got 1.5"),
            (lambda: modulus(0.1, 1.0 + 2.0**-52, 16, 0.1, 0.1), r"omega must lie in \[0, 1\]"),
            (lambda: lipschitz_rate(100, 1.0, 1.0, 0.1, 0.4), r"need eps < 1/2 - alpha"),
            (lambda: lipschitz_rate(100, 1.0, 1.0, 0.3, 0.25), r"need eps < 1/2 - alpha"),
            # 1 - 2*alpha - gamma is exactly 0 here: the boundary is refused,
            # as in kappa
            (lambda: w_target(1.0, 0.25, 0.5),
             r"gamma must lie in \(0, 1 - 2\*alpha\); got alpha=0.25, gamma=0.5"),
            (lambda: surrogate_lower_bound(dyadic_blocks(16, 2), 0.1, 0.1, 0.5, 0.1),
             r"gamma must lie in \(0, 1 - 2\*alpha\); got alpha=0.5, gamma=0.1"),
        ],
    )
    def test_refused(self, call, stem):
        with pytest.raises(DomainError, match=stem):
            call()


class TestLipschitzRate:
    def test_frozen(self):
        assert lipschitz_rate(10_000, 1.0, 1.0, 0.05, 0.05) == pytest.approx(0.05761763297034757, rel=1e-12)

    def test_bracket_tends_to_one(self):
        # The rate divided by its leading term (log n / n)^(1/3) (L sigma^2 /
        # 2)^(1/3) approaches 1; at n = 1e6 it is within 25%.
        lead = (math.log(10**6) / 10**6) ** (1.0 / 3.0) * 0.5 ** (1.0 / 3.0)
        bracket = lipschitz_rate(10**6, 1.0, 1.0, 0.05, 0.05) / lead
        assert abs(bracket - 1.0) <= 0.25

    def test_monotone_in_lipschitz_constant(self):
        a = lipschitz_rate(10_000, 1.0, 1.0, 0.05, 0.05)
        b = lipschitz_rate(10_000, 4.0, 1.0, 0.05, 0.05)
        assert b > a

    def test_domain_inner_log(self):
        with pytest.raises(DomainError):
            lipschitz_rate(3, 1.0, 1.0, 0.05, 0.01)


class TestRateFormulas:
    def test_sobolev_frozen(self):
        assert sobolev_rate(1024, 2.0) == pytest.approx(0.0625, rel=1e-12)

    def test_sobolev_formula(self):
        for n, p in [(100, 1.0), (10**6, 3.0)]:
            assert sobolev_rate(n, p) == pytest.approx(n ** (-p / (2.0 * p + 1.0)), rel=1e-13)

    def test_besov_formula(self):
        assert besov_rate(256, 2.0, 0.25) == pytest.approx(256.0 ** (1.0 / 0.25), rel=1e-12)

    def test_besov_degenerate_exponent(self):
        with pytest.raises(DomainError):
            besov_rate(256, 2.0, 0.0)  # 1/p - xi - 1/2 = 0

    def test_domain(self):
        with pytest.raises(DomainError):
            sobolev_rate(0, 2.0)
        with pytest.raises(DomainError):
            sobolev_rate(16, -1.0)


class TestModulus:
    def test_zero_at_origin(self):
        assert modulus(0.0, 0.5, 16, 0.0, 0.0) == 0.0

    def test_full_space_reduction(self):
        # Omega = 1 with slack caps gives u sqrt(2 n).
        for u in [0.1, 0.7, 2.0]:
            got = modulus(u, 1.0, 16, 100.0, 100.0)
            assert got == pytest.approx(u * math.sqrt(32.0), rel=1e-12)

    def test_probed_coordinate_scenario(self):
        # One-dimensional subspace on four points with probed-coordinate
        # leverage 1/4 and slack caps: the display equals sqrt(1 + Omega^2)
        # times the exact two-point diameter 2u.
        for u in [0.1, 0.25, 0.5, 1.0, 2.0]:
            got = modulus(u, 0.25, 4, 50.0, 50.0)
            assert got / (2.0 * u) == pytest.approx(1.0307764064044151, rel=1e-12)

    def test_sup_cap_binds(self):
        # Tiny eps_inf freezes the second term at eps_inf.
        base = modulus(1.0, 0.25, 4, 50.0, 1e-6)
        shrink = 0.25 * 2.0 * math.sqrt(0.0625 / 1.0625)
        assert base == pytest.approx(shrink + 1e-6, rel=1e-9)

    def test_two_norm_cap_binds(self):
        got = modulus(1.0, 0.25, 4, 0.001, 50.0)
        shrink = 0.25 * 2.0 * math.sqrt(0.0625 / 1.0625)
        assert got == pytest.approx(shrink + 0.001 * 2.0, rel=1e-9)

    def test_monotone_in_all_arguments(self):
        rng = np.random.default_rng(301)
        for _ in range(60):
            u = float(rng.uniform(0.0, 2.0))
            om = float(rng.uniform(0.01, 1.0))
            e2 = float(rng.uniform(0.0, 1.0))
            einf = float(rng.uniform(0.0, 1.0))
            base = modulus(u, om, 16, e2, einf)
            assert modulus(u + 0.1, om, 16, e2, einf) >= base - 1e-14
            assert modulus(u, min(om + 0.05, 1.0), 16, e2, einf) >= base - 1e-14
            assert modulus(u, om, 16, e2 + 0.1, einf) >= base - 1e-14
            assert modulus(u, om, 16, e2, einf + 0.1) >= base - 1e-14

    def test_natural_variant_rescales(self):
        # The natural-units form takes u and eps2 already multiplied by
        # sqrt(n); the two parameterizations must agree.
        rng = np.random.default_rng(302)
        for _ in range(40):
            u = float(rng.uniform(0.0, 2.0))
            om = float(rng.uniform(0.01, 1.0))
            e2 = float(rng.uniform(0.0, 1.0))
            einf = float(rng.uniform(0.0, 2.0))
            n = int(rng.integers(1, 64))
            rn = math.sqrt(n)
            a = modulus(u, om, n, e2, einf)
            b = modulus(u * rn, om, n, e2 * rn, einf, natural=True)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            modulus(-0.5, 0.5, 16, 1.0, 1.0)


class TestNoCoercion:
    """The shared checks take real numbers only: a bool or a string raises."""

    @pytest.mark.parametrize("check", [specfun._positive, specfun._nonnegative])
    @pytest.mark.parametrize("value", [True, "1", None])
    def test_rejected(self, check, value):
        with pytest.raises(DomainError):
            check("x", value)

    @pytest.mark.parametrize("call", [
        lambda: surrogate_lower_bound(dyadic_blocks(8, 2), "0.1", 0.3, 0.1, 0.1),
        lambda: rn_lower_bound(8, 0.1, True),
        lambda: besov_rate(8, 1.0, "0.1"),
        lambda: modulus(True, 0.5, 8, 0.5, 0.3),
    ])
    def test_entry_points_reject(self, call):
        with pytest.raises(DomainError):
            call()

    def test_numpy_numbers_pass(self):
        assert specfun._positive("x", np.float32(2.0)) == 2.0
        assert w_target(np.float64(0.5), 0.1, 0.1) == w_target(0.5, 0.1, 0.1)
