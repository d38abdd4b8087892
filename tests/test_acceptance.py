"""Certification gate: twelve end-to-end checks of the package guarantees.

Each test prints one ``[Ann] PASS``/``[Ann] FAIL`` line summarizing the
measured quantity against its bound, then asserts.  Monte Carlo checks use
fixed seeds and the stated replication counts; numerical checks use
independent oracles (directional grid search, simulation of the chi-square
law, closed forms) evaluated inside this module.
"""

import math
import time

import numpy as np
import pytest

from surrband import simulate
from surrband import (
    BandParams,
    NestedScale,
    Scenario,
    Subspace,
    birge_bounds,
    chi2_cdf,
    chi2_quantile,
    dyadic_blocks,
    dyadic_scale,
    kappa,
    level_widths,
    make_spoiler,
    min_feasible_gamma,
    min_two_norm_given_inf,
    modulus,
    nested_tuning,
    norm2,
    optimal_tuning,
    orthonormalize,
    qconst,
    run,
    sup_norm,
    surrogate_lower_bound,
    v2_term,
    w_target,
)

SEED = 20260823


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{tag}: {detail}"


# --- shared Monte Carlo run for criteria 1 and 2 ---------------------------


@pytest.fixture(scope="module")
def single_level_run():
    """10^4-rep run of the adaptive band at n=256, d=4, alpha=gamma=0.1."""
    space = dyadic_blocks(256, 4)
    scale = NestedScale((space,))
    tuning = optimal_tuning(space, 0.1, 0.1, achievable=True)
    params = BandParams.equal_split(0.1, 0.1, 1.0, tuning)
    widths = level_widths(scale, params)
    truth = np.repeat([0.8, -0.4, 1.2, 0.1], 64)  # a member of the subspace
    scenario = Scenario(
        kind="adaptive", truth=truth, reps=10_000, seed=SEED, scale=scale, params=params
    )
    start = time.perf_counter()
    report = run(scenario, width_threshold=widths[0])
    elapsed = time.perf_counter() - start
    return report, widths, elapsed, scale, params, tuning


class TestAcceptance:
    def test_a01_surrogate_coverage_in_model(self, single_level_run):
        report, _, elapsed, *_ = single_level_run
        p, se = report.surrogate_coverage, report.surrogate_se
        bound = 0.9 - 3.0 * se
        ok = p >= bound and elapsed < 30.0
        _verdict(
            "A01",
            ok,
            f"surrogate coverage {p:.4f} >= {bound:.4f} (0.9 - 3se), "
            f"runtime {elapsed:.1f}s < 30s (10^4 reps, n=256, d=4)",
        )

    def test_a02_width_guarantee(self, single_level_run):
        report, widths, *_ = single_level_run
        p = report.prob_width_le["prob"]
        se = report.prob_width_le["se"]
        bound = 1.0 - 0.1 - 3.0 * se
        ok = p >= bound
        _verdict(
            "A02",
            ok,
            f"P(width <= accepted width {widths[0]:.4f}) = {p:.4f} >= {bound:.4f} (1 - gamma - 3se)",
        )

    def test_a03_spoiler_surrogate_coverage(self):
        space = dyadic_blocks(256, 4)
        scale = NestedScale((space,))
        tuning = optimal_tuning(space, 0.1, 0.1, achievable=True)
        params = BandParams.equal_split(0.1, 0.1, 1.0, tuning)
        truth = make_spoiler(space, tuning.eps2[0], tuning.eps_inf[0], 0.5)
        scenario = Scenario(
            kind="adaptive", truth=truth, reps=10_000, seed=SEED + 1, scale=scale, params=params
        )
        report = run(scenario)
        p, se = report.surrogate_coverage, report.surrogate_se
        bound = 0.9 - 3.0 * se
        ok = p >= bound
        _verdict(
            "A03",
            ok,
            f"spoiler (margin 0.5): surrogate coverage {p:.4f} >= {bound:.4f}; "
            f"unconstrained true-mean coverage {report.true_coverage:.4f}",
        )

    def test_a04_nested_selection_and_width(self):
        scale = dyadic_scale(256, [1, 4, 16])
        tuning = nested_tuning(scale, 0.1, 0.1)
        params = BandParams.equal_split(0.1, 0.1, 1.0, tuning)  # alpha_j = 0.025
        floor = min_feasible_gamma(scale, params)
        assert floor < 0.1, f"gamma=0.1 infeasible (floor {floor})"
        widths = level_widths(scale, params)
        monotone = all(b >= a for a, b in zip(widths, widths[1:]))

        truth = np.repeat([1.5, 0.5, -0.5, -1.5], 64)  # level-2 member, not level-1
        scenario = Scenario(
            kind="adaptive", truth=truth, reps=10_000, seed=SEED + 2, scale=scale, params=params
        )
        report = run(scenario, width_threshold=widths[1])
        hist = report.level_histogram
        over = (hist.get("3", 0) + hist.get("4", 0)) / 10_000.0
        se_over = math.sqrt(max(over * (1.0 - over), 1e-12) / 10_000.0)
        p_w, se_w = report.prob_width_le["prob"], report.prob_width_le["se"]
        ok = (
            monotone
            and over <= 0.1 + 3.0 * se_over
            and p_w >= 1.0 - 0.1 - 3.0 * se_w
        )
        _verdict(
            "A04",
            ok,
            f"P(select beyond level 2) {over:.4f} <= {0.1 + 3.0 * se_over:.4f}; "
            f"P(width <= w2 {widths[1]:.4f}) = {p_w:.4f} >= {1.0 - 0.1 - 3.0 * se_w:.4f}; "
            f"widths {tuple(round(w, 3) for w in widths)} monotone={monotone}",
        )

    def test_a05_separation_constant_universal_bound(self):
        start = time.perf_counter()
        worst_q = 0.0
        worst_resid = 0.0
        for m in range(1, 1001):
            q = qconst(m, 0.05, 0.05)
            worst_q = max(worst_q, q)
            # Defining-equation residual: at the root, the noncentral mass
            # below the central upper 0.05-quantile is exactly 0.05.
            t_star = chi2_quantile(0.95, m)
            resid = abs(0.05 - chi2_cdf(t_star, m, ncp=q * q * m))
            worst_resid = max(worst_resid, resid)
        elapsed = time.perf_counter() - start
        ok = worst_q <= 6.25 and worst_resid <= 1e-6 and elapsed < 10.0
        _verdict(
            "A05",
            ok,
            f"max Q(m,.05,.05) over m=1..1000 is {worst_q:.4f} <= 6.25; "
            f"max defining-equation residual {worst_resid:.2e} <= 1e-6; runtime {elapsed:.1f}s < 10s",
        )

    def test_a06_chi_square_quantile_sandwich(self):
        violations = 0
        points = 0
        for z in [0.0, 0.5, 2.0, 10.0, 50.0]:
            for d in [1, 2, 5, 20, 100]:
                for u in [0.01, 0.1, 0.2, 0.5, 0.9, 0.95, 0.99, 0.999]:
                    points += 1
                    lo, hi = birge_bounds(z, float(d), u)
                    q = chi2_quantile(u, d, ncp=z)
                    if not (lo <= q <= hi):
                        violations += 1
        ok = violations == 0 and points == 200
        _verdict("A06", ok, f"quantile sandwich: {violations} violations over {points} grid points")

    def test_a07_leverage_closed_form_and_extremal_brute_force(self):
        worst_closed = 0.0
        for d, n in [(1, 8), (4, 256), (16, 1024)]:
            worst_closed = max(worst_closed, abs(dyadic_blocks(n, d).omega - math.sqrt(d / n)))

        rng = np.random.default_rng(7)
        eps_inf = 1.3
        worst_rel = 0.0
        for _ in range(20):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, min(n, 3)))
            space = Subspace(orthonormalize(rng.normal(size=(d, n))))
            claimed = min_two_norm_given_inf(space, eps_inf)
            # Brute force: minimize the two-norm over members with sup norm
            # eps_inf.  Unit-coefficient members have unit two-norm, so the
            # minimum is eps_inf / max over directions of the sup norm.
            if d == 1:
                peak = sup_norm(space.basis[0])
            else:
                theta = np.linspace(0.0, 2.0 * math.pi, 20001)
                combo = np.outer(np.cos(theta), space.basis[0]) + np.outer(
                    np.sin(theta), space.basis[1]
                )
                peak = float(np.max(np.abs(combo)))
            brute = eps_inf / peak
            worst_rel = max(worst_rel, abs(claimed - brute) / brute)
        ok = worst_closed <= 1e-12 and worst_rel <= 1e-4
        _verdict(
            "A07",
            ok,
            f"dyadic leverage max |omega - sqrt(d/n)| = {worst_closed:.2e} <= 1e-12; "
            f"extremal two-norm vs brute force: worst rel err {worst_rel:.2e} <= 1e-4 (20 subspaces)",
        )

    def test_a08_designed_equality_grid(self):
        space = dyadic_blocks(256, 4)
        worst = 0.0
        for alpha in [0.025, 0.05, 0.1]:
            for gamma in [0.025, 0.05, 0.1]:
                eps2 = 2.0 * v2_term(256, 4, alpha, gamma)
                assert eps2 == pytest.approx(
                    2.0 * kappa(alpha, gamma) * 252.0**0.25 / 16.0, rel=1e-14
                )
                eps_inf = w_target(space.omega, alpha, gamma)
                report = surrogate_lower_bound(space, eps2, eps_inf, alpha, gamma)
                worst = max(worst, abs(report.lower_width - report.w_target))
        ok = worst <= 1e-12
        _verdict(
            "A08",
            ok,
            f"lower width == target width: worst |difference| {worst:.2e} <= 1e-12 on 3x3 (alpha,gamma) grid",
        )

    def test_a09_noncentral_cdf_vs_simulation(self):
        points = [
            (5, 3.0, 7.0),
            (1, 0.5, 1.2),
            (10, 10.0, 18.0),
            (3, 0.0, 2.5),
            (252, 100.0, 380.0),
        ]
        draws = 10**6
        worst_sigmas = 0.0
        for i, (df, ncp, x) in enumerate(points):
            rng = np.random.default_rng(SEED + 100 + i)
            # Simulate ||N(mu, I_df)||^2 with ||mu||^2 = ncp: a central
            # chi-square with df-1 degrees plus one shifted square.
            shifted = (rng.normal(size=draws) + math.sqrt(ncp)) ** 2
            if df > 1:
                sample = rng.chisquare(df - 1, size=draws) + shifted
            else:
                sample = shifted
            p_hat = float(np.mean(sample <= x))
            se = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / draws)
            sigmas = abs(chi2_cdf(x, df, ncp=ncp) - p_hat) / se
            worst_sigmas = max(worst_sigmas, sigmas)
        ok = worst_sigmas <= 3.0
        _verdict(
            "A09",
            ok,
            f"distribution function vs 10^6-draw simulation at 5 points: worst deviation "
            f"{worst_sigmas:.2f} standard errors <= 3",
        )

    def test_a10_simultaneous_band_exact_coverage(self):
        n, alpha = 64, 0.05
        scenario = Scenario(
            kind="bonferroni", truth=np.zeros(n), reps=10_000, seed=SEED + 3, alpha=alpha, sigma=1.0
        )
        report = run(scenario)
        # By definition of the upper-tail quantile the per-coordinate miss
        # probability is exactly alpha/n.
        closed = (1.0 - alpha / n) ** n
        p, se = report.true_coverage, report.true_se
        ok = abs(p - closed) <= 3.0 * se
        _verdict(
            "A10",
            ok,
            f"simultaneous coverage {p:.4f} within 3se ({3.0 * se:.4f}) of closed form {closed:.4f}",
        )

    def test_a11_modulus_vs_grid_search(self):
        b = math.sqrt(1.25)
        basis = np.array([[0.5, b, b, b]])
        space = Subspace(basis)
        omega1 = float(space.leverage_profile()[0])  # probed-coordinate leverage 1/4
        assert omega1 == pytest.approx(0.25, abs=1e-12)
        eps2 = eps_inf = 50.0

        # Grid-search oracle.  The feasible pair set is convex and symmetric
        # under (f, g) -> (-g, -f), which preserves the linear objective
        # f1 - g1, so averaging an optimal pair with its image gives a
        # symmetric optimizer g = -f.  It therefore suffices to search over
        # difference directions delta = f - g (a dense spherical grid in R^4,
        # containing e1 exactly) and scale each to the largest multiple
        # satisfying the pair and residual constraints, all in closed form.
        angles_a = np.linspace(0.0, math.pi, 61)
        angles_b = np.linspace(0.0, math.pi, 61)
        angles_c = np.linspace(0.0, 2.0 * math.pi, 120, endpoint=False)
        A, B, C = np.meshgrid(angles_a, angles_b, angles_c, indexing="ij")
        dirs = np.stack(
            [
                np.cos(A).ravel(),
                (np.sin(A) * np.cos(B)).ravel(),
                (np.sin(A) * np.sin(B) * np.cos(C)).ravel(),
                (np.sin(A) * np.sin(B) * np.sin(C)).ravel(),
            ],
            axis=1,
        )
        two_norms = np.sqrt(np.mean(dirs**2, axis=1))
        coefs = dirs @ basis.T / 4.0
        resid = dirs - coefs @ basis
        resid_two = np.sqrt(np.mean(resid**2, axis=1))
        resid_sup = np.max(np.abs(resid), axis=1)

        worst_rel = 0.0
        details = []
        for u in [0.1, 0.25, 0.5, 1.0, 2.0]:
            with np.errstate(divide="ignore"):
                t = u / two_norms
                t = np.minimum(t, np.where(resid_two > 0.0, 2.0 * eps2 / np.maximum(resid_two, 1e-300), np.inf))
                t = np.minimum(t, np.where(resid_sup > 0.0, 2.0 * eps_inf / np.maximum(resid_sup, 1e-300), np.inf))
            oracle = float(np.max(t * dirs[:, 0]))
            display = modulus(u, omega1, 4, eps2, eps_inf)
            rel = abs(display - oracle) / oracle
            worst_rel = max(worst_rel, rel)
            details.append(f"u={u}: {rel * 100:.2f}%")
        ok = worst_rel <= 0.05
        _verdict(
            "A11",
            ok,
            f"modulus vs grid-search oracle within 5%: worst {worst_rel * 100:.2f}% ({'; '.join(details)})",
        )

    @staticmethod
    def _a12_reports(monkeypatch):
        """The A12 report, its rerun and its run on a second block grid, as
        bytes, and the rows of a default block."""
        import json

        scale = dyadic_scale(32, [1, 4])
        tuning = nested_tuning(scale, 0.1, 0.2)
        params = BandParams.equal_split(0.1, 0.2, 1.0, tuning)
        scenario = Scenario(
            kind="adaptive", truth=np.zeros(32), reps=400, seed=SEED + 4, scale=scale, params=params
        )
        rows = simulate._BLOCK_VALUES // scenario.n
        first = json.dumps(run(scenario).to_dict(), sort_keys=True).encode()
        rerun = json.dumps(run(scenario).to_dict(), sort_keys=True).encode()
        # A second block grid: 58 blocks of 7 replications, the last one short.
        with monkeypatch.context() as patch:
            patch.setattr(simulate, "_BLOCK_VALUES", 7 * scenario.n)
            regrid = json.dumps(run(scenario).to_dict(), sort_keys=True).encode()
        return first, rerun, regrid, rows

    def test_a12_byte_identical_replay(self, monkeypatch):
        first, rerun, regrid, rows = self._a12_reports(monkeypatch)
        ok = first == rerun == regrid
        _verdict(
            "A12",
            ok,
            f"reports byte-identical: rerun {first == rerun}, {rows}-row vs 7-row blocks "
            f"{first == regrid} ({len(first)} bytes)",
        )

    def test_a12_byte_identical_replay_with_every_row_refined(self, monkeypatch):
        # An infinite radius finishes every row's draw before its decisions.
        want = self._a12_reports(monkeypatch)[0]
        monkeypatch.setattr(simulate, "_UNDERFLOW", math.inf)
        first, rerun, regrid, _ = self._a12_reports(monkeypatch)
        ok = want == first == rerun == regrid
        _verdict(
            "A12",
            ok,
            f"reports byte-identical with every row refined: as certified {want == first}, "
            f"rerun {first == rerun}, 7-row blocks {first == regrid}",
        )
