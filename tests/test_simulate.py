"""Tests for the seeded Monte Carlo driver and spoiler constructor.

Reproducibility is the load-bearing property here: the per-replication
counter-based noise stream must make reports byte-identical across reruns and
across block grids.  Draw quality is checked against Gaussian moments, the
spoiler construction against its exact norm targets.
"""

import hashlib
import inspect
import json
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from surrband import bands, simulate, specfun
from surrband import (
    BandParams,
    DomainError,
    FeasibilityError,
    Scenario,
    NestedScale,
    SimReport,
    Subspace,
    SurrogateTuning,
    adaptive_band_nested,
    bonferroni_band,
    cosine_basis,
    dyadic_blocks,
    dyadic_scale,
    gaussian_draw,
    level_widths,
    make_spoiler,
    nested_tuning,
    norm2,
    normal_quantile,
    optimal_tuning,
    run,
    subspace_band,
    sup_norm,
    surrogate_set,
)

# gaussian_draw(0, 0, 4) of draw stream v1 (Philox + bisection quantile), the
# fingerprint the benchmark also checks.
V1_DRAW = (-2.2718841483245935, -0.7013279206286982, -1.218980191079758, 0.16217155791645005)


def _adaptive_scenario(reps=200, seed=7, gamma=0.2, truth=None):
    scale = dyadic_scale(32, [1, 4])
    tuning = nested_tuning(scale, 0.1, gamma)
    params = BandParams.equal_split(0.1, gamma, 1.0, tuning)
    if truth is None:
        truth = np.zeros(32)
    return Scenario(kind="adaptive", truth=truth, reps=reps, seed=seed, scale=scale, params=params)


class TestGaussianDraw:
    def test_deterministic(self):
        a = gaussian_draw(42, 3, 64)
        b = gaussian_draw(42, 3, 64)
        assert np.array_equal(a, b)

    def test_streams_differ_across_reps_and_seeds(self):
        a = gaussian_draw(42, 3, 64)
        assert not np.array_equal(a, gaussian_draw(42, 4, 64))
        assert not np.array_equal(a, gaussian_draw(43, 3, 64))

    def test_moments(self):
        draws = np.concatenate([gaussian_draw(9, r, 64) for r in range(500)])
        n = draws.size
        assert abs(float(np.mean(draws))) < 4.0 / np.sqrt(n)
        assert abs(float(np.var(draws)) - 1.0) < 6.0 / np.sqrt(n)
        # Sign symmetry and tail mass.
        assert abs(float(np.mean(draws <= 0.0)) - 0.5) < 3.0 / np.sqrt(n)
        assert abs(float(np.mean(np.abs(draws) > 1.96)) - 0.05) < 4.0 * np.sqrt(0.05 * 0.95 / n)

    def test_all_finite(self):
        for r in range(50):
            assert np.all(np.isfinite(gaussian_draw(1234, r, 128)))

    def test_v1_fingerprint(self):
        assert tuple(float(v) for v in gaussian_draw(0, 0, 4)) == V1_DRAW

    @pytest.mark.parametrize("seed, rep, n", [(0, 0, 5), (42, 3, 64), (2**64 + 7, 11, 33), (9, 2**40, 7)])
    def test_reused_generator_matches_a_new_one(self, seed, rep, n):
        key = np.array([seed % 2**64, rep], dtype=np.uint64)
        raw = np.random.Philox(key=key).random_raw(n)
        want = normal_quantile((raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54)
        gaussian_draw(seed + 1, rep + 1, 3 * n)  # leave a used generator behind
        assert np.array_equal(gaussian_draw(seed, rep, n), want)

    def test_block_at_the_end_of_the_key_range_matches_new_generators(self):
        # Both key words near 2**64 - 1, with a used generator left in the
        # pool: each row's kept state must take the row's whole key.
        gaussian_draw(3, 5, 40)  # leave a used generator behind
        block = gaussian_draw(2**64 - 1, 2**64 - 3, 33, 3)
        for i, row in enumerate(block):
            key = np.array([2**64 - 1, 2**64 - 3 + i], dtype=np.uint64)
            raw = np.random.Philox(key=key).random_raw(33)
            want = normal_quantile((raw >> np.uint64(11)) * 2.0**-53 + 2.0**-54)
            assert np.array_equal(row, want)

    @pytest.mark.parametrize("n, other", [(64, 5), (5, 64), (1, 33)])
    def test_words_at_the_largest_seed_and_rep_match_a_new_generator(self, n, other):
        # Both key words at 2**64 - 1, the largest int the kept state's plain
        # lists must carry into the generator; then again after the same kept
        # object drew a row of another length.
        seed = rep = 2**64 - 1
        want = np.random.Philox(key=[seed % 2**64, rep]).random_raw(n) >> np.uint64(11)
        assert np.array_equal(simulate._words(seed, rep, n, None), want[None].view(np.int64))
        simulate._words(seed - 1, rep - 7, other, 3)
        assert np.array_equal(simulate._words(seed, rep, n, 1), want[None].view(np.int64))

    def test_concurrent_draws_match_serial(self):
        # Threads share the idle-generator list; a generator handed to two
        # threads at once would mix their streams.  More workers than cores
        # and a short switch interval make such a race likely if it exists.
        # Single draws and blocks alike.
        counts = [None, 5] * 200
        serial = [gaussian_draw(3, rep, 64, count) for rep, count in enumerate(counts)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(gaussian_draw, 3, rep, 64, count) for rep, count in enumerate(counts)
                ]
                parallel = [fut.result(timeout=60) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(serial, parallel))

    @pytest.mark.parametrize("seed, rep, n, count", [
        (0, 0, 4, 1), (42, 3, 64, 5), (2**64 + 7, 11, 33, 9), (9, 2**40, 7, 3), (5, 0, 1, 4),
    ])
    def test_block_rows_are_single_draws(self, seed, rep, n, count):
        block = gaussian_draw(seed, rep, n, count)
        assert block.shape == (count, n)
        for i, row in enumerate(block):
            assert np.array_equal(row.view(np.int64), gaussian_draw(seed, rep + i, n).view(np.int64))

    @pytest.mark.parametrize("count", [0, -1, True, False, 2.0, "2", np.int64(2)])
    def test_block_count_must_be_a_positive_int(self, count):
        with pytest.raises(DomainError, match="count"):
            gaussian_draw(1, 0, 8, count)

    @pytest.mark.parametrize("seed, rep, n, count, name", [
        (1.5, 0, 2, None, "seed"),  # would be truncated to seed 1
        (True, 0, 2, None, "seed"),
        (-1, 0, 2, None, "seed"),
        (np.int64(1), 0, 2, None, "seed"),
        (1, -1, 2, None, "rep"),
        (1, 2**64, 2, None, "rep"),
        (1, 2**64 - 2, 2, 3, "rep"),  # the block's last key would wrap
        (1, 1.0, 2, None, "rep"),
        (1, False, 2, None, "rep"),
        (1, 0, -1, None, "n"),
        (1, 0, 0, 2, "n"),
        (1, 0, 2.0, None, "n"),
        (1, 0, True, None, "n"),
    ])
    def test_bad_arguments_rejected(self, seed, rep, n, count, name):
        with pytest.raises(DomainError, match=name):
            gaussian_draw(seed, rep, n, count)

    def test_last_keys_accepted(self):
        block = gaussian_draw(1, 2**64 - 3, 5, 3)
        assert np.array_equal(block[2], gaussian_draw(1, 2**64 - 1, 5))

    def test_quantile_is_the_rounds_of_its_cells(self):
        # normal_quantile is its two stages in turn, bit for bit: the draws
        # of the cases above, the smallest uniform and the largest.
        keys = [(0, 0, 5), (42, 3, 64), (2**64 + 7, 11, 33), (9, 2**40, 7), (2**64 - 1, 2**64 - 3, 33)]
        grids = [simulate._uniform(simulate._words(*key, None))[0] for key in keys]
        for u in grids + [np.array([2.0**-54, 1.0])]:
            want = normal_quantile(u).view(np.int64)
            assert np.array_equal(specfun._rounds(u, *specfun._cells(u)).view(np.int64), want)


class TestRunDeterminism:
    def test_rerun_identical(self):
        s = _adaptive_scenario()
        a = json.dumps(run(s).to_dict(), sort_keys=True)
        b = json.dumps(run(s).to_dict(), sort_keys=True)
        assert a == b

    def test_serial_matches_threaded(self):
        # run itself is serial, but callers may run scenarios from several
        # threads at once; the shared generator pool and quantile caches may
        # not mix their streams.
        s = _adaptive_scenario(reps=150)
        serial = _dumps(run(s))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                futures = [pool.submit(run, s) for _ in range(3)]
                reports = [_dumps(fut.result(timeout=120)) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        assert reports == [serial] * 3

    def test_uneven_chunks_match_serial(self, monkeypatch):
        # 22 blocks of 7 rows, the last one short, give the bytes of the
        # default grid's two blocks.
        s = _adaptive_scenario(reps=151)
        want = _dumps(run(s))
        monkeypatch.setattr(simulate, "_BLOCK_VALUES", 7 * 32)
        assert _dumps(run(s)) == want

    def test_widths_array_matches_across_grids(self, monkeypatch):
        s = _adaptive_scenario(reps=90)
        want = run(s).widths
        monkeypatch.setattr(simulate, "_BLOCK_VALUES", 8 * 32)  # 12 blocks
        assert np.array_equal(run(s).widths, want)

    def test_run_starts_no_thread(self, monkeypatch):
        # Runs are serial.  About 21 blocks, so that a pool would have work
        # for more than one thread.
        def refuse(thread):
            raise AssertionError(f"run started {thread!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        want = {kind: _dumps(run(s)) for kind, s in _block_scenarios().items()}
        monkeypatch.setattr(simulate, "_BLOCK_VALUES", 3 * 33)
        for kind, s in _block_scenarios().items():
            assert _dumps(run(s)) == want[kind], kind

    def test_run_takes_no_thread_count(self):
        assert "threads" not in inspect.signature(run).parameters
        with pytest.raises(TypeError, match="threads"):
            run(_adaptive_scenario(reps=10), threads=1)

    def test_seed_changes_results(self):
        a = run(_adaptive_scenario(seed=7))
        b = run(_adaptive_scenario(seed=8))
        assert not np.array_equal(a.widths, b.widths)


def _dumps(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def _block_scenarios():
    """One scenario per kind, on grids that do not divide the block sizes."""
    x = np.arange(1, 34) / 33
    return {
        "adaptive": _adaptive_scenario(reps=61, seed=4, truth=0.3 * np.sin(7.0 * np.arange(32) / 32)),
        "bonferroni": Scenario(
            kind="bonferroni", truth=np.sin(6.0 * x), reps=61, seed=5, alpha=0.05, sigma=0.5,
        ),
        "subspace": Scenario(
            kind="subspace", truth=np.cos(np.pi * x), reps=61, seed=6,
            space=cosine_basis(33, 4), alpha=0.1, sigma=0.8, per_coordinate=True,
        ),
    }


class TestBlocks:
    """``run`` draws a block of replications per call; the block size may not
    change a byte of the report."""

    @pytest.mark.parametrize("kind", ["adaptive", "bonferroni", "subspace"])
    def test_reports_identical_for_every_block_size(self, monkeypatch, kind):
        s = _block_scenarios()[kind]
        want = _dumps(run(s, width_threshold=1.0))
        for rows in (1, 3, 7):
            monkeypatch.setattr(simulate, "_BLOCK_VALUES", rows * s.n)
            assert _dumps(run(s, width_threshold=1.0)) == want, rows

    def test_bonferroni_matches_band_calls(self, monkeypatch):
        monkeypatch.setattr(simulate, "_BLOCK_VALUES", 5 * 33)
        s = _block_scenarios()["bonferroni"]
        report = run(s)
        bands = [
            bonferroni_band(s.truth + s.sigma * gaussian_draw(s.seed, rep, s.n), s.alpha, s.sigma)
            for rep in range(s.reps)
        ]
        assert np.array_equal(report.widths, [b.width for b in bands])
        covered = sum(bool(np.all((b.lower <= s.truth) & (s.truth <= b.upper))) for b in bands)
        assert report.true_coverage == covered / s.reps

    @staticmethod
    def _check_against_band_calls(monkeypatch, s):
        """``run`` against a per-row ``bonferroni_band`` of the full draw;
        returns the number of values that ``run`` mapped through the
        quantile."""
        bands = [
            bonferroni_band(s.truth + s.sigma * gaussian_draw(s.seed, rep, s.n), s.alpha, s.sigma)
            for rep in range(s.reps)
        ]
        covered = sum(bool(np.all((b.lower <= s.truth) & (s.truth <= b.upper))) for b in bands)
        quantile, mapped = simulate.normal_quantile, []

        def counting(u):
            mapped.append(np.size(u))
            return quantile(u)

        monkeypatch.setattr(simulate, "normal_quantile", counting)
        report = run(s, width_threshold=1.0)
        assert report.true_coverage == report.surrogate_coverage == covered / s.reps
        assert np.array_equal(report.widths, [b.width for b in bands])
        return sum(mapped)

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("truth", ["zero", "sine"])
    def test_bonferroni_undecided_coordinates_take_the_exact_draw(self, monkeypatch, n, truth):
        # A Bonferroni block decides coverage from each coordinate's window of
        # words, whose ends are guessed and, where the words next to a guess
        # do not confirm it, found by a bisection of the exact draw.  A guess
        # of 1/2 at both ends leaves every end to the bisection.
        f = np.zeros(n) if truth == "zero" else np.sin(6.0 * np.arange(1, n + 1) / n)
        s = Scenario(kind="bonferroni", truth=f, reps=300, seed=n, alpha=0.05, sigma=0.5)
        want = _dumps(run(s, width_threshold=1.0))
        monkeypatch.setattr(simulate, "special", SimpleNamespace(ndtr=lambda x: 0.5))
        simulate._window_ends.cache_clear()  # the run above kept its ends
        # One call on the guesses, then one per bisection step.
        assert self._check_against_band_calls(monkeypatch, s) > 2 * 53 * np.unique(f).size
        assert _dumps(run(s, width_threshold=1.0)) == want

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_bonferroni_window_of_a_truth_near_1e16(self, monkeypatch, n):
        # At 1e16 one ulp of y is 2, so y = f + q moves in steps of 2 and the
        # ends of a window lie far from their guesses, where the bisection
        # finds them.
        f = 1e16 * np.sin(6.0 * np.arange(1, n + 1) / n)
        s = Scenario(kind="bonferroni", truth=f, reps=300, seed=n, alpha=0.05, sigma=1.0)
        assert self._check_against_band_calls(monkeypatch, s) > 2 * 53 * n

    def test_second_run_of_a_configuration_keeps_its_window(self, monkeypatch):
        s = _block_scenarios()["bonferroni"]
        simulate._window_ends.cache_clear()
        run(s)
        assert self._check_against_band_calls(monkeypatch, s) == 0
        assert simulate._window_ends.cache_info().hits >= 1

    @pytest.mark.parametrize("change", ["sigma", "alpha", "truth", "permuted"])
    def test_a_changed_configuration_recomputes_its_window(self, monkeypatch, change):
        f = np.sin(6.0 * np.arange(1, 34) / 33)
        fields = {"truth": f, "reps": 300, "seed": 5, "alpha": 0.05, "sigma": 0.5}
        run(Scenario(kind="bonferroni", **fields))
        if change == "truth":
            fields["truth"] = f.copy()
            fields["truth"][3] += 0.25
        elif change == "permuted":  # the same distinct values in another order
            fields["truth"] = f[::-1].copy()
        else:
            fields[change] *= 1.5
        # One call on the guesses at least; the kept window is not reused.
        assert self._check_against_band_calls(monkeypatch, Scenario(kind="bonferroni", **fields)) > 0

    def test_kept_window_ends_are_read_only_and_one_configuration(self):
        assert simulate._window_ends.cache_info().maxsize == 1
        f = np.array([0.0, 0.5, 0.5, -1.0])
        lo, hi = simulate._window_ends(f.tobytes(), 1.0, 2.5)
        for ends in (lo, hi):
            assert ends.shape == (f.size,) and not ends.flags.writeable
            with pytest.raises(ValueError):
                ends[0] = 0
            with pytest.raises(ValueError):
                ends.flags.writeable = True
        # Each coordinate takes the ends of its value among the sorted distinct ones.
        lo_v, hi_v = simulate._window_ends(np.unique(f).tobytes(), 1.0, 2.5)
        assert np.array_equal(lo, lo_v[[1, 2, 2, 0]]) and np.array_equal(hi, hi_v[[1, 2, 2, 0]])


class TestBonferroniWindow:
    """The premise of a Bonferroni block: the words whose draw a coordinate's
    band covers form one interval, the window ``[lo, hi]``."""

    def test_quantile_is_nondecreasing_on_the_generator_uniforms(self):
        # Up to 2^20 sorted uniforms of the generator, with those of its
        # first and last words (the last one's rounds to 1) and 1 - 2^-53.
        words = simulate._words(3, 0, 2**16, 16).ravel()
        ends = simulate._uniform(np.array([0, 1, 2**53 - 2, 2**53 - 1]))
        u = np.sort(np.concatenate([simulate._uniform(words), ends, [1.0 - 2.0**-53]]))
        assert u[0] == 2.0**-54 and u[-1] == 1.0
        assert np.all(np.diff(normal_quantile(u)) >= 0.0)

    @pytest.mark.parametrize("search", ["guess", "bisection"])
    @pytest.mark.parametrize("sigma", [1e-3, 0.5, 1.0, 2.5])
    @pytest.mark.parametrize("truth", ["zero", "sine", "1e6", "1e-9"])
    def test_window_is_the_band_test_near_its_ends(self, monkeypatch, truth, sigma, search):
        # Every word within 256 of an end, and the first and last words.  The
        # second half-width lies between the quantiles 8.10 and 8.29 of the
        # last two uniforms, 1 - 2^-52 and 1, so it leaves only the last
        # word uncovered at the top.  A guess of 1/2 leaves every end to the
        # bisection.
        n = 12
        x = np.arange(1, n + 1) / n
        f = {"zero": np.zeros(n), "sine": np.sin(6.0 * x), "1e6": 1e6 * np.sin(6.0 * x),
             "1e-9": 1e-9 * np.sin(6.0 * x)}[truth]
        if search == "bisection":
            monkeypatch.setattr(simulate, "special", SimpleNamespace(ndtr=lambda x: 0.5))
            simulate._window_ends.cache_clear()  # no ends kept from the guesses
        near = np.arange(-256, 257)
        for half in (simulate._bonferroni_half_width(n, 0.05, sigma), 8.2 * sigma):
            lo, hi = simulate._window_ends(f.tobytes(), sigma, half)
            assert np.all(lo <= hi)
            for i in range(n):
                k = np.concatenate([lo[i] + near, hi[i] + near, [0, 2**53 - 1]])
                k = k[(k >= 0) & (k < 2**53)]
                y = f[i] + sigma * normal_quantile(simulate._uniform(k))
                want = (y - half <= f[i]) & (f[i] <= y + half)
                assert np.array_equal((k >= lo[i]) & (k <= hi[i]), want), (half, i)


def _digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()


class TestGoldenReports:
    """Report digests recorded with the plain 64-step bisection quantile and
    the per-replication ``adaptive_band_nested`` loop; any change to the
    draw stream or to the band engine's arithmetic shows up here."""

    def test_adaptive_three_levels_spoiler(self):
        scale = dyadic_scale(64, [1, 4, 16])
        tuning = nested_tuning(scale, 0.1, 0.1)
        params = BandParams.equal_split(0.1, 0.1, 1.0, tuning)
        truth = make_spoiler(scale.levels[0], tuning.eps2[0], tuning.eps_inf[0], 0.5)
        assert len(surrogate_set(scale, truth, tuning)) >= 2
        s = Scenario(kind="adaptive", truth=truth, reps=400, seed=7, scale=scale, params=params)
        report = run(s, width_threshold=level_widths(scale, params)[1])
        assert report.level_histogram == {"1": 211, "2": 16, "3": 38, "4": 135}
        assert _digest(report) == "67cd1cc5bc5232136abc2d79506862cda086a83531e7c051d5d8f4682d70035a"

    def test_bonferroni(self):
        x = np.arange(1, 65) / 64
        s = Scenario(kind="bonferroni", truth=np.sin(6.0 * x), reps=400, seed=8, alpha=0.05, sigma=0.5)
        report = run(s, width_threshold=2.0)
        assert _digest(report) == "59574188c0cd74709ea2abda9ec919c6b3864da580cb8752f2918b6267b11e8c"

    def test_subspace(self):
        x = np.arange(1, 65) / 64
        s = Scenario(
            kind="subspace", truth=np.cos(np.pi * x) + 0.05 * x * x, reps=400, seed=9,
            space=cosine_basis(64, 4), alpha=0.1, sigma=0.8, per_coordinate=True,
        )
        assert _digest(run(s)) == "9a38d33a37a292439d9352914114774b883218f9f7dd05e61f1eada9b2889ddf"

    def test_subspace_blocks_one_half_width(self):
        # Dyadic blocks project by block means (_Blocks._project), and
        # without per_coordinate the half-width is one scalar.
        x = np.arange(1, 65) / 64
        s = Scenario(
            kind="subspace", truth=np.repeat(np.linspace(-1.0, 1.0, 8), 8) + 0.5 * np.sin(9.0 * x),
            reps=400, seed=10, space=dyadic_blocks(64, 8), alpha=0.1, sigma=0.6,
        )
        report = run(s)
        assert report.true_coverage == 0.87
        assert _digest(report) == "131eeb701136d6f09ab5e4375332a87f70a2f08871656f0cb60bbeed046cf124"

    # Dense levels (cosine rows) in an adaptive walk, alone and after a block
    # level: the band call projects a vector, the Monte Carlo walk a block.
    _DENSE_CHAINS = {
        "cosine": lambda: NestedScale((cosine_basis(64, 2), cosine_basis(64, 6))),
        "mixed": lambda: NestedScale((dyadic_blocks(64, 1), cosine_basis(64, 4), cosine_basis(64, 8))),
    }

    def _dense_chain(self, chain):
        scale = self._DENSE_CHAINS[chain]()
        params = BandParams.equal_split(0.1, 0.2, 1.0, nested_tuning(scale, 0.1, 0.2))
        return scale, params, 2.0 * np.cos(np.pi * np.arange(1, 65) / 64)

    @pytest.mark.parametrize("chain, histogram, digest", [
        pytest.param("cosine", {"1": 303, "2": 13, "3": 84},
                     "6933903a792cf0389ef5eecef41d891bd62a7a5d9ce768296e044f588e80c19e", id="cosine"),
        pytest.param("mixed", {"1": 0, "2": 303, "3": 12, "4": 85},
                     "3473e3f5f18dc7c2c22be41624834171fe75d7ca842bb0d5d231fb3b6769dff9", id="mixed"),
    ])
    def test_adaptive_dense_chain(self, chain, histogram, digest):
        scale, params, truth = self._dense_chain(chain)
        s = Scenario(kind="adaptive", truth=truth, reps=400, seed=11, scale=scale, params=params)
        report = run(s, width_threshold=level_widths(scale, params)[0])
        assert report.level_histogram == histogram
        assert _digest(report) == digest

    @pytest.mark.parametrize("chain, digest", [
        pytest.param("cosine", "339b16a933e83702952983a6c2081a454ec78b6457c364f9fdc085799e62f77b", id="cosine"),
        pytest.param("mixed", "e3389dbaf058dafcc59178739ae35e134bed609f351db8f19c29e53f10018257", id="mixed"),
    ])
    def test_adaptive_dense_chain_band_calls(self, chain, digest):
        # The lower, upper and t_stats bits of 100 band calls on seeded draws.
        scale, params, truth = self._dense_chain(chain)
        h = hashlib.sha256()
        for rep in range(100):
            band = adaptive_band_nested(scale, truth + gaussian_draw(12, rep, 64), params)
            h.update(band.lower.tobytes() + band.upper.tobytes() + np.array(band.t_stats).tobytes())
        assert h.hexdigest() == digest


class TestGoldenReportsEveryRowRefined(TestGoldenReports):
    """The golden reports again with every adaptive and subspace row
    finished on its exact draw: an infinite radius refines every row."""

    @pytest.fixture(autouse=True)
    def _refine_every_row(self, monkeypatch):
        monkeypatch.setattr(simulate, "_UNDERFLOW", math.inf)

    def test_every_row_is_refined(self, monkeypatch):
        finished = _finished(monkeypatch)
        run(_adaptive_scenario(reps=50))
        assert sum(u.size for u in finished) == 50 * 32


def _finished(monkeypatch) -> list:
    """The uniforms of each call ``run`` makes to finish rows' draws."""
    calls, real = [], simulate._rounds

    def spy(u, lo, hi):
        calls.append(u.copy())
        return real(u, lo, hi)

    monkeypatch.setattr(simulate, "_rounds", spy)
    return calls


def _first_stage(seed, rep, n, f, sigma):
    """The uniforms of replication ``rep`` and the draw ``f + sigma * lo``
    of the low ends of their first-stage brackets."""
    u = simulate._uniform(simulate._words(seed, rep, n, None))[0]
    return u, f + sigma * specfun._cells(u)[0].view(np.float64)


class TestCertifiedRows:
    """A row whose decision on the first-stage draw lies within its radius is
    finished on its exact draw; these place one row there on purpose."""

    def test_row_at_a_level_cutoff_is_refined(self, monkeypatch):
        # Level 1's cutoff is one row's statistic on the first-stage draw,
        # where that row is accepted; its exact draw has a larger statistic
        # and is rejected.
        scale = dyadic_scale(32, [1, 4])
        params = BandParams.equal_split(0.1, 0.2, 1.0, nested_tuning(scale, 0.1, 0.2))
        f, seed, reps = np.zeros(32), 31, 6

        def statistic(y):
            r = y - scale.levels[0].project(y)
            return float(r @ r)

        for rep in range(reps):
            u, approx = _first_stage(seed, rep, 32, f, 1.0)
            if statistic(f + gaussian_draw(seed, rep, 32)) > statistic(approx):
                break
        cutoff = statistic(approx)
        real = bands.acceptance_threshold
        monkeypatch.setattr(
            bands, "acceptance_threshold", lambda n, d, g: cutoff if d == 1 else real(n, d, g)
        )
        bands._PLANS.pop(scale, None)  # rebuild the plan with this cutoff
        finished = _finished(monkeypatch)
        report = run(Scenario(kind="adaptive", truth=f, reps=reps, seed=seed, scale=scale, params=params))
        assert len(finished) == 1 and np.array_equal(finished[0], u)
        calls = [adaptive_band_nested(scale, f + gaussian_draw(seed, r, 32), params) for r in range(reps)]
        assert calls[rep].selected_level > 1
        assert np.array_equal(report.widths, [b.width for b in calls])
        assert report.level_histogram == {
            str(j): sum(b.selected_level == j for b in calls) for j in range(1, 4)
        }
        covered = [bool(np.all((b.lower <= f) & (f <= b.upper))) for b in calls]
        assert report.true_coverage == report.surrogate_coverage == sum(covered) / reps

    def test_truth_on_a_band_edge_is_refined(self, monkeypatch):
        # The half-width puts the zero truth on the lower edge of one row's
        # band on the first-stage draw, at its largest centre coordinate,
        # so that band covers it; the exact draw's centre lies above there,
        # and its band does not.
        space, n, sigma, seed, reps = cosine_basis(16, 3), 16, 0.5, 41, 8
        f = np.zeros(n)
        for rep in range(reps):
            u, approx = _first_stage(seed, rep, n, f, sigma)
            center = space.project(approx)
            i = int(np.argmax(np.abs(center)))
            if center[i] > 0.0 and space.project(f + sigma * gaussian_draw(seed, rep, n))[i] > center[i]:
                break
        half = center[i]
        assert center[i] - half == f[i]
        monkeypatch.setattr(simulate, "_subspace_half_width", lambda *args: (half, 2.0 * half))
        finished = _finished(monkeypatch)
        report = run(Scenario(kind="subspace", truth=f, reps=reps, seed=seed, space=space, alpha=0.1, sigma=sigma))
        assert len(finished) == 1 and np.array_equal(finished[0], u)
        centers = [space.project(f + sigma * gaussian_draw(seed, r, n)) for r in range(reps)]
        covered = [bool(np.all((c - half <= f) & (f <= c + half))) for c in centers]
        assert covered[rep] is False
        assert report.true_coverage == report.surrogate_coverage == sum(covered) / reps


class TestRunMatchesBandCalls:
    def test_every_replication(self):
        # run() walks the levels through the band plan; each replication must
        # give what the public one-band call gives on the same draw.
        scale = dyadic_scale(64, [1, 4, 16])
        tuning = nested_tuning(scale, 0.1, 0.1)
        params = BandParams.equal_split(0.1, 0.1, 1.0, tuning)
        truth = make_spoiler(scale.levels[0], tuning.eps2[0], tuning.eps_inf[0], 0.5)
        candidates = [c.values for c in surrogate_set(scale, truth, tuning)]
        s = Scenario(kind="adaptive", truth=truth, reps=300, seed=21, scale=scale, params=params)
        report = run(s)

        def covers(band, g):
            return bool(np.all((band.lower <= g) & (g <= band.upper)))

        bands = [adaptive_band_nested(scale, truth + gaussian_draw(21, rep, 64), params) for rep in range(300)]
        assert np.array_equal(report.widths, [b.width for b in bands])
        assert report.level_histogram == {
            str(j): sum(b.selected_level == j for b in bands) for j in range(1, 5)
        }
        assert report.true_coverage == sum(covers(b, truth) for b in bands) / 300
        assert report.surrogate_coverage == sum(
            any(covers(b, g) for g in candidates) for b in bands
        ) / 300
        assert report.true_coverage < report.surrogate_coverage

    @pytest.mark.parametrize("case", ["n100-spoiler", "n100-zero", "cosine-spoiler", "cosine-zero"])
    def test_every_replication_other_scales(self, case):
        # n=100 draws uneven blocks of 40 replications; the cosine scale
        # projects a dense block; a zero truth has one surrogate candidate.
        if case.startswith("n100"):
            scale = dyadic_scale(100, [1, 5, 10])
        else:
            scale = NestedScale((cosine_basis(64, 2), cosine_basis(64, 6)))
        n = scale.n
        tuning = nested_tuning(scale, 0.1, 0.2)
        params = BandParams.equal_split(0.1, 0.2, 1.0, tuning)
        if case.endswith("spoiler"):
            truth = make_spoiler(scale.levels[0], tuning.eps2[0], tuning.eps_inf[0], 0.5)
        else:
            truth = np.zeros(n)
        candidates = [c.values for c in surrogate_set(scale, truth, tuning)]
        assert (len(candidates) > 1) == case.endswith("spoiler")
        s = Scenario(kind="adaptive", truth=truth, reps=150, seed=22, scale=scale, params=params)
        report = run(s)

        def covers(band, g):
            return bool(np.all((band.lower <= g) & (g <= band.upper)))

        bands = [adaptive_band_nested(scale, truth + gaussian_draw(22, rep, n), params) for rep in range(150)]
        assert np.array_equal(report.widths, [b.width for b in bands])
        assert report.level_histogram == {
            str(j): sum(b.selected_level == j for b in bands) for j in range(1, scale.m + 2)
        }
        assert report.true_coverage == sum(covers(b, truth) for b in bands) / 150
        assert report.surrogate_coverage == sum(
            any(covers(b, g) for g in candidates) for b in bands
        ) / 150

    @pytest.mark.parametrize("space, per_coordinate", [
        (dyadic_blocks(100, 7), False),
        (dyadic_blocks(100, 7), True),
        (cosine_basis(64, 4), False),
        (cosine_basis(64, 4), True),
    ])
    def test_subspace_replications_match_band_calls(self, monkeypatch, space, per_coordinate):
        monkeypatch.setattr(simulate, "_BLOCK_VALUES", 6 * space.n)
        n = space.n
        truth = np.cos(np.pi * np.arange(1, n + 1) / n)
        s = Scenario(
            kind="subspace", truth=truth, reps=40, seed=23, space=space, alpha=0.1, sigma=0.8,
            per_coordinate=per_coordinate,
        )
        report = run(s)
        bands = [
            subspace_band(space, truth + 0.8 * gaussian_draw(23, rep, n), 0.1, 0.8, per_coordinate=per_coordinate)
            for rep in range(40)
        ]
        assert np.array_equal(report.widths, [b.width for b in bands])
        covered = sum(bool(np.all((b.lower <= truth) & (truth <= b.upper))) for b in bands)
        assert report.true_coverage == report.surrogate_coverage == covered / 40

    def test_dyadic_run_allocates_no_dense_basis(self):
        # A dense level-3 basis would be 256 x 4096 doubles (8 MiB); the
        # block levels need a few vectors of length n.
        n = 4096
        tracemalloc.start()
        try:
            scale = dyadic_scale(n, [1, 16, 256])
            params = BandParams.equal_split(0.1, 0.1, 1.0, nested_tuning(scale, 0.1, 0.1))
            adaptive_band_nested(scale, gaussian_draw(3, 0, n), params)
            run(Scenario(kind="adaptive", truth=np.zeros(n), reps=5, seed=3, scale=scale, params=params))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * n * 8 / 4


class TestCoverageSemantics:
    def test_bonferroni_small_run(self):
        n, alpha, reps = 16, 0.1, 400
        s = Scenario(kind="bonferroni", truth=np.zeros(n), reps=reps, seed=11, alpha=alpha, sigma=1.0)
        report = run(s)
        want = (1.0 - alpha / n) ** n
        assert abs(report.true_coverage - want) < 4.0 * np.sqrt(want * (1.0 - want) / reps)
        # No surrogates for a non-adaptive scenario: both coverages coincide.
        assert report.surrogate_coverage == report.true_coverage

    def test_surrogate_at_least_true_coverage(self):
        scale = dyadic_scale(32, [1, 4])
        tuning = SurrogateTuning(eps2=(0.9, 0.9), eps_inf=(0.05, 0.05))
        params = BandParams.equal_split(0.1, 0.3, 1.0, tuning)
        rng = np.random.default_rng(412)
        truth = rng.normal(size=32) * 0.3
        s = Scenario(kind="adaptive", truth=truth, reps=300, seed=21, scale=scale, params=params)
        report = run(s)
        assert report.surrogate_coverage >= report.true_coverage

    def test_exact_tie_counts_as_covered(self):
        # Noiseless subspace member: the band is centered exactly on the
        # truth, so coverage must count boundary equality as success.
        space = dyadic_blocks(8, 2)
        truth = np.repeat([2.0, -1.0], 4)
        s = Scenario(kind="subspace", truth=truth, reps=5, seed=3, space=space, alpha=0.1, sigma=1e-12)
        report = run(s)
        assert report.true_coverage == 1.0


class TestReportShape:
    def test_adaptive_fields(self):
        report = run(_adaptive_scenario(reps=120), width_threshold=2.0)
        assert isinstance(report, SimReport)
        assert set(report.level_histogram) == {"1", "2", "3"}
        assert sum(report.level_histogram.values()) == 120
        assert report.prob_width_le["threshold"] == 2.0
        assert 0.0 <= report.prob_width_le["prob"] <= 1.0
        # Median, 0.9, and the 1 - gamma quantile of the width law.
        assert set(report.width_quantiles) == {"0.5", "0.8", "0.9"}

    def test_gamma_quantile_deduplicates(self):
        report = run(_adaptive_scenario(reps=60, gamma=0.1))
        assert set(report.width_quantiles) == {"0.5", "0.9"}

    def test_to_dict_json_safe(self):
        report = run(_adaptive_scenario(reps=60), width_threshold=1.5)
        payload = report.to_dict()
        text = json.dumps(payload, sort_keys=True)
        back = json.loads(text)
        assert back["reps"] == 60
        assert "widths" not in back
        assert all(isinstance(v, float) for v in back["widthQuantiles"].values())

    def test_width_threshold_counts_exact_ties(self):
        # Thresholding at an attained level width includes that level.
        s = _adaptive_scenario(reps=80)
        from surrband import level_widths

        widths = level_widths(s.scale, s.params)
        report = run(s, width_threshold=widths[0])
        frac = report.level_histogram["1"] / 80.0
        assert report.prob_width_le["prob"] == pytest.approx(frac, abs=1e-15)

    def test_non_adaptive_has_no_histogram(self):
        s = Scenario(kind="bonferroni", truth=np.zeros(8), reps=10, seed=1, alpha=0.1, sigma=1.0)
        report = run(s)
        assert report.level_histogram is None


class TestFeasibilityPrecheck:
    def test_raises_before_sampling(self):
        scale = dyadic_scale(32, [1, 4])
        tuning = SurrogateTuning(eps2=(1e-6, 1e-6), eps_inf=(0.1, 0.1))
        params = BandParams.equal_split(0.1, 0.05, 1.0, tuning)
        s = Scenario(kind="adaptive", truth=np.zeros(32), reps=10**9, seed=1, scale=scale, params=params)
        # reps is astronomically large: the error must arrive immediately,
        # proving the check precedes the sampling loop.
        with pytest.raises(FeasibilityError):
            run(s)


class TestResolution:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["adaptive", "bonferroni", "subspace"])
    def test_noise_lost_to_rounding_is_refused_before_any_set_up(self, monkeypatch, kind):
        # At +-1e200 one ulp of the truth exceeds every half-width at sigma
        # = 1, so each draw would round back to the truth.
        def refuse(*args):
            raise AssertionError("set-up ran past the resolution check")

        for name in ("surrogate_set", "_window_ends"):
            monkeypatch.setattr(simulate, name, refuse)
        f = 1e200 * np.tile([1.0, -1.0], 32)
        fields = {"alpha": 0.1, "sigma": 1.0}
        if kind == "adaptive":
            scale = dyadic_scale(64, [1, 4])
            fields = {"scale": scale, "params": BandParams.equal_split(0.1, 0.3, 1.0, nested_tuning(scale, 0.1, 0.3))}
        elif kind == "subspace":
            fields["space"] = dyadic_blocks(64, 4)
        with pytest.raises(DomainError, match="below the spacing of doubles at the truth"):
            run(Scenario(kind=kind, truth=f, reps=20, seed=1, **fields))


class TestScenarioValidation:
    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            Scenario(kind="bogus", truth=np.zeros(8), reps=10, seed=1, alpha=0.1, sigma=1.0)

    def test_adaptive_needs_scale_and_params(self):
        with pytest.raises(DomainError):
            Scenario(kind="adaptive", truth=np.zeros(8), reps=10, seed=1)

    def test_truth_length_checked(self):
        with pytest.raises(DomainError):
            _adaptive_scenario(truth=np.zeros(16))
        with pytest.raises(DomainError, match="truth has length 8 but the subspace grid is 16"):
            Scenario(kind="subspace", truth=np.zeros(8), reps=10, seed=1, alpha=0.1, sigma=1.0,
                     space=dyadic_blocks(16, 2))

    @pytest.mark.parametrize("kind", ["bonferroni", "subspace"])
    @pytest.mark.parametrize("missing", ["alpha", "sigma"])
    def test_alpha_and_sigma_required(self, kind, missing):
        given = {"alpha": 0.1, "sigma": 1.0}
        del given[missing]
        if kind == "subspace":
            given["space"] = dyadic_blocks(8, 2)
        with pytest.raises(DomainError, match=f"{kind} scenarios need alpha= and sigma="):
            Scenario(kind=kind, truth=np.zeros(8), reps=10, seed=1, **given)

    def test_bad_reps_and_seed(self):
        with pytest.raises(DomainError):
            Scenario(kind="bonferroni", truth=np.zeros(8), reps=0, seed=1, alpha=0.1, sigma=1.0)
        with pytest.raises(DomainError):
            Scenario(kind="bonferroni", truth=np.zeros(8), reps=10, seed=-1, alpha=0.1, sigma=1.0)

    @pytest.mark.parametrize("threshold", [True, False, "1.0"])
    def test_width_threshold_must_be_a_number(self, threshold):
        s = Scenario(kind="bonferroni", truth=np.zeros(8), reps=10, seed=1, alpha=0.1, sigma=1.0)
        with pytest.raises(DomainError, match="width_threshold"):
            run(s, width_threshold=threshold)

    @pytest.mark.parametrize("reps, seed", [(True, 1), (10, False), (True, False)])
    def test_bool_reps_and_seed_rejected(self, reps, seed):
        # bool is a subclass of int; a flag is not a count.
        with pytest.raises(DomainError):
            Scenario(kind="bonferroni", truth=np.zeros(4), reps=reps, seed=seed, alpha=0.1, sigma=1.0)

    @pytest.mark.parametrize("kind", ["bonferroni", "subspace"])
    @pytest.mark.parametrize(
        "alpha, sigma",
        [(1.5, 1.0), (0.0, 1.0), (float("nan"), 1.0), (0.1, float("inf")), (0.1, 0.0), (0.1, -1.0)],
    )
    def test_alpha_and_sigma_checked_at_construction(self, kind, alpha, sigma):
        space = dyadic_blocks(8, 2) if kind == "subspace" else None
        with pytest.raises(DomainError):
            Scenario(kind=kind, truth=np.zeros(8), reps=10, seed=1, space=space, alpha=alpha, sigma=sigma)


    @pytest.mark.parametrize("kind, field", [
        ("adaptive", "sigma"),
        ("adaptive", "alpha"),
        ("adaptive", "per_coordinate"),
        ("adaptive", "space"),
        ("bonferroni", "per_coordinate"),
        ("bonferroni", "space"),
        ("bonferroni", "scale"),
        ("subspace", "params"),
    ])
    def test_unused_field_rejected(self, kind, field):
        base = _adaptive_scenario()
        values = {
            "scale": base.scale, "params": base.params, "space": dyadic_blocks(32, 4),
            "alpha": 0.9, "sigma": 50.0, "per_coordinate": True,
        }
        used = {"adaptive": ("scale", "params"), "bonferroni": ("alpha", "sigma"),
                "subspace": ("space", "alpha", "sigma")}[kind]
        with pytest.raises(DomainError, match="do not use"):
            Scenario(kind=kind, truth=np.zeros(32), reps=10, seed=1,
                     **{k: values[k] for k in used + (field,)})

    def test_unused_fields_may_stay_none_or_false(self):
        s = Scenario(
            kind="bonferroni", truth=np.zeros(8), reps=10, seed=1, alpha=0.1, sigma=1.0,
            scale=None, params=None, space=None, per_coordinate=False,
        )
        assert s.per_coordinate is False

    @pytest.mark.parametrize("flag", ["no", 1, None, np.True_])
    def test_per_coordinate_must_be_bool(self, flag):
        with pytest.raises(DomainError, match="per_coordinate"):
            Scenario(
                kind="subspace", truth=np.zeros(8), reps=10, seed=1, space=dyadic_blocks(8, 2),
                alpha=0.1, sigma=1.0, per_coordinate=flag,
            )

    @pytest.mark.parametrize("kind", ["bonferroni", "subspace"])
    @pytest.mark.parametrize("alpha, sigma", [(0.1, True), (0.1, "1.0"), ("0.1", 1.0)])
    def test_alpha_and_sigma_must_be_numbers(self, kind, alpha, sigma):
        space = dyadic_blocks(8, 2) if kind == "subspace" else None
        with pytest.raises(DomainError):
            Scenario(kind=kind, truth=np.zeros(8), reps=10, seed=1, space=space, alpha=alpha, sigma=sigma)


class TestMakeSpoiler:
    def test_exact_sup_norm_and_shell(self):
        space = dyadic_blocks(256, 4)
        tuning = optimal_tuning(space, 0.1, 0.1, achievable=True)
        eps2, eps_inf = tuning.eps2[0], tuning.eps_inf[0]
        f = make_spoiler(space, eps2, eps_inf, 0.5)
        resid = f - space.project(f)
        # The construction leaves the projection at zero.
        assert np.max(np.abs(space.project(f))) < 1e-12
        assert norm2(resid) <= eps2 + 1e-12
        assert sup_norm(resid) > eps_inf

    def test_margin_interpolates(self):
        space = dyadic_blocks(64, 2)
        eps2, eps_inf = 0.5, 0.2
        f_lo = make_spoiler(space, eps2, eps_inf, 1e-6)
        f_hi = make_spoiler(space, eps2, eps_inf, 1.0)
        # Tiny margin hugs the visibility threshold; full margin hits the
        # two-norm cap exactly.
        assert sup_norm(f_lo) == pytest.approx(eps_inf, rel=1e-4)
        assert norm2(f_hi) == pytest.approx(eps2, rel=1e-12)

    def test_classified_as_spoiler(self):
        from surrband import SPOILER, classify, NestedScale

        space = dyadic_blocks(256, 4)
        tuning = optimal_tuning(space, 0.1, 0.1, achievable=True)
        f = make_spoiler(space, tuning.eps2[0], tuning.eps_inf[0], 0.5)
        assert classify(NestedScale((space,)), f, tuning) == SPOILER

    def test_margin_domain(self):
        space = dyadic_blocks(64, 2)
        with pytest.raises(DomainError):
            make_spoiler(space, 0.5, 0.2, 0.0)
        with pytest.raises(DomainError):
            make_spoiler(space, 0.5, 0.2, 1.5)

    @pytest.mark.parametrize("eps2, eps_inf, margin", [
        (True, 0.1, 0.5), (0.5, True, 0.5), (0.5, 0.1, True), (True, 0.1, True), ("0.5", 0.1, 0.5),
    ])
    def test_flags_and_strings_are_not_numbers(self, eps2, eps_inf, margin):
        with pytest.raises(DomainError):
            make_spoiler(dyadic_blocks(8, 2), eps2, eps_inf, margin)

    def test_infeasible_when_sup_cap_unreachable(self):
        # eps_inf at or above the attainable excursion: no spoiler exists.
        space = dyadic_blocks(64, 2)
        with pytest.raises(DomainError):
            make_spoiler(space, 0.01, 10.0, 0.5)

    def test_degenerate_when_peak_coordinate_in_span(self):
        # A basis containing a pure spike leaves no residual direction at the
        # peak-leverage coordinate.
        n = 8
        row = np.zeros(n)
        row[0] = np.sqrt(float(n))
        space = Subspace(row[None, :])
        with pytest.raises(DomainError):
            make_spoiler(space, 0.5, 0.2, 0.5)
