"""Tests for design grids, subspaces, projections, and extremal norm ratios.

Closed-form block constructions are checked against hand-computed values, the
orthonormalizer against explicit integer-exact examples and random Gram
checks, and the extremal two-norm/sup-norm trade-off against brute-force
searches over randomly sampled subspace members.
"""

import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from surrband import (
    DesignGrid,
    DomainError,
    NestedScale,
    RankDeficiencyError,
    Subspace,
    cosine_basis,
    dyadic_blocks,
    dyadic_scale,
    function_basis,
    inner_product,
    max_inf_norm_given_two,
    min_two_norm_given_inf,
    norm2,
    orthonormalize,
    sup_norm,
    t_statistic,
)


def _dense_dyadic_rows(n, d):
    """The dyadic basis built row by row, as a dense ``(d, n)`` matrix: the
    reference that the block subspace must reproduce bit for bit."""
    base, extra = divmod(n, d)
    sizes = [base + 1] * extra + [base] * (d - extra)
    rows = np.zeros((d, n))
    start = 0
    for j, size in enumerate(sizes):
        rows[j, start : start + size] = math.sqrt(n / size)
        start += size
    return rows


class TestDesignGrid:
    def test_points(self):
        g = DesignGrid(4)
        assert np.array_equal(g.x, np.array([0.25, 0.5, 0.75, 1.0]))
        assert DesignGrid(1).x[0] == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            DesignGrid(0)


class TestNorms:
    def test_hand_values(self):
        f = np.array([3.0, -4.0, 0.0, 0.0])
        assert norm2(f) == pytest.approx(2.5)  # sqrt(25/4)
        assert sup_norm(f) == 4.0
        assert inner_product(f, np.array([1.0, 1.0, 1.0, 1.0])) == pytest.approx(-0.25)

    def test_normalization_against_linalg(self):
        rng = np.random.default_rng(201)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            f = rng.normal(size=n)
            assert norm2(f) == pytest.approx(np.linalg.norm(f) / math.sqrt(n), rel=1e-12)
            assert sup_norm(f) == np.max(np.abs(f))

    def test_bilinearity(self):
        rng = np.random.default_rng(202)
        f, g, h = rng.normal(size=(3, 16))
        a, b = 2.5, -1.25
        lhs = inner_product(a * f + b * g, h)
        rhs = a * inner_product(f, h) + b * inner_product(g, h)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestOrthonormalize:
    def test_integer_exact(self):
        # Rows already orthogonal with normalized norm 1: returned unchanged
        # up to exact arithmetic.
        rows = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, -1.0, -1.0]])
        basis = orthonormalize(rows)
        assert np.array_equal(basis, rows)

    def test_gram_identity_random(self):
        rng = np.random.default_rng(203)
        for _ in range(30):
            n = int(rng.integers(2, 30))
            d = int(rng.integers(1, n + 1))
            basis = orthonormalize(rng.normal(size=(d, n)))
            gram = basis @ basis.T / n
            assert np.max(np.abs(gram - np.eye(d))) < 1e-12

    def test_span_preserved(self):
        rng = np.random.default_rng(204)
        rows = rng.normal(size=(3, 10))
        basis = orthonormalize(rows)
        # Each original row must be reproduced by projecting onto the output.
        for r in rows:
            recon = (basis @ r / 10) @ basis
            assert np.max(np.abs(recon - r)) < 1e-9

    def test_rank_deficiency_reports_row(self):
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [2.0, 3.0, 0.0]])
        with pytest.raises(RankDeficiencyError) as info:
            orthonormalize(rows)
        assert info.value.row == 2

    def test_zero_row_rejected(self):
        with pytest.raises(RankDeficiencyError) as info:
            orthonormalize(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert info.value.row == 0


class TestSubspace:
    def test_requires_orthonormal_rows(self):
        with pytest.raises(DomainError):
            Subspace(np.array([[1.0, 2.0, 3.0]]))

    def test_basis_read_only(self):
        s = dyadic_blocks(8, 2)
        with pytest.raises(ValueError):
            s.basis[0, 0] = 5.0

    def test_projection_idempotent_and_symmetric(self):
        rng = np.random.default_rng(205)
        s = Subspace(orthonormalize(rng.normal(size=(3, 12))))
        y = rng.normal(size=12)
        z = rng.normal(size=12)
        py = s.project(y)
        assert np.max(np.abs(s.project(py) - py)) < 1e-12
        # Self-adjointness in the normalized inner product.
        assert inner_product(s.project(y), z) == pytest.approx(inner_product(y, s.project(z)), rel=1e-10, abs=1e-12)

    def test_projection_contracts(self):
        rng = np.random.default_rng(206)
        s = Subspace(orthonormalize(rng.normal(size=(2, 9))))
        for _ in range(20):
            y = rng.normal(size=9)
            assert norm2(s.project(y)) <= norm2(y) + 1e-12

    def test_coefficients_round_trip(self):
        s = dyadic_blocks(8, 4)
        y = np.arange(8.0)
        c = s.coefficients(y)
        assert np.max(np.abs(c @ s.basis - s.project(y))) < 1e-12

    def test_members_reproduce(self):
        rng = np.random.default_rng(207)
        s = Subspace(orthonormalize(rng.normal(size=(2, 7))))
        v = 1.5 * s.basis[0] - 0.25 * s.basis[1]
        assert np.max(np.abs(s.project(v) - v)) < 1e-12


class TestDyadicBlocks:
    def test_omega_closed_form_divisible(self):
        for n, d in [(8, 1), (256, 4), (1024, 16), (8, 8)]:
            s = dyadic_blocks(n, d)
            assert abs(s.omega - math.sqrt(d / n)) < 1e-12, (n, d)

    def test_omega_non_divisible(self):
        # n=10, d=3 gives block sizes (4, 3, 3); the peak leverage comes from
        # the smallest block.
        s = dyadic_blocks(10, 3)
        assert s.omega == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)

    def test_projection_is_blockwise_mean(self):
        s = dyadic_blocks(10, 3)
        rng = np.random.default_rng(208)
        y = rng.normal(size=10)
        p = s.project(y)
        blocks = [slice(0, 4), slice(4, 7), slice(7, 10)]
        for b in blocks:
            assert np.allclose(p[b], np.mean(y[b]), rtol=0, atol=1e-12)

    def test_leverage_profile(self):
        s = dyadic_blocks(8, 2)
        profile = s.leverage_profile()
        assert np.allclose(profile, 0.5, atol=1e-12)  # sqrt(d/n) everywhere
        assert s.omega == pytest.approx(np.max(profile), rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            dyadic_blocks(4, 5)
        with pytest.raises(DomainError):
            dyadic_blocks(4, 0)


class TestBlocksMatchDense:
    """Dyadic block subspaces against the dense basis of the same blocks."""

    SHAPES = [(100, 3), (4096, 256), (7, 7), (10, 3), (256, 16), (1, 1), (33, 32)]

    @pytest.mark.parametrize("n, d", SHAPES)
    def test_omega_leverage_and_basis_bitwise(self, n, d):
        rows = _dense_dyadic_rows(n, d)
        s = dyadic_blocks(n, d)
        assert (s.n, s.d) == (n, d)
        leverage = np.sum(rows * rows, axis=0) / n
        assert s.omega == math.sqrt(float(np.max(leverage)))
        assert s.omega == Subspace(rows).omega
        assert np.array_equal(s.leverage_profile().view(np.int64), np.sqrt(leverage).view(np.int64))
        assert np.array_equal(s.basis.view(np.int64), rows.view(np.int64))
        assert not s.basis.flags.writeable

    @pytest.mark.parametrize("n, d", SHAPES)
    def test_projection_coefficients_and_statistic(self, n, d):
        s, dense = dyadic_blocks(n, d), Subspace(_dense_dyadic_rows(n, d))
        rng = np.random.default_rng(1000 + n + d)
        for _ in range(5):
            y = rng.normal(size=n) * rng.uniform(0.1, 10.0)
            assert np.max(np.abs(s.project(y) - dense.project(y))) < 1e-12
            assert np.max(np.abs(s.coefficients(y) - dense.coefficients(y))) < 1e-12
            t_block, t_dense = t_statistic(s, y, 0.7), t_statistic(dense, y, 0.7)
            assert abs(t_block - t_dense) <= 1e-12 * max(1.0, t_dense)

    def test_input_checked(self):
        s = dyadic_blocks(10, 3)
        for bad in (np.ones(9), np.ones((2, 10)), np.full(10, np.nan)):
            with pytest.raises(DomainError):
                s.project(bad)
            with pytest.raises(DomainError):
                s.coefficients(bad)

    def test_immutable(self):
        for s in (dyadic_blocks(8, 2), cosine_basis(8, 2)):
            with pytest.raises(AttributeError):
                s.omega = 1.0

    def test_large_grid_without_dense_basis(self):
        # The dense basis of the finest level would be 65536 x 2**20 doubles.
        n = 2**20
        y = np.random.default_rng(1001).normal(size=n)
        tracemalloc.start()
        try:
            began = time.perf_counter()
            scale = dyadic_scale(n, [1, 1024, 65536])
            p = scale.levels[2].project(y)
            elapsed = time.perf_counter() - began
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 64 * 2**20
        assert np.allclose(p[:16], np.mean(y[:16]), rtol=0, atol=1e-12)


class TestCosineBasis:
    def test_orthonormal(self):
        s = cosine_basis(64, 5)
        gram = s.basis @ s.basis.T / 64
        assert np.max(np.abs(gram - np.eye(5))) < 1e-10

    def test_constant_first_row(self):
        s = cosine_basis(16, 1)
        assert np.allclose(s.basis[0], 1.0, atol=1e-12)

    def test_frozen_omega(self):
        assert cosine_basis(64, 2).omega == pytest.approx(0.21862865010506158, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            cosine_basis(4, 5)


class TestFunctionBasis:
    def test_polynomials(self):
        s = function_basis(32, [lambda x: np.ones_like(x), lambda x: x, lambda x: x * x])
        assert s.d == 3 and s.n == 32
        gram = s.basis @ s.basis.T / 32
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10
        # Quadratics lie in the span.
        y = 2.0 - 3.0 * DesignGrid(32).x + 0.5 * DesignGrid(32).x ** 2
        assert np.max(np.abs(s.project(y) - y)) < 1e-9

    def test_dependent_functions_rejected(self):
        with pytest.raises(RankDeficiencyError):
            function_basis(16, [lambda x: x, lambda x: 2.0 * x])


class TestShapeRefusals:
    """Bases, rows and function lists of a shape no subspace has."""

    @pytest.mark.parametrize(
        "call, stem",
        [
            (lambda: Subspace(np.ones(4)), r"basis must be 2-d \(rows x grid\), got shape \(4,\)"),
            (lambda: Subspace(np.ones((1, 2, 2))), r"basis must be 2-d"),
            (lambda: Subspace(np.eye(3)[:, :2]), r"basis shape \(3, 2\) is not valid"),
            (lambda: Subspace(np.ones((0, 4))), r"basis shape \(0, 4\) is not valid"),
            (lambda: orthonormalize(np.ones(4)), r"expected a nonempty 2-d array of rows"),
            (lambda: orthonormalize(np.ones((0, 4))), r"expected a nonempty 2-d array of rows"),
            (lambda: orthonormalize(np.ones((2, 0))), r"expected a nonempty 2-d array of rows"),
            (lambda: function_basis(8, []), r"need at least one basis function"),
            (lambda: function_basis(8, [lambda x: x[:3]]), r"must each return 8 values"),
            (lambda: NestedScale(()), r"a nested scale needs at least one level"),
        ],
    )
    def test_refused(self, call, stem):
        with pytest.raises(DomainError, match=stem):
            call()


class TestNestedScale:
    def test_valid_dyadic_chain(self):
        scale = dyadic_scale(256, [1, 4, 16])
        assert scale.m == 3
        assert scale.dims == (1, 4, 16)
        assert scale.n == 256
        assert len(scale.omegas) == 3
        assert scale.omegas[0] == pytest.approx(math.sqrt(1.0 / 256.0), rel=1e-12)

    def test_non_nested_rejected(self):
        # Blocks of 8/2 do not refine into blocks of 8/3.
        with pytest.raises(DomainError):
            NestedScale((dyadic_blocks(8, 2), dyadic_blocks(8, 3)))

    def test_nested_pair_accepted(self):
        NestedScale((dyadic_blocks(8, 2), dyadic_blocks(8, 4)))

    def test_dimension_order_enforced(self):
        with pytest.raises(DomainError):
            NestedScale((dyadic_blocks(8, 4), dyadic_blocks(8, 2)))
        with pytest.raises(DomainError):
            NestedScale((dyadic_blocks(8, 2), dyadic_blocks(8, 2)))

    def test_mixed_lengths_rejected(self):
        with pytest.raises(DomainError):
            NestedScale((dyadic_blocks(8, 2), dyadic_blocks(16, 4)))

    @pytest.mark.parametrize("n, dims, level", [(100, [1, 3, 7], 2), (8, [2, 3], 1), (10, [2, 4], 1)])
    def test_non_nested_blocks_message(self, n, dims, level):
        message = (
            f"level {level} is not contained in level {level + 1}: "
            "a basis row fails to reconstruct"
        )
        with pytest.raises(DomainError, match=re.escape(message)):
            dyadic_scale(n, dims)
        dense = tuple(Subspace(_dense_dyadic_rows(n, d)) for d in dims)
        with pytest.raises(DomainError, match=re.escape(message)):
            NestedScale(dense)

    def test_block_nesting_agrees_with_projection_check(self):
        def accepted(levels):
            try:
                NestedScale(levels)
            except DomainError:
                return False
            return True

        for n in (1, 6, 12, 13, 16, 30):
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    blocks = (dyadic_blocks(n, a), dyadic_blocks(n, b))
                    dense = (Subspace(_dense_dyadic_rows(n, a)), Subspace(_dense_dyadic_rows(n, b)))
                    assert accepted(blocks) == accepted(dense), (n, a, b)

    def test_only_mixed_chains_project(self, monkeypatch):
        # Subspace._project is the dense routine; _Blocks has its own.
        calls = []
        project = Subspace._project
        monkeypatch.setattr(Subspace, "_project", lambda s, y: calls.append((s.d, y.shape)) or project(s, y))
        dyadic_scale(64, [1, 4, 16])
        assert calls == []
        NestedScale((dyadic_blocks(64, 1), cosine_basis(64, 3)))
        assert calls == [(3, (1, 64))]  # the coarse basis, one block on the cosines
        with pytest.raises(DomainError, match="level 1 is not contained in level 2"):
            NestedScale((dyadic_blocks(64, 2), cosine_basis(64, 3)))
        with pytest.raises(DomainError, match="level 1 is not contained in level 2"):
            NestedScale((cosine_basis(64, 2), dyadic_blocks(64, 4)))
        NestedScale((cosine_basis(64, 1), dyadic_blocks(64, 4)))

    def test_projections_telescope(self):
        scale = dyadic_scale(64, [2, 8, 32])
        rng = np.random.default_rng(209)
        y = rng.normal(size=64)
        coarse = scale.levels[0].project(y)
        fine = scale.levels[2].project(y)
        # Projecting the finer fit onto the coarse level reproduces the
        # coarse fit exactly (nesting).
        assert np.max(np.abs(scale.levels[0].project(fine) - coarse)) < 1e-10


class TestExtremalNormRatios:
    def test_inverse_pair(self):
        s = dyadic_blocks(256, 4)
        eps_inf = 0.375
        e2 = min_two_norm_given_inf(s, eps_inf)
        assert max_inf_norm_given_two(s, e2) == pytest.approx(eps_inf, rel=1e-12)

    def test_closed_form_on_blocks(self):
        # For equal blocks Omega = sqrt(d/n), so the minimal two-norm at
        # sup-norm eps is eps / sqrt(n * d / n) = eps / sqrt(d).
        s = dyadic_blocks(256, 4)
        assert min_two_norm_given_inf(s, 1.0) == pytest.approx(0.5, rel=1e-12)
        assert max_inf_norm_given_two(s, 0.5) == pytest.approx(1.0, rel=1e-12)

    def test_min_two_norm_is_attained_lower_bound(self):
        # Brute force: every member of the subspace with sup norm exactly
        # eps_inf has two-norm at least the reported minimum, and the peak
        # direction attains it.
        rng = np.random.default_rng(210)
        for trial in range(10):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, min(n, 3)))
            s = Subspace(orthonormalize(rng.normal(size=(d, n))))
            eps_inf = 1.3
            claimed = min_two_norm_given_inf(s, eps_inf)
            best = np.inf
            for _ in range(400):
                c = rng.normal(size=d)
                v = c @ s.basis
                peak = sup_norm(v)
                if peak < 1e-12:
                    continue
                v = v * (eps_inf / peak)
                best = min(best, norm2(v))
                assert norm2(v) >= claimed - 1e-9, trial
            # The random search gets close to the claimed minimum.
            assert best <= claimed * 1.5, (trial, best, claimed)

    def test_max_inf_norm_is_attained_upper_bound(self):
        rng = np.random.default_rng(211)
        for trial in range(10):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(1, min(n, 3)))
            s = Subspace(orthonormalize(rng.normal(size=(d, n))))
            eps2 = 0.7
            claimed = max_inf_norm_given_two(s, eps2)
            for _ in range(400):
                c = rng.normal(size=d)
                v = c @ s.basis
                nv = norm2(v)
                if nv < 1e-12:
                    continue
                v = v * (eps2 / nv)
                assert sup_norm(v) <= claimed + 1e-9, trial

    def test_witness_attains_extreme(self):
        # The leverage-peak witness: the member whose coefficients are the
        # basis column at the peak coordinate maximizes sup/two-norm ratio.
        s = dyadic_blocks(10, 3)
        i0 = int(np.argmax(s.leverage_profile()))
        witness = s.basis[:, i0] @ s.basis
        ratio = sup_norm(witness) / norm2(witness)
        assert ratio == pytest.approx(math.sqrt(10.0) * s.omega, rel=1e-10)

    def test_domain(self):
        s = dyadic_blocks(8, 2)
        with pytest.raises(DomainError):
            min_two_norm_given_inf(s, -1.0)
        with pytest.raises(DomainError):
            max_inf_norm_given_two(s, -0.5)


class TestBlockProjection:
    """``_project`` of a ``(k, n)`` block against ``_project`` of each row."""

    @pytest.mark.parametrize("n, d", TestBlocksMatchDense.SHAPES)
    def test_dyadic_rows_bitwise(self, n, d):
        s = dyadic_blocks(n, d)
        block = np.random.default_rng(2000 + n + d).normal(size=(5, n)) * 3.0
        for offset in range(5):  # blocks starting at every row
            got = s._project(block[offset:])
            for row, y in zip(got, block[offset:]):
                assert np.array_equal(row.view(np.int64), s._project(y.copy()).view(np.int64))

    def test_dense_rows_bitwise(self):
        s = cosine_basis(33, 4)
        block = np.random.default_rng(2001).normal(size=(4, 33))
        got = s._project(block)
        assert got.shape == block.shape
        for row, y in zip(got, block):
            assert np.array_equal(row.view(np.int64), s.project(y).view(np.int64))


class TestNoCoercion:
    """A bool or a string is neither a count nor a number here."""

    SPACE = dyadic_blocks(8, 2)

    @pytest.mark.parametrize("call", [
        lambda: DesignGrid(True),
        lambda: dyadic_blocks(8, True),
        lambda: dyadic_blocks(True, 1),
        lambda: cosine_basis(8, True),
        lambda: cosine_basis(8, "2"),
        lambda: min_two_norm_given_inf(TestNoCoercion.SPACE, "0.5"),
        lambda: max_inf_norm_given_two(TestNoCoercion.SPACE, True),
    ])
    def test_rejected(self, call):
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize("call", [
        lambda: dyadic_blocks(4, 2).project(["1", "2", "3", "4"]),
        lambda: dyadic_blocks(4, 2).coefficients([True, False, True, False]),
        lambda: cosine_basis(4, 2).project(np.array([1.0, 2.0, 3.0, None], dtype=object)),
        lambda: norm2([1j, 1.0]),
        lambda: inner_product([1.0, 2.0], [True, False]),
        lambda: Subspace([[True] * 4]),
        lambda: Subspace([["1", "1", "1", "1"]]),
        lambda: orthonormalize([[True, False, True]]),
        lambda: orthonormalize(np.array([["1", "0"]])),
    ])
    def test_arrays_of_non_numbers_rejected(self, call):
        with pytest.raises(DomainError, match="entries must be real numbers"):
            call()

    def test_numpy_counts_and_numbers_pass(self):
        assert DesignGrid(np.int64(4)).n == 4
        assert dyadic_blocks(np.int64(8), np.int32(2)).d == 2
        assert cosine_basis(8, np.int64(2)).d == 2
        assert min_two_norm_given_inf(self.SPACE, np.float32(0.5)) == min_two_norm_given_inf(self.SPACE, 0.5)
