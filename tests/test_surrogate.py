"""Tests for surrogate-target selection and tuning-radius calculators.

Boundary semantics of the target rule are pinned with exact dyadic floats so
ties are bitwise; tuning radii are checked against frozen reference values
computed independently with scipy.stats root-finding.
"""

import math

import numpy as np
import pytest

from surrband import (
    INVARIANT,
    SPOILER,
    DomainError,
    NestedScale,
    Subspace,
    SurrogateTuning,
    classify,
    dyadic_blocks,
    norm2,
    optimal_tuning,
    nested_tuning,
    selected_levels,
    sup_norm,
    surrogate_set,
    surrogate_target,
    dyadic_scale,
)

# A two-level nest on four points built from exactly representable rows:
# level 1 is the constant direction, level 2 adds the half-contrast.
_ROWS1 = np.array([[1.0, 1.0, 1.0, 1.0]])
_ROWS2 = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, -1.0, -1.0]])


def _exact_scale():
    return NestedScale((Subspace(_ROWS1), Subspace(_ROWS2)))


# f = (2,2,2,2) + (0.5,-0.5,0,0): both projections equal (2,2,2,2) exactly,
# residual has two-norm sqrt(0.125) and sup-norm 0.5 in exact floats.
_F_TIE = np.array([2.5, 1.5, 2.0, 2.0])
_RESID_NORM2 = math.sqrt(0.125)


class TestSurrogateTarget:
    def test_spoiler_returns_projection(self):
        s = Subspace(_ROWS1)
        target = surrogate_target(s, _F_TIE, eps2=0.4, eps_inf=0.25)
        assert np.array_equal(target, np.array([2.0, 2.0, 2.0, 2.0]))

    def test_far_function_returns_itself(self):
        s = Subspace(_ROWS1)
        target = surrogate_target(s, _F_TIE, eps2=0.1, eps_inf=0.25)
        assert np.array_equal(target, _F_TIE)

    def test_two_norm_tie_counts_as_close(self):
        # Residual two-norm exactly equal to eps2: still within the shell.
        s = Subspace(_ROWS1)
        target = surrogate_target(s, _F_TIE, eps2=_RESID_NORM2, eps_inf=0.25)
        assert np.array_equal(target, np.array([2.0, 2.0, 2.0, 2.0]))

    def test_sup_norm_tie_is_not_visible(self):
        # Residual sup-norm exactly equal to eps_inf: the excursion is NOT
        # strictly larger, so the function is its own target.
        s = Subspace(_ROWS1)
        target = surrogate_target(s, _F_TIE, eps2=0.4, eps_inf=0.5)
        assert np.array_equal(target, _F_TIE)

    def test_member_is_its_own_target(self):
        s = Subspace(_ROWS1)
        f = np.array([3.0, 3.0, 3.0, 3.0])
        assert np.array_equal(surrogate_target(s, f, 0.5, 0.1), f)


class TestSelectedLevels:
    def test_both_levels_spoiled(self):
        scale = _exact_scale()
        tuning = SurrogateTuning(eps2=(0.4, 0.4), eps_inf=(0.25, 0.25))
        assert selected_levels(scale, _F_TIE, tuning) == (1, 2)

    def test_no_levels(self):
        scale = _exact_scale()
        tuning = SurrogateTuning(eps2=(0.1, 0.1), eps_inf=(0.25, 0.25))
        assert selected_levels(scale, _F_TIE, tuning) == ()

    def test_single_level(self):
        scale = _exact_scale()
        # Level 1 within shell and visible; level 2 shell too small.
        tuning = SurrogateTuning(eps2=(0.4, 0.1), eps_inf=(0.25, 0.25))
        assert selected_levels(scale, _F_TIE, tuning) == (1,)


class TestSurrogateSet:
    def test_deduplicates_equal_projections(self):
        scale = _exact_scale()
        tuning = SurrogateTuning(eps2=(0.4, 0.4), eps_inf=(0.25, 0.25))
        candidates = surrogate_set(scale, _F_TIE, tuning)
        assert len(candidates) == 2
        proj, ident = candidates
        assert np.array_equal(proj.values, np.array([2.0, 2.0, 2.0, 2.0]))
        assert proj.tags == ("projection:1", "projection:2")
        assert np.array_equal(ident.values, _F_TIE)
        assert ident.tags == ("identity",)

    def test_invariant_function_single_candidate(self):
        scale = _exact_scale()
        tuning = SurrogateTuning(eps2=(0.1, 0.1), eps_inf=(0.25, 0.25))
        candidates = surrogate_set(scale, _F_TIE, tuning)
        assert len(candidates) == 1
        assert candidates[0].tags == ("identity",)

    def test_each_level_projected_once(self, monkeypatch):
        # Level 1 is a spoiler level and level 2 is not; the candidate is the
        # projection that the spoiler test already made.
        scale = _exact_scale()
        tuning = SurrogateTuning(eps2=(0.4, 0.1), eps_inf=(0.25, 0.25))
        want = scale.levels[0].project(_F_TIE)
        calls = []
        original = Subspace._project

        def counting(space, y):
            calls.append(scale.levels.index(space) + 1)
            return original(space, y)

        monkeypatch.setattr(Subspace, "_project", counting)
        proj, ident = surrogate_set(scale, _F_TIE, tuning)
        assert sorted(calls) == [1, 2]
        assert proj.tags == ("projection:1",)
        assert np.array_equal(proj.values.view(np.int64), want.view(np.int64))
        assert np.array_equal(ident.values, _F_TIE)


class TestClassify:
    def test_spoiler(self):
        scale = _exact_scale()
        tuning = SurrogateTuning(eps2=(0.4, 0.4), eps_inf=(0.25, 0.25))
        assert classify(scale, _F_TIE, tuning) == SPOILER == "spoiler"

    def test_invariant(self):
        scale = _exact_scale()
        tuning = SurrogateTuning(eps2=(0.1, 0.1), eps_inf=(0.25, 0.25))
        assert classify(scale, _F_TIE, tuning) == INVARIANT == "invariant"

    def test_coarsest_member_always_invariant(self):
        # A member of the coarsest level has zero residual at every level, so
        # no shell can make it a spoiler even with eps_inf = 0.
        scale = _exact_scale()
        tuning = SurrogateTuning(eps2=(5.0, 5.0), eps_inf=(0.0, 0.0))
        f = np.array([3.0, 3.0, 3.0, 3.0])
        assert classify(scale, f, tuning) == INVARIANT

    def test_finer_member_can_spoil_coarse_level(self):
        # A finest-level member with a large coarse residual is exactly the
        # spoiler configuration at the coarse level.
        scale = _exact_scale()
        tuning = SurrogateTuning(eps2=(5.0, 5.0), eps_inf=(0.0, 0.0))
        f = np.array([1.0, 1.0, -1.0, -1.0])
        assert selected_levels(scale, f, tuning) == (1,)
        assert classify(scale, f, tuning) == SPOILER


class TestSurrogateTuningValidation:
    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            SurrogateTuning(eps2=(0.1,), eps_inf=(0.1, 0.2))

    def test_negative_radius(self):
        with pytest.raises(DomainError):
            SurrogateTuning(eps2=(-0.1,), eps_inf=(0.1,))

    def test_empty(self):
        with pytest.raises(DomainError):
            SurrogateTuning(eps2=(), eps_inf=())


class TestOptimalTuning:
    def test_lower_bound_radius_frozen(self):
        s = dyadic_blocks(256, 4)
        t = optimal_tuning(s, 0.05, 0.05)
        assert t.eps2[0] == pytest.approx(0.6394039241397547, rel=1e-11)

    def test_achievable_radius_frozen(self):
        s = dyadic_blocks(256, 4)
        t = optimal_tuning(s, 0.05, 0.05, achievable=True)
        assert t.eps2[0] == pytest.approx(0.6493095479110208, rel=1e-9)
        t2 = optimal_tuning(s, 0.1, 0.1, achievable=True)
        assert t2.eps2[0] == pytest.approx(0.628706722578318, rel=1e-9)

    def test_sup_radius_frozen(self):
        s = dyadic_blocks(256, 4)
        t = optimal_tuning(s, 0.1, 0.1, achievable=True)
        assert t.eps_inf[0] == pytest.approx(0.25910834737344746, rel=1e-11)
        # Same sup radius regardless of the two-norm branch.
        assert optimal_tuning(s, 0.1, 0.1).eps_inf[0] == t.eps_inf[0]

    def test_sigma_scales_both_radii(self):
        s = dyadic_blocks(256, 4)
        base = optimal_tuning(s, 0.05, 0.05, sigma=1.0)
        scaled = optimal_tuning(s, 0.05, 0.05, sigma=2.0)
        assert scaled.eps_inf[0] == pytest.approx(2.0 * base.eps_inf[0], rel=1e-12)
        assert scaled.eps2[0] == 2.0 * base.eps2[0]

    def test_full_space_two_norm_radius_zero(self):
        s = dyadic_blocks(8, 8)
        t = optimal_tuning(s, 0.05, 0.05)
        assert t.eps2[0] == 0.0

    def test_lengths(self):
        s = dyadic_blocks(256, 4)
        t = optimal_tuning(s, 0.05, 0.05)
        assert len(t.eps2) == 1 and len(t.eps_inf) == 1


class TestNestedTuning:
    def test_frozen_triples(self):
        scale = dyadic_scale(256, [1, 4, 16])
        t = nested_tuning(scale, 0.1, 0.1)
        want2 = (0.6412984750454714, 0.6394039241397547, 0.6316521409879461)
        wantinf = (0.12955417368672373, 0.25910834737344746, 0.5182166947468949)
        for got, want in zip(t.eps2, want2):
            assert got == pytest.approx(want, rel=1e-9)
        for got, want in zip(t.eps_inf, wantinf):
            assert got == pytest.approx(want, rel=1e-11)

    def test_default_split_is_equal(self):
        scale = dyadic_scale(256, [1, 4, 16])
        t_default = nested_tuning(scale, 0.1, 0.1)
        t_explicit = nested_tuning(scale, 0.1, 0.1, alphas=[0.025, 0.025, 0.025, 0.025])
        assert t_default.eps2 == t_explicit.eps2
        assert t_default.eps_inf == t_explicit.eps_inf

    def test_alphas_length_validated(self):
        scale = dyadic_scale(256, [1, 4, 16])
        with pytest.raises(DomainError):
            nested_tuning(scale, 0.1, 0.1, alphas=[0.05, 0.05])

    def test_lower_bound_variant_uses_global_level(self):
        scale = dyadic_scale(256, [1, 4, 16])
        t = nested_tuning(scale, 0.1, 0.1, achievable=False)
        # The lower-bound radius depends on (n, d_j) through the global
        # alpha, and at d=4 matches the single-subspace value.
        single = optimal_tuning(dyadic_blocks(256, 4), 0.1, 0.1)
        assert t.eps2[1] == single.eps2[0]

    def test_sup_radii_scale_with_omega(self):
        scale = dyadic_scale(256, [1, 4, 16])
        t = nested_tuning(scale, 0.1, 0.1)
        # Omegas double level to level here, and the sup radius is linear in
        # the leverage.
        assert t.eps_inf[1] == pytest.approx(2.0 * t.eps_inf[0], rel=1e-12)
        assert t.eps_inf[2] == pytest.approx(4.0 * t.eps_inf[0], rel=1e-12)


class TestTuningOnData:
    def test_noiseless_member_never_spoils(self):
        # A function inside the finest level with moderate norm is invariant
        # under the recommended tuning.
        scale = dyadic_scale(256, [1, 4, 16])
        t = nested_tuning(scale, 0.1, 0.1)
        f = np.repeat([1.5, 0.5, -0.5, -1.5], 64)
        assert classify(scale, f, t) == INVARIANT
        assert selected_levels(scale, f, t) == ()

    def test_crafted_spoiler_detected(self):
        scale = dyadic_scale(256, [1, 4, 16])
        t = nested_tuning(scale, 0.1, 0.1)
        s1 = scale.levels[0]
        spike = np.zeros(256)
        spike[0] = 1.0
        resid = spike - s1.project(spike)
        resid = resid / sup_norm(resid)
        # Scale so the level-1 residual sits inside the two-norm shell but
        # pokes above the sup threshold.
        h = 0.5 * (t.eps_inf[0] + t.eps2[0] / norm2(resid))
        f = h * resid
        assert 1 in selected_levels(scale, f, t)
        assert classify(scale, f, t) == SPOILER


class TestNoCoercion:
    """A bool or a string is not a number here."""

    SPACE = dyadic_blocks(8, 2)

    @pytest.mark.parametrize("call", [
        lambda: SurrogateTuning(["0.1"], [0.5]),
        lambda: SurrogateTuning([0.1], [True]),
        lambda: SurrogateTuning(True, 0.5),
        lambda: surrogate_target(TestNoCoercion.SPACE, np.zeros(8), "0.5", 0.1),
        lambda: surrogate_target(TestNoCoercion.SPACE, np.zeros(8), 0.5, True),
        lambda: nested_tuning(dyadic_scale(8, [1, 2]), 0.1, 0.2, sigma="1"),
        lambda: nested_tuning(dyadic_scale(8, [1, 2]), True, 0.2),
        lambda: nested_tuning(dyadic_scale(8, [1, 2]), 0.1, 0.2, alphas=(0.02, 0.02, "0.02")),
        lambda: optimal_tuning(TestNoCoercion.SPACE, 0.1, 0.2, sigma=True),
    ])
    def test_rejected(self, call):
        with pytest.raises(DomainError):
            call()

    @pytest.mark.parametrize("call", [surrogate_target, selected_levels, surrogate_set, classify])
    @pytest.mark.parametrize("f", [[True, False] * 4, [str(i) for i in range(8)]])
    def test_vectors_of_non_numbers_rejected(self, call, f):
        scale = dyadic_scale(8, [2])
        first = scale.levels[0] if call is surrogate_target else scale
        rest = (0.5, 0.1) if call is surrogate_target else (SurrogateTuning([0.5], [0.1]),)
        with pytest.raises(DomainError, match="vector entries"):
            call(first, f, *rest)

    def test_numpy_numbers_pass(self):
        assert SurrogateTuning([np.float32(0.5)], [np.int64(1)]) == SurrogateTuning([0.5], [1.0])
        assert SurrogateTuning(np.float32(0.5), np.int64(1)) == SurrogateTuning([0.5], [1.0])
