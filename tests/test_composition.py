"""Product composition: normalization, log decomposition, ensemble targets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mskd.composition import (
    UnifiedWeightOperator,
    normalize_rows,
    uniform_unified,
    weighted_ensemble,
)
from mskd.core import (
    DimensionMismatch,
    UnresolvedReference,
    WeightBounds,
    normalize_exact,
    seeded_sampler,
    validate_distribution,
)
from mskd.operators import ContextOperator, TaskOperator, TokenOperator, check_conformance

from fixture_worlds import appendix_safety_world, appendix_world, conformance_world
from reference_measures import effective_bounds

# the Appendix A teacher rows
APPENDIX_TEACHER_1 = (0.8, 0.15, 0.05)
APPENDIX_TEACHER_2 = (0.4, 0.35, 0.25)

WIDE = WeightBounds(0.01, 0.99)


def component_logs(g, x, i, t, c, world):
    """Per-teacher logs of the three scale weights at one point, and of their unnormalized product."""
    w_tok, w_task, w_ctx = g.components(x, i, t, c, world)
    return np.log(w_tok), np.log(w_task), np.log(w_ctx), np.log(w_tok * w_task * w_ctx)


def adaptive_operator(bounds=WIDE, world=None):
    st_tokens = world.vocab.safety_tokens if world is not None else frozenset()
    return UnifiedWeightOperator(
        TokenOperator("family_a", safety_tokens=st_tokens),
        TaskOperator("family_c"),
        ContextOperator("family_a"),
        bounds,
    )


class TestWeightedEnsemble:
    def test_appendix_uniform_mixture(self):
        q = weighted_ensemble([0.5, 0.5], [APPENDIX_TEACHER_1, APPENDIX_TEACHER_2])
        np.testing.assert_allclose(q, [0.6, 0.25, 0.15], atol=1e-12, rtol=0)

    def test_appendix_adaptive_mixture(self):
        w1 = (1 / 0.68) / (1 / 0.68 + 1 / 1.52)
        q = weighted_ensemble([w1, 1 - w1], [APPENDIX_TEACHER_1, APPENDIX_TEACHER_2])
        oracle = [w1 * a + (1 - w1) * b
                  for a, b in zip(APPENDIX_TEACHER_1, APPENDIX_TEACHER_2)]
        np.testing.assert_allclose(q, oracle, atol=1e-12)
        np.testing.assert_allclose(q, [0.68, 0.21, 0.11], atol=0.005)

    def test_vertex_weight_returns_that_teacher(self):
        q = weighted_ensemble([1.0, 0.0], [APPENDIX_TEACHER_1, APPENDIX_TEACHER_2])
        np.testing.assert_array_equal(q, APPENDIX_TEACHER_1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            weighted_ensemble([0.5, 0.5, 0.0], [APPENDIX_TEACHER_1, APPENDIX_TEACHER_2])

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_convex_envelope(self, k, seed):
        rng = np.random.default_rng(seed)
        dists = rng.dirichlet(np.ones(5), size=k)
        w = rng.dirichlet(np.ones(k))
        q = weighted_ensemble(w, dists)
        validate_distribution(q)
        assert np.all(q >= dists.min(axis=0) - 1e-12)
        assert np.all(q <= dists.max(axis=0) + 1e-12)


class TestUnifiedWeight:
    def test_all_uniform_components(self):
        world = appendix_world()
        g = uniform_unified(WIDE)
        np.testing.assert_array_equal(g.unified_weight(0, 0, 0, 0, world), [0.5, 0.5])

    def test_product_oracle(self):
        # (0.7, 0.3) * (0.5, 0.5) * (0.8, 0.2) -> (0.28, 0.03) -> normalize
        world = appendix_world()
        g = UnifiedWeightOperator(
            TokenOperator("custom", fn=lambda *a: np.array([0.7, 0.3])),
            TaskOperator("custom", fn=lambda *a: np.array([0.5, 0.5])),
            ContextOperator("custom", fn=lambda *a: np.array([0.8, 0.2])),
            WIDE)
        w = g.unified_weight(0, 0, 0, 0, world)
        np.testing.assert_allclose(w, [0.28 / 0.31, 0.03 / 0.31], atol=1e-12)
        np.testing.assert_allclose(w, [0.90323, 0.09677], atol=1e-5)

    def test_permutation_equivariance(self):
        world = appendix_world()
        g = UnifiedWeightOperator(
            TokenOperator("custom", fn=lambda *a: np.array([0.7, 0.3])),
            TaskOperator("custom", fn=lambda *a: np.array([0.6, 0.4])),
            ContextOperator("custom", fn=lambda *a: np.array([0.8, 0.2])),
            WIDE)
        g_perm = UnifiedWeightOperator(
            TokenOperator("custom", fn=lambda *a: np.array([0.3, 0.7])),
            TaskOperator("custom", fn=lambda *a: np.array([0.4, 0.6])),
            ContextOperator("custom", fn=lambda *a: np.array([0.2, 0.8])),
            WIDE)
        w = g.unified_weight(0, 0, 0, 0, world)
        wp = g_perm.unified_weight(0, 0, 0, 0, world)
        np.testing.assert_array_equal(w, wp[::-1])

    def test_normalization_and_effective_bounds_sweep(self):
        world = conformance_world("sharp_safe")
        bounds = WeightBounds(0.05, 0.75)
        g = adaptive_operator(bounds, world)
        lo, hi = effective_bounds(bounds, world.bank.k)
        sampler = seeded_sampler(9)
        for _ in range(1000):
            x = world.inputs[int(sampler.integers(0, len(world.inputs)))].id
            i = int(sampler.integers(0, world.vocab.size))
            t = world.tasks[int(sampler.integers(0, len(world.tasks)))].id
            c = world.contexts[int(sampler.integers(0, len(world.contexts)))].id
            w = g.unified_weight(x, i, t, c, world)
            assert abs(w.sum() - 1.0) <= 1e-9
            assert np.all(w >= lo - 1e-12)
            assert np.all(w <= hi + 1e-12)

    def test_log_decomposition_identity(self):
        world = conformance_world("sharp_safe")
        g = adaptive_operator(world=world)
        sampler = seeded_sampler(10)
        for _ in range(1000):
            x = world.inputs[int(sampler.integers(0, len(world.inputs)))].id
            i = int(sampler.integers(0, world.vocab.size))
            t = world.tasks[int(sampler.integers(0, len(world.tasks)))].id
            c = world.contexts[int(sampler.integers(0, len(world.contexts)))].id
            lt, lk, lc, lu = component_logs(g, x, i, t, c, world)
            np.testing.assert_allclose(lu, lt + lk + lc, atol=1e-12, rtol=0)

    def test_log_decomposition_uniform_case(self):
        world = appendix_world()
        g = uniform_unified(WIDE)
        lt, lk, lc, lu = component_logs(g, 0, 0, 0, 0, world)
        np.testing.assert_allclose(lt, -math.log(2), atol=1e-15)
        np.testing.assert_allclose(lu, -3 * math.log(2), atol=1e-12)

    def test_unified_log_product_value(self):
        world = appendix_world()
        g = UnifiedWeightOperator(
            TokenOperator("custom", fn=lambda *a: np.array([0.7, 0.3])),
            TaskOperator("custom", fn=lambda *a: np.array([0.5, 0.5])),
            ContextOperator("custom", fn=lambda *a: np.array([0.8, 0.2])),
            WIDE)
        _, _, _, lu = component_logs(g, 0, 0, 0, 0, world)
        assert lu[0] == pytest.approx(math.log(0.28), abs=1e-12)
        assert lu[0] == pytest.approx(-1.27297, abs=5e-6)


class TestSubsetComposition:
    def test_token_only_composition_conforms(self):
        # omitted scales set to uniform still yield a conforming token operator
        world = conformance_world("sharp_safe")
        bounds = WeightBounds(0.02, 0.9)
        g = UnifiedWeightOperator(
            TokenOperator("family_a", safety_tokens=world.vocab.safety_tokens),
            TaskOperator("uniform"), ContextOperator("uniform"), bounds)

        class TokenView:
            family = "composed"

            def weights(self, x, i, c, bank, bounds_):
                return g.unified_weight(x, i, 0, c, world)

        report = check_conformance(TokenView(), "token", world, bounds,
                                   seeded_sampler(12), 400)
        assert report.all_passed, report.failures()

    def test_task_plus_context_composition_conforms(self):
        world = conformance_world("sharp_safe")
        bounds = WeightBounds(0.02, 0.9)
        g = UnifiedWeightOperator(
            TokenOperator("uniform"), TaskOperator("family_c"),
            ContextOperator("family_a"), bounds)

        class ContextView:
            family = "composed"

            def weights(self, c, bank, bounds_):
                return g.unified_weight(world.inputs[0].id, 0, world.tasks[0].id, c.id, world)

        report = check_conformance(ContextView(), "context", world, bounds,
                                   seeded_sampler(13), 200)
        assert report.all_passed, report.failures()


class TestEnsembleTarget:
    def test_matches_plain_mixture_without_safety_tokens(self):
        world = appendix_world()
        g = adaptive_operator(world=world)
        target = g.ensemble_target(0, 0, 0, world)
        w = g.unified_weight(0, 0, 0, 0, world)
        mix = w @ world.bank.dists(0, 0)
        np.testing.assert_allclose(target, mix / mix.sum(), atol=1e-15)

    def test_safety_token_rows_renormalized(self):
        world = appendix_safety_world()
        g = UnifiedWeightOperator(
            TokenOperator("family_a", safety_tokens=world.vocab.safety_tokens),
            TaskOperator("uniform"), ContextOperator("uniform"), WIDE)
        target = g.ensemble_target(0, 0, 0, world)
        validate_distribution(target)
        # safety-token boost shifts mass toward the safer teacher's prediction
        base = g.unified_weight(0, -1, 0, 0, world)
        boosted = g.unified_weight(0, 0, 0, 0, world)
        assert boosted[0] > base[0]


def _custom_token_weights(x, i, c, bank, bounds):
    boost = 2.0 if i in (0, 1) else 1.0  # conformance_world's safety tokens
    return np.arange(1.0, bank.k + 1.0) * boost + 0.1 * x + 0.01 * c


class TestWeightTable:
    @pytest.mark.parametrize("token_op", [
        TokenOperator("inverse_entropy"),
        TokenOperator("family_a", safety_tokens=frozenset({0, 1})),
        TokenOperator("custom", fn=_custom_token_weights),
    ], ids=["index_independent", "safety_token_dependent", "custom"])
    def test_matches_unified_weight_at_every_point(self, token_op):
        world = conformance_world()
        g = UnifiedWeightOperator(token_op, TaskOperator("family_c"),
                                  ContextOperator("family_b"), WIDE)
        table = g.weight_table(world)
        assert table.shape == (len(world.tasks), len(world.inputs), len(world.contexts),
                               world.vocab.size, world.bank.k)
        for tj, t in enumerate(world.tasks):
            for xi, x in enumerate(world.inputs):
                for ci, c in enumerate(world.contexts):
                    for i in range(world.vocab.size):
                        w = g.unified_weight(x.id, i, t.id, c.id, world)
                        assert table[tj, xi, ci, i].tobytes() == w.tobytes()

    def test_normalize_rows_matches_normalize_exact_per_row(self):
        world = conformance_world()
        g = adaptive_operator(world=world)
        shifted = g.weight_table(world) + 0.003 * np.linspace(-1.0, 1.0, world.bank.k)
        for rows in (shifted, shifted.transpose(1, 0, 2, 3, 4)):  # C-ordered and strided
            flat = rows.reshape(-1, world.bank.k)
            assert len(np.unique(flat, axis=0)) < len(flat)  # repeated rows share one result
            before = rows.copy()
            expect = np.array([normalize_exact(r) for r in flat]).reshape(rows.shape)
            assert normalize_rows(rows).tobytes() == expect.tobytes()
            assert rows.tobytes() == before.tobytes()  # a new array; the input is untouched

    def test_unknown_ids_are_unresolved_references(self):
        world = appendix_world()
        g = adaptive_operator(world=world)
        with pytest.raises(UnresolvedReference):
            g.components(0, 0, 0, 99, world)
        with pytest.raises(UnresolvedReference):
            g.ensemble_target(0, 99, 0, world)
