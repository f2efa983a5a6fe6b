"""Core types: distribution validation, entropy, bounds, sampler determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mskd.core import (
    InfeasibleBounds,
    NegativeMass,
    NotNormalized,
    StudentParams,
    VocabularySpec,
    WeightBounds,
    entropy,
    seeded_sampler,
    softmax,
    validate_distribution,
)
from mskd.worlds import convergence_world


@st.composite
def distributions(draw, min_size=2, max_size=12):
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    raw = draw(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=size, max_size=size))
    arr = np.array(raw)
    return arr / arr.sum()


class TestValidateDistribution:
    def test_point_mass_is_valid(self):
        p = validate_distribution([1.0, 0.0, 0.0])
        assert p.sum() == 1.0

    def test_confident_teacher_is_valid(self):
        p = validate_distribution([0.8, 0.15, 0.05])
        np.testing.assert_allclose(p, [0.8, 0.15, 0.05])

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeMass):
            validate_distribution([0.5, 0.6, -0.1])

    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalized):
            validate_distribution([0.7, 0.7])

    def test_nan_entry_rejected(self):
        with pytest.raises(NotNormalized):
            validate_distribution([math.nan, 0.5, 0.5])

    def test_tiny_negative_clamped(self):
        p = validate_distribution([1.0, -1e-13, 1e-13])
        assert p[1] == 0.0

    def test_wrong_length_rejected(self):
        from mskd.core import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            validate_distribution([0.5, 0.5], vocab_size=3)

    def test_result_is_read_only(self):
        p = validate_distribution([0.25, 0.75])
        with pytest.raises(ValueError):
            p[0] = 0.5


class TestEntropy:
    def test_point_mass_zero(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_is_log_v(self):
        assert entropy([1 / 3] * 3) == pytest.approx(math.log(3), abs=1e-12)

    def test_confident_teacher_value(self):
        # direct-summation oracle with math.fsum
        p = [0.8, 0.15, 0.05]
        oracle = -math.fsum(q * math.log(q) for q in p)
        assert oracle == pytest.approx(0.61287, abs=5e-6)
        assert entropy(p) == pytest.approx(oracle, abs=1e-14)

    @given(distributions())
    @settings(max_examples=100, deadline=None)
    def test_bounded_and_permutation_invariant(self, p):
        h = entropy(p)
        assert -1e-12 <= h <= math.log(len(p)) + 1e-12
        rng = np.random.default_rng(0)
        assert entropy(rng.permutation(p)) == pytest.approx(h, abs=1e-12)


class TestWeightBounds:
    def test_feasibility_rejects_min_too_large(self):
        with pytest.raises(InfeasibleBounds):
            WeightBounds(0.6, 0.9).check_feasible(2)

    def test_feasibility_rejects_max_too_small(self):
        with pytest.raises(InfeasibleBounds):
            WeightBounds(0.1, 0.3).check_feasible(2)

    def test_inverted_interval_rejected(self):
        with pytest.raises(InfeasibleBounds):
            WeightBounds(0.8, 0.2)

    def test_feasible_case_passes(self):
        WeightBounds(0.2, 0.8).check_feasible(2)


class TestSampler:
    def test_same_seed_same_stream(self):
        a = seeded_sampler(0)
        b = seeded_sampler(0)
        assert a.uniform() == b.uniform()
        assert a.uniform() == b.uniform()

    def test_different_seeds_differ(self):
        assert seeded_sampler(0).uniform() != seeded_sampler(1).uniform()

    def test_spawned_children_are_deterministic(self):
        a = seeded_sampler(42).spawn(3)[1].uniform()
        b = seeded_sampler(42).spawn(3)[1].uniform()
        assert a == b

    def test_triple_frequencies_match_measure(self):
        world = convergence_world()
        sampler = seeded_sampler(123)
        n = 100_000
        counts_t = np.zeros(len(world.tasks))
        counts_x = np.zeros(len(world.inputs))
        counts_c = np.zeros(len(world.contexts))
        for _ in range(n):
            tj, xi, ci = world.sample_indices(sampler)
            counts_t[tj] += 1
            counts_x[xi] += 1
            counts_c[ci] += 1
        np.testing.assert_allclose(counts_t / n, world.task_importances, atol=0.01)
        np.testing.assert_allclose(counts_x / n, world.input_marginals(), atol=0.01)
        np.testing.assert_allclose(counts_c / n, world.context_weights, atol=0.01)


class TestTeacherBank:
    @pytest.mark.parametrize("perf,safety", [([math.nan, 0.5], [0.5, 0.5]),
                                             ([0.5, 0.5], [0.5, math.nan])])
    def test_nan_scores_rejected(self, perf, safety):
        from mskd.core import MskdError, TeacherBank
        table = {(0, 0): [[0.5, 0.5], [0.5, 0.5]]}
        with pytest.raises(MskdError):
            TeacherBank(2, table, {0: np.array(perf)}, np.array(safety))


class TestWorld:
    @pytest.mark.parametrize("field", ["tasks", "contexts"])
    def test_duplicate_ids_rejected(self, field):
        import dataclasses
        from mskd.core import MskdError, World
        world = convergence_world()
        parts = {"tasks": world.tasks, "contexts": world.contexts}
        specs = parts[field]
        parts[field] = (specs[0], dataclasses.replace(specs[1], id=specs[0].id), *specs[2:])
        with pytest.raises(MskdError, match="duplicate"):
            World(world.vocab, world.inputs, parts["tasks"], parts["contexts"], world.bank)


class TestStudentParams:
    def test_distribution_is_softmax(self):
        s = StudentParams((0,), np.array([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(s.distribution(0), [1 / 3] * 3, atol=1e-15)

    def test_missing_input_raises(self):
        from mskd.core import MissingLogits
        s = StudentParams((0,), np.array([[0.0, 0.0]]))
        with pytest.raises(MissingLogits):
            s.row(5)

    def test_softmax_matches_validation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = softmax(rng.normal(size=7) * 5)
            validate_distribution(p)


class TestVocabulary:
    def test_safety_tokens_checked(self):
        from mskd.core import MskdError
        with pytest.raises(MskdError):
            VocabularySpec(3, frozenset({5}))

    def test_minimum_size(self):
        from mskd.core import MskdError
        with pytest.raises(MskdError):
            VocabularySpec(1)
