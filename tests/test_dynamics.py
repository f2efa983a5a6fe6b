"""Weight-update dynamics: contraction, fixed points, robustness, variance."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mskd import dynamics, runner
from mskd.composition import UnifiedWeightOperator, uniform_unified
from mskd.core import (SAMPLE_BLOCK, ContextSpec, InputSpec, MarginViolated, MskdError,
                       TaskSpec, TeacherBank, VocabularySpec, WeightBounds, World, seeded_sampler,
                       softmax)
from mskd.distill import compile_objective
from mskd.dynamics import (
    FixedPointTraces,
    WeightUpdateConfig,
    _ensemble_feedback,
    _single_sample_variance,
    estimate_contraction,
    gradient_variance_ratio,
    iterate_to_fixed_point,
    perturbation_experiment,
    sample_feasible_weights,
    weight_update_T,
)
from mskd.operators import ContextOperator, TaskOperator, TokenOperator, uniform_weights
from mskd.runner import identical_teachers_world, parse_config, run_experiment

from fixture_worlds import (CONFIGS, appendix_world, conformance_world, convergence_world,
                            safety_world)
from reference_dynamics import (reference_contraction, reference_feedback,
                                reference_fixed_point, reference_update, reference_weights)

BOUNDS = WeightBounds(0.05, 0.95)


def adaptive_g(bounds=WeightBounds(0.05, 0.95)):
    return UnifiedWeightOperator(TokenOperator("family_a"), TaskOperator("family_c"),
                                 ContextOperator("family_a"), bounds)


class TestConstantTargetControl:
    def test_update_is_affine_with_ratio_one_minus_beta(self):
        world = identical_teachers_world(3)
        bounds = WeightBounds(0.01, 0.99)
        cfg = WeightUpdateConfig(beta=0.3)
        sampler = seeded_sampler(0)
        for _ in range(20):
            w = sample_feasible_weights(3, bounds, sampler)
            w2 = sample_feasible_weights(3, bounds, sampler)
            num = np.max(np.abs(weight_update_T(w, cfg, world, bounds)
                                - weight_update_T(w2, cfg, world, bounds)))
            den = np.max(np.abs(w - w2))
            if den > 1e-12:
                assert num / den == pytest.approx(1.0 - cfg.beta, abs=1e-9)

    def test_estimated_ratio_matches_one_minus_beta(self):
        world = identical_teachers_world(3)
        bounds = WeightBounds(0.01, 0.99)
        cfg = WeightUpdateConfig(beta=0.3)
        rho = estimate_contraction(cfg, world, bounds, seeded_sampler(1), 100)
        assert rho == pytest.approx(0.7, abs=1e-9)

    def test_full_step_converges_immediately(self):
        world = identical_teachers_world(2)
        bounds = WeightBounds(0.01, 0.99)
        cfg = WeightUpdateConfig(beta=1.0)
        w1 = weight_update_T(np.array([0.9, 0.1]), cfg, world, bounds)
        w2 = weight_update_T(w1, cfg, world, bounds)
        np.testing.assert_allclose(w1, w2, atol=1e-15)

    def test_ratio_decreases_with_beta(self):
        world = identical_teachers_world(3)
        bounds = WeightBounds(0.01, 0.99)
        rhos = [estimate_contraction(WeightUpdateConfig(beta=b), world, bounds,
                                     seeded_sampler(2), 50)
                for b in (0.2, 0.5, 0.8)]
        assert rhos[0] > rhos[1] > rhos[2]


def _reference_feedback(w: np.ndarray, world: World) -> np.ndarray:
    """The ensemble feedback summed cell by cell, skipping zero-measure cells."""
    m_x, mu = world.input_marginals(), world.context_weights
    feedback = np.zeros(world.bank.k)
    for xi, inp in enumerate(world.inputs):
        for ci, ctx in enumerate(world.contexts):
            weight = m_x[xi] * mu[ci]
            if weight != 0.0:
                dists = world.bank.dists(inp.id, ctx.id)
                feedback += weight * (dists @ np.log(w @ dists))
    return feedback


def _zero_weight_input_world() -> World:
    base = safety_world()
    return World(base.vocab, base.inputs, (TaskSpec(0, (0, 1, 2), np.array([0.5, 0.5, 0.0]), 1.0),),
                 base.contexts, base.bank)


class TestEnsembleFeedback:
    @pytest.mark.parametrize("make_world", [appendix_world, convergence_world, conformance_world,
                                            safety_world, _zero_weight_input_world])
    def test_matches_cell_loop(self, make_world):
        world = make_world()
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.dirichlet(np.ones(world.bank.k))
            assert _ensemble_feedback(w, world).tobytes() == _reference_feedback(w, world).tobytes()


class TestFixedPoint:
    def test_two_teacher_world_converges(self):
        world = appendix_world()
        cfg = WeightUpdateConfig(beta=0.3, max_iters=1000, tol=1e-10)
        trace = iterate_to_fixed_point(uniform_weights(2, BOUNDS), cfg, world, BOUNDS)
        assert trace.converged
        assert trace.rho_hat < 1.0
        # long-iteration oracle: brute-force iteration from a far start
        w = np.array([0.9, 0.1])
        for _ in range(10_000):
            w = weight_update_T(w, cfg, world, BOUNDS)
        np.testing.assert_allclose(trace.w_star, w, atol=1e-9)

    def test_preconverged_start_stops_at_once(self):
        world = appendix_world()
        cfg = WeightUpdateConfig(beta=0.3, max_iters=1000, tol=1e-10)
        trace = iterate_to_fixed_point(uniform_weights(2, BOUNDS), cfg, world, BOUNDS)
        again = iterate_to_fixed_point(trace.w_star, cfg, world, BOUNDS)
        assert again.n_iters == 1
        assert again.distances[0] <= cfg.tol

    def test_distinct_starts_agree(self):
        world = appendix_world()
        cfg = WeightUpdateConfig(beta=0.3, max_iters=1000, tol=1e-10)
        t1 = iterate_to_fixed_point(np.array([0.9, 0.1]), cfg, world, BOUNDS)
        t2 = iterate_to_fixed_point(np.array([0.1, 0.9]), cfg, world, BOUNDS)
        assert np.max(np.abs(t1.w_star - t2.w_star)) <= 1e-6

    def test_iteration_cap_reports_no_convergence(self):
        world = appendix_world()
        cfg = WeightUpdateConfig(beta=0.3, max_iters=2, tol=1e-10)
        trace = iterate_to_fixed_point(np.array([0.9, 0.1]), cfg, world, BOUNDS)
        assert not trace.converged
        assert trace.n_iters == 2

    def test_geometric_envelope(self):
        world = appendix_world()
        cfg = WeightUpdateConfig(beta=0.3, max_iters=1000, tol=1e-10)
        sampler = seeded_sampler(3)
        rho = estimate_contraction(cfg, world, BOUNDS, sampler, 200)
        trace = iterate_to_fixed_point(np.array([0.9, 0.1]), cfg, world, BOUNDS)
        w_star = trace.w_star
        d0 = np.max(np.abs(trace.iterates[0] - w_star))
        for n, it in enumerate(trace.iterates):
            assert np.max(np.abs(it - w_star)) <= rho ** n * d0 * (1 + 1e-6) + 1e-12

    def test_update_preserves_feasibility(self):
        world = convergence_world()
        sampler = seeded_sampler(4)
        for _ in range(50):
            w = sample_feasible_weights(3, BOUNDS, sampler)
            out = weight_update_T(w, WeightUpdateConfig(beta=0.45), world, BOUNDS)
            assert abs(out.sum() - 1.0) <= 1e-9
            assert BOUNDS.contains(out)

    def test_infeasible_start_rejected(self):
        world = appendix_world()
        cfg = WeightUpdateConfig(beta=0.3)
        from mskd.core import MskdError
        with pytest.raises(MskdError):
            iterate_to_fixed_point(np.array([0.99, 0.01]), cfg, world, BOUNDS)


FIXTURE_WORLDS = {"appendix": appendix_world, "convergence": convergence_world,
                  "conformance": conformance_world, "safety": safety_world,
                  "zero_weight_input": _zero_weight_input_world,
                  "identical_teachers": lambda: identical_teachers_world(4)}


@functools.cache
def fixture_world(name: str) -> World:
    return FIXTURE_WORLDS[name]()


@st.composite
def generated_worlds(draw) -> World:
    """K up to 6 teachers over strictly positive tables; some inputs carry zero weight."""
    k, v = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    n_inputs, n_contexts = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    input_weights = rng.random(n_inputs) * (rng.random(n_inputs) < 0.6)
    input_weights[rng.integers(n_inputs)] += 1.0
    table = {(x, c): rng.dirichlet(np.full(v, 0.7), size=k) + 1e-9
             for x in range(n_inputs) for c in range(n_contexts)}
    bank = TeacherBank(k, {cell: d / d.sum(axis=-1, keepdims=True) for cell, d in table.items()},
                       {0: rng.random(k)}, rng.random(k))
    return World(VocabularySpec(v),
                 tuple(InputSpec(x, np.array([float(x)])) for x in range(n_inputs)),
                 (TaskSpec(0, tuple(range(n_inputs)), input_weights / input_weights.sum(), 1.0),),
                 tuple(ContextSpec(c, np.array([float(c)]), m)
                       for c, m in enumerate(rng.dirichlet(np.ones(n_contexts)))), bank)


def _assert_rows_match_references(world: World, shape, beta: float, seed: int) -> None:
    bounds = WeightBounds(0.02, 0.9)
    w = sample_feasible_weights((*shape, world.bank.k), bounds, seeded_sampler(seed))
    update = weight_update_T(w, WeightUpdateConfig(beta=beta), world, bounds)
    feedback = _ensemble_feedback(w, world)
    for row in np.ndindex(*shape):
        assert feedback[row].tobytes() == reference_feedback(w[row], world).tobytes()
        assert update[row].tobytes() == reference_update(w[row], beta, world, bounds).tobytes()


def _assert_same_trace(trace, expected) -> None:
    assert trace.iterates.tobytes() == expected.iterates.tobytes()
    assert trace.distances.tobytes() == expected.distances.tobytes()
    assert (trace.rho_hat, trace.converged) == (expected.rho_hat, expected.converged)


STACK_SHAPES = st.lists(st.integers(1, 4), min_size=1, max_size=2)


class TestStackedDynamics:
    @pytest.mark.parametrize("name", FIXTURE_WORLDS)
    @settings(max_examples=10, deadline=None)
    @given(shape=STACK_SHAPES, beta=st.floats(0.01, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_fixture_world_rows_equal_one_vector_reference(self, name, shape, beta, seed):
        _assert_rows_match_references(fixture_world(name), shape, beta, seed)

    @settings(max_examples=40, deadline=None)
    @given(world=generated_worlds(), shape=STACK_SHAPES, beta=st.floats(0.01, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_generated_world_rows_equal_one_vector_reference(self, world, shape, beta, seed):
        _assert_rows_match_references(world, shape, beta, seed)

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_one_draw_gives_the_per_pair_doubles(self, k):
        bounds, n = WeightBounds(0.05, 0.6), 25
        stacked, alone = seeded_sampler(k), seeded_sampler(k)
        pairs = sample_feasible_weights((n, 2, k), bounds, stacked)
        per_pair = [reference_weights(k, bounds, alone) for _ in range(2 * n)]
        assert pairs.tobytes() == np.array(per_pair).tobytes()
        assert stacked.uniform() == alone.uniform()

    @pytest.mark.parametrize("name", FIXTURE_WORLDS)
    @pytest.mark.parametrize("n_pairs", [1, 2, 60])
    def test_contraction_equals_pair_by_pair(self, name, n_pairs):
        world, cfg = fixture_world(name), WeightUpdateConfig(beta=0.4)
        stacked, alone = seeded_sampler(n_pairs), seeded_sampler(n_pairs)
        rho = estimate_contraction(cfg, world, BOUNDS, stacked, n_pairs)
        assert rho == reference_contraction(cfg, world, BOUNDS, alone, n_pairs)
        assert stacked.uniform() == alone.uniform()

    @pytest.mark.parametrize("name", FIXTURE_WORLDS)
    @pytest.mark.parametrize("max_iters", [1, 3, 1000])
    def test_each_start_equals_its_solo_run(self, name, max_iters):
        world, cfg = fixture_world(name), WeightUpdateConfig(0.3, max_iters, 1e-10)
        starts = sample_feasible_weights((5, world.bank.k), BOUNDS, seeded_sampler(9))
        settled = reference_fixed_point(starts[0], WeightUpdateConfig(0.3, 1000, 1e-10),
                                        world, BOUNDS).w_star
        starts = np.vstack([starts, settled])  # a start that stops at once
        traces = iterate_to_fixed_point(starts, cfg, world, BOUNDS)
        assert isinstance(traces, FixedPointTraces) and len(traces) == len(starts)
        for start, trace in zip(starts, traces):
            _assert_same_trace(trace, reference_fixed_point(start, cfg, world, BOUNDS))
            _assert_same_trace(iterate_to_fixed_point(start, cfg, world, BOUNDS), trace)
        assert traces.n_iters == sum(t.n_iters for t in traces)

    def test_bounds_with_one_vector_give_no_evidence(self):
        world, cfg = appendix_world(), WeightUpdateConfig()
        with pytest.raises(MskdError, match="no evidence"):
            estimate_contraction(cfg, world, WeightBounds(0.5, 0.5), seeded_sampler(0), 20)
        assert reference_contraction(cfg, world, WeightBounds(0.5, 0.5), seeded_sampler(0), 20) == 0

    def test_bundled_fixed_point_update_calls(self, monkeypatch):
        # the bundled run: 200 + 50 contraction pairs and 11 starts (779 iterations
        # together) make 1,279 update rows, one call per contraction and per iteration
        calls, rows, iters = [], [], []
        update, iterate = dynamics.weight_update_T, runner.iterate_to_fixed_point

        def counted_update(w, *args):
            calls.append(1)
            rows.append(np.asarray(w)[..., 0].size)
            return update(w, *args)

        def counted_iterate(*args):
            traces = iterate(*args)
            iters.append(traces.n_iters)
            return traces

        monkeypatch.setattr(dynamics, "weight_update_T", counted_update)
        monkeypatch.setattr(runner, "iterate_to_fixed_point", counted_iterate)
        assert run_experiment(parse_config(CONFIGS / "fixed_point.json")).passed
        assert sum(rows) == 1279 and sum(iters) == 779
        assert len(calls) <= 80


class TestPerturbation:
    def test_zero_delta_zero_distance(self):
        world = convergence_world()
        res = perturbation_experiment(adaptive_g(), world, [0.0, 1e-2], ridge=0.01, seed=0)
        assert res.distances[0] == 0.0

    def test_linear_scaling(self):
        world = convergence_world()
        res = perturbation_experiment(adaptive_g(), world, [1e-3, 1e-2, 1e-1],
                                      ridge=0.01, seed=0)
        assert res.r_squared >= 0.95
        assert res.ratio_spread <= 3.0
        assert np.all(np.diff(res.distances) >= -1e-12)

    def test_each_scale_evaluated_once_per_experiment(self):
        world = conformance_world()
        calls = {"token": 0, "task": 0, "context": 0}

        def counted(scale):
            def fn(*args):
                calls[scale] += 1
                return uniform_weights(args[-2].k, args[-1])
            return fn

        g = UnifiedWeightOperator(TokenOperator("custom", fn=counted("token")),
                                  TaskOperator("custom", fn=counted("task")),
                                  ContextOperator("custom", fn=counted("context")), BOUNDS)
        res = perturbation_experiment(g, world, [1e-3, 1e-2], ridge=0.01, seed=0)
        assert np.all(res.distances > 0)
        n_cells = len(world.inputs) * len(world.contexts)  # a custom token operator: every token
        assert calls == {"token": n_cells * world.vocab.size,
                         "task": len(world.tasks), "context": len(world.contexts)}

    @pytest.mark.parametrize("deltas,ridge", [([math.nan], 0.01), ([-1e-3, 1e-2], 0.01),
                                              ([1e-2], math.nan), ([1e-2], 0.0)],
                             ids=["nan_delta", "negative_delta", "nan_ridge", "zero_ridge"])
    def test_bad_scales_and_ridge_rejected(self, deltas, ridge):
        with pytest.raises(MskdError, match="must be nonnegative|strongly convex"):
            perturbation_experiment(adaptive_g(), convergence_world(), deltas, ridge=ridge)

    def test_margin_violation(self):
        world = convergence_world()
        tight = UnifiedWeightOperator(TokenOperator("family_a"), TaskOperator("family_c"),
                                      ContextOperator("family_a"), WeightBounds(0.3, 0.4))
        with pytest.raises(MarginViolated):
            perturbation_experiment(tight, world, [0.2], ridge=0.01, seed=0)


@pytest.fixture(scope="module")
def variance_setup():
    world = convergence_world()
    rng = np.random.default_rng(1)
    return world, rng.normal(size=(len(world.inputs), world.vocab.size))


class TestGradientVariance:

    def test_uniform_operator_matches_base(self, variance_setup):
        world, theta = variance_setup
        res = gradient_variance_ratio(uniform_unified(WeightBounds(0.01, 0.99)),
                                      world, theta, 2000, seed=5)
        assert res.measured == res.base
        assert res.bound == pytest.approx(res.base, rel=1e-12)

    def test_adaptive_families_within_bound(self, variance_setup):
        world, theta = variance_setup
        for fam in ("family_a", "family_b", "family_c", "inverse_entropy"):
            g = UnifiedWeightOperator(TokenOperator(fam), TaskOperator("family_c"),
                                      ContextOperator("family_a"), WeightBounds(0.01, 0.99))
            res = gradient_variance_ratio(g, world, theta, 2000, seed=5)
            assert res.measured <= res.bound * (1 + 1e-12), fam

    def test_single_cell_world_bound_holds(self):
        world = appendix_world()
        rng = np.random.default_rng(2)
        theta = rng.normal(size=(1, 3))
        g = UnifiedWeightOperator(TokenOperator("family_a"), TaskOperator("family_c"),
                                  ContextOperator("family_a"), WeightBounds(0.01, 0.99))
        res = gradient_variance_ratio(g, world, theta, 2000, seed=6)
        assert res.measured <= res.bound * (1 + 1e-12)

    @pytest.mark.parametrize("make_world", [convergence_world, safety_world, appendix_world])
    def test_block_draws_match_one_sample_at_a_time(self, make_world):
        world = make_world()
        compiled = compile_objective(adaptive_g(WeightBounds(0.01, 0.99)), world)
        theta = np.random.default_rng(3).normal(size=compiled.qbar.shape)
        n = 2 * SAMPLE_BLOCK + 5
        probs, sampler = softmax(theta), seeded_sampler(8)
        mean_g, sq_sum = np.zeros_like(theta), 0.0
        for _ in range(n):
            tj, xi, ci = np.concatenate(world.sample_index_arrays(sampler, 1))
            g = probs[xi] - compiled.targets[tj, xi, ci]
            mean_g[xi] += g
            sq_sum += float(g @ g)
        mean_g /= n
        expected = sq_sum / n - float(np.sum(mean_g * mean_g))
        blocked = seeded_sampler(8)
        assert _single_sample_variance(compiled, theta, n, blocked) == expected
        assert blocked.uniform() == sampler.uniform()
