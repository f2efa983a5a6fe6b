"""Core types: distribution validation, entropy, bounds, sampler determinism."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mskd.core import (
    SAMPLE_BLOCK,
    ContextSpec,
    InfeasibleBounds,
    InputSpec,
    MskdError,
    NegativeMass,
    NotNormalized,
    TaskSpec,
    TeacherBank,
    VocabularySpec,
    WeightBounds,
    World,
    ZeroMass,
    entropy,
    normalize_exact,
    seeded_sampler,
    softmax,
    validate_distribution,
)
from mskd.distill import TrainerConfig
from mskd.dynamics import WeightUpdateConfig
from mskd.operators import ContextOperator, TaskOperator, TokenOperator
from mskd.safety import SafetyConfig

from fixture_worlds import conformance_world, convergence_world, safety_world
from reference_compile import fraction_normalize, reference_entropy


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

    def test_scalar_rejected(self):
        from mskd.core import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            validate_distribution(1.0)

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


    @given(st.integers(1, 150), st.integers(1, 6), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stack_rows_keep_their_bits(self, v, n, zero_frac, seed):
        # each row's positive entries are summed alone, as the one-row form does
        rng = np.random.default_rng(seed)
        p = rng.random((n, 2, v)) ** 3
        p[rng.random(p.shape) < zero_frac] = 0.0
        p[..., 0] += 1e-3  # no all-zero row
        p /= p.sum(axis=-1, keepdims=True)
        expect = np.array([[reference_entropy(r) for r in cell] for cell in p])
        assert entropy(p).tobytes() == expect.tobytes()
        assert all(entropy(r) == reference_entropy(r) for r in p.reshape(-1, v))

    def test_zero_entries_change_the_sum_order(self):
        # with zeros kept in place the pairwise sum of these terms has other bits,
        # so the test above fails for an entropy that only masks the zeros
        p = np.array([0.3, 0.0, 0.05, 0.05, 0.1, 0.1, 0.1, 0.1, 0.2])
        terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
        assert float(-terms.sum()) != reference_entropy(p)
        assert entropy(p) == reference_entropy(p)


_MANTISSA = st.floats(1.0, 2.0, exclude_max=True)
# a double anywhere in the range, subnormals included, or a zero, 0.25 or 1/3
_ENTRY = st.one_of(st.builds(math.ldexp, _MANTISSA, st.integers(-1074, 1023)),
                   st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 1 / 3, 5e-324]))
# a stack entry: a zero, a magnitude from the smallest subnormal to 1e304, or an ``_ENTRY``
_STACK_ENTRY = st.one_of(st.just(0.0), st.floats(5e-324, 1e304), _ENTRY)


@st.composite
def _wide_rows(draw):
    """Rows whose entries span more than 600 binades, in shuffled order."""
    lo = draw(st.integers(-1074, 1023 - 601))
    hi = draw(st.integers(lo + 601, 1023))
    row = [math.ldexp(draw(_MANTISSA), lo), math.ldexp(draw(_MANTISSA), hi),
           *draw(st.lists(_ENTRY, max_size=6))]
    return draw(st.permutations(row))


class TestNormalizeExact:
    @given(st.one_of(st.lists(_ENTRY, min_size=1, max_size=8), _wide_rows()))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_fraction_reference(self, row):
        if not any(v > 0 for v in row):
            with pytest.raises(ZeroMass):
                normalize_exact(np.array(row))
            return
        assert normalize_exact(np.array(row)).tobytes() == fraction_normalize(row).tobytes()

    @pytest.mark.parametrize("row", [[0.25] * 4, [1 / 3] * 3, [1 / 3] * 6, [0.1] * 7,
                                     [5e-324, 5e-324], [5e-324, 1.0], [1e-300, 1e300, 0.0]])
    def test_named_rows(self, row):
        assert normalize_exact(np.array(row)).tobytes() == fraction_normalize(row).tobytes()

    @pytest.mark.parametrize("k", range(1, 9))
    def test_algebraically_uniform_rows_are_exactly_uniform(self, k):
        assert np.all(normalize_exact(np.full(k, 1.0 / 3) * 0.7) == 1.0 / k)

    @given(st.integers(1, 8).flatmap(lambda k: st.lists(
        st.lists(_STACK_ENTRY, min_size=k, max_size=k), min_size=1, max_size=6)))
    @settings(max_examples=200, deadline=None)
    def test_stack_rows_equal_the_fraction_reference(self, rows):
        if not all(any(v > 0 for v in row) for row in rows):
            with pytest.raises(ZeroMass):
                normalize_exact(np.array(rows))
            return
        got = normalize_exact(np.array(rows))
        assert got.shape == (len(rows), len(rows[0]))
        for row, out in zip(rows, got):
            assert out.tobytes() == fraction_normalize(row).tobytes()

    @pytest.mark.parametrize("row", [[0.0], [0.0] * 8, [], [-1.0, 0.5], [-5e-324, 0.0]])
    def test_non_positive_total_rejected(self, row):
        with pytest.raises(ZeroMass):
            normalize_exact(np.array(row))
        with pytest.raises(ZeroMass):  # one such row fails a stack
            normalize_exact(np.array([[1.0] * len(row), row]))

    @pytest.mark.parametrize("value,error", [(math.nan, ValueError), (math.inf, OverflowError),
                                             (-math.inf, OverflowError)])
    def test_non_finite_entry_rejected(self, value, error):
        for raw in ([1.0, value], [[0.5, 0.5], [value, 1.0]]):
            with pytest.raises(error):
                normalize_exact(np.array(raw))


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


FAMILIES = "'uniform', 'inverse_entropy', 'family_a', 'family_b', 'family_c', 'custom'"


@pytest.mark.parametrize("make,message", [
    # a bad w_min once hid a zero lipschitz, in "need 0 < w_min <= w_max < inf"
    (lambda: WeightBounds(-0.1, 0.99, 0.0),
     "w_min: must be positive, got -0.1; lipschitz: must be positive, got 0.0"),
    (lambda: WeightBounds(0.01, math.inf), "w_max: must be finite, got inf"),
    (lambda: TrainerConfig(seed=-1), "seed: must be nonnegative, got -1"),
    (lambda: TrainerConfig(eta0="1", steps=True), "eta0: must be a number, got '1'; "
                                                  "steps: must be an integer, got True"),
    (lambda: SafetyConfig(0.5, {}, max_dual_iters=0), "max_dual_iters: must be at least 1, got 0"),
    (lambda: SafetyConfig(0.0, {}, dual_step=math.inf),
     "s_min: must lie in (0, 1], got 0.0; dual_step: must be finite, got inf"),
    (lambda: WeightUpdateConfig(1.5, 0, 0.0), "beta: must lie in (0, 1], got 1.5; "
                                              "max_iters: must be at least 1, got 0; "
                                              "tol: must be positive, got 0.0"),
    (lambda: TokenOperator("family_z", alpha=0.0, safety_adjustment=1),
     f"family: must be one of {FAMILIES}, got 'family_z'; alpha: must be positive, got 0.0; "
     "safety_adjustment: must be bool, got 1"),
    (lambda: TaskOperator("family_c", tau=0.0), "tau: must be positive, got 0.0"),
    (lambda: ContextOperator("custom"), "custom context operator needs a callable"),
    # the world specs once raised their own texts, such as "vocabulary size must be >= 2, got 1"
    (lambda: VocabularySpec(1), "size: must be at least 2, got 1"),
    (lambda: TaskSpec(0, (0,), [1.0], -1), "importance: must be nonnegative, got -1"),
    (lambda: ContextSpec(0, [0.0], math.nan), "measure_weight: must be finite, got nan"),
    (lambda: TeacherBank(0, {}, {}, []), "num_teachers: must be at least 1, got 0"),
], ids=["bounds", "w_max", "seed", "kinds", "max_dual_iters", "safety", "weight_update", "token",
        "task", "custom", "vocab", "importance", "measure_weight", "teachers"])
def test_config_fields_named_with_their_values(make, message):
    # each config class checks its FIELDS at construction, the rules the config parser applies
    with pytest.raises(MskdError) as exc:
        make()
    assert str(exc.value) == message


def _world_with_context_weight(v: float) -> World:
    """The convergence world with its first context weight set to ``v`` past the spec's check."""
    world = convergence_world()
    context = copy.copy(world.contexts[0])
    object.__setattr__(context, "measure_weight", v)
    return World(world.vocab, world.inputs, world.tasks, (context, *world.contexts[1:]),
                 world.bank)


@pytest.mark.parametrize("make", [
    lambda v: WeightBounds(0.01, 0.99, lipschitz=v),
    lambda v: TrainerConfig(eta0=v),
    lambda v: TrainerConfig(ridge=v),
    lambda v: WeightUpdateConfig(tol=v),
    lambda v: TaskSpec(0, (0,), [v], 1.0),
    lambda v: TaskSpec(0, (0,), [1.0], v),
    lambda v: ContextSpec(0, [0.0], v),
    _world_with_context_weight,
], ids=["lipschitz", "eta0", "ridge", "tol", "input_weight", "importance", "measure_weight",
        "world"])
@pytest.mark.parametrize("value", [math.nan, -1.0])
def test_nan_and_negative_settings_rejected(make, value):
    # NaN fails no `x <= 0` check; a NaN Lipschitz bound would pass every regularity check,
    # and a NaN sampling weight would make the joint measure NaN
    with pytest.raises(MskdError):
        make(value)


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
        tj, xi, ci = world.sample_index_arrays(sampler, n)
        counts_t = np.bincount(tj, minlength=len(world.tasks))
        counts_x = np.bincount(xi, minlength=len(world.inputs))
        counts_c = np.bincount(ci, minlength=len(world.contexts))
        np.testing.assert_allclose(counts_t / n, [t.importance for t in world.tasks], atol=0.01)
        np.testing.assert_allclose(counts_x / n, world.input_marginals(), atol=0.01)
        np.testing.assert_allclose(counts_c / n, world.context_weights, atol=0.01)


def _measure_world(importances, input_weights, context_weights) -> World:
    """A world with the given sampling weights; task j reads its inputs in reverse for odd j."""
    n_inputs = max(len(w) for w in input_weights)
    tasks = tuple(TaskSpec(j, tuple(range(len(w)))[::-1 if j % 2 else 1], w, lam)
                  for j, (lam, w) in enumerate(zip(importances, input_weights)))
    contexts = tuple(ContextSpec(c, [0.0], mu) for c, mu in enumerate(context_weights))
    table = {(x, c): [[0.5, 0.5]] for x in range(n_inputs) for c in range(len(contexts))}
    bank = TeacherBank(1, table, {t.id: [0.5] for t in tasks}, [0.5])
    return World(VocabularySpec(2), tuple(InputSpec(x, [float(x)]) for x in range(n_inputs)),
                 tasks, contexts, bank)


def _scalar_triples(world: World, draw, n: int) -> np.ndarray:
    """(n, 3) index triples drawn one choice at a time; ``draw(total)`` gives the point."""
    def pick(weights) -> int:
        cum = np.cumsum(weights)
        return int(np.searchsorted(cum, draw(cum[-1]), side="right").clip(0, len(cum) - 1))

    order = [x.id for x in world.inputs]
    rows = []
    for _ in range(n):
        tj = pick([t.importance for t in world.tasks])
        task = world.tasks[tj]
        xi = order.index(task.input_ids[pick(task.input_weights)])
        rows.append((tj, xi, pick(world.context_weights)))
    return np.array(rows, dtype=np.intp).reshape(n, 3)


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


class _FixedStream:
    """A stand-in sampler whose ``uniform(size=m)`` returns the next m given doubles."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def uniform(self, size):
        out, self.values = self.values[:size], self.values[size:]
        return out


ZERO_WEIGHTS = _measure_world([0.5, 0.0, 0.5], [[0.0, 1.0], [1.0], [0.3, 0.0, 0.7]],
                              [0.0, 1.0, 0.0])
SINGLE = _measure_world([1.0], [[1.0]], [1.0])


def _weights(size: int | None = None):
    """Normalized weight vectors of ``size`` entries (None: 1 to 5), some of them zero."""
    entries = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    sizes = {"min_size": size or 1, "max_size": size or 5}
    return st.lists(entries, **sizes).filter(any).map(lambda w: np.array(w) / math.fsum(w))


@st.composite
def measures(draw):
    """(task importances, each task's input weights, context weights) with zero entries."""
    n_tasks = draw(st.integers(1, 3))
    return (draw(_weights(n_tasks)), draw(st.lists(_weights(), min_size=n_tasks,
                                                   max_size=n_tasks)), draw(_weights()))


class TestIndexStream:
    """Block index draws equal the scalar inverse-CDF draws, double for double."""

    @pytest.mark.parametrize("n", [1, 5, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1,
                                   2 * SAMPLE_BLOCK + 7])
    @pytest.mark.parametrize("make_world", [convergence_world, conformance_world, safety_world])
    def test_block_draws_match_scalar_draws(self, make_world, n):
        world = make_world()
        gen = _generator(n)
        expected = _scalar_triples(world, lambda total: gen.uniform(0.0, total), n)
        sampler = seeded_sampler(n)
        assert np.array_equal(np.stack(world.sample_index_arrays(sampler, n), axis=1), expected)
        after = sampler.uniform()
        assert after == gen.uniform()  # the next double: 3n were taken
        blocked = seeded_sampler(n)
        blocks = list(world.sample_index_blocks(blocked, n))
        assert max(len(b[0]) for b in blocks) <= SAMPLE_BLOCK
        assert np.array_equal(np.concatenate([np.stack(b, axis=1) for b in blocks]), expected)
        assert blocked.uniform() == after

    @pytest.mark.parametrize("world", [ZERO_WEIGHTS, SINGLE], ids=["zero_weights", "single"])
    def test_zero_weights_and_one_element_measures(self, world):
        n = SAMPLE_BLOCK + 3
        gen = _generator(9)
        expected = _scalar_triples(world, lambda total: gen.uniform(0.0, total), n)
        drawn = np.concatenate([np.stack(b, axis=1)
                                for b in world.sample_index_blocks(seeded_sampler(9), n)])
        assert np.array_equal(drawn, expected)
        assert world.joint_measure()[tuple(drawn.T)].min() > 0  # no zero-weight cell drawn

    def test_sample_indices_and_choice_take_the_same_path(self):
        world = conformance_world()
        gen = _generator(4)
        expected = _scalar_triples(world, lambda total: gen.uniform(0.0, total), 200)
        sampler = seeded_sampler(4)
        assert [tuple(np.concatenate(world.sample_index_arrays(sampler, 1)).tolist())
                for _ in range(200)] == [tuple(row) for row in expected.tolist()]
        weights = np.array([0.0, 2.0, 0.0, 1.0, 3.0])
        cum = np.cumsum(weights)
        reference = [int(np.searchsorted(cum, gen.uniform(0.0, cum[-1]), side="right"))
                     for _ in range(300)]
        assert [sampler.choice(weights) for _ in range(300)] == reference

    @settings(max_examples=60, deadline=None)
    @given(measure=measures(), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_measures_match_scalar_draws(self, measure, seed):
        world = _measure_world(*measure)
        gen = _generator(seed)
        expected = _scalar_triples(world, lambda total: gen.uniform(0.0, total), 40)
        drawn = world.sample_index_arrays(seeded_sampler(seed), 40)
        assert np.array_equal(np.stack(drawn, axis=1), expected)
        # the largest double below 1 never rounds a point up to the total, so only
        # u = 1, which no generator returns, reaches the clip to the last index
        totals = [np.cumsum(w)[-1] for w in ([t.importance for t in world.tasks],
                                              world.context_weights,
                                              *(t.input_weights for t in world.tasks))]
        assert all(total * (1.0 - 2.0 ** -53) < total for total in totals)
        edges = np.tile([0.0, 1.0 - 2.0 ** -53, 1.0], 4)
        it = iter(edges)
        expected = _scalar_triples(world, lambda total: total * next(it), 4)
        drawn = world.sample_index_arrays(_FixedStream(edges), 4)
        assert np.array_equal(np.stack(drawn, axis=1), expected)

    @settings(max_examples=100, deadline=None)
    @given(total=st.floats(1e-6, 1e6), seed=st.integers(0, 2 ** 32 - 1))
    def test_uniform_scales_the_next_double(self, total, seed):
        a, b = _generator(seed), _generator(seed)
        assert a.uniform(0.0, total) == total * b.random()
        assert a.uniform(size=7).tobytes() == b.random(7).tobytes()


class TestTeacherBank:
    @pytest.mark.parametrize("perf,safety", [([math.nan, 0.5], [0.5, 0.5]),
                                             ([0.5, 0.5], [0.5, math.nan])])
    def test_nan_scores_rejected(self, perf, safety):
        from mskd.core import MskdError, TeacherBank
        table = {(0, 0): [[0.5, 0.5], [0.5, 0.5]]}
        with pytest.raises(MskdError):
            TeacherBank(2, table, {0: np.array(perf)}, np.array(safety))


    def test_every_row_validated(self):
        from mskd.core import NotNormalized
        good = [[0.5, 0.5], [0.25, 0.75]]
        with pytest.raises(NotNormalized):
            TeacherBank(2, {(0, 0): good, (0, 1): [[0.5, 0.5], [0.5, 0.6]]}, {}, [0.5, 0.5])
        with pytest.raises(NegativeMass):
            TeacherBank(2, {(0, 0): good, (0, 1): [[1.1, -0.1], [0.5, 0.5]]}, {}, [0.5, 0.5])
        bank = TeacherBank(2, {(0, 0): [[1.0, -1e-13], [0.5, 0.5]]}, {}, [0.5, 0.5])
        assert bank.dists(0, 0)[0, 1] == 0.0  # clamped
        with pytest.raises(NegativeMass):
            bank.replaced(array=bank.array - 0.5)

    def test_replaced_slice_revalidated_alone(self):
        bank = TeacherBank(2, {(0, 0): [[0.5, 0.5], [0.25, 0.75]], (0, 1): [[1.0, 0.0], [0.5, 0.5]]},
                           {0: [0.2, 0.4], 1: [0.6, 0.8]}, [0.5, 0.5])
        moved = bank.replaced(array=[[0.75, 0.25], [1.0, -1e-13]], index=(0, 1))
        assert moved.array.tobytes() == np.array(
            [[[[0.5, 0.5], [0.25, 0.75]], [[0.75, 0.25], [1.0, 0.0]]]]).tobytes()  # clamped
        assert not moved.array.flags.writeable and bank.dists(0, 1)[0, 0] == 1.0
        with pytest.raises(NotNormalized):
            bank.replaced(array=[[0.5, 0.6], [0.5, 0.5]], index=(0, 0))
        rescored = bank.replaced(perf_scores={1: [0.0, 1.0]})
        assert rescored.perf(0) is bank.perf(0) and rescored.perf(1).tolist() == [0.0, 1.0]
        assert list(rescored.perf_scores) == [0, 1]
        with pytest.raises(MskdError):
            bank.replaced(perf_scores={0: [0.5, 1.5]})

    @pytest.mark.parametrize("table", [{(0, 0): [[0.5, 0.5]], (0, 1): [[0.5, 0.5], [0.5, 0.5]]},
                                       {(0, 0): [[0.5, 0.5]], (0, 1): [[1.0, 0.0, 0.0]]},
                                       {(0, 0): [[[0.5, 0.5]]]}])
    def test_cells_of_another_shape_rejected(self, table):
        from mskd.core import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            TeacherBank(1, table, {}, [0.5])


class TestWorld:
    def test_teacher_dists_in_world_order(self):
        base = conformance_world()
        world = World(base.vocab, base.inputs[::-1], base.tasks, base.contexts[::-1], base.bank)
        dists = world.teacher_dists()
        for xi, x in enumerate(world.inputs):
            for ci, c in enumerate(world.contexts):
                assert dists[xi, ci].tobytes() == base.bank.dists(x.id, c.id).tobytes()

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


class TestSoftmax:
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
