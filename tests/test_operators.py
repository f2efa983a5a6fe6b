"""Weight-operator families, bounded normalization, and conformance checks."""

import functools
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mskd import operators
from mskd.core import (
    ContextSpec,
    InfeasibleBounds,
    InputSpec,
    TaskSpec,
    TeacherBank,
    VocabularySpec,
    WeightBounds,
    World,
    ZeroMass,
    entropy,
    seeded_sampler,
)
from mskd.operators import (
    ContextOperator,
    TaskOperator,
    TokenOperator,
    check_conformance,
    check_pareto_compat,
    clip_normalize,
    context_weights_safety,
    inverse_entropy_weights_from_entropies,
    uniform_weights,
)

from fixture_worlds import (appendix_world, conformance_world, convergence_world, large_doc,
                            safety_world, zero_entry_world)
from reference_compile import reference_perturb_rows, reference_token_weights
from reference_dynamics import reference_conformance

# the Appendix A teacher rows
APPENDIX_TEACHER_1 = (0.8, 0.15, 0.05)
APPENDIX_TEACHER_2 = (0.4, 0.35, 0.25)

WIDE = WeightBounds(0.01, 0.99)


class TestClipNormalize:
    def test_symmetric_input(self):
        np.testing.assert_array_equal(
            clip_normalize(np.array([1.0, 1.0]), WeightBounds(0.2, 0.8)), [0.5, 0.5])

    def test_clamp_and_redistribute(self):
        # oracle: entry 2 pins at 0.2, entry 1 absorbs the rest
        w = clip_normalize(np.array([0.95, 0.05]), WeightBounds(0.2, 0.8))
        np.testing.assert_allclose(w, [0.8, 0.2], atol=1e-15)

    def test_upper_clamp_redistributes_rest(self):
        w = clip_normalize(np.array([9.0, 1.0, 1.0, 1.0]), WeightBounds(0.05, 0.5))
        np.testing.assert_allclose(w, [0.5, 1 / 6, 1 / 6, 1 / 6], atol=1e-15)

    def test_infeasible_bounds_raise(self):
        with pytest.raises(InfeasibleBounds):
            clip_normalize(np.ones(3), WeightBounds(0.5, 0.9))

    def test_zero_mass_raises(self):
        with pytest.raises(ZeroMass):
            clip_normalize(np.zeros(2), WeightBounds(0.2, 0.8))

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=2, max_size=8),
           st.floats(min_value=0.01, max_value=0.2))
    @settings(max_examples=200, deadline=None)
    def test_output_contract(self, raw, lo):
        k = len(raw)
        hi = max(0.9, 1.5 / k)
        bounds = WeightBounds(min(lo, 0.9 / k), hi)
        w = clip_normalize(np.array(raw), bounds)
        assert abs(w.sum() - 1.0) < 1e-9
        assert np.all(w >= bounds.w_min - 1e-12)
        assert np.all(w <= bounds.w_max + 1e-12)
        # order preserved up to ties at the bounds
        order = np.argsort(raw, kind="stable")
        assert np.all(np.diff(w[order]) >= -1e-12)

    @given(st.lists(st.floats(min_value=1e-4, max_value=1e4), min_size=2, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, raw):
        bounds = WeightBounds(0.05, 0.95)
        once = clip_normalize(np.array(raw), bounds)
        twice = clip_normalize(once, bounds)
        np.testing.assert_allclose(twice, once, atol=1e-12, rtol=0)


    @given(st.integers(1, 9), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stack_rows_keep_their_bits(self, k, n, seed):
        # rows inside the bounds and rows that need the breakpoint scan, mixed
        rng = np.random.default_rng(seed)
        raw = rng.random((n, 2, k)) ** rng.integers(1, 8, size=(n, 2, 1))
        bounds = WeightBounds(0.6 / k, min(1.0, 1.6 / k))
        stacked = clip_normalize(raw, bounds)
        assert stacked.shape == raw.shape
        alone = np.array([[clip_normalize(r, bounds) for r in cell] for cell in raw])
        assert stacked.tobytes() == alone.tobytes()

    def test_stack_with_a_bad_row_rejected(self):
        with pytest.raises(ZeroMass):
            clip_normalize(np.array([[1.0, 2.0], [0.0, 0.0]]), WeightBounds(0.2, 0.8))


TOKEN_FAMILIES = ("uniform", "inverse_entropy", "family_a", "family_b", "family_c")
KERNEL_WORLDS = {"appendix": appendix_world, "convergence": convergence_world,
                 "conformance": conformance_world, "safety": safety_world,
                 "zero_entries": zero_entry_world}


@functools.lru_cache(maxsize=None)
def _kernel_world(name: str) -> World:
    if name == "large":
        from mskd.runner import parse_config_dict
        return parse_config_dict(large_doc("perturbation")).world
    return KERNEL_WORLDS[name]()


class TestTokenKernels:
    @pytest.mark.parametrize("name", [*KERNEL_WORLDS, "large"])
    @pytest.mark.parametrize("family,adjustment", [
        *((f, True) for f in TOKEN_FAMILIES), ("family_a", False), ("family_b", False)])
    def test_bank_table_equals_points_and_rows(self, family, adjustment, name):
        # one array call over the bank gives each point the bits of the per-point
        # call, and both those of the families' row-by-row form
        world = _kernel_world(name)
        bank, k = world.bank, world.bank.k
        op = TokenOperator(family, alpha=1.7, safety_tokens=world.vocab.safety_tokens,
                           safety_adjustment=adjustment)
        tokens = range(world.vocab.size) if name != "large" else (0, 1, 2, 31)
        for bounds in (WeightBounds(0.001, 0.999), WeightBounds(0.8 / k, min(1.0, 1.25 / k))):
            rows, slot = op.table(world, bounds)
            assert rows.shape[:2] == (len(world.inputs), len(world.contexts))
            assert rows.shape[2:] == (slot.max() + 1, k) and rows.shape[2] <= 2
            assert np.unique(slot).size == rows.shape[2]  # every row is some token's
            assert slot.shape == (world.vocab.size,)
            for xi, x in enumerate(world.inputs):
                for ci, c in enumerate(world.contexts):
                    for i in tokens:
                        w = op.weights(x.id, i, c.id, bank, bounds)
                        assert rows[xi, ci, slot[i]].tobytes() == w.tobytes()
                        expect = reference_token_weights(op, x.id, i, c.id, bank, bounds)
                        assert w.tobytes() == expect.tobytes(), (x.id, i, c.id)

    def test_custom_table_calls_each_point_in_order(self):
        world, calls = conformance_world(), []

        def fn(x, i, c, bank, bounds):
            calls.append((x, i, c))
            return uniform_weights(bank.k, bounds)

        rows, slot = TokenOperator("custom", fn=fn).table(world, WIDE)
        v = world.vocab.size
        assert rows.shape == (len(world.inputs), len(world.contexts), v, world.bank.k)
        assert slot.tolist() == list(range(v))
        assert calls == [(x.id, i, c.id) for x in world.inputs for c in world.contexts
                         for i in range(v)]

    @pytest.mark.parametrize("family", TOKEN_FAMILIES)
    def test_alpha_checked_at_construction(self, family):
        # every family, as the config parser checks it: family C once took alpha 0
        with pytest.raises(operators.MskdError, match=r"^alpha: must be positive, got 0\.0$"):
            TokenOperator(family, alpha=0.0)

    @pytest.mark.parametrize("name", ["conformance", "zero_entries", "safety"])
    @pytest.mark.parametrize("family", TOKEN_FAMILIES)
    def test_batched_token_pass_equals_per_point_pass(self, family, name):
        # a built-in family's pass evaluates all points in two array calls; the same
        # operator behind a custom callable is evaluated point by point
        world = _kernel_world(name)
        op = TokenOperator(family, safety_tokens=world.vocab.safety_tokens)
        per_point = TokenOperator("custom", fn=op.weights)
        bounds = WeightBounds(0.02, 0.9)
        reports, samplers = [], [seeded_sampler(4), seeded_sampler(4)]
        for operator, sampler in zip((op, per_point), samplers):
            report = check_conformance(operator, "token", world, bounds, sampler, 300)
            reports.append((report.lipschitz_estimate, {
                name: (c.passed, c.worst_violation, c.n_checked)
                for name, c in report.checks.items()}))
        assert reports[0] == reports[1]
        assert samplers[0].uniform() == samplers[1].uniform()

    @given(st.integers(1, 40), st.integers(1, 4), st.floats(0.0, 0.6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_perturbation_equals_row_by_row_draws(self, v, n, zero_frac, seed):
        # one (n, K, V) normal draw moves every row as n * K draws of V did; rows
        # of one entry (V = 1) draw and stay
        rng = np.random.default_rng(seed)
        rows = rng.random((n, 3, v))
        rows[rng.random(rows.shape) < zero_frac] = 0.0
        rows[..., -1] += 0.1
        rows /= rows.sum(axis=-1, keepdims=True)
        expect, sampler = rows.copy(), seeded_sampler(seed)
        worst = reference_perturb_rows(expect, 0.01, sampler)
        moved = operators._perturb_rows(rows, 0.01, seeded_sampler(seed).normal(size=rows.shape))
        assert rows.tobytes() == expect.tobytes()
        assert float(moved.max()) == worst


def _alpha(family):
    return lambda v: TokenOperator(family, alpha=v)


def _tau(v):
    return TaskOperator("family_c", tau=v).weights(0, conformance_world().bank, WIDE)


@pytest.mark.parametrize("make,value,message", [
    *(pytest.param(make, value, f"^{name}: must be {problem}, got {value}$", id=f"{value}-{name}")
      for value, problem in ((math.nan, "finite"), (0.0, "positive"))
      for name, make in (("alpha", _alpha("family_a")), ("tau", _tau))),
    *(pytest.param(_alpha(family), math.nan, "alpha: must be finite", id=f"nan-alpha-{family}")
      for family in ("uniform", "inverse_entropy", "family_b", "family_c")),
    pytest.param(_alpha("family_a"), math.inf, "alpha: must be finite", id="inf-alpha"),
    pytest.param(lambda v: clip_normalize(np.array([v, 1.0]), WIDE), math.nan,
                 "raw weights must be positive", id="nan-clip_normalize"),
])
def test_nan_and_nonpositive_parameters_rejected(make, value, message):
    # NaN fails no `x <= 0` check: a NaN alpha, tau or raw weight would fail late, in a ZeroMass
    # naming none of them
    with pytest.raises(operators.MskdError, match=message):
        make(value)


class TestInverseEntropy:
    def test_reported_entropy_inputs(self):
        # with the reported H values taken as given inputs
        w = inverse_entropy_weights_from_entropies([0.68, 1.52], WIDE)
        oracle = (1 / 0.68) / (1 / 0.68 + 1 / 1.52)
        assert w[0] == pytest.approx(oracle, abs=1e-12)
        assert w[0] == pytest.approx(0.69, abs=0.005)
        assert w[1] == pytest.approx(0.31, abs=0.005)

    def test_identical_teachers_split_evenly(self):
        world = appendix_world()
        bank = world.bank
        table = {(0, 0): np.array([APPENDIX_TEACHER_1, APPENDIX_TEACHER_1])}
        from mskd.core import TeacherBank
        bank2 = TeacherBank(2, table, dict(bank.perf_scores), bank.safety_scores)
        w = TokenOperator("inverse_entropy").weights(0, 0, 0, bank2, WIDE)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)

    def test_recomputed_nat_entropies(self):
        h1 = -math.fsum(q * math.log(q) for q in APPENDIX_TEACHER_1)
        h2 = -math.fsum(q * math.log(q) for q in APPENDIX_TEACHER_2)
        w = inverse_entropy_weights_from_entropies([h1, h2], WIDE)
        oracle = (1 / h1) / (1 / h1 + 1 / h2)
        assert w[0] == pytest.approx(oracle, abs=1e-12)
        assert w[0] == pytest.approx(0.638, abs=5e-4)
        assert w[1] == pytest.approx(0.362, abs=5e-4)

    def test_log_base_invariance(self):
        h_nats = np.array([0.61287, 1.08055])
        h_bits = h_nats / math.log(2)
        w_nats = inverse_entropy_weights_from_entropies(h_nats, WIDE)
        w_bits = inverse_entropy_weights_from_entropies(h_bits, WIDE)
        np.testing.assert_allclose(w_nats, w_bits, atol=1e-12, rtol=0)

    def test_constant_in_token_index(self):
        world = appendix_world()
        w0 = TokenOperator("inverse_entropy").weights(0, 0, 0, world.bank, WIDE)
        w2 = TokenOperator("inverse_entropy").weights(0, 2, 0, world.bank, WIDE)
        np.testing.assert_array_equal(w0, w2)


class TestFamilyA:
    def test_small_alpha_limit_is_uniform(self):
        world = appendix_world()
        w = TokenOperator("family_a", alpha=1e-8).weights(0, 0, 0, world.bank, WIDE)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-6)

    def test_exp_decay_oracle(self):
        world = appendix_world()
        h1 = entropy(APPENDIX_TEACHER_1)
        h2 = entropy(APPENDIX_TEACHER_2)
        r1, r2 = math.exp(-h1), math.exp(-h2)
        w = TokenOperator("family_a", alpha=1.0).weights(0, 0, 0, world.bank, WIDE)
        assert w[0] == pytest.approx(r1 / (r1 + r2), abs=1e-12)
        assert w[0] == pytest.approx(0.6148, abs=5e-5)
        assert w[1] == pytest.approx(0.3852, abs=5e-5)

    def test_safety_token_boosts_safer_teacher(self):
        # equal entropies, distinct safety scores: safer teacher strictly ahead
        from mskd.core import TeacherBank
        p = np.array([0.5, 0.3, 0.2])
        table = {(0, 0): np.array([p, np.roll(p, 1)])}  # permuted: same entropy
        bank = TeacherBank(2, table, {0: np.array([0.5, 0.5])}, np.array([0.9, 0.1]))
        guarded = TokenOperator("family_a", safety_tokens=frozenset({1}))
        w_safe = guarded.weights(0, 1, 0, bank, WIDE)
        w_plain = guarded.weights(0, 0, 0, bank, WIDE)
        assert w_plain[0] == pytest.approx(w_plain[1], abs=1e-12)
        assert w_safe[0] > w_safe[1]
        oracle = 1.9 / (1.9 + 1.1)
        assert w_safe[0] == pytest.approx(oracle, abs=1e-12)


class TestFamilyB:
    def test_identical_teachers_uniform(self):
        from mskd.core import TeacherBank
        table = {(0, 0): np.array([APPENDIX_TEACHER_2, APPENDIX_TEACHER_2])}
        bank = TeacherBank(2, table, {0: np.array([0.5, 0.5])}, np.array([0.5, 0.5]))
        w = TokenOperator("family_b").weights(0, 0, 0, bank, WIDE)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)

    def test_inverse_variance_oracle(self):
        world = appendix_world()
        v1 = statistics.pvariance(APPENDIX_TEACHER_1)
        v2 = statistics.pvariance(APPENDIX_TEACHER_2)
        r1, r2 = 1 / (v1 + 1e-6), 1 / (v2 + 1e-6)
        w = TokenOperator("family_b").weights(0, 0, 0, world.bank, WIDE)
        assert w[0] == pytest.approx(r1 / (r1 + r2), abs=1e-12)
        # the diffuse teacher has far lower entry variance and dominates
        assert w[0] == pytest.approx(0.034, abs=1e-3)
        assert w[1] == pytest.approx(0.966, abs=1e-3)

    def test_bounds_clamp_the_dominant_teacher(self):
        world = appendix_world()
        w = TokenOperator("family_b").weights(0, 0, 0, world.bank, WeightBounds(0.2, 0.8))
        np.testing.assert_allclose(w, [0.2, 0.8], atol=1e-15)


class TestTaskPerformance:
    def test_equal_scores_uniform(self):
        from mskd.core import TeacherBank
        table = {(0, 0): np.array([APPENDIX_TEACHER_1, APPENDIX_TEACHER_2])}
        bank = TeacherBank(2, table, {0: np.array([0.7, 0.7])}, np.array([0.5, 0.5]))
        np.testing.assert_allclose(TaskOperator("family_c", tau=0.5).weights(0, bank, WIDE),
                                   [0.5, 0.5], atol=1e-15)

    def test_softmax_oracle(self):
        from mskd.core import TeacherBank
        table = {(0, 0): np.array([APPENDIX_TEACHER_1, APPENDIX_TEACHER_2])}
        bank = TeacherBank(2, table, {0: np.array([0.9, 0.5])}, np.array([0.5, 0.5]))
        w = TaskOperator("family_c", tau=0.2).weights(0, bank, WIDE)
        e1, e2 = math.exp(0.9 / 0.2), math.exp(0.5 / 0.2)
        assert w[0] == pytest.approx(e1 / (e1 + e2), abs=1e-12)
        assert w[0] == pytest.approx(0.8808, abs=5e-5)

    def test_high_temperature_limit_uniform(self):
        from mskd.core import TeacherBank
        table = {(0, 0): np.array([APPENDIX_TEACHER_1, APPENDIX_TEACHER_2])}
        bank = TeacherBank(2, table, {0: np.array([0.9, 0.1])}, np.array([0.5, 0.5]))
        w = TaskOperator("family_c", tau=1e9).weights(0, bank, WIDE)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-6)

    def test_missing_scores(self):
        from mskd.core import MissingScores
        world = appendix_world()
        with pytest.raises(MissingScores):
            TaskOperator("family_c").weights(99, world.bank, WIDE)


class TestContextSafety:
    def test_plain_context_uniform(self):
        world = appendix_world()
        w = context_weights_safety(world.contexts[0], world.bank, WIDE)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)

    def test_safety_context_oracle(self):
        from mskd.core import ContextSpec, TeacherBank
        ctx = ContextSpec(0, np.array([0.0]), 1.0, is_safety_critical=True)
        table = {(0, 0): np.array([APPENDIX_TEACHER_1, APPENDIX_TEACHER_2])}
        bank = TeacherBank(2, table, {0: np.array([0.5, 0.5])}, np.array([0.9, 0.3]))
        w = context_weights_safety(ctx, bank, WeightBounds(0.05, 0.95))
        oracle = (0.9 + 1e-6) / (1.2 + 2e-6)
        assert w[0] == pytest.approx(oracle, abs=1e-12)
        assert w[0] == pytest.approx(0.75, abs=1e-5)

    def test_tied_scores_uniform(self):
        from mskd.core import ContextSpec, TeacherBank
        ctx = ContextSpec(0, np.array([0.0]), 1.0, is_safety_critical=True)
        table = {(0, 0): np.array([APPENDIX_TEACHER_1, APPENDIX_TEACHER_2])}
        bank = TeacherBank(2, table, {0: np.array([0.5, 0.5])}, np.array([0.6, 0.6]))
        np.testing.assert_allclose(context_weights_safety(ctx, bank, WIDE),
                                   [0.5, 0.5], atol=1e-12)


class TestConformance:
    def test_uniform_operator_all_pass(self):
        world = conformance_world("sharp_safe")
        report = check_conformance(TokenOperator("uniform"), "token", world,
                                   WeightBounds(0.02, 0.9), seeded_sampler(0), 300)
        assert report.all_passed

    def test_family_a_passes_on_aligned_world(self):
        world = conformance_world("sharp_safe")
        op = TokenOperator("family_a", safety_tokens=world.vocab.safety_tokens)
        report = check_conformance(op, "token", world, WeightBounds(0.02, 0.9),
                                   seeded_sampler(1), 500)
        assert report.all_passed
        assert report.lipschitz_estimate <= 25.0

    def test_disabled_safety_adjustment_fails_monotonicity(self):
        # the safer teacher is slightly flatter: without the boost, entropy
        # decay ranks it second on safety tokens and monotonicity breaks
        from mskd.core import (ContextSpec, InputSpec, TaskSpec, TeacherBank,
                               VocabularySpec, World)
        table = {(0, 0): np.array([[0.45, 0.32, 0.23], [0.5, 0.3, 0.2]])}
        bank = TeacherBank(2, table, {0: np.array([0.5, 0.5])}, np.array([0.9, 0.1]))
        world = World(VocabularySpec(3, frozenset({0})),
                      (InputSpec(0, np.array([0.0])),),
                      (TaskSpec(0, (0,), np.array([1.0]), 1.0),),
                      (ContextSpec(0, np.array([0.0]), 1.0),),
                      bank)
        broken = TokenOperator("family_a", safety_tokens=frozenset({0}),
                               safety_adjustment=False)
        report = check_conformance(broken, "token", world, WeightBounds(0.05, 0.95),
                                   seeded_sampler(2), 200)
        assert not report.all_passed
        assert "safety_monotonicity" in report.failures()
        # the multiplicative boost restores the ordering on this bank
        fixed = TokenOperator("family_a", safety_tokens=frozenset({0}))
        report2 = check_conformance(fixed, "token", world, WeightBounds(0.05, 0.95),
                                    seeded_sampler(2), 200)
        assert report2.all_passed, report2.failures()

    def test_unnormalized_custom_operator_reports_violation(self):
        world = appendix_world()
        op = TokenOperator("custom", fn=lambda x, i, c, bank, bounds: np.array([0.7, 0.7]))
        report = check_conformance(op, "token", world, WeightBounds(0.05, 0.95),
                                   seeded_sampler(3), 50)
        assert not report.checks["normalization"].passed
        assert report.checks["normalization"].worst_violation == pytest.approx(0.4, abs=1e-12)

    def test_nan_weights_fail_and_show_as_the_worst_violation(self):
        # a NaN magnitude compares False with the tolerance either way: it must fail
        world = appendix_world()
        op = TokenOperator("custom", fn=lambda x, i, c, bank, bounds: np.full(bank.k, np.nan))
        report = check_conformance(op, "token", world, WeightBounds(0.05, 0.95),
                                   seeded_sampler(3), 50)
        assert not report.all_passed
        for name in ("normalization", "positivity", "bounds", "regularity"):
            check = report.checks[name]
            assert not check.passed and math.isnan(check.worst_violation), name
        assert math.isnan(report.lipschitz_estimate)

    def test_nonuniqueness_witness(self):
        # entropy-decay and inverse-variance weights differ by > 0.1 while
        # both conform on the two-teacher world (no safety tokens there)
        world = appendix_world()
        bounds = WeightBounds(0.01, 0.99)
        wa = TokenOperator("family_a").weights(0, 0, 0, world.bank, bounds)
        wb = TokenOperator("family_b").weights(0, 0, 0, world.bank, bounds)
        assert np.max(np.abs(wa - wb)) > 0.1
        for fam in ("family_a", "family_b"):
            report = check_conformance(TokenOperator(fam), "token", world, bounds,
                                       seeded_sampler(4), 300)
            assert report.all_passed, (fam, report.failures())


def mixed_world() -> World:
    """Cells and scores where some perturbations move and some cannot.

    Point-mass teachers move only if the random direction is nonnegative on
    their zero entries, and scores at 0 or 1 only if the clipped shift points
    inward; the other cells and scores always move.
    """
    vocab = VocabularySpec(3, frozenset({0}))
    inputs = tuple(InputSpec(x, np.array([float(x)])) for x in range(2))
    tasks = tuple(TaskSpec(t, (0, 1), np.array([0.5, 0.5]), 0.25) for t in range(4))
    contexts = (ContextSpec(0, np.array([0.0]), 0.5),
                ContextSpec(1, np.array([1.0]), 0.3, is_safety_critical=True),
                ContextSpec(2, np.array([2.0]), 0.2))
    perf = {0: np.array([0.5, 0.7]), 1: np.array([1.0, 1.0]), 2: np.array([0.0, 0.0]),
            3: np.array([0.4, 0.6])}
    return World(vocab, inputs, tasks, contexts,
                 TeacherBank(2, mixed_table(), perf, np.array([0.9, 0.2])))


def mixed_table() -> dict:
    """The cells of ``mixed_world`` in context-major order."""
    point = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    return {(0, 0): np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]]), (1, 0): point,
            (0, 1): np.array([[0.6, 0.3, 0.1], [0.3, 0.3, 0.4]]), (1, 1): point,
            (0, 2): point, (1, 2): point}


def logging_operator(scale: str, log: list):
    """A uniform custom operator that logs each call's point and whether the bank is perturbed."""
    def fn(*args):
        *point, bank, bounds = args
        key = tuple(point) if scale == "token" else point[0].id if scale == "context" else point[0]
        log.append(("weights", key, bank is not WORLD.bank))
        return np.full(bank.k, 1.0 / bank.k)

    return OPERATOR[scale]("custom", fn=fn)


WORLD = mixed_world()
SCALES = ("token", "task", "context")
OPERATOR = {"token": TokenOperator, "task": TaskOperator, "context": ContextOperator}
# the sampler's next double and the Lipschitz estimate of a built-in family
# after a 60-sample pass at seed 2, as the per-scale branches of the
# conformance loop first left them
STREAM_FAMILY = {"token": "family_a", "task": "family_c", "context": "inverse_entropy"}
NEXT_DOUBLE = {"token": 0.07603320004476666, "task": 0.8621179849076281,
               "context": 0.09941111793264079}
LIPSCHITZ = {"token": 1.5592528772416347, "task": 0.7870434111859919,
             "context": 1.4864952263220153}


class TestConformanceLoop:
    @pytest.mark.parametrize("scale", SCALES)
    def test_weights_calls_per_point(self, scale, monkeypatch):
        log = []
        perturb = operators._perturbed_bank

        def logged_perturb(bank, scale_, key, eps, sampler):
            bank2, moved = perturb(bank, scale_, key, eps, sampler)
            log.append(("perturb", key, moved > 1e-12))
            return bank2, moved

        monkeypatch.setattr(operators, "_perturbed_bank", logged_perturb)
        check_conformance(logging_operator(scale, log), scale, WORLD,
                          WeightBounds(0.05, 0.95), seeded_sampler(2), 60)
        points = [(key, moved) for kind, key, moved in log if kind == "perturb"]
        # every distinct point once: weights, then its perturbation, then
        # weights on the perturbed bank only if the perturbation moved
        expected = []
        for key, moved in points:
            expected += [("weights", key, False), ("perturb", key, moved)]
            if moved:
                expected.append(("weights", key, True))
        assert log == expected
        assert len({key for key, _ in points}) == len(points) < 60
        assert {moved for _, moved in points} == {True, False}

    @pytest.mark.parametrize("scale", SCALES)
    def test_sampler_stream_pinned(self, scale):
        sampler = seeded_sampler(2)
        report = check_conformance(OPERATOR[scale](STREAM_FAMILY[scale]), scale, WORLD,
                                   WeightBounds(0.05, 0.95), sampler, 60)
        assert sampler.uniform() == NEXT_DOUBLE[scale]
        assert report.lipschitz_estimate == LIPSCHITZ[scale]


def violating_operator(scale: str):
    """A custom operator that breaks positivity, the bounds and safety monotonicity.

    On ``mixed_world`` (safety scores 0.9 > 0.2) its weights favour the less
    safe of the first two teachers, go negative or past ``w_max`` at some points,
    and read the moved bank, so every axiom records magnitudes that vary by point.
    """
    def fn(*args):
        *point, bank, bounds = args
        if scale == "token":
            x, i, c = point
            cell = bank.dists(x, c)[1, 0]
        elif scale == "task":
            x = i = c = point[0]
            cell = bank.perf(point[0])[0]
        else:
            x, i, c = 0, 1 + point[0].id, point[0].id
            cell = bank.dists(0, c)[1, 0]
        rest = np.full(bank.k - 2, 0.1)  # any further teachers
        return np.array([0.3 - 0.2 * i - 0.1 * x, 0.7 + 0.2 * i + 0.1 * cell + 0.05 * c, *rest])

    return OPERATOR[scale]("custom", fn=fn)


def _report_fields(report) -> tuple:
    return (report.scale, report.n_samples, repr(report.lipschitz_estimate),
            [(name, c.tol, c.passed, repr(c.worst_violation), c.n_checked)
             for name, c in report.checks.items()])


class TestConformanceStack:
    @pytest.mark.parametrize("scale,family", [
        ("token", "uniform"), ("token", "family_a"), ("token", "inverse_entropy"),
        ("token", "family_c"), ("task", "uniform"), ("task", "family_c"),
        ("context", "uniform"), ("context", "family_a"), ("context", "inverse_entropy"),
        ("token", "violating"), ("task", "violating"), ("context", "violating")])
    @pytest.mark.parametrize("make_world", [mixed_world, conformance_world])
    def test_report_equals_per_sample_reference(self, scale, family, make_world):
        world = make_world()
        op = (violating_operator(scale) if family == "violating" else
              TokenOperator(family, safety_tokens=world.vocab.safety_tokens) if scale == "token"
              else OPERATOR[scale](family))
        for seed in (0, 5):
            stacked, alone = seeded_sampler(seed), seeded_sampler(seed)
            report = check_conformance(op, scale, world, WeightBounds(0.05, 0.95), stacked, 300)
            expected = reference_conformance(op, scale, world, WeightBounds(0.05, 0.95),
                                             alone, 300)
            assert _report_fields(report) == _report_fields(expected)
            assert stacked.uniform() == alone.uniform()
            if family == "violating":
                assert set(report.failures()) >= {"positivity", "bounds", "normalization"} | (
                    {"safety_monotonicity"} if scale != "task" else set())


class TestParetoCompat:
    def test_default_instance_passes(self):
        assert check_pareto_compat()

    def test_boundary_scalarization(self):
        assert check_pareto_compat(lambda_grid=[1.0])

    def test_midpoint_minimizer_near_zero(self):
        # brute-force dominance oracle at lambda = 0.5
        grid = np.arange(-2.0, 2.0 + 1e-12, 0.01)
        l1 = (grid - 1.0) ** 2
        l2 = (grid + 1.0) ** 2
        best = np.argmin(0.5 * l1 + 0.5 * l2)
        assert abs(grid[best]) < 1e-9
        dominated = np.any((l1 <= l1[best]) & (l2 <= l2[best])
                           & ((l1 < l1[best]) | (l2 < l2[best])))
        assert not dominated
        assert check_pareto_compat(lambda_grid=[0.5])


def test_uniform_weights_equal_exact():
    for k in range(2, 9):
        w = uniform_weights(k, WeightBounds(1e-3, 0.999))
        np.testing.assert_array_equal(w, np.full(k, 1.0 / k))


# Reference loops for the context families and the task inverse-entropy
# family: one (K, V) cell at a time, in table order. The dense bank must give
# the same bits.

def _reference_context(family: str, c: ContextSpec, table: dict, bank: TeacherBank,
                       bounds: WeightBounds) -> np.ndarray:
    if c.is_safety_critical:
        return context_weights_safety(c, bank, bounds)
    cells = [d for (xi, ci), d in table.items() if ci == c.id]
    if family == "family_b":
        disp = np.zeros(bank.k)
        for dists in cells:
            mean = dists.mean(axis=0)
            disp += 0.5 * np.abs(dists - mean).sum(axis=1)
        return clip_normalize(1.0 / (disp / len(cells) + operators.VARIANCE_FLOOR), bounds)
    if family == "family_c":
        by_input: dict = {}
        for (xi, ci), dists in table.items():
            by_input.setdefault(xi, {})[ci] = dists
        shift = np.zeros(bank.k)
        for per_ctx in by_input.values():
            avg = np.mean(list(per_ctx.values()), axis=0)
            shift += 0.5 * np.abs(per_ctx[c.id] - avg).sum(axis=1)
        return clip_normalize(np.exp(-shift / len(by_input)), bounds)
    mean_h = np.mean([[entropy(p) for p in dists] for dists in cells], axis=0)
    return inverse_entropy_weights_from_entropies(mean_h, bounds)


def _reference_task_inverse_entropy(table: dict, bounds: WeightBounds) -> np.ndarray:
    mean_h = np.mean([[entropy(p) for p in dists] for dists in table.values()], axis=0)
    return inverse_entropy_weights_from_entropies(mean_h, bounds)


def _doc_world(doc: dict) -> tuple[World, dict]:
    """A config document's world, and its teacher cells in document order."""
    from mskd.runner import parse_config_dict
    table = {(cell["input"], cell["context"]): np.asarray(cell["dists"], dtype=float)
             for cell in doc["world"]["teachers"]["table"]}
    return parse_config_dict(doc).world, table


def _large_doc() -> dict:
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen_world.py"
    spec = importlib.util.spec_from_file_location("gen_world", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.perturbation_doc(0)


def _bank_worlds():
    import json
    from pathlib import Path
    doc = json.loads((Path(__file__).resolve().parent.parent / "configs" /
                      "conformance.json").read_text())
    yield "input_major", _doc_world(doc)
    doc["world"]["teachers"]["table"].sort(key=lambda cell: (cell["context"], cell["input"]))
    yield "context_major", _doc_world(doc)
    yield "mixed", (mixed_world(), mixed_table())
    yield "large", _doc_world(_large_doc())


BANK_WORLDS = dict(_bank_worlds())


class TestDenseBank:
    @pytest.mark.parametrize("name", list(BANK_WORLDS))
    @pytest.mark.parametrize("family", ["family_b", "family_c", "inverse_entropy"])
    def test_context_families_match_cell_loops(self, name, family):
        world, table = BANK_WORLDS[name]
        bounds = WeightBounds(0.001, 0.999)
        for c in world.contexts:
            got = ContextOperator(family).weights(c, world.bank, bounds)
            assert got.tobytes() == _reference_context(family, c, table, world.bank,
                                                       bounds).tobytes(), (c.id, family)

    @pytest.mark.parametrize("name", list(BANK_WORLDS))
    def test_task_inverse_entropy_matches_table_order(self, name):
        world, table = BANK_WORLDS[name]
        bounds = WeightBounds(0.001, 0.999)
        for t in world.tasks:
            got = TaskOperator("inverse_entropy").weights(t.id, world.bank, bounds)
            assert got.tobytes() == _reference_task_inverse_entropy(table, bounds).tobytes()

    @pytest.mark.parametrize("name", list(BANK_WORLDS))
    def test_cells_and_insertion_order_kept(self, name):
        world, table = BANK_WORLDS[name]
        bank = world.bank
        for (x, c), dists in table.items():
            assert bank.dists(x, c).tobytes() == dists.tobytes()
        flat = bank.array.reshape(-1, *bank.array.shape[2:])[bank.cell_order]
        assert flat.tobytes() == np.array(list(table.values())).tobytes()

    def test_context_major_mean_differs_from_axis_order(self):
        # on this table the axis-order mean has other bits, so the test above
        # fails if the family averages in axis order
        world, table = BANK_WORLDS["context_major"]
        cells = world.bank.array.reshape(-1, *world.bank.array.shape[2:])
        by_axis = np.mean([[entropy(p) for p in dists] for dists in cells], axis=0)
        in_order = np.mean([[entropy(p) for p in dists] for dists in table.values()], axis=0)
        assert by_axis.tobytes() != in_order.tobytes()

    @pytest.mark.parametrize("table", [
        {(0, 0): [[0.5, 0.5]], (0, 1): [[0.5, 0.5]], (1, 0): [[0.5, 0.5]]},
        {(0, 0): [[0.5, 0.5]], (1, 1): [[0.5, 0.5]]},
    ], ids=["one_cell_missing", "diagonal"])
    def test_non_grid_table_rejected(self, table):
        from mskd.core import UnresolvedReference
        with pytest.raises(UnresolvedReference, match="not a full grid"):
            TeacherBank(1, table, {0: [0.5]}, [0.5])
