"""Safety measures, dual ascent, KKT residuals, Pareto sweep, preservation."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mskd import distill, safety
from mskd.composition import UnifiedWeightOperator, uniform_unified
from mskd.core import (
    ContextSpec,
    DualStall,
    Infeasible,
    MissingLabel,
    MskdError,
    NegativeMultiplier,
    NonConformantOperator,
    TaskSpec,
    TeacherBank,
    VocabularySpec,
    WeightBounds,
    World,
    softmax,
)
from mskd.distill import compile_objective, solve_compiled
from mskd.operators import ContextOperator, TaskOperator, TokenOperator
from mskd.safety import (
    SafetyConfig,
    _ensemble_safety,
    _label_table,
    _lagrangian_block,
    _safety_label_mass,
    dual_ascent_solve,
    expected_safety,
    expected_safety_gradient,
    jensen_preservation_check,
    kkt_residuals,
    pareto_sweep,
    restrict_to_safety_contexts,
)

from fixture_worlds import (
    appendix_labels,
    appendix_safety_world,
    convergence_world,
    safety_world,
    safety_world_conflicting_labels,
    safety_world_labels,
)
from reference_newton import (
    reference_lagrangian_block,
    reference_newton,
    replay_large_safety_run,
    stalled_large_solves,
)
from reference_measures import safety_measure

BOUNDS = WeightBounds(0.05, 0.95)


def adaptive_g():
    return UnifiedWeightOperator(TokenOperator("family_a"), TaskOperator("family_c"),
                                 ContextOperator("family_a"), BOUNDS)


@pytest.fixture(scope="module")
def world():
    return safety_world()


@pytest.fixture(scope="module")
def labels():
    return safety_world_labels()


def objective(world, g=None, ridge=0.01):
    """The world's compiled objective under ``g`` (default ``adaptive_g()``), at ``ridge``."""
    return compile_objective(g or adaptive_g(), world, ridge)


def zero_logits(world):
    return np.zeros((len(world.inputs), world.vocab.size))


class TestSafetyMeasure:
    def test_non_safety_label_always_one(self):
        vocab = VocabularySpec(3, frozenset({0}))
        assert safety_measure([0.1, 0.2, 0.7], 2, vocab) == 1.0

    def test_point_mass_on_label(self):
        vocab = VocabularySpec(3, frozenset({0}))
        assert safety_measure([1.0, 0.0, 0.0], 0, vocab) == 1.0

    def test_reads_off_label_probability(self):
        vocab = VocabularySpec(3, frozenset({0}))
        q_uniform = [0.6, 0.25, 0.15]
        assert safety_measure(q_uniform, 0, vocab) == pytest.approx(0.6)

    def test_empty_safety_set_identically_one(self):
        vocab = VocabularySpec(3)
        for y in range(3):
            assert safety_measure([0.2, 0.3, 0.5], y, vocab) == 1.0


class TestExpectedSafety:
    def test_all_labels_non_safety(self, world):
        cfg = SafetyConfig(0.5, {k: 3 for k in safety_world_labels()})
        assert expected_safety(zero_logits(world), world, cfg) == pytest.approx(1.0)

    def test_uniform_student_all_safety_labels(self, world):
        cfg = SafetyConfig(0.5, {k: 0 for k in safety_world_labels()})
        assert expected_safety(zero_logits(world), world, cfg) == pytest.approx(1 / world.vocab.size)

    def test_ensemble_matched_student_appendix(self):
        world = appendix_safety_world()
        cfg = SafetyConfig(0.5, appendix_labels())
        w1 = (1 / 0.68) / (1 / 0.68 + 1 / 1.52)
        q = w1 * np.array([0.8, 0.15, 0.05]) + (1 - w1) * np.array([0.4, 0.35, 0.25])
        assert expected_safety(np.log(q)[None, :], world, cfg) == pytest.approx(q[0], abs=1e-12)
        assert q[0] == pytest.approx(0.676, abs=5e-4)

    def test_missing_label_raises(self, world):
        cfg = SafetyConfig(0.5, {(0, 0): 0})
        with pytest.raises(MissingLabel):
            expected_safety(zero_logits(world), world, cfg)

    def test_gradient_matches_finite_differences(self, world, labels):
        cfg = SafetyConfig(0.5, labels)
        rng = np.random.default_rng(0)
        theta = rng.normal(size=(3, world.vocab.size))
        grad = expected_safety_gradient(theta, world, cfg)
        h = 1e-5
        for _ in range(30):
            xi = int(rng.integers(0, 3))
            i = int(rng.integers(0, world.vocab.size))
            bump = theta.copy()
            bump[xi, i] += h
            up = expected_safety(bump, world, cfg)
            bump[xi, i] -= 2 * h
            down = expected_safety(bump, world, cfg)
            assert abs((up - down) / (2 * h) - grad[xi, i]) <= 1e-6


# The scalar definitions: one Python loop over (input, context) pairs, as the
# measures were first written. The library's array forms must match them bit
# for bit, including the left-to-right summation order.

def _pair_measure(world):
    return world.input_marginals()[:, None] * world.context_weights[None, :]


def ref_expected_safety(theta, world, cfg):
    pm = _pair_measure(world)
    total = 0.0
    for xi, inp in enumerate(world.inputs):
        p = softmax(theta[xi])
        for ci, ctx in enumerate(world.contexts):
            if pm[xi, ci] == 0.0:
                continue
            total += pm[xi, ci] * safety_measure(p, cfg.label(inp.id, ctx.id), world.vocab)
    return total


def ref_label_mass(world, cfg):
    pm = _pair_measure(world)
    mass = np.zeros((len(world.inputs), world.vocab.size))
    free = 0.0
    for xi, inp in enumerate(world.inputs):
        for ci, ctx in enumerate(world.contexts):
            if pm[xi, ci] == 0.0:
                continue
            y = cfg.label(inp.id, ctx.id)
            if y in world.vocab.safety_tokens:
                mass[xi, y] += pm[xi, ci]
            else:
                free += pm[xi, ci]
    return mass, free


def ref_gradient(theta, world, cfg):
    mass, _ = ref_label_mass(world, cfg)
    grad = np.zeros((len(world.inputs), world.vocab.size))
    for xi in range(len(world.inputs)):
        p = softmax(theta[xi])
        for y in np.nonzero(mass[xi])[0]:
            unit = np.zeros(len(p))
            unit[y] = 1.0
            grad[xi] += mass[xi, y] * p[y] * (unit - p)
    return grad


def ref_ensemble_safety(g, world, cfg):
    compiled = compile_objective(g, world, 0.0)
    total = 0.0
    for tj in range(len(world.tasks)):
        for xi, inp in enumerate(world.inputs):
            for ci, ctx in enumerate(world.contexts):
                w = compiled.joint[tj, xi, ci]
                if w == 0.0:
                    continue
                total += w * safety_measure(compiled.targets[tj, xi, ci],
                                            cfg.label(inp.id, ctx.id), world.vocab)
    return total


def zero_measure_world():
    """The safety world with two tasks plus a zero-measure context.

    Input 2 has zero weight in both tasks, so its pairs have zero measure too.
    """
    base = safety_world()
    contexts = base.contexts + (ContextSpec(3, np.array([3.0]), 0.0, is_safety_critical=True),)
    table = {(x.id, c.id): base.bank.dists(x.id, c.id) for x in base.inputs for c in base.contexts}
    for x in base.inputs:
        table[(x.id, 3)] = base.bank.dists(x.id, 0)
    perf = {0: base.bank.perf(0), 1: np.array([0.3, 0.9])}
    bank = TeacherBank(2, table, perf, base.bank.safety_scores)
    tasks = (TaskSpec(0, (0, 1, 2), np.array([0.25, 0.75, 0.0]), 0.6),
             TaskSpec(1, (0, 1, 2), np.array([0.5, 0.5, 0.0]), 0.4))
    return World(base.vocab, base.inputs, tasks, contexts, bank)


def zero_measure_labels():
    """Labels of the positive-measure pairs only: none for context 3 or input 2."""
    return {k: y for k, y in safety_world_labels().items() if k[0] != 2}


REFERENCE_CASES = {
    "safety": (safety_world, safety_world_labels),
    "safety_conflicting": (safety_world, safety_world_conflicting_labels),
    "appendix": (appendix_safety_world, appendix_labels),
    "zero_measure": (zero_measure_world, zero_measure_labels),
}


def ref_supremum(world, cfg):
    """Supremum of the expected safety over all students (attained in the limit).

    Per input the best distribution concentrates on the safety token with the
    largest label mass; pairs with non-safety labels contribute 1 regardless.
    """
    mass, free = ref_label_mass(world, cfg)
    return free + float(mass.max(axis=1).sum())


def ensemble_safety(g, world, cfg):
    """The expected safety of ``g``'s ensemble targets, read off its ridge-free objective."""
    return _ensemble_safety(objective(world, g, 0.0), _label_table(world, cfg))


def assert_matches_reference(world, cfg, theta):
    assert expected_safety(theta, world, cfg) == ref_expected_safety(theta, world, cfg)
    mass, free = _safety_label_mass(world, _label_table(world, cfg))
    ref_mass, ref_free = ref_label_mass(world, cfg)
    assert np.array_equal(mass, ref_mass) and free == ref_free
    assert np.array_equal(expected_safety_gradient(theta, world, cfg),
                          ref_gradient(theta, world, cfg))


class TestScalarReference:
    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_measures_equal_scalar_loops(self, case):
        make_world, make_labels = REFERENCE_CASES[case]
        world = make_world()
        cfg = SafetyConfig(0.5, make_labels())
        rng = np.random.default_rng(len(case))
        for scale in (0.0, 1.0, 5.0):
            assert_matches_reference(world, cfg,
                                     scale * rng.normal(size=(len(world.inputs), world.vocab.size)))
        g = UnifiedWeightOperator(TokenOperator("family_a", safety_tokens=world.vocab.safety_tokens),
                                  TaskOperator("family_c"), ContextOperator("family_b"), BOUNDS)
        assert ensemble_safety(g, world, cfg) == ref_ensemble_safety(g, world, cfg)

    @settings(max_examples=60, deadline=None)
    @given(theta=arrays(np.float64, (3, 5), elements=st.floats(-40.0, 40.0)),
           tokens=st.lists(st.integers(0, 4), min_size=6, max_size=6),
           safety_tokens=st.frozensets(st.integers(0, 4)))
    def test_random_logits_and_labels(self, theta, tokens, safety_tokens):
        base = zero_measure_world()
        world = World(VocabularySpec(5, safety_tokens), base.inputs, base.tasks,
                      base.contexts, base.bank)
        cfg = SafetyConfig(0.5, dict(zip(sorted(zero_measure_labels()), tokens)))
        assert_matches_reference(world, cfg, theta)
        g = UnifiedWeightOperator(TokenOperator("family_a", safety_tokens=safety_tokens),
                                  TaskOperator("family_c"), ContextOperator("family_c"), BOUNDS)
        assert ensemble_safety(g, world, cfg) == ref_ensemble_safety(g, world, cfg)

    def test_positive_measure_pair_without_label_raises(self):
        world = zero_measure_world()
        labels = zero_measure_labels()
        del labels[(1, 2)]
        cfg = SafetyConfig(0.5, labels)
        theta, compiled = zero_logits(world), objective(world)
        for measure in (lambda: expected_safety(theta, world, cfg),
                        lambda: _label_table(world, cfg),
                        lambda: expected_safety_gradient(theta, world, cfg),
                        lambda: kkt_residuals(compiled, theta, 0.0, cfg),
                        lambda: dual_ascent_solve(compiled, cfg),
                        lambda: pareto_sweep(compiled, cfg, [0.0])):
            with pytest.raises(MissingLabel):
                measure()


class TestLagrangian:
    """The Newton kernel of loss - mu * safety: its block values sum to the Lagrangian
    less the multiplier times the free mass, which no student can move."""

    @staticmethod
    def lagrangian(compiled, mu, cfg, theta):
        world = compiled.world
        mass, free = _safety_label_mass(world, _label_table(world, cfg))
        block, _ = _lagrangian_block(compiled, mu, mass)
        return float(block(np.arange(len(theta)), theta)[0].sum()) - mu * free

    def test_mu_zero_equals_loss(self, world, labels):
        compiled = objective(world)
        theta = zero_logits(world)
        assert self.lagrangian(compiled, 0.0, SafetyConfig(0.5, labels), theta) == \
            pytest.approx(compiled.loss(theta), abs=1e-12)

    def test_safety_one_everywhere_shifts_by_mu(self, world):
        compiled = objective(world, ridge=0.0)
        cfg = SafetyConfig(0.5, {k: 3 for k in safety_world_labels()})
        theta = zero_logits(world)
        assert self.lagrangian(compiled, 1.0, cfg, theta) == pytest.approx(
            compiled.loss(theta) - 1.0, abs=1e-12)

    def test_compositional_identity(self, world, labels):
        compiled = objective(world, ridge=0.02)
        cfg = SafetyConfig(0.7, labels)
        theta = np.random.default_rng(1).normal(size=(3, world.vocab.size))
        mu = 1.7
        expect = compiled.loss(theta) - mu * expected_safety(theta, world, cfg)
        assert self.lagrangian(compiled, mu, cfg, theta) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("grid", [[-0.5], [0.0, math.nan]], ids=["negative", "nan"])
    def test_negative_multiplier_rejected(self, world, labels, grid):
        with pytest.raises(NegativeMultiplier):
            pareto_sweep(objective(world), SafetyConfig(0.5, labels), grid)


class TestNewtonKernel:
    def test_label_terms_equal_the_inline_loop_bit_for_bit(self, world):
        cfg = SafetyConfig(0.5, safety_world_conflicting_labels())
        mass, _ = _safety_label_mass(world, _label_table(world, cfg))
        assert np.count_nonzero(mass[2]) == 2  # input 2 holds two safety labels
        compiled = compile_objective(adaptive_g(), world, 0.01)
        rng, masks = np.random.default_rng(3), np.random.default_rng(4)
        n = len(world.inputs)
        for mu in (0.0, 0.4, 7.5):
            block, block_hessians = _lagrangian_block(compiled, mu, mass)
            ref = reference_lagrangian_block(compiled, mu, mass)
            for scale in (0.0, 1.0, 10.0, 800.0):  # 800: some probabilities underflow to 0
                # every block once, then a stack that repeats and reorders them
                for xi in (np.arange(n), rng.integers(0, n, size=7)):
                    rows = scale * rng.normal(size=(len(xi), world.vocab.size))
                    f, g, p = block(xi, rows)
                    refs = [ref(x, rows[i]) for i, x in enumerate(xi.tolist())]
                    for i, (rf, rg, _) in enumerate(refs):
                        assert f[i] == rf and np.array_equal(g[i], rg)
                        assert np.array_equal(np.signbit(g[i]), np.signbit(rg))
                        assert p[i].tobytes() == softmax(rows[i]).tobytes()
                    # every row's Hessian, then those of a random selection of the rows;
                    # equal bytes: equal bits, the signs of zeros among them
                    rh, keep = np.array([r[2] for r in refs]), masks.random(len(xi)) < 0.5
                    assert block_hessians(xi, p).tobytes() == rh.tobytes()
                    assert block_hessians(xi[keep], p[keep]).tobytes() == rh[keep].tobytes()

    def test_zero_weight_label_terms_still_apply(self, world):
        # at mu = 0 a label term subtracts zeros, and those still turn a -0.0
        # of g into +0.0: with a subnormal input mass, m * (p - q) and
        # ridge * (-0.0) are both -0.0 wherever p < q
        cfg = SafetyConfig(0.5, safety_world_conflicting_labels())
        mass, _ = _safety_label_mass(world, _label_table(world, cfg))
        compiled = dataclasses.replace(compile_objective(adaptive_g(), world, 0.01),
                                       m_x=np.full(len(world.inputs), 5e-324))
        xi = np.arange(len(world.inputs))
        rows = np.full((len(xi), world.vocab.size), -0.0)
        block, block_hessians = _lagrangian_block(compiled, 0.0, mass)
        ref = reference_lagrangian_block(compiled, 0.0, mass)
        _, g, p = block(xi, rows)
        h, keep = block_hessians(xi, p), np.arange(len(xi)) % 2 == 0
        for i in xi.tolist():
            _, rg, rh = ref(i, rows[i])
            assert np.array_equal(np.signbit(g[i]), np.signbit(rg))
            assert np.array_equal(np.signbit(h[i]), np.signbit(rh))
        assert block_hessians(xi[keep], p[keep]).tobytes() == h[keep].tobytes()
        assert not np.array_equal(np.signbit(g), np.signbit(compiled.block(xi, rows)[1]))

    @pytest.mark.parametrize("solve", ["dual_ascent", "pareto"])
    def test_label_table_resolved_once_per_call(self, world, labels, solve, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return _label_table(*args, **kwargs)

        monkeypatch.setattr(safety, "_label_table", counted)
        cfg = SafetyConfig(0.85, labels, dual_step=40.0)
        if solve == "dual_ascent":
            res = dual_ascent_solve(objective(world), cfg)
            assert len(res.history) > 2
        else:
            pareto_sweep(objective(world), cfg, np.linspace(0.0, 3.0, 6))
        assert len(calls) == 1  # one label table per call


class TestStackedNewton:
    """The lockstep Newton solver against the per-block reference, bit for bit."""

    WORLDS = {"safety": safety_world(), "convergence": convergence_world()}

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def problem(world_name: str, ridge: float):
        """A world's objective at ``ridge`` and a label mass table for it.

        The safety world takes its conflicting labels (input 2 holds two); the
        convergence world, which has no safety context, a fixed random table.
        """
        world = TestStackedNewton.WORLDS[world_name]
        if world_name == "safety":
            cfg = SafetyConfig(0.5, safety_world_conflicting_labels())
            mass, _ = _safety_label_mass(world, _label_table(world, cfg))
        else:
            rng = np.random.default_rng(5)
            shape = (len(world.inputs), world.vocab.size)
            mass = rng.random(shape) * (rng.random(shape) < 0.25)
        return compile_objective(adaptive_g(), world, ridge), mass

    def solve_both(self, world_name, n_blocks, ridge, mu, scale, seed, gtol, max_iter):
        compiled, mass = self.problem(world_name, ridge)
        theta0 = scale * np.random.default_rng(seed).normal(size=compiled.qbar.shape)
        theta0 = theta0[:n_blocks]
        stats = {}
        with np.errstate(over="ignore", invalid="ignore"):  # far steps overflow in both
            ref = reference_newton(theta0, reference_lagrangian_block(compiled, mu, mass),
                                   gtol, max_iter, stats)
            got = distill.minimize_blockwise(theta0, *_lagrangian_block(compiled, mu, mass),
                                             gtol, max_iter)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()  # equal bits, the signs of zeros among them
        return stats

    # (world, n_blocks, ridge, mu, scale, seed, gtol, max_iter) and the path each takes
    CASES = {
        "damped": ("safety", 3, 0.01, 5.0, 0.0, 1, 1e-8, 200),
        "singular": ("safety", 3, 0.0, 0.0, 800.0, 1, 0.0, 200),
        "exhausted": ("safety", 3, 0.0, 0.0, 30.0, 1, 0.0, 200),
        "fixed_point": ("convergence", 3, 0.01, 0.0, 0.0, 1, 0.0, 200),
        "max_iter": ("convergence", 8, 0.01, 0.5, 0.0, 1, 0.0, 3),
    }

    @pytest.mark.parametrize("path", sorted(CASES))
    def test_each_path_keeps_its_bits(self, path):
        assert self.solve_both(*self.CASES[path])[path] > 0

    def test_empty_theta(self):
        stats = self.solve_both("safety", 0, 0.01, 0.5, 1.0, 0, 1e-8, 200)
        assert not any(stats.values())

    @settings(max_examples=40, deadline=None)
    @given(world_name=st.sampled_from(sorted(WORLDS)),
           n_blocks=st.integers(0, 8),
           ridge=st.sampled_from([0.0, 0.01, 0.2]),
           mu=st.sampled_from([0.0, 0.5, 5.0, 50.0]),
           scale=st.sampled_from([0.0, 1.0, 30.0, 800.0]),
           seed=st.integers(0, 2 ** 16),
           gtol=st.sampled_from([0.0, 1e-10, 1e-8]),
           max_iter=st.sampled_from([0, 1, 3, 200]))
    def test_stack_keeps_the_per_block_bits(self, world_name, n_blocks, ridge, mu, scale, seed,
                                            gtol, max_iter):
        self.solve_both(world_name, n_blocks, ridge, mu, scale, seed, gtol, max_iter)

    def test_stalled_large_world_solves(self):
        # the seed-0 large dual ascent leaves two blocks short of the tolerance, in two solves:
        # input 22 (mu 34.344) moves on all 200 iterations; from iteration 120 on, each
        # accepted step leaves input 24 (mu 34.557) bitwise where it is, and the stack retires
        # it there. Both keep the per-block bits. At iteration 2 step 1 fails every open block,
        # so from then on each iteration evaluates all 47 steps of its blocks in one kernel call
        compiled, mass, stalled = stalled_large_solves()
        assert len(stalled) == 2
        for (mu, theta0), fixed_at in zip(stalled, (None, 120)):
            stats, iters, calls = {}, [], []
            block, block_hessians = _lagrangian_block(compiled, mu, mass)

            def counted(xi, p):  # one Hessian build per iteration
                iters.append(len(xi))
                calls.append([])
                return block_hessians(xi, p)

            def counted_block(xi, rows):  # the rows of each kernel call, by iteration
                if calls:
                    calls[-1].append(len(xi))
                return block(xi, rows)

            ref = reference_newton(theta0, reference_lagrangian_block(compiled, mu, mass),
                                   1e-8, 200, stats)
            got = distill.minimize_blockwise(theta0, counted_block, counted, 1e-8)
            assert stats["max_iter"] == 1
            assert stats["fixed_point"] == (0 if fixed_at is None else 201 - fixed_at)
            assert len(iters) == (fixed_at or 200)
            assert got.tobytes() == ref.tobytes()
            assert calls[2] == [iters[2], 46 * iters[2]]  # step 1, then the 46 halvings
            assert calls[3:] == [[47 * k] for k in iters[3:]]

    def test_hessians_only_for_open_blocks(self):
        # the seed-0 large safety run: 79 solves, 635 kernel calls (trials included) over
        # 24,490 rows; 527 Hessian builds, of only the 4,712 rows still open after the
        # gradient test, and every one of those is solved
        solves = replay_large_safety_run()
        assert len(solves) == 79
        assert sum(s["calls"] for s in solves) == 635
        assert sum(s["rows"] for s in solves) == 24490
        assert sum(s["builds"] for s in solves) == 527
        assert sum(s["built"] for s in solves) == sum(s["solved"] for s in solves) == 4712
        assert sum(s["closed_built"] for s in solves) == 0


class TestDualAscent:
    def test_active_constraint(self, world, labels):
        compiled = objective(world)
        cfg = SafetyConfig(0.8, labels, dual_step=40.0)
        res = dual_ascent_solve(compiled, cfg)
        assert [f.name for f in dataclasses.fields(res)] == ["theta", "mu", "history"]
        assert res.mu > 0
        s = expected_safety(res.theta, world, cfg)
        assert abs(s - 0.8) <= 1e-3
        kk = kkt_residuals(compiled, res.theta, res.mu, cfg)
        assert max(kk.stationarity, kk.slackness, kk.primal_violation, kk.dual_violation) <= 1e-3

    def test_inactive_constraint_gives_zero_multiplier(self, world, labels):
        compiled = objective(world)
        cfg = SafetyConfig(0.3, labels, dual_step=40.0)
        res = dual_ascent_solve(compiled, cfg)
        assert res.mu == 0.0
        unconstrained = solve_compiled(compiled, gtol=1e-8)
        np.testing.assert_allclose(res.theta, unconstrained, atol=1e-6)

    def test_stall_raises(self, world, labels):
        cfg = SafetyConfig(0.8, labels, dual_step=40.0, max_dual_iters=1)
        with pytest.raises(DualStall, match="did not meet residual targets in 1 iterations"):
            dual_ascent_solve(objective(world), cfg)

    def test_conflicting_labels_are_infeasible(self, world):
        cfg = SafetyConfig(0.95, safety_world_conflicting_labels(), dual_step=40.0)
        s_max = ref_supremum(world, cfg)
        assert s_max < 0.95
        with pytest.raises(Infeasible, match=f"maximum achievable safety {s_max:.6f} "):
            dual_ascent_solve(objective(world), cfg)

    def test_feasibility_residual_monotone(self, world, labels):
        cfg = SafetyConfig(0.85, labels, dual_step=40.0)
        res = dual_ascent_solve(objective(world), cfg)
        feas = [h["feasibility"] for h in res.history]
        assert all(feas[i + 1] <= feas[i] + 1e-12 for i in range(1, len(feas) - 1))

    @pytest.mark.parametrize("ridge", [0.0, math.nan])
    @pytest.mark.parametrize("solve", ["dual_ascent", "pareto"])
    def test_ridge_free_objective_rejected(self, world, labels, solve, ridge):
        compiled, cfg = objective(world, ridge=ridge), SafetyConfig(0.8, labels)
        with pytest.raises(MskdError, match="positive ridge"):
            if solve == "dual_ascent":
                dual_ascent_solve(compiled, cfg)
            else:
                pareto_sweep(compiled, cfg, [0.0, 1.0])


class TestKKT:
    def test_unconstrained_optimum_zero_residuals(self, world, labels):
        compiled = objective(world)
        cfg = SafetyConfig(0.3, labels)
        kk = kkt_residuals(compiled, solve_compiled(compiled, gtol=1e-8), 0.0, cfg)
        assert kk.stationarity <= 1e-8
        assert kk.slackness == 0.0
        assert kk.dual_violation == 0.0

    def test_negative_multiplier_reported(self, world, labels):
        cfg = SafetyConfig(0.5, labels)
        kk = kkt_residuals(objective(world), zero_logits(world), -0.4, cfg)
        assert kk.dual_violation == pytest.approx(0.4)


class TestParetoSweep:
    def test_zero_endpoint_is_unconstrained_optimum(self, world, labels):
        compiled = objective(world)
        cfg = SafetyConfig(0.8, labels)
        pts = pareto_sweep(compiled, cfg, [0.0])
        loss_star = compiled.loss(solve_compiled(compiled, gtol=1e-8))
        assert pts[0][1] == pytest.approx(loss_star, abs=1e-9)

    def test_monotone_along_grid(self, world, labels):
        cfg = SafetyConfig(0.8, labels)
        pts = pareto_sweep(objective(world), cfg, np.linspace(0.0, 6.0, 20))
        safeties = np.array([p[2] for p in pts])
        losses = np.array([p[1] for p in pts])
        assert np.all(np.diff(safeties) >= -1e-9)
        assert np.all(np.diff(losses) >= -1e-9)

    def test_flat_safety_means_flat_loss(self, world):
        # with no safety-critical labels the sweep is degenerate: all points equal
        cfg = SafetyConfig(0.5, {k: 3 for k in safety_world_labels()})
        pts = pareto_sweep(objective(world), cfg, [0.0, 0.7, 1.9])
        losses = [p[1] for p in pts]
        assert max(losses) - min(losses) <= 1e-6

    def test_descending_grid_rejected(self, world, labels):
        cfg = SafetyConfig(0.8, labels)
        with pytest.raises(MskdError):
            pareto_sweep(objective(world), cfg, [1.0, 0.5])


class TestJensenPreservation:
    def test_equality_at_realizable_convergence(self, world, labels):
        g = adaptive_g()
        cfg = SafetyConfig(0.8, labels)
        res = jensen_preservation_check(g, world, cfg)
        assert res.passed
        assert res.student_safety == pytest.approx(res.ensemble_safety, abs=1e-9)

    def test_early_stopped_student_may_fall_short(self, world, labels):
        # the guarantee is scoped to convergence; a fresh student shows the gap
        cfg = SafetyConfig(0.8, labels)
        g = adaptive_g()
        restricted = restrict_to_safety_contexts(world)
        early = expected_safety(zero_logits(restricted), restricted, cfg)
        converged = ensemble_safety(g, restricted, cfg)
        assert early < converged  # reported, not asserted by the check itself

    def test_adaptive_context_weights_beat_uniform(self):
        world = appendix_safety_world()
        cfg = SafetyConfig(0.5, appendix_labels())
        restricted = restrict_to_safety_contexts(world)
        out = {}
        for name, g in (("adaptive", adaptive_g()), ("uniform", uniform_unified(BOUNDS))):
            out[name] = expected_safety(solve_compiled(objective(restricted, g, 0.0)),
                                        restricted, cfg)
        assert out["adaptive"] > out["uniform"]

    def test_nonconformant_context_operator_rejected(self, world, labels):
        cfg = SafetyConfig(0.8, labels)
        bad_ctx = ContextOperator("custom",
                                  fn=lambda c, bank, bounds: np.array([0.2, 0.8])
                                  if c.is_safety_critical else np.array([0.5, 0.5]))
        g = UnifiedWeightOperator(TokenOperator("family_a"), TaskOperator("family_c"),
                                  bad_ctx, BOUNDS)
        with pytest.raises(NonConformantOperator):
            jensen_preservation_check(g, world, cfg)

    def test_zero_measure_safety_contexts_rejected(self, world, labels):
        # the restriction once divided by the safety-critical contexts' total measure of 0
        contexts = tuple(dataclasses.replace(c, measure_weight=0.0 if c.is_safety_critical
                                             else 1.0) for c in world.contexts)
        unmeasured = World(world.vocab, world.inputs, world.tasks, contexts, world.bank)
        cause = "world has no safety-critical context of positive measure_weight"
        with pytest.raises(MskdError, match=cause):
            restrict_to_safety_contexts(unmeasured)
        with pytest.raises(MskdError, match=cause):
            jensen_preservation_check(adaptive_g(), unmeasured, SafetyConfig(0.8, labels))
