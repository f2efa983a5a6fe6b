"""Safety measures, dual ascent, KKT residuals, Pareto sweep, preservation."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mskd import distill, safety
from mskd.composition import UnifiedWeightOperator, uniform_unified
from mskd.core import (
    ContextSpec,
    Infeasible,
    MissingLabel,
    NegativeMultiplier,
    NonConformantOperator,
    StudentParams,
    TaskSpec,
    TeacherBank,
    VocabularySpec,
    WeightBounds,
    World,
)
from mskd.distill import TrainerConfig, compile_objective, kd_loss, solve_compiled, solve_optimum
from mskd.operators import ContextOperator, TaskOperator, TokenOperator
from mskd.safety import (
    SafetyConfig,
    _label_table,
    _lagrangian_block,
    _safety_label_mass,
    dual_ascent_solve,
    ensemble_expected_safety,
    expected_safety,
    expected_safety_gradient,
    jensen_preservation_check,
    kkt_residuals,
    lagrangian_value,
    max_achievable_safety,
    pareto_sweep,
    restrict_to_safety_contexts,
    safety_measure,
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


def trainer_cfg():
    return TrainerConfig(eta0=1.0, steps=100, ridge=0.01, seed=0, eval_every=50)


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
        params = StudentParams(tuple(x.id for x in world.inputs),
                               np.zeros((3, world.vocab.size)))
        assert expected_safety(params, world, cfg) == pytest.approx(1.0)

    def test_uniform_student_all_safety_labels(self, world):
        cfg = SafetyConfig(0.5, {k: 0 for k in safety_world_labels()})
        params = StudentParams(tuple(x.id for x in world.inputs),
                               np.zeros((3, world.vocab.size)))
        assert expected_safety(params, world, cfg) == pytest.approx(1 / world.vocab.size)

    def test_ensemble_matched_student_appendix(self):
        world = appendix_safety_world()
        cfg = SafetyConfig(0.5, appendix_labels())
        w1 = (1 / 0.68) / (1 / 0.68 + 1 / 1.52)
        q = w1 * np.array([0.8, 0.15, 0.05]) + (1 - w1) * np.array([0.4, 0.35, 0.25])
        params = StudentParams((0,), np.log(q)[None, :])
        assert expected_safety(params, world, cfg) == pytest.approx(q[0], abs=1e-12)
        assert q[0] == pytest.approx(0.676, abs=5e-4)

    def test_missing_label_raises(self, world):
        cfg = SafetyConfig(0.5, {(0, 0): 0})
        params = StudentParams(tuple(x.id for x in world.inputs),
                               np.zeros((3, world.vocab.size)))
        with pytest.raises(MissingLabel):
            expected_safety(params, world, cfg)

    def test_gradient_matches_finite_differences(self, world, labels):
        cfg = SafetyConfig(0.5, labels)
        rng = np.random.default_rng(0)
        theta = rng.normal(size=(3, world.vocab.size))
        params = StudentParams(tuple(x.id for x in world.inputs), theta)
        grad = expected_safety_gradient(params, world, cfg)
        h = 1e-5
        for _ in range(30):
            xi = int(rng.integers(0, 3))
            i = int(rng.integers(0, world.vocab.size))
            bump = theta.copy()
            bump[xi, i] += h
            up = expected_safety(StudentParams(params.input_ids, bump), world, cfg)
            bump[xi, i] -= 2 * h
            down = expected_safety(StudentParams(params.input_ids, bump), world, cfg)
            assert abs((up - down) / (2 * h) - grad[xi, i]) <= 1e-6


# The scalar definitions: one Python loop over (input, context) pairs, as the
# measures were first written. The library's array forms must match them bit
# for bit, including the left-to-right summation order.

def _pair_measure(world):
    return world.input_marginals()[:, None] * world.context_weights[None, :]


def ref_expected_safety(params, world, cfg):
    pm = _pair_measure(world)
    total = 0.0
    for xi, inp in enumerate(world.inputs):
        p = params.distribution(inp.id)
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


def ref_gradient(params, world, cfg):
    mass, _ = ref_label_mass(world, cfg)
    grad = np.zeros((len(world.inputs), world.vocab.size))
    for xi, inp in enumerate(world.inputs):
        p = params.distribution(inp.id)
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


def assert_matches_reference(world, cfg, theta):
    params = StudentParams(tuple(x.id for x in world.inputs), theta)
    assert expected_safety(params, world, cfg) == ref_expected_safety(params, world, cfg)
    mass, free = _safety_label_mass(world, _label_table(world, cfg))
    ref_mass, ref_free = ref_label_mass(world, cfg)
    assert np.array_equal(mass, ref_mass) and free == ref_free
    assert np.array_equal(expected_safety_gradient(params, world, cfg),
                          ref_gradient(params, world, cfg))
    assert max_achievable_safety(world, cfg) == ref_free + float(ref_mass.max(axis=1).sum())


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
        assert ensemble_expected_safety(g, world, cfg) == ref_ensemble_safety(g, world, cfg)

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
        assert ensemble_expected_safety(g, world, cfg) == ref_ensemble_safety(g, world, cfg)

    def test_positive_measure_pair_without_label_raises(self):
        world = zero_measure_world()
        labels = zero_measure_labels()
        del labels[(1, 2)]
        cfg = SafetyConfig(0.5, labels)
        params = StudentParams((0, 1, 2), np.zeros((3, world.vocab.size)))
        for measure in (lambda: expected_safety(params, world, cfg),
                        lambda: _label_table(world, cfg),
                        lambda: expected_safety_gradient(params, world, cfg),
                        lambda: ensemble_expected_safety(adaptive_g(), world, cfg),
                        lambda: max_achievable_safety(world, cfg)):
            with pytest.raises(MissingLabel):
                measure()


class TestLagrangian:
    def test_mu_zero_equals_kd_loss(self, world, labels):
        g = adaptive_g()
        cfg = SafetyConfig(0.5, labels)
        params = StudentParams(tuple(x.id for x in world.inputs),
                               np.zeros((3, world.vocab.size)), ridge=0.01)
        assert lagrangian_value(params, 0.0, g, world, cfg) == kd_loss(params, g, world)

    def test_safety_one_everywhere_shifts_by_mu(self, world):
        g = adaptive_g()
        cfg = SafetyConfig(0.5, {k: 3 for k in safety_world_labels()})
        params = StudentParams(tuple(x.id for x in world.inputs),
                               np.zeros((3, world.vocab.size)))
        assert lagrangian_value(params, 1.0, g, world, cfg) == pytest.approx(
            kd_loss(params, g, world) - 1.0)

    def test_compositional_identity(self, world, labels):
        g = adaptive_g()
        cfg = SafetyConfig(0.7, labels)
        rng = np.random.default_rng(1)
        params = StudentParams(tuple(x.id for x in world.inputs),
                               rng.normal(size=(3, world.vocab.size)), ridge=0.02)
        mu = 1.7
        expect = kd_loss(params, g, world) - mu * expected_safety(params, world, cfg)
        assert lagrangian_value(params, mu, g, world, cfg) == pytest.approx(expect, abs=1e-12)

    def test_negative_multiplier_rejected(self, world, labels):
        g = adaptive_g()
        cfg = SafetyConfig(0.5, labels)
        params = StudentParams(tuple(x.id for x in world.inputs),
                               np.zeros((3, world.vocab.size)))
        with pytest.raises(NegativeMultiplier):
            lagrangian_value(params, -0.5, g, world, cfg)


class TestNewtonKernel:
    def test_label_terms_equal_the_inline_loop_bit_for_bit(self, world):
        cfg = SafetyConfig(0.5, safety_world_conflicting_labels())
        mass, _ = _safety_label_mass(world, _label_table(world, cfg))
        assert np.count_nonzero(mass[2]) == 2  # input 2 holds two safety labels
        compiled = compile_objective(adaptive_g(), world, 0.01)
        rng, masks = np.random.default_rng(3), np.random.default_rng(4)
        n = len(world.inputs)
        for mu in (0.0, 0.4, 7.5):
            kernel, value = _lagrangian_block(compiled, mu, mass)
            ref = reference_lagrangian_block(compiled, mu, mass)
            for scale in (0.0, 1.0, 10.0, 800.0):  # 800: some probabilities underflow to 0
                # every block once, then a stack that repeats and reorders them
                for xi in (np.arange(n), rng.integers(0, n, size=7)):
                    rows = scale * rng.normal(size=(len(xi), world.vocab.size))
                    f, g, hessians = kernel(xi, rows)
                    assert value(xi, rows).tobytes() == f.tobytes()
                    refs = [ref(x, rows[i]) for i, x in enumerate(xi.tolist())]
                    for i, (rf, rg, _) in enumerate(refs):
                        assert f[i] == rf and np.array_equal(g[i], rg)
                        assert np.array_equal(np.signbit(g[i]), np.signbit(rg))
                    # every row's Hessian, then those of a random selection of the rows;
                    # equal bytes: equal bits, the signs of zeros among them
                    rh, keep = np.array([r[2] for r in refs]), masks.random(len(xi)) < 0.5
                    assert hessians().tobytes() == rh.tobytes()
                    assert hessians(keep).tobytes() == rh[keep].tobytes()

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
        fgh, _ = _lagrangian_block(compiled, 0.0, mass)
        ref = reference_lagrangian_block(compiled, 0.0, mass)
        _, g, hessians = fgh(xi, rows)
        h, keep = hessians(), np.arange(len(xi)) % 2 == 0
        for i in xi.tolist():
            _, rg, rh = ref(i, rows[i])
            assert np.array_equal(np.signbit(g[i]), np.signbit(rg))
            assert np.array_equal(np.signbit(h[i]), np.signbit(rh))
        assert hessians(keep).tobytes() == h[keep].tobytes()
        assert not np.array_equal(np.signbit(g), np.signbit(compiled.block(xi, rows)[1]))

    @pytest.mark.parametrize("solve", ["dual_ascent", "pareto"])
    def test_label_table_resolved_once_per_call(self, world, labels, solve, monkeypatch):
        calls = {"_label_table": 0, "StudentParams": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(safety, "_label_table", counted("_label_table", _label_table))
        monkeypatch.setattr(distill, "StudentParams", counted("StudentParams", StudentParams))
        cfg = SafetyConfig(0.85, labels, dual_step=40.0)
        if solve == "dual_ascent":
            res = dual_ascent_solve(adaptive_g(), world, cfg, trainer_cfg())
            assert len(res.history) > 2
        else:
            pareto_sweep(adaptive_g(), world, cfg, np.linspace(0.0, 3.0, 6), ridge=0.01)
        # one label table per call; the one StudentParams is the dual ascent's result
        assert calls == {"_label_table": 1, "StudentParams": int(solve == "dual_ascent")}


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
        # the seed-0 large dual ascent stalls two blocks (inputs 22 and 24) for
        # all 200 iterations, in two solves; both keep the per-block bits
        compiled, mass, stalled = stalled_large_solves()
        assert len(stalled) == 2
        for mu, theta0 in stalled:
            stats = {}
            ref = reference_newton(theta0, reference_lagrangian_block(compiled, mu, mass),
                                   1e-8, 200, stats)
            got = distill.minimize_blockwise(theta0, *_lagrangian_block(compiled, mu, mass), 1e-8)
            assert stats["max_iter"] == 1
            assert got.tobytes() == ref.tobytes()

    def test_hessians_only_for_open_blocks(self):
        # the seed-0 large safety run: 79 solves, 686 kernel calls over 7,320
        # rows, of which only the 4,792 still open after the gradient test get a
        # Hessian, and every one of those is solved
        solves = replay_large_safety_run()
        assert len(solves) == 79
        assert sum(s["calls"] for s in solves) == 686
        assert sum(s["rows"] for s in solves) == 7320
        assert sum(s["built"] for s in solves) == sum(s["solved"] for s in solves) == 4792
        assert sum(s["closed_built"] for s in solves) == 0


class TestDualAscent:
    def test_active_constraint(self, world, labels):
        g = adaptive_g()
        cfg = SafetyConfig(0.8, labels, dual_step=40.0)
        res = dual_ascent_solve(g, world, cfg, trainer_cfg())
        assert res.converged
        assert res.mu > 0
        s = expected_safety(res.params, world, cfg)
        assert abs(s - 0.8) <= 1e-3
        kk = kkt_residuals(res.params, res.mu, g, world, cfg)
        assert kk.all_within(1e-3)

    def test_inactive_constraint_gives_zero_multiplier(self, world, labels):
        g = adaptive_g()
        cfg = SafetyConfig(0.3, labels, dual_step=40.0)
        res = dual_ascent_solve(g, world, cfg, trainer_cfg())
        assert res.mu == 0.0
        unconstrained, _ = solve_optimum(g, world, 0.01, gtol=1e-8)
        np.testing.assert_allclose(res.params.logits, unconstrained.logits, atol=1e-6)

    def test_conflicting_labels_are_infeasible(self, world):
        g = adaptive_g()
        cfg = SafetyConfig(0.95, safety_world_conflicting_labels(), dual_step=40.0)
        assert max_achievable_safety(world, cfg) < 0.95
        with pytest.raises(Infeasible):
            dual_ascent_solve(g, world, cfg, trainer_cfg())

    def test_feasibility_residual_monotone(self, world, labels):
        g = adaptive_g()
        cfg = SafetyConfig(0.85, labels, dual_step=40.0)
        res = dual_ascent_solve(g, world, cfg, trainer_cfg())
        feas = [h["feasibility"] for h in res.history]
        assert all(feas[i + 1] <= feas[i] + 1e-12 for i in range(1, len(feas) - 1))


class TestKKT:
    def test_unconstrained_optimum_zero_residuals(self, world, labels):
        g = adaptive_g()
        cfg = SafetyConfig(0.3, labels)
        params, _ = solve_optimum(g, world, 0.01, gtol=1e-8)
        kk = kkt_residuals(params, 0.0, g, world, cfg)
        assert kk.stationarity <= 1e-8
        assert kk.slackness == 0.0
        assert kk.dual_violation == 0.0

    def test_negative_multiplier_reported(self, world, labels):
        g = adaptive_g()
        cfg = SafetyConfig(0.5, labels)
        params = StudentParams(tuple(x.id for x in world.inputs),
                               np.zeros((3, world.vocab.size)))
        kk = kkt_residuals(params, -0.4, g, world, cfg)
        assert kk.dual_violation == pytest.approx(0.4)


class TestParetoSweep:
    def test_zero_endpoint_is_unconstrained_optimum(self, world, labels):
        g = adaptive_g()
        cfg = SafetyConfig(0.8, labels)
        pts = pareto_sweep(g, world, cfg, [0.0], ridge=0.01)
        _, loss_star = solve_optimum(g, world, 0.01, gtol=1e-8)
        assert pts[0][1] == pytest.approx(loss_star, abs=1e-9)

    def test_monotone_along_grid(self, world, labels):
        g = adaptive_g()
        cfg = SafetyConfig(0.8, labels)
        pts = pareto_sweep(g, world, cfg, np.linspace(0.0, 6.0, 20), ridge=0.01)
        safeties = np.array([p[2] for p in pts])
        losses = np.array([p[1] for p in pts])
        assert np.all(np.diff(safeties) >= -1e-9)
        assert np.all(np.diff(losses) >= -1e-9)

    def test_flat_safety_means_flat_loss(self, world):
        # with no safety-critical labels the sweep is degenerate: all points equal
        g = adaptive_g()
        cfg = SafetyConfig(0.5, {k: 3 for k in safety_world_labels()})
        pts = pareto_sweep(g, world, cfg, [0.0, 0.7, 1.9], ridge=0.01)
        losses = [p[1] for p in pts]
        assert max(losses) - min(losses) <= 1e-6

    def test_descending_grid_rejected(self, world, labels):
        from mskd.core import MskdError
        g = adaptive_g()
        cfg = SafetyConfig(0.8, labels)
        with pytest.raises(MskdError):
            pareto_sweep(g, world, cfg, [1.0, 0.5], ridge=0.01)


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
        params = StudentParams(tuple(x.id for x in restricted.inputs),
                               np.zeros((3, world.vocab.size)))
        early = expected_safety(params, restricted, cfg)
        converged = ensemble_expected_safety(g, restricted, cfg)
        assert early < converged  # reported, not asserted by the check itself

    def test_adaptive_context_weights_beat_uniform(self):
        world = appendix_safety_world()
        cfg = SafetyConfig(0.5, appendix_labels())
        restricted = restrict_to_safety_contexts(world)
        out = {}
        for name, g in (("adaptive", adaptive_g()), ("uniform", uniform_unified(BOUNDS))):
            compiled = compile_objective(g, restricted, 0.0)
            theta = solve_compiled(compiled)
            out[name] = expected_safety(compiled.params(theta), restricted, cfg)
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
