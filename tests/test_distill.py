"""Distillation objective, trainers, and rate diagnostics."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mskd.composition import (UnifiedWeightOperator, normalize_rows, renormalized_mixture,
                              uniform_unified)
from mskd import distill
from mskd.core import (SAMPLE_BLOCK, MarginViolated, MskdError, NegativeMass, NonFiniteLoss,
                       WeightBounds, normalize_exact, seeded_sampler, softmax)
from mskd.distill import (
    InsufficientTrace,
    TrainerConfig,
    TrainTrace,
    _densify,
    _uniform_compiled,
    average_traces,
    classic_uniform_train,
    compile_objective,
    fit_convergence_rate,
    sgd_train,
    solve_compiled,
    train_stack,
)
from mskd.operators import ContextOperator, TaskOperator, TokenOperator, uniform_weights
from mskd.runner import emit_summary, parse_config_dict, run_experiment

from fixture_worlds import (appendix_world, bundled_doc, conformance_world, convergence_world,
                            zero_entry_world, zero_measure_world)
from reference_newton import reference_newton
from reference_sgd import reference_sgd

WIDE = WeightBounds(0.01, 0.99)


def adaptive_g(bounds=WIDE):
    return UnifiedWeightOperator(TokenOperator("family_a"), TaskOperator("family_c"),
                                 ContextOperator("family_a"), bounds)


@pytest.fixture(scope="module")
def world():
    return convergence_world()


def noisy_compiled(G, world, delta, ridge, seed):
    """The operator's targets with every weight row perturbed by bounded iid noise.

    Noise of infinity-norm at most ``delta``, one C-order draw from the third ``spawn`` of
    ``seed`` (apart from the training streams), is added to the weight table and each row
    is renormalized. Perturbed weights must stay inside [w_min + delta, w_max - delta] or
    ``MarginViolated`` is raised. ``delta = 0`` gives ``compile_objective``'s table exactly.
    """
    if delta == 0:
        return compile_objective(G, world, ridge)
    rows, lo, hi = G.weight_table(world), G.bounds.w_min + delta, G.bounds.w_max - delta
    rows = rows + seeded_sampler(seed).spawn(3)[2].uniform(-delta, delta, size=rows.shape)
    if np.any((rows < lo - 1e-15) | (rows > hi + 1e-15)):
        raise MarginViolated(f"weight perturbation of scale {delta} leaves the margin [{lo}, {hi}]")
    return _densify(world, ridge, normalize_rows(rows), np.arange(world.vocab.size))


class TestLoss:
    def test_student_equal_target_gives_entropy(self):
        # one cell, so the target is a single distribution per input
        from mskd.core import entropy
        world = appendix_world()
        compiled = compile_objective(adaptive_g(), world, 0.0)
        theta = np.log(compiled.qbar)
        loss = compiled.loss(theta)
        assert loss == pytest.approx(entropy(compiled.qbar[0]), abs=1e-12)
        assert compiled.mean_kl(theta) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_student_cross_entropy_is_log_v(self):
        compiled = compile_objective(uniform_unified(WIDE), appendix_world())
        assert compiled.loss(np.zeros((1, 3))) == pytest.approx(math.log(3), abs=1e-12)

    def test_ridge_at_origin_adds_nothing(self):
        world = appendix_world()
        g = uniform_unified(WIDE)
        theta = np.zeros((1, 3))
        assert compile_objective(g, world, 0.0).loss(theta) == \
            compile_objective(g, world, 0.01).loss(theta)


class TestGradient:
    def test_zero_at_matched_student(self, world):
        compiled = compile_objective(adaptive_g(), world, 0.0)
        grad = compiled.grad(np.log(compiled.qbar))
        assert np.max(np.abs(grad)) < 1e-14

    def test_matches_central_differences(self, world):
        g = adaptive_g()
        rng = np.random.default_rng(0)
        h = 1e-5
        for ridge in (0.0, 0.01):
            compiled = compile_objective(g, world, ridge)
            for _ in range(4):
                theta = rng.normal(size=(len(world.inputs), world.vocab.size))
                grad = compiled.grad(theta)
                for _ in range(25):
                    xi = int(rng.integers(0, theta.shape[0]))
                    i = int(rng.integers(0, theta.shape[1]))
                    bump = np.zeros_like(theta)
                    bump[xi, i] = h
                    fd = (compiled.loss(theta + bump) - compiled.loss(theta - bump)) / (2 * h)
                    assert abs(fd - grad[xi, i]) <= 1e-6

    def test_ridge_term_alone(self, world):
        g = adaptive_g()
        compiled = compile_objective(g, world, 0.05)
        theta = np.log(compiled.qbar)  # CE part stationary there
        grad = compiled.grad(theta)
        np.testing.assert_allclose(grad, 0.05 * theta, atol=1e-13)


class TestSgdTrain:
    @pytest.mark.parametrize("init_scale", [-1.0, -1e-300, math.nan])
    def test_negative_init_scale_rejected(self, init_scale):
        with pytest.raises(MskdError, match="init_scale"):
            TrainerConfig(init_scale=init_scale)

    @pytest.mark.parametrize("field,value,message", [
        ("eta0", math.inf, "must be finite, got inf"),
        ("ridge", math.inf, "must be finite, got inf"),
        ("init_scale", math.inf, "must be finite, got inf"),
        ("steps", 1.5, "must be an integer, got 1.5"),
        ("steps", 1000.0, "must be an integer, got 1000.0"),
        ("steps", math.inf, "must be an integer, got inf"),
        ("eval_every", math.nan, "must be an integer, got nan"),
        ("eval_every", 2.5, "must be an integer, got 2.5"),
    ])
    def test_non_finite_and_non_integral_settings_rejected(self, field, value, message):
        # the CLI parser rejects these first; a config built in code fails here, not mid-run
        with pytest.raises(MskdError, match=f"^{field}: {message}$"):
            TrainerConfig(**{field: value})
        valid = {"steps": np.int64(5), "eval_every": np.int32(5)}.get(field, 2.0)  # numpy ints pass
        TrainerConfig(**{field: valid})

    def test_zero_steps_returns_initial(self, world):
        cfg = TrainerConfig(eta0=1.0, steps=0, ridge=0.01, seed=1, eval_every=10)
        theta, trace = sgd_train(cfg, adaptive_g(), world)
        np.testing.assert_array_equal(theta, 0.0)
        assert trace.steps.tolist() == [0]

    def test_uniform_matches_classic_bit_for_bit(self, world):
        cfg = TrainerConfig(eta0=1.0, steps=3000, ridge=0.01, seed=7, eval_every=500)
        theta_uni, t_uni = sgd_train(cfg, uniform_unified(WIDE), world)
        theta_classic, t_classic = classic_uniform_train(cfg, world)
        assert np.array_equal(theta_uni, theta_classic)
        assert np.array_equal(t_uni.loss, t_classic.loss)
        assert np.array_equal(t_uni.mean_kl, t_classic.mean_kl)
        assert np.array_equal(t_uni.grad_norm, t_classic.grad_norm)

    def test_reproducible_at_equal_seed(self, world):
        cfg = TrainerConfig(eta0=2.0, steps=500, ridge=0.01, seed=5,
                            eval_every=100, init_scale=0.5)
        theta1, t1 = sgd_train(cfg, adaptive_g(), world)
        theta2, t2 = sgd_train(cfg, adaptive_g(), world)
        assert np.array_equal(theta1, theta2)
        assert np.array_equal(t1.loss, t2.loss)

    def test_block_draws_match_one_step_at_a_time(self, world, monkeypatch):
        spawned = []

        def recording_sampler(seed):
            sampler = seeded_sampler(seed)
            spawn = sampler.spawn

            def recording_spawn(n):
                spawned.extend(spawn(n))
                return spawned[-n:]

            sampler.spawn = recording_spawn
            return sampler

        monkeypatch.setattr(distill, "seeded_sampler", recording_sampler)
        steps = SAMPLE_BLOCK + 17
        cfg = TrainerConfig(eta0=2.0, steps=steps, ridge=0.01, seed=3, eval_every=100,
                            init_scale=0.5)
        trained, _ = sgd_train(cfg, adaptive_g(), world)
        init_rng, sample_rng = seeded_sampler(3).spawn(2)
        targets = compile_objective(adaptive_g(), world, 0.01).targets
        theta = 0.5 * init_rng.normal(size=trained.shape)
        for t in range(steps):
            eta = 2.0 / (1.0 + t)
            tj, xi, ci = np.concatenate(world.sample_index_arrays(sample_rng, 1))
            g = softmax(theta[xi]) - targets[tj, xi, ci]
            theta *= 1.0 - eta * 0.01
            theta[xi] -= eta * g
        assert np.array_equal(trained, theta)
        assert spawned[1].uniform() == sample_rng.uniform()  # 3 doubles taken per step

    def test_adaptive_differs_from_classic(self, world):
        cfg = TrainerConfig(eta0=1.0, steps=500, ridge=0.01, seed=7, eval_every=100)
        theta_a, _ = sgd_train(cfg, adaptive_g(), world)
        theta_c, _ = classic_uniform_train(cfg, world)
        assert not np.array_equal(theta_a, theta_c)


class TestTrainStack:
    """The event-round trainer against the per-run reference loop, bit for bit."""

    # the appendix world has one input, so each run's row takes every step; input 1 of the
    # zero-measure world is never sampled, so its row only ever decays
    WORLDS = {"convergence": convergence_world(), "appendix": appendix_world(),
              "zero_measure": zero_measure_world()}
    TRACE_COLUMNS = ("steps", "loss", "mean_kl", "grad_norm", "lr")

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def tables(world_name: str, ridge: float) -> dict:
        """Adaptive, classic, noisy, diverging and late-diverging tables of one world."""
        world = TestTrainStack.WORLDS[world_name]
        g = adaptive_g(WeightBounds(0.05, 0.95))
        adaptive = compile_objective(g, world, ridge)
        # targets far outside the simplex: the logits overflow within a few steps, or at eta0 1
        # only after dozens (on the appendix world at ridge 0.01, the loss at step 63)
        return {"adaptive": adaptive, "classic": _uniform_compiled(world, ridge),
                "noisy": noisy_compiled(g, world, 0.01, ridge, 9),
                "diverging": dataclasses.replace(adaptive, targets=adaptive.targets * 1e307),
                "late": dataclasses.replace(adaptive, targets=adaptive.targets * 4e153)}

    @settings(max_examples=30, deadline=None)
    @given(world_name=st.sampled_from(sorted(WORLDS)),
           runs=st.lists(st.tuples(st.sampled_from(["adaptive", "classic", "noisy"]),
                                   st.integers(0, 3)), min_size=1, max_size=10),
           diverging=st.sampled_from([(), (0,), (3, 9)]),
           ridge=st.sampled_from([0.0, 0.01, 0.2]),
           init_scale=st.sampled_from([0.0, 0.5]),
           eta0=st.sampled_from([1.0, 40.0]),
           steps=st.sampled_from([0, 1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1,
                                  2 * SAMPLE_BLOCK + 5]),
           eval_every=st.sampled_from([1, 7, 250, 333, SAMPLE_BLOCK // 2, SAMPLE_BLOCK,
                                       3 * SAMPLE_BLOCK]))
    @example(world_name="appendix", runs=[("adaptive", 0), ("classic", 1)] * 5, diverging=(),
             ridge=0.01, init_scale=0.5, eta0=40.0, steps=SAMPLE_BLOCK + 1, eval_every=1)
    @example(world_name="zero_measure", runs=[("adaptive", 2), ("noisy", 3)], diverging=(),
             ridge=0.2, init_scale=0.5, eta0=1.0, steps=2 * SAMPLE_BLOCK + 5,
             eval_every=3 * SAMPLE_BLOCK)
    @example(world_name="convergence", runs=[("classic", 0), ("adaptive", 1)] * 2,
             diverging=(3, 9), ridge=0.0, init_scale=0.0, eta0=40.0, steps=SAMPLE_BLOCK,
             eval_every=7)
    # a record every step: the rows of input 1 take no step between any two records
    @example(world_name="zero_measure", runs=[("adaptive", 0), ("noisy", 1), ("classic", 2)],
             diverging=(), ridge=0.2, init_scale=0.5, eta0=1.0, steps=2 * SAMPLE_BLOCK + 5,
             eval_every=1)
    # ridge-free runs fold decay factors of exactly 1.0, a record's fold across a block edge too
    @example(world_name="convergence", runs=[("adaptive", 0), ("classic", 1), ("adaptive", 2)],
             diverging=(), ridge=0.0, init_scale=0.5, eta0=1.0, steps=2 * SAMPLE_BLOCK + 5,
             eval_every=1)
    # run 1 first diverges at step 63, the ninth record of its block
    @example(world_name="appendix", runs=[("adaptive", 0), ("late", 1), ("classic", 2)],
             diverging=(), ridge=0.01, init_scale=0.5, eta0=1.0, steps=SAMPLE_BLOCK + 1,
             eval_every=7)
    def test_each_run_keeps_its_bits(self, world_name, runs, diverging, ridge, init_scale, eta0,
                                     steps, eval_every):
        # each run against its reference alone; with a diverging run, the stack raises at the
        # first record where some run's loss is not finite, naming the first such run
        tables = self.tables(world_name, ridge)
        config = TrainerConfig(eta0=eta0, steps=steps, ridge=ridge, seed=99,
                               eval_every=eval_every, init_scale=init_scale)
        runs = [("diverging", seed) if s % len(runs) in {d % len(runs) for d in diverging}
                else (kind, seed) for s, (kind, seed) in enumerate(runs)]
        stack = [(tables[kind], seed) for kind, seed in runs]
        refs, diverged = [], []
        with np.errstate(over="ignore", invalid="ignore"):
            for s, (compiled, seed) in enumerate(stack):
                try:
                    refs.append(reference_sgd(compiled, config, seed))
                except NonFiniteLoss as alone:
                    diverged.append((int(str(alone).split("step ")[1]), s))
            if diverged:
                with pytest.raises(NonFiniteLoss) as raised:
                    train_stack(stack, config)
                step, s = min(diverged)
                assert str(raised.value) == f"loss diverged at step {step} (stack run {s})"
                return
            got = train_stack(stack, config)
        for (theta, trace), (ref_theta, ref_trace) in zip(got, refs, strict=True):
            assert theta.tobytes() == ref_theta.tobytes()
            for name in self.TRACE_COLUMNS:
                assert getattr(trace, name).tobytes() == getattr(ref_trace, name).tobytes(), name

    def test_diverging_run_names_the_step(self, world):
        compiled = compile_objective(adaptive_g(), world, 0.01)
        # targets far outside the simplex: the first step overflows the logits
        broken = dataclasses.replace(compiled, targets=compiled.targets * 1e307)
        config = TrainerConfig(eta0=40.0, steps=50, ridge=0.01, eval_every=5, init_scale=0.5)
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteLoss) as alone:
                reference_sgd(broken, config, 2)
            step = int(str(alone.value).split("step ")[1])
            with pytest.raises(NonFiniteLoss, match=rf"at step {step} \(stack run 1\)"):
                train_stack([(compiled, 1), (broken, 2)], config)

    @staticmethod
    def record_sizes(monkeypatch) -> list:
        """The records of each stacked record evaluation (one ``log_softmax`` call each)."""
        sizes, log_softmax = [], distill.log_softmax

        def counted(th):
            sizes.append(len(th))
            return log_softmax(th)

        monkeypatch.setattr(distill, "log_softmax", counted)
        return sizes

    def test_bundled_rate_records_are_one_evaluation(self, monkeypatch):
        # the benchmark's rate run: 2 seeds x 50,000 steps over 49 sample blocks, a record every
        # 250 steps; its 201 records wait for one another (one evaluation per block before)
        cfg = parse_config_dict(bundled_doc("rate"))
        compiled = compile_objective(cfg.operator, cfg.world, cfg.trainer.ridge)
        sizes = self.record_sizes(monkeypatch)
        train_stack([(compiled, cfg.trainer.seed + s) for s in range(2)], cfg.trainer)
        assert sum(sizes) == 201 and len(sizes) <= 2

    def test_dense_records_are_evaluated_block_by_block(self, world, monkeypatch):
        # a record every step: the records pending are evaluated once SAMPLE_BLOCK of them
        # wait, so no evaluation holds two blocks of them
        compiled = compile_objective(adaptive_g(), world, 0.01)
        config = TrainerConfig(steps=3 * SAMPLE_BLOCK + 1, ridge=0.01, eval_every=1)
        sizes = self.record_sizes(monkeypatch)
        train_stack([(compiled, 0), (compiled, 1)], config)
        assert sum(sizes) == 3 * SAMPLE_BLOCK + 2
        assert len(sizes) >= sum(sizes) // SAMPLE_BLOCK and max(sizes) < 2 * SAMPLE_BLOCK

    def test_dense_records_fold_in_bounded_memory(self):
        # a record every step: a row's copies between two of its steps share one chain of
        # decays, so the fold holds each factor once per copy, not once per (record, copy)
        # pair (a fold per pair peaks at about 104 MiB here)
        compiled = self.tables("zero_measure", 0.01)["adaptive"]
        config = TrainerConfig(steps=SAMPLE_BLOCK + 1, ridge=0.01, eval_every=1)
        tracemalloc.start()
        try:
            train_stack([(compiled, 0), (compiled, 1)], config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 28 * 2**20  # about 2x the 14 MiB measured

    def test_deferred_divergence_names_its_step(self, world, monkeypatch):
        # run 1 diverges in the first sample block; its records wait three more blocks, and the
        # one evaluation at the end names the first record at which it diverged
        compiled = compile_objective(adaptive_g(), world, 0.01)
        broken = dataclasses.replace(compiled, targets=compiled.targets * 1e307)
        config = TrainerConfig(eta0=40.0, steps=3 * SAMPLE_BLOCK + 1, ridge=0.01,
                               eval_every=250, init_scale=0.5)
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteLoss, match="at step 250$"):
                reference_sgd(broken, config, 2)
            sizes = self.record_sizes(monkeypatch)
            with pytest.raises(NonFiniteLoss) as raised:
                train_stack([(compiled, 1), (broken, 2)], config)
        assert str(raised.value) == "loss diverged at step 250 (stack run 1)"
        assert sizes == [14]  # steps 0, 250, ..., 3000 and 3073

    def test_runs_must_share_world_shape_and_ridge(self, world):
        compiled = compile_objective(adaptive_g(), world, 0.01)
        config = TrainerConfig(steps=10, ridge=0.01)
        other_world = compile_objective(adaptive_g(), appendix_world(), 0.01)
        cut = dataclasses.replace(compiled, targets=compiled.targets[:, :, :1])
        for bad, message in ((other_world, "another world"), (cut, "target table shape"),
                             (_uniform_compiled(world, 0.0), "ridge")):
            with pytest.raises(MskdError, match=message):
                train_stack([(compiled, 0), (bad, 0)], config)
        with pytest.raises(MskdError, match="at least one run"):
            train_stack([], config)


class TestFullBatch:
    def test_monotone_descent(self, world):
        g = adaptive_g()
        ridge = 0.01
        compiled = compile_objective(g, world, ridge)
        eta = 1.0 / (1.0 + ridge)
        theta = np.random.default_rng(2).normal(size=(len(world.inputs), world.vocab.size))
        prev = compiled.loss(theta)
        for _ in range(200):
            theta = theta - eta * compiled.grad(theta)
            cur = compiled.loss(theta)
            assert cur <= prev + 1e-12
            prev = cur

    def test_solver_reaches_tolerance(self, world):
        compiled = compile_objective(adaptive_g(), world, 0.01)
        theta = solve_compiled(compiled, gtol=1e-10)
        assert np.linalg.norm(compiled.grad(theta)) <= 1e-10

    def test_exhausted_line_search_leaves_the_block(self):
        # f is flat, so no step passes the Armijo test: the solver must keep
        # every row where it is rather than creep along the halved step
        theta0 = np.array([[1.0, -2.0, 0.5], [0.25, 0.0, -1.0]])
        def block(xi, rows):
            return np.zeros(len(xi)), rows.copy(), rows

        def block_hessians(xi, p):
            return np.tile(np.eye(p.shape[1]), (len(xi), 1, 1))

        np.testing.assert_array_equal(
            distill.minimize_blockwise(theta0, block, block_hessians, gtol=1e-10), theta0)

    def test_last_halving_is_tried(self):
        # f(x) = -x + K x^2 at x = 0 with the direction d = 1: the Armijo test
        # passes for steps up to 0.9999 / K: only the last trial, 2**-46, does
        k = 0.75 * 2.0 ** 46
        def block(xi, rows):
            return -rows[:, 0] + k * rows[:, 0] * rows[:, 0], 2.0 * k * rows - 1.0, rows

        def block_hessians(xi, p):
            return np.ones((len(xi), 1, 1))

        theta0 = np.zeros((1, 1))
        got = distill.minimize_blockwise(theta0, block, block_hessians, gtol=0.0, max_iter=1)
        def ref_fgh(xi, row):
            f, g, p = block([xi], row[None])
            return f[0], g[0], block_hessians([xi], p)[0]

        ref = reference_newton(theta0, ref_fgh, gtol=0.0, max_iter=1)
        assert got.tobytes() == ref.tobytes() == np.array([[2.0 ** -46]]).tobytes()

    def test_ridge_free_optimum_is_log_target(self, world):
        compiled = compile_objective(adaptive_g(), world, 0.0)
        theta = solve_compiled(compiled)
        np.testing.assert_allclose(np.linalg.norm(compiled.grad(theta)), 0.0, atol=1e-14)
        # the per-input aggregate target is matched exactly, so its KL vanishes
        for xi in range(theta.shape[0]):
            p = softmax(theta[xi])
            q = compiled.qbar[xi]
            kl = float(np.sum(q * (np.log(q) - np.log(p))))
            assert abs(kl) <= 1e-12


class TestRandomWorlds:
    """Gradient correctness over randomly generated worlds."""

    @staticmethod
    def _random_world(rng):
        from mskd.core import (ContextSpec, InputSpec, TaskSpec, TeacherBank,
                               VocabularySpec, World)
        v = int(rng.integers(3, 7))
        k = int(rng.integers(2, 5))
        n_inputs = int(rng.integers(2, 5))
        n_tasks = int(rng.integers(1, 3))
        n_ctx = int(rng.integers(1, 3))
        inputs = tuple(InputSpec(i, rng.normal(size=2)) for i in range(n_inputs))
        importances = rng.dirichlet(np.ones(n_tasks))
        tasks = tuple(
            TaskSpec(j, tuple(range(n_inputs)), rng.dirichlet(np.ones(n_inputs)),
                     importances[j])
            for j in range(n_tasks))
        mu = rng.dirichlet(np.ones(n_ctx))
        contexts = tuple(ContextSpec(c, rng.normal(size=1), mu[c],
                                     bool(rng.integers(0, 2)))
                         for c in range(n_ctx))
        table = {(x, c): rng.dirichlet(np.ones(v), size=k)
                 for x in range(n_inputs) for c in range(n_ctx)}
        perf = {j: rng.uniform(0.1, 0.9, size=k) for j in range(n_tasks)}
        bank = TeacherBank(k, table, perf, rng.uniform(0.1, 0.9, size=k))
        return World(VocabularySpec(v), inputs, tasks, contexts, bank)

    def test_gradient_matches_fd_on_100_random_draws(self):
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(10):
            world = self._random_world(rng)
            g = UnifiedWeightOperator(
                TokenOperator("family_a"), TaskOperator("family_c"),
                ContextOperator("family_a"), WeightBounds(1e-3, 0.999))
            compiled = compile_objective(g, world, float(rng.uniform(0, 0.05)))
            for _ in range(10):
                theta = rng.normal(size=(len(world.inputs), world.vocab.size))
                grad = compiled.grad(theta)
                for _ in range(5):
                    xi = int(rng.integers(0, theta.shape[0]))
                    i = int(rng.integers(0, theta.shape[1]))
                    bump = np.zeros_like(theta)
                    bump[xi, i] = h
                    fd = (compiled.loss(theta + bump)
                          - compiled.loss(theta - bump)) / (2 * h)
                    assert abs(fd - grad[xi, i]) <= 1e-6


class TestRateNonDegradation:
    def test_adaptive_and_uniform_slopes_agree(self, world):
        fits = {}
        for name, g in (("adaptive", adaptive_g()),
                        ("uniform", uniform_unified(WIDE))):
            cfg = TrainerConfig(eta0=40.0, steps=30_000, ridge=0.01, eval_every=300,
                                init_scale=0.5)
            compiled = compile_objective(g, world, 0.01)
            loss_star = compiled.loss(solve_compiled(compiled, gtol=1e-10))
            traces = [tr for _, tr in train_stack([(compiled, 300 + s) for s in range(6)], cfg)]
            fits[name] = fit_convergence_rate(average_traces(traces), loss_star).slope
        assert abs(fits["adaptive"] - fits["uniform"]) <= 0.2


class TestRateFit:
    def _trace(self, gap_fn, t_grid):
        loss = np.array([2.0 + gap_fn(t) for t in t_grid])
        return TrainTrace(np.array(t_grid), loss, loss * 0, loss * 0,
                          1.0 / (1.0 + np.array(t_grid, dtype=float)))

    def test_exact_inverse_t(self):
        trace = self._trace(lambda t: 5.0 / t, list(range(10, 2000, 50)))
        fit = fit_convergence_rate(trace, 2.0)
        assert fit.slope == pytest.approx(-1.0, abs=1e-6)
        assert fit.constant == pytest.approx(5.0, abs=1e-6)

    def test_square_root_control(self):
        trace = self._trace(lambda t: 3.0 / math.sqrt(t), list(range(10, 2000, 50)))
        fit = fit_convergence_rate(trace, 2.0)
        assert fit.slope == pytest.approx(-0.5, abs=1e-6)

    def test_insufficient_trace(self):
        trace = self._trace(lambda t: 1.0 / t, [1, 2, 3, 4, 5])
        with pytest.raises(InsufficientTrace):
            fit_convergence_rate(trace, 2.0)

    def test_average_traces_requires_same_grid(self):
        t1 = self._trace(lambda t: 1.0 / t, [1, 2, 3] + list(range(10, 100, 10)))
        avg = average_traces([t1, t1])
        np.testing.assert_array_equal(avg.loss, t1.loss)

    def test_average_of_no_traces_is_a_typed_error(self):
        with pytest.raises(MskdError, match="no traces to average"):
            average_traces([])


class TestNoisyTrain:
    def test_zero_delta_identical_to_clean(self, world):
        cfg = TrainerConfig(eta0=1.0, steps=400, ridge=0.01, seed=3, eval_every=100)
        g = adaptive_g(WeightBounds(0.05, 0.95))
        (clean, t_clean), (noisy, t_noisy) = train_stack(
            [(compile_objective(g, world, cfg.ridge), cfg.seed),
             (noisy_compiled(g, world, 0.0, cfg.ridge, cfg.seed), cfg.seed)], cfg)
        assert np.array_equal(clean, noisy)
        assert np.array_equal(t_clean.loss, t_noisy.loss)

    def test_margin_violation_raises(self, world):
        g = adaptive_g(WeightBounds(0.05, 0.95))
        with pytest.raises(MarginViolated):
            noisy_compiled(g, world, 0.44, 0.01, 3)

    def test_terminal_gap_scales_with_delta(self, world):
        g = adaptive_g(WeightBounds(0.05, 0.95))
        clean = compile_objective(g, world, 0.01)
        loss_star = clean.loss(solve_compiled(clean, gtol=1e-10))
        deltas = [0.001, 0.01, 0.05]
        cfg = TrainerConfig(eta0=40.0, steps=30_000, ridge=0.01, seed=11,
                            eval_every=6000, init_scale=0.5)
        # one stack of the three noisy runs, scored on the clean objective
        runs = [(noisy_compiled(g, world, d, cfg.ridge, cfg.seed), cfg.seed) for d in deltas]
        gaps = [clean.loss(theta) - loss_star for theta, _ in train_stack(runs, cfg)]
        d = np.array(deltas)
        gp = np.array(gaps)
        slope = float(np.sum(gp * d) / np.sum(d * d))
        r2 = 1.0 - float(np.sum((gp - slope * d) ** 2) / np.sum(gp ** 2))
        assert r2 >= 0.9


TOKEN_FAMILIES = ("uniform", "inverse_entropy", "family_a", "family_b", "family_c")


@functools.lru_cache(maxsize=None)
def _row_world(name):
    return conformance_world() if name == "conformance" else zero_entry_world()


class TestCompileObjective:
    def test_each_scale_evaluated_once_on_its_domain(self):
        world = conformance_world()
        calls = {"token": 0, "task": 0, "context": 0}

        def counted(scale):
            def fn(*args):
                calls[scale] += 1
                return uniform_weights(args[-2].k, args[-1])
            return fn

        g = UnifiedWeightOperator(TokenOperator("custom", fn=counted("token")),
                                  TaskOperator("custom", fn=counted("task")),
                                  ContextOperator("custom", fn=counted("context")), WIDE)
        compile_objective(g, world)
        n_cells = len(world.inputs) * len(world.contexts)  # a custom token operator: every token
        assert calls == {"token": n_cells * world.vocab.size,
                         "task": len(world.tasks), "context": len(world.contexts)}

    @pytest.mark.parametrize("token_op,n_rows", [
        (TokenOperator("family_a", safety_tokens=frozenset({0, 1})), 2),
        # a custom operator that sets each safety token apart: one row per token
        (TokenOperator("custom", fn=lambda x, i, c, bank, bounds:
                       np.arange(3.0, bank.k + 3) + {0: 0.5, 1: 1.0}.get(i, 0.0)), 6),
    ], ids=["family_a", "custom"])
    def test_compact_rows_expand_to_the_weight_table(self, token_op, n_rows):
        world = conformance_world()  # safety tokens {0, 1}, V = 6
        g = UnifiedWeightOperator(token_op, TaskOperator("family_c"), ContextOperator("family_b"),
                                  WIDE)
        compiled = compile_objective(g, world)
        rows, slot = compiled.rows, compiled.slot
        assert rows.shape == (len(world.tasks), len(world.inputs), len(world.contexts),
                              n_rows, world.bank.k)
        assert slot.shape == (world.vocab.size,)
        table = rows.take(slot, axis=-2)
        assert table.tobytes() == g.weight_table(world).tobytes()
        for tj, t in enumerate(world.tasks):
            for xi, x in enumerate(world.inputs):
                for ci, c in enumerate(world.contexts):
                    for i in range(world.vocab.size):
                        expect = g.unified_weight(x.id, i, t.id, c.id, world)
                        assert table[tj, xi, ci, i].tobytes() == expect.tobytes()

    @given(world_name=st.sampled_from(["conformance", "zero_entries"]),
           family=st.sampled_from([*TOKEN_FAMILIES, "custom"]), adjustment=st.booleans(),
           safety=st.one_of(st.sampled_from(["empty", "vocab", "all", "disjoint"]),
                            st.frozensets(st.integers(0, 9))),
           task=st.sampled_from(["uniform", "family_c"]),
           context=st.sampled_from(["uniform", "family_b"]))
    @example("conformance", "custom", True, "empty", "uniform", "uniform")
    @example("conformance", "family_a", True, frozenset({2}), "uniform", "uniform")
    @settings(max_examples=40, deadline=None)
    def test_token_operator_decides_the_rows(self, world_name, family, adjustment, safety, task,
                                             context):
        # the token operator alone maps tokens to rows, so the compiled rows equal
        # unified_weight at every point, whatever its safety set and the vocabulary's
        world = _row_world(world_name)
        v, tokens = world.vocab.size, frozenset(range(world.vocab.size))
        safety = {"empty": frozenset(), "vocab": world.vocab.safety_tokens, "all": tokens,
                  "disjoint": tokens - world.vocab.safety_tokens}.get(safety, safety)
        token_op = TokenOperator(
            family, alpha=1.3, safety_tokens=safety & tokens, safety_adjustment=adjustment,
            fn=lambda x, i, c, bank, bounds: np.arange(3.0, bank.k + 3) + i + 0.1 * x + 0.01 * c)
        g = UnifiedWeightOperator(token_op, TaskOperator(task), ContextOperator(context), WIDE)
        compiled = compile_objective(g, world)
        assert compiled.rows.shape[-2] <= (v if family == "custom" else 2)
        table = compiled.rows.take(compiled.slot, axis=-2)
        for tj, t in enumerate(world.tasks):
            for xi, x in enumerate(world.inputs):
                for ci, c in enumerate(world.contexts):
                    for i in range(v):
                        expect = g.unified_weight(x.id, i, t.id, c.id, world)
                        assert table[tj, xi, ci, i].tobytes() == expect.tobytes(), \
                            (t.id, x.id, c.id, i)

    def test_noise_stream_drawn_cell_by_cell_in_order(self):
        world = conformance_world()
        g = UnifiedWeightOperator(TokenOperator("family_a", safety_tokens=world.vocab.safety_tokens),
                                  TaskOperator("family_c"), ContextOperator("family_b"), WIDE)
        delta = 0.004
        noisy = noisy_compiled(g, world, delta, 0.0, 5)
        table, rng = g.weight_table(world), seeded_sampler(5).spawn(3)[2]
        for tj in range(len(world.tasks)):
            for xi, x in enumerate(world.inputs):
                for ci, c in enumerate(world.contexts):
                    rows = table[tj, xi, ci]
                    rows = rows + rng.uniform(-delta, delta, size=rows.shape)
                    rows = np.vstack([normalize_exact(r) for r in rows])
                    expect = renormalized_mixture(rows, world.bank.dists(x.id, c.id))
                    assert noisy.targets[tj, xi, ci].tobytes() == expect.tobytes()


    def test_invalid_target_rejected(self):
        # weights (-2, 3) mix the appendix teachers into a negative first entry
        world = appendix_world()
        rows = np.broadcast_to([-2.0, 3.0], (1, 1, 1, world.vocab.size, 2))
        with pytest.raises(NegativeMass):
            _densify(world, 0.0, rows, np.arange(world.vocab.size))


class TestTraceSerialization:
    def test_round_trip_columns(self, tmp_path):
        doc = bundled_doc("train")
        doc["trainer"].update(steps=200, eval_every=50)
        cfg = parse_config_dict(doc)
        out = emit_summary(run_experiment(cfg), tmp_path, quiet=True)
        _, trace = sgd_train(cfg.trainer, cfg.operator, cfg.world)
        lines = (out / "trace.csv").read_text().strip().split("\n")
        assert lines[0] == "step,loss,mean_kl,grad_norm,lr"
        assert len(lines) == len(trace.steps) + 1
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == trace.loss[0]
