"""Acceptance suite: one test per criterion, each printing its verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance is pinned here; the heavyweight runs (the ten-seed
convergence study) are shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from mskd.composition import UnifiedWeightOperator, uniform_unified, weighted_ensemble
from mskd.core import WeightBounds, entropy, seeded_sampler
from mskd.distill import (
    TrainerConfig,
    average_traces,
    classic_uniform_train,
    compile_objective,
    fit_convergence_rate,
    sgd_train,
    solve_compiled,
    train_stack,
)
from mskd.dynamics import (
    WeightUpdateConfig,
    estimate_contraction,
    gradient_variance_ratio,
    iterate_to_fixed_point,
    perturbation_experiment,
    sample_feasible_weights,
)
from mskd.operators import (
    ContextOperator,
    TaskOperator,
    TokenOperator,
    check_conformance,
    check_pareto_compat,
    inverse_entropy_weights_from_entropies,
    uniform_weights,
)
from mskd.safety import (
    SafetyConfig,
    dual_ascent_solve,
    jensen_preservation_check,
    kkt_residuals,
    pareto_sweep,
)
from mskd.runner import identical_teachers_world

from fixture_worlds import (
    appendix_world,
    conformance_world,
    convergence_world,
    safety_world,
    safety_world_labels,
)
from reference_measures import effective_bounds

# the Appendix A teacher rows
APPENDIX_TEACHER_1 = (0.8, 0.15, 0.05)
APPENDIX_TEACHER_2 = (0.4, 0.35, 0.25)

WIDE = WeightBounds(0.01, 0.99)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def adaptive_g(bounds=WIDE):
    return UnifiedWeightOperator(TokenOperator("family_a"), TaskOperator("family_c"),
                                 ContextOperator("family_a"), bounds)


@pytest.fixture(scope="module")
def toy_world():
    return convergence_world()


@pytest.fixture(scope="module")
def convergence_runs(toy_world):
    """Ten seeded runs of the adaptive trainer on the toy world, in one stack."""
    g = adaptive_g()
    cfg = TrainerConfig(eta0=40.0, steps=50_000, ridge=0.01, eval_every=250, init_scale=0.5)
    t0 = time.perf_counter()
    compiled = compile_objective(g, toy_world, 0.01)
    traces = [trace for _, trace in train_stack([(compiled, 100 + s) for s in range(10)], cfg)]
    elapsed = time.perf_counter() - t0
    loss_star = compiled.loss(solve_compiled(compiled, gtol=1e-10))
    return g, traces, loss_star, elapsed


def test_criterion_1_appendix_golden():
    t0 = time.perf_counter()
    w = inverse_entropy_weights_from_entropies([0.68, 1.52], WIDE)
    dists = np.array([APPENDIX_TEACHER_1, APPENDIX_TEACHER_2])
    q_uniform = weighted_ensemble([0.5, 0.5], dists)
    q_adaptive = weighted_ensemble(w, dists)
    elapsed = time.perf_counter() - t0
    ok = (abs(w[0] - 0.69) <= 0.005 and abs(w[1] - 0.31) <= 0.005
          and np.all(np.abs(q_uniform - np.array([0.6, 0.25, 0.15])) <= 1e-12)
          and np.all(np.abs(q_adaptive - np.array([0.676, 0.212, 0.112])) <= 5e-4)
          and q_adaptive[0] - q_uniform[0] >= 0.07
          and elapsed < 1.0)
    report(1, ok, f"weights=({w[0]:.4f},{w[1]:.4f}) q_adaptive(a)={q_adaptive[0]:.4f} "
                  f"gain={q_adaptive[0]-q_uniform[0]:+.4f} runtime={elapsed:.3f}s (<1s)")


def test_criterion_2_conformance_all_families():
    t0 = time.perf_counter()
    sharp = conformance_world("sharp_safe")
    flat = conformance_world("flat_safe")
    bounds = WeightBounds(0.02, 0.9, lipschitz=25.0)
    failures = []
    worst_l = 0.0
    for fam in ("uniform", "inverse_entropy", "family_a", "family_b", "family_c"):
        world = flat if fam == "family_b" else sharp
        ops = (("token", TokenOperator(fam, safety_tokens=world.vocab.safety_tokens)),
               ("task", TaskOperator(fam)),
               ("context", ContextOperator(fam)))
        for scale, op in ops:
            rep = check_conformance(op, scale, world, bounds, seeded_sampler(11), 1000)
            worst_l = max(worst_l, rep.lipschitz_estimate)
            if not rep.all_passed:
                failures.append((fam, scale, rep.failures()))
    pareto_ok = check_pareto_compat()
    elapsed = time.perf_counter() - t0
    ok = not failures and pareto_ok and elapsed < 10.0
    report(2, ok, f"15 family/scale pairs x 1000 points, failures={failures}, "
                  f"max Lipschitz ratio={worst_l:.2f} (declared 25), "
                  f"runtime={elapsed:.2f}s (<10s)")


def test_criterion_3_nonuniqueness_witness():
    world = appendix_world()
    wa = TokenOperator("family_a").weights(0, 0, 0, world.bank, WIDE)
    wb = TokenOperator("family_b").weights(0, 0, 0, world.bank, WIDE)
    gap = float(np.max(np.abs(wa - wb)))
    conform = []
    for fam in ("family_a", "family_b"):
        rep = check_conformance(TokenOperator(fam), "token", world, WIDE,
                                seeded_sampler(4), 1000)
        conform.append(rep.all_passed)
    ok = gap > 0.1 and all(conform)
    report(3, ok, f"family A vs B infinity-gap={gap:.3f} (>0.1), both conform={all(conform)}")


def test_criterion_4_uniform_special_case(toy_world):
    cfg = TrainerConfig(eta0=1.0, steps=10_000, ridge=0.01, seed=7, eval_every=500)
    theta_uni, t_uni = sgd_train(cfg, uniform_unified(WIDE), toy_world)
    theta_classic, t_classic = classic_uniform_train(cfg, toy_world)
    ok = (np.array_equal(theta_uni, theta_classic)
          and np.array_equal(t_uni.loss, t_classic.loss)
          and np.array_equal(t_uni.mean_kl, t_classic.mean_kl)
          and np.array_equal(t_uni.grad_norm, t_classic.grad_norm))
    report(4, ok, "all-uniform adaptive trainer == classic uniform trainer, "
                  f"bit-for-bit over {cfg.steps} steps at seed {cfg.seed}")


def test_criterion_5_convergence(toy_world, convergence_runs):
    g, traces, loss_star, run_time = convergence_runs
    t0 = time.perf_counter()
    terminal_kl = float(np.mean([tr.mean_kl[-1] for tr in traces]))
    fit = fit_convergence_rate(average_traces(traces), loss_star)
    # analytic gradient vs central differences on random logits
    compiled = compile_objective(g, toy_world, 0.01)
    rng = np.random.default_rng(0)
    worst_fd = 0.0
    h = 1e-5
    for _ in range(3):
        theta = rng.normal(size=(len(toy_world.inputs), toy_world.vocab.size))
        grad = compiled.grad(theta)
        for _ in range(30):
            xi = int(rng.integers(0, theta.shape[0]))
            i = int(rng.integers(0, theta.shape[1]))
            bump = np.zeros_like(theta)
            bump[xi, i] = h
            fd = (compiled.loss(theta + bump) - compiled.loss(theta - bump)) / (2 * h)
            worst_fd = max(worst_fd, abs(fd - grad[xi, i]))
    elapsed = run_time + (time.perf_counter() - t0)
    ok = (terminal_kl <= 1e-3 and -1.3 <= fit.slope <= -0.7
          and worst_fd <= 1e-6 and elapsed < 120.0)
    report(5, ok, f"10-seed terminal mean KL={terminal_kl:.2e} (<=1e-3), "
                  f"log-log slope={fit.slope:.3f} (in [-1.3,-0.7]), "
                  f"grad-vs-fd={worst_fd:.2e} (<=1e-6), runtime={elapsed:.1f}s (<120s)")


def test_criterion_6_fixed_point():
    world = appendix_world()
    bounds = WeightBounds(0.05, 0.95)
    cfg = WeightUpdateConfig(beta=0.3, max_iters=2000, tol=1e-10)
    sampler = seeded_sampler(5)
    rho = estimate_contraction(cfg, world, bounds, sampler, 200)
    trace, = iterate_to_fixed_point(uniform_weights(2, bounds), cfg, world, bounds)
    w_star = trace.w_star
    d0 = float(np.max(np.abs(trace.iterates[0] - w_star)))
    envelope = all(
        float(np.max(np.abs(it - w_star))) <= rho ** n * d0 * (1 + 1e-6) + 1e-12
        for n, it in enumerate(trace.iterates))
    spread = 0.0
    for _ in range(10):
        w0 = sample_feasible_weights(2, bounds, sampler)
        tr, = iterate_to_fixed_point(w0, cfg, world, bounds)
        spread = max(spread, float(np.max(np.abs(tr.w_star - w_star))))
    control = identical_teachers_world(3)
    rho_control = estimate_contraction(cfg, control, WeightBounds(0.01, 0.99),
                                       seeded_sampler(6), 100)
    ok = (rho < 1.0 and trace.converged and envelope and spread <= 1e-6
          and abs(rho_control - 0.7) <= 1e-9)
    report(6, ok, f"rho_hat={rho:.4f} (<1), envelope={envelope}, "
                  f"10-start spread={spread:.2e} (<=1e-6), "
                  f"control |rho-(1-beta)|={abs(rho_control-0.7):.2e} (<=1e-9)")


def test_criterion_7_perturbation(toy_world):
    res = perturbation_experiment(adaptive_g(), toy_world, [1e-3, 1e-2, 1e-1],
                                  ridge=0.01, seed=0)
    ok = res.r_squared >= 0.95 and res.ratio_spread <= 3.0
    report(7, ok, f"distance=C*delta fit: R^2={res.r_squared:.6f} (>=0.95), "
                  f"max/min(distance/delta)={res.ratio_spread:.4f} (<=3)")


def test_criterion_8_gradient_variance(toy_world):
    rng = np.random.default_rng(1)
    theta = rng.normal(size=(len(toy_world.inputs), toy_world.vocab.size))
    families = ("family_a", "family_b", "family_c", "inverse_entropy")
    ops = [UnifiedWeightOperator(TokenOperator(fam), TaskOperator("family_c"),
                                 ContextOperator("family_a"), WIDE) for fam in families]
    *results, uni = gradient_variance_ratio([*ops, uniform_unified(WIDE)], toy_world, theta,
                                            10_000, seed=2)
    bad = [fam for fam, res in zip(families, results)
           if res.measured > res.bound * (1 + 1e-12)]
    rel = abs(uni.measured - uni.base) / uni.base
    ok = not bad and rel <= 0.02
    report(8, ok, f"adaptive families within (w_max/w_min)^2 bound over 1e4 samples "
                  f"(violations={bad}), uniform |measured-base|/base={rel:.2e} (<=2%)")


def test_criterion_9_safety():
    t0 = time.perf_counter()
    world = safety_world()
    labels = safety_world_labels()
    g = adaptive_g(WeightBounds(0.05, 0.95))
    trainer = TrainerConfig(eta0=1.0, steps=100, ridge=0.01, seed=0, eval_every=50)
    cfg = SafetyConfig(0.8, labels, dual_step=40.0)
    compiled = compile_objective(g, world, trainer.ridge)
    res = dual_ascent_solve(compiled, cfg)
    kk = kkt_residuals(compiled, res.theta, res.mu, cfg)
    inactive = dual_ascent_solve(compiled, SafetyConfig(0.3, labels, dual_step=40.0))
    points = pareto_sweep(compiled, cfg, np.linspace(0.0, 6.0, 20))  # at ridge 0.01 too
    safeties = np.array([p[2] for p in points])
    losses = np.array([p[1] for p in points])
    monotone = bool(np.all(np.diff(safeties) >= -1e-9)
                    and np.all(np.diff(losses) >= -1e-9))
    jns = jensen_preservation_check(g, world, cfg)
    elapsed = time.perf_counter() - t0
    kkt_worst = max(kk.stationarity, kk.slackness, kk.primal_violation, kk.dual_violation)
    ok = (kkt_worst <= 1e-3 and inactive.mu == 0.0 and monotone
          and jns.student_safety >= jns.ensemble_safety - 1e-3
          and elapsed < 120.0)
    report(9, ok, f"KKT=({kk.stationarity:.1e},{kk.slackness:.1e},"
                  f"{kk.primal_violation:.1e},{kk.dual_violation:.1e}) all<=1e-3, "
                  f"inactive mu*={inactive.mu}, 20-point sweep monotone={monotone}, "
                  f"student>=ensemble-1e-3: {jns.student_safety:.4f}>="
                  f"{jns.ensemble_safety:.4f}-1e-3, runtime={elapsed:.1f}s (<120s)")


def test_criterion_10_composition():
    world = conformance_world("sharp_safe")
    bounds = WeightBounds(0.05, 0.75)
    g = UnifiedWeightOperator(
        TokenOperator("family_a", safety_tokens=world.vocab.safety_tokens),
        TaskOperator("family_c"), ContextOperator("family_a"), bounds)
    lo, hi = effective_bounds(bounds, world.bank.k)
    sampler = seeded_sampler(9)
    worst_norm = 0.0
    worst_log = 0.0
    bounds_ok = True
    for _ in range(1000):
        x = world.inputs[int(sampler.integers(0, len(world.inputs)))].id
        i = int(sampler.integers(0, world.vocab.size))
        t = world.tasks[int(sampler.integers(0, len(world.tasks)))].id
        c = world.contexts[int(sampler.integers(0, len(world.contexts)))].id
        w = g.unified_weight(x, i, t, c, world)
        worst_norm = max(worst_norm, abs(float(w.sum()) - 1.0))
        if np.any(w < lo - 1e-12) or np.any(w > hi + 1e-12):
            bounds_ok = False
        w_tok, w_task, w_ctx = g.components(x, i, t, c, world)
        lu = np.log(w_tok * w_task * w_ctx)
        worst_log = max(worst_log, float(np.max(np.abs(lu - (np.log(w_tok) + np.log(w_task)
                                                             + np.log(w_ctx))))))
    ok = worst_norm <= 1e-9 and worst_log <= 1e-12 and bounds_ok
    report(10, ok, f"1000 points: |sum-1|<= {worst_norm:.1e} (<=1e-9), "
                   f"log-additivity error<= {worst_log:.1e} (<=1e-12), "
                   f"effective bounds [{lo:.4f},{hi:.4f}] respected={bounds_ok}")
